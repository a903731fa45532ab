"""Per-layer host-time accounting for the traced benchmark run.

The tracer installs wrappers, from the benchmark's own files only, around
the public entry points of each ``repro`` package.  Every wrapped call is a
span; a span's *self time* is its duration minus the durations of the
wrapped spans nested inside it, charged to the span's layer.  Self times
therefore telescope: summed over all spans they equal the summed duration
of the outermost spans, and the remainder of the traced wall clock is
charged to ``other`` -- so the layer ledger adds up to the wall clock by
construction, and the harness checks that it does.

The wrapper's own bookkeeping runs outside its span and lands in the
caller's self time; ``trace.overhead_pct`` (traced against untraced wall)
reports how much that is.

A target that no longer exists is skipped and recorded in
:attr:`LayerTracer.missing`; a layer all of whose targets are missing
reports its metrics as absent instead of failing the run, so deleting a
wrapped name (``Simulator.step``, the CRC helpers) needs no benchmark edit.
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import Counter
from time import perf_counter
from types import FunctionType
from typing import Callable, Dict, List, Optional, Sequence, Tuple

#: (layer, module, target).  ``target`` is a module-level function name
#: (patched in every loaded ``repro`` module that binds it, i.e. where the
#: name is looked up), ``Class.method``, or ``Class.*`` for every public
#: method the class itself defines.
TARGETS: List[Tuple[str, str, str]] = [
    ("sim", "repro.sim.kernel", "Simulator.run"),
    ("sim", "repro.sim.kernel", "Simulator.run_until_signal"),
    ("sim", "repro.sim.kernel", "Simulator.step"),
    ("sim", "repro.sim.kernel", "Simulator.call_at"),
    ("sim", "repro.sim.kernel", "Simulator.call_after"),
    ("sim", "repro.sim.kernel", "Simulator.trigger_after"),
    ("dmi.crc", "repro.dmi.crc", "crc16"),
    ("dmi.crc", "repro.dmi.crc", "append_crc"),
    ("dmi.crc", "repro.dmi.crc", "check_crc"),
    ("dmi.codec", "repro.dmi.frames", "CommandHeader.pack"),
    ("dmi.codec", "repro.dmi.frames", "CommandHeader.unpack"),
    ("dmi.codec", "repro.dmi.frames", "DataChunk.pack"),
    ("dmi.codec", "repro.dmi.frames", "DataChunk.unpack"),
    ("dmi.codec", "repro.dmi.frames", "DoneNotice.pack"),
    ("dmi.codec", "repro.dmi.frames", "DownstreamFrame.pack"),
    ("dmi.codec", "repro.dmi.frames", "DownstreamFrame.unpack"),
    ("dmi.codec", "repro.dmi.frames", "UpstreamFrame.pack"),
    ("dmi.codec", "repro.dmi.frames", "UpstreamFrame.unpack"),
    ("dmi.codec", "repro.dmi.frames", "TrainingFrame.pack"),
    ("dmi.codec", "repro.dmi.frames", "TrainingFrame.unpack"),
    ("dmi.scramble", "repro.dmi.scrambler", "BundleScrambler.*"),
    ("dmi.link", "repro.dmi.link", "SerialLink.send"),
    ("processor", "repro.processor.power8", "Power8Socket.read_line"),
    ("processor", "repro.processor.power8", "Power8Socket.write_line"),
    ("buffer", "repro.buffer.base", "MemoryBuffer.handle_command"),
    ("memory", "repro.memory.ddr3_controller", "MemoryController.submit_read"),
    ("memory", "repro.memory.ddr3_controller", "MemoryController.submit_write"),
    ("storage", "repro.storage.pmem", "PmemRegion.read"),
    ("storage", "repro.storage.pmem", "PmemRegion.write"),
    ("storage", "repro.storage.pmem", "PmemRegion.persist"),
    ("storage", "repro.storage.block", "BlockDevice.submit_read"),
    ("storage", "repro.storage.block", "BlockDevice.submit_write"),
    ("storage", "repro.storage.pmem", "PmemBlockDevice.submit_read"),
    ("storage", "repro.storage.pmem", "PmemBlockDevice.submit_write"),
    ("storage", "repro.storage.slram", "SlramDevice.submit_read"),
    ("storage", "repro.storage.slram", "SlramDevice.submit_write"),
    ("accel.fft", "repro.accel.fft", "radix2_fft"),
    ("accel.dma", "repro.accel.access_processor", "AccessProcessor.dma_read"),
    ("accel.dma", "repro.accel.access_processor", "AccessProcessor.dma_write"),
    ("telemetry", "repro.telemetry.session", "TraceSession.*"),
    ("telemetry", "repro.telemetry.attribution.journey", "JourneyTracker.*"),
    ("campaign", "repro.campaign.worker", "execute_job"),
    # the experiment runner itself: harness code no layer above claims
    # (workload generators, system assembly, table building)
    ("other", "repro.campaign.worker", "run_experiment"),
    ("firmware", "repro.firmware.boot", "IplFlow.boot"),
]

#: the layers a traced wall clock splits into; ``other`` also takes the
#: time outside every wrapped span
LAYERS: Tuple[str, ...] = tuple(dict.fromkeys(layer for layer, _, _ in TARGETS))

#: frame classes whose ``pack`` counts idle frames (no command, no data)
IDLE_COUNTED = ("DownstreamFrame.pack", "UpstreamFrame.pack")

_METHODS = (FunctionType, classmethod, staticmethod)


class LayerTracer:
    """Installs span wrappers; accumulates self/inclusive time per layer.

    Use as a context manager: wrappers are installed on entry and the
    original attributes restored on exit.
    """

    def __init__(self, targets: Sequence[Tuple[str, str, str]] = TARGETS):
        self.targets = list(targets)
        layers = dict.fromkeys(layer for layer, _, _ in self.targets)
        self.self_s: Dict[str, float] = {layer: 0.0 for layer in layers}
        self.inclusive_s: Dict[str, float] = {layer: 0.0 for layer in layers}
        #: calls per wrapped name (``module:Class.method``)
        self.calls: Counter = Counter()
        self.idle_frames = 0
        #: targets that could not be resolved, as ``module:target``
        self.missing: List[str] = []
        #: layers with at least one installed wrapper
        self.present: set = set()
        # stack of child-time accumulators; the bottom cell collects the
        # duration of outermost spans
        self._stack: List[float] = [0.0]
        self._undo: List[Tuple[object, str, object]] = []

    # -- results -----------------------------------------------------------

    @property
    def outermost_s(self) -> float:
        """Summed duration of spans not nested in another wrapped span."""
        return self._stack[0]

    def calls_of(self, module: str, target: str) -> Optional[int]:
        """Call count of one target, or None if it was not installed."""
        return self.calls.get(f"{module}:{target}")

    # -- installation ------------------------------------------------------

    def __enter__(self) -> "LayerTracer":
        try:
            for layer, module, target in self.targets:
                self._install(layer, module, target)
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self._restore()

    def _restore(self) -> None:
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)

    def _install(self, layer: str, module: str, target: str) -> None:
        try:
            mod = importlib.import_module(module)
        except ImportError:
            mod = None
        cls_name, _, method = target.rpartition(".")
        owner = getattr(mod, cls_name, None) if cls_name else mod
        if method == "*" and isinstance(owner, type):
            names = [name for name, raw in vars(owner).items()
                     if not name.startswith("_") and isinstance(raw, _METHODS)]
        else:
            names = [method]
        installed = False
        for name in names:
            key = f"{module}:{cls_name}.{name}" if cls_name else f"{module}:{name}"
            if isinstance(owner, type):
                installed |= self._install_method(layer, owner, name, key)
            elif owner is not None:
                installed |= self._install_function(layer, owner, name, key)
        if installed:
            self.present.add(layer)
        else:
            self.missing.append(f"{module}:{target}")

    def _install_method(self, layer: str, cls: type, name: str, key: str) -> bool:
        raw = vars(cls).get(name)
        if not isinstance(raw, _METHODS):
            return False
        before = _count_idle(self) if f"{cls.__name__}.{name}" in IDLE_COUNTED else None
        if isinstance(raw, FunctionType):
            wrapped = self._wrap(raw, layer, key, before)
        else:
            wrapped = type(raw)(self._wrap(raw.__func__, layer, key, before))
        self._undo.append((cls, name, raw))
        setattr(cls, name, wrapped)
        return True

    def _install_function(self, layer: str, mod, name: str, key: str) -> bool:
        original = vars(mod).get(name)
        if not isinstance(original, FunctionType):
            return False
        wrapped = self._wrap(original, layer, key)
        # patch every binding of the same object, so callers that imported
        # the name (``from .crc import crc16``) see the wrapper too
        for loaded_name, loaded in list(sys.modules.items()):
            if loaded_name.partition(".")[0] == "repro" and loaded is not None \
                    and vars(loaded).get(name) is original:
                self._undo.append((loaded, name, original))
                setattr(loaded, name, wrapped)
        return True

    def _wrap(self, fn: Callable, layer: str, key: str,
              before: Optional[Callable] = None) -> Callable:
        stack = self._stack
        self_s = self.self_s
        inclusive_s = self.inclusive_s
        calls = self.calls
        calls[key] += 0  # an installed target reads 0 calls, a missing one None

        @functools.wraps(fn)
        def span(*args, **kwargs):
            if before is not None:
                before(args)
            stack.append(0.0)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - t0
                self_s[layer] += elapsed - stack.pop()
                inclusive_s[layer] += elapsed
                stack[-1] += elapsed
                calls[key] += 1

        return span


def _count_idle(tracer: LayerTracer) -> Callable:
    def before(args) -> None:
        if args[0].is_idle:
            tracer.idle_frames += 1
    return before

