"""Memory controller model (the Altera soft DDR3 controller analogue).

Sits between a bus port (Avalon on ConTutto, Centaur internals on a CDIMM)
and a :class:`~repro.memory.device.MemoryDevice`.  Adds the controller
pipeline overhead, bounds the number of requests in flight, and completes
requests through :class:`~repro.sim.event.Signal`.

Enabling a different memory technology on ConTutto "mainly requires changes
only to the memory controller" (Section 3.3(v)) — here that corresponds to
instantiating this controller over a different device and, for non-DRAM
parts, adjusting ``MemoryControllerConfig`` the way the memory vendors'
controller patches did.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ..errors import ConfigurationError
from ..sim import Signal, Simulator
from ..telemetry import probe
from .device import MemoryDevice
from .ecc import UncorrectableEccError


@dataclass(frozen=True)
class MemoryControllerConfig:
    """Controller pipeline parameters."""

    #: command-path latency: decode, bank scheduling, PHY launch
    command_overhead_ps: int = 10_000
    #: return-path latency: read data capture, ECC check, response mux
    response_overhead_ps: int = 8_000
    #: maximum requests the controller holds (beyond that, submits stall)
    queue_depth: int = 16


class MemoryController:
    """A queued, pipelined front end over one memory device."""

    #: advertises the optional ``journey=`` kwarg on submit_read/submit_write
    #: so callers (AvalonBus) can feature-test without importing this module
    accepts_journey = True

    def __init__(
        self,
        sim: Simulator,
        device: MemoryDevice,
        config: MemoryControllerConfig = MemoryControllerConfig(),
        name: str = "",
    ):
        if config.queue_depth <= 0:
            raise ConfigurationError("controller queue depth must be positive")
        self.sim = sim
        self.device = device
        self.config = config
        self.name = name or f"mc.{device.name}"
        self._in_flight = 0
        self._stalled: List[Signal] = []
        # Stats
        self.reads_submitted = 0
        self.writes_submitted = 0
        self.queue_full_stalls = 0
        self.uncorrectable_errors = 0

    @property
    def in_flight(self) -> int:
        return self._in_flight

    @property
    def queue_full(self) -> bool:
        return self._in_flight >= self.config.queue_depth

    # -- submission -----------------------------------------------------------

    def submit_read(
        self, addr: int, nbytes: int, journey: Optional[int] = None
    ) -> Signal:
        """Issue a read; returned signal triggers with the data bytes."""
        done = Signal(f"{self.name}.rd@{addr:#x}")
        self._enqueue(lambda: self._do_read(addr, nbytes, done, journey), journey)
        self.reads_submitted += 1
        trace = probe.session
        if trace is not None:
            if trace.records_spans:
                self._trace_op(trace, done, "rd")
            trace.counters["memory.reads"].count += 1
        return done

    def submit_write(
        self, addr: int, data: bytes, journey: Optional[int] = None
    ) -> Signal:
        """Issue a write; returned signal triggers (with None) on completion."""
        done = Signal(f"{self.name}.wr@{addr:#x}")
        self._enqueue(lambda: self._do_write(addr, data, done, journey), journey)
        self.writes_submitted += 1
        trace = probe.session
        if trace is not None:
            if trace.records_spans:
                self._trace_op(trace, done, "wr")
            trace.counters["memory.writes"].count += 1
        return done

    def _trace_op(self, trace, done: Signal, op: str) -> None:
        """Span one controller operation: submit through completion."""
        t0 = self.sim.now_ps
        done.add_waiter(
            lambda _: trace.complete(
                "memory", f"{op}:{self.name}", t0, self.sim.now_ps
            )
        )

    def _enqueue(self, action, journey: Optional[int] = None) -> None:
        submit_ps = self.sim.now_ps
        if self._in_flight >= self.config.queue_depth:
            self.queue_full_stalls += 1
            gate = Signal(f"{self.name}.stall")
            self._stalled.append(gate)
            gate.add_waiter(lambda _: self._start(action, journey, submit_ps))
        else:
            self._start(action, journey, submit_ps)

    def _start(self, action, journey: Optional[int], submit_ps: int) -> None:
        """Take a queue slot and launch ``action`` after the command path.

        A journey's controller visit is two nested spans: ``memory.queue``
        from submit to this slot opening, recorded here when a queue-full
        stall made it nonzero, and ``memory.service`` from here to
        completion, recorded by :meth:`_complete`.
        """
        self._in_flight += 1
        if journey is not None and self.sim.now_ps > submit_ps:
            journeys = self._journey_context(journey)
            if journeys is not None:
                journeys.stage_span(
                    journey, "memory.queue", submit_ps, self.sim.now_ps, kind="queue"
                )
        self.sim.call_after(self.config.command_overhead_ps, action)

    def _finish(self) -> None:
        self._in_flight -= 1
        if self._stalled:
            self._stalled.pop(0).trigger()

    #: the pattern returned for words lost to uncorrectable errors: real
    #: controllers "poison" the data so consumers can detect the loss
    POISON_BYTE = 0xDE

    def _journey_context(self, journey: Optional[int]):
        """The journey tracker recording ``journey``, or None (attribution
        off, the common case).  The device access runs with ``journey``
        pushed onto it: tiered devices stage their per-tier visits into the
        enclosing journey through this ambient context."""
        if journey is None:
            return None
        trace = probe.session
        if trace is None or trace.journeys is None:
            return None
        return trace.journeys

    def _do_read(
        self, addr: int, nbytes: int, done: Signal,
        journey: Optional[int] = None,
    ) -> None:
        journeys = self._journey_context(journey)
        if journeys is not None:
            journeys.push(journey)
        try:
            data, finish_ps = self.device.read(addr, nbytes, self.sim.now_ps)
        except UncorrectableEccError:
            # SUE handling: log, poison, complete — the machine keeps
            # running and RAS policy (FSP) decides what to do with the DIMM
            self.uncorrectable_errors += 1
            data = bytes([self.POISON_BYTE]) * nbytes
            finish_ps = self.sim.now_ps + self.config.command_overhead_ps
        finally:
            if journeys is not None:
                journeys.pop()
        complete_at = finish_ps + self.config.response_overhead_ps
        # the slot opened one command path before the device saw the access
        started_ps = self.sim.now_ps - self.config.command_overhead_ps
        self.sim.call_at(
            complete_at, self._complete, done, data, journeys, journey, started_ps
        )

    def _do_write(
        self, addr: int, data: bytes, done: Signal,
        journey: Optional[int] = None,
    ) -> None:
        journeys = self._journey_context(journey)
        if journeys is not None:
            journeys.push(journey)
        try:
            finish_ps = self.device.write(addr, data, self.sim.now_ps)
        finally:
            if journeys is not None:
                journeys.pop()
        complete_at = finish_ps + self.config.response_overhead_ps
        started_ps = self.sim.now_ps - self.config.command_overhead_ps
        self.sim.call_at(
            complete_at, self._complete, done, None, journeys, journey, started_ps
        )

    def _complete(self, done: Signal, value, journeys=None, journey=None,
                  started_ps: int = 0) -> None:
        self._finish()
        if journeys is not None:
            journeys.stage_span(journey, "memory.service", started_ps, self.sim.now_ps)
        done.trigger(value)

    # -- latency estimate (for FRTL-style budgeting) -----------------------------

    def unloaded_read_latency_ps(self) -> int:
        """Idle-system read latency through controller + device (estimate).

        Probes the device with a real read of line 0 at the current simulated
        time.  Contents are untouched, but device timing state (bank timers,
        stat counters) advances — call this during bring-up, not mid-run.
        """
        _, finish = self.device.read(0, 128, self.sim.now_ps)
        base = finish - self.sim.now_ps
        return (
            self.config.command_overhead_ps + base + self.config.response_overhead_ps
        )
