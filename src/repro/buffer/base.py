"""Common interface for memory buffers terminating a DMI channel.

A memory buffer receives assembled :class:`~repro.dmi.commands.Command`
objects from the channel's command layer, executes them against its memory
ports, and calls ``respond`` with a :class:`~repro.dmi.commands.Response`.
Two implementations exist:

* :class:`~repro.buffer.centaur.Centaur` — the production ASIC model,
* :class:`~repro.fpga.contutto.ConTuttoBuffer` — the FPGA design.

The buffer is a protocol *slave*: it never initiates commands (Section 2.3).
"""

from __future__ import annotations

from typing import Callable

from ..dmi.commands import Command, Opcode, Response
from ..errors import ProtocolError
from ..sim import Simulator, StatsRegistry
from ..telemetry import BoundMetrics, probe

RespondFn = Callable[[Response], None]


class MemoryBuffer:
    """Abstract DMI memory buffer."""

    #: human-readable kind used by firmware presence detection
    kind: str = "abstract"

    def __init__(self, sim: Simulator, name: str):
        self.sim = sim
        self.name = name
        self.stats = StatsRegistry()
        # Per-command stats, bound on first use: a ``cmd.<opcode>`` counter
        # per opcode seen and the ``service`` recorder, which appear in
        # ``stats`` only once a command (a response) has used them.
        stats = self.stats
        self._cmd_counters = BoundMetrics(lambda label: stats.counter(f"cmd.{label}"))
        self._latencies = BoundMetrics(self.stats.latency)
        #: this buffer's session counter name
        self._commands_metric = f"buffer.{self.kind}.commands"

    # -- DmiChannel integration ------------------------------------------------

    def handle_command(self, command: Command, respond: RespondFn) -> None:
        """Entry point wired as the channel's ``buffer_handler``."""
        self._cmd_counters[command.opcode.label].count += 1
        started = self.sim.now_ps

        # A closure, not a method: the buffers schedule it as a kernel
        # event, and its name is what kernel-event traces record.
        def respond_and_record(response: Response) -> None:
            service_ps = self.sim.now_ps - started
            self._latencies["service"].samples.append(service_ps)
            trace = probe.session
            if trace is not None:
                if trace.records_spans:
                    trace.complete(
                        "buffer", f"{self.kind}.{command.opcode.value}",
                        started, self.sim.now_ps, {"addr": command.address},
                    )
                trace.counters[self._commands_metric].count += 1
                trace.histograms["buffer.service_ps"].samples.append(service_ps)
            respond(response)

        self._execute(command, respond_and_record)

    def _execute(self, command: Command, respond: RespondFn) -> None:
        raise NotImplementedError

    # -- characteristics used by training / firmware -----------------------------

    def endpoint_overheads(self):
        """(tx_overhead_ps, rx_overhead_ps, replay_prep_ps, freeze) for the endpoint."""
        raise NotImplementedError

    def supports(self, opcode: Opcode) -> bool:
        """Whether this buffer implements ``opcode`` (extensions are FPGA-only)."""
        return not opcode.is_extension

    def _reject_unsupported(self, command: Command) -> None:
        if not self.supports(command.opcode):
            raise ProtocolError(
                f"{self.name}: {command.opcode.value} not implemented by {self.kind}"
            )

    @property
    def capacity_bytes(self) -> int:
        raise NotImplementedError
