"""Memory Buffer Synchronous (MBS) logic: decode, execute, respond.

MBS receives the downstream commands, executes the corresponding memory
operations through the Avalon bus, and returns data/done upstream
(Section 3.3 (iii)).  The structure modeled here:

* two parallel frame decoders (two frames per 250 MHz cycle — the 8x-wider
  datapath that matches Centaur's throughput at 1/8th the clock);
* 32 command engines, each owning a command until completion;
* read requests issued directly by the decoders on dedicated read ports
  (no arbitration); writes arbitrated per write port (16 engines each);
* one RMW ALU per write port, NOP for plain writes;
* the latency knob's delay modules between MBS and the Avalon bus;
* the ConTutto ``flush`` extension: completes when every previously issued
  write has reached the memory controller — required by the persistent
  memory stack (Section 4.2) and absent from Centaur.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from ..dmi.commands import Command, Opcode, Response
from ..errors import ProtocolError
from ..sim import ClockDomain, Signal, Simulator, fabric_clock
from ..telemetry import probe
from ..units import CACHE_LINE_BYTES
from .alu import RmwAlu
from .avalon import AvalonBus
from .command_engine import CommandEngine, EnginePool
from .latency_knob import LatencyKnob

RespondFn = Callable[[Response], None]

#: fabric cycles to parse/decode a command out of its frames
DECODE_CYCLES = 2
#: fabric cycles from command completion to upstream frame handoff
RESPOND_CYCLES = 2


class MbsLogic:
    """The MBS pipeline over an Avalon bus."""

    def __init__(
        self,
        sim: Simulator,
        avalon: AvalonBus,
        knob: Optional[LatencyKnob] = None,
        clock: Optional[ClockDomain] = None,
        route: Optional[Callable[[int], int]] = None,
        inline_accel: bool = False,
        name: str = "mbs",
    ):
        self.sim = sim
        self.name = name
        self.avalon = avalon
        self.clock = clock or fabric_clock()
        self.knob = knob or LatencyKnob(self.clock)
        self.engines = EnginePool(sim)
        # the fixed pipeline delays, in ps, computed once
        self._decode_ps = self.clock.cycles_to_ps(DECODE_CYCLES)
        self._respond_ps = self.clock.cycles_to_ps(RESPOND_CYCLES)
        self.alus = [RmwAlu(sim, f"{name}.alu{i}", self.clock) for i in range(2)]
        self.inline_accel = inline_accel
        #: translate a DMI line address to an Avalon address (controller
        #: interleave); identity when not provided
        self.route = route or (lambda addr: addr)
        # write drain tracking for FLUSH: counts write-class commands from
        # the moment MBS receives them (not from Avalon issue), so a flush
        # ordered after a write always waits for it
        self._writes_outstanding = 0
        self._flush_waiters: List[Signal] = []
        #: fault hook (``fpga.clock_jitter``): when set, every memory
        #: operation picks up a uniform extra delay in [0, jitter_ps] —
        #: a thermally unstable fabric clock can only be late, never early
        self.jitter_ps = 0
        self.jitter_rng = None
        # Stats
        self.commands = 0
        self.flushes = 0

    # -- entry point -----------------------------------------------------------

    def handle(self, command: Command, respond: RespondFn) -> None:
        """Execute one assembled command (wired behind the DMI channel)."""
        self.commands += 1
        if command.opcode.has_downstream_data:
            self._writes_outstanding += 1
        self.sim.call_after(
            self._decode_ps,
            lambda: self.engines.allocate_or_wait(
                command.tag, lambda engine: self._dispatch(engine, command, respond)
            ),
        )

    def _dispatch(self, engine: CommandEngine, command: Command, respond: RespondFn) -> None:
        trace = probe.session
        if trace is not None:
            # command-engine scheduler occupancy, sampled at every allocate
            trace.gauges["buffer.mbs.engines_busy"].set(self.engines.busy_count)

        def finish(response: Response) -> None:
            self.engines.free(engine)
            self.sim.call_after(self._respond_ps, respond, response)

        op = command.opcode
        delay = self.knob.delay_ps  # delay modules between MBS and Avalon
        if self.jitter_ps and self.jitter_rng is not None:
            delay += self.jitter_rng.randint(0, self.jitter_ps)
        if op is Opcode.READ:
            self.sim.call_after(delay, self._do_read, engine, command, finish)
        elif op is Opcode.WRITE:
            self.sim.call_after(delay, self._do_write, engine, command, finish)
        elif op is Opcode.FLUSH:
            # flush is ordering, not a memory access: no knob delay
            self._do_flush(command, finish)
        elif op.is_rmw:
            self.sim.call_after(delay, self._do_rmw, engine, command, finish)
        else:  # pragma: no cover - opcode space is closed
            raise ProtocolError(f"MBS cannot execute {op.value}")

    # -- operations ----------------------------------------------------------------

    def _do_read(self, engine: CommandEngine, command: Command, finish) -> None:
        addr = self.route(command.address)
        done = self.avalon.read(
            engine.read_port, addr, CACHE_LINE_BYTES, journey=command.journey
        )
        done.add_waiter(
            lambda data: finish(Response(command.tag, Opcode.READ, data))
        )

    def _do_write(self, engine: CommandEngine, command: Command, finish) -> None:
        assert command.data is not None
        addr = self.route(command.address)
        # plain writes pass through the (NOP) ALU stage on the write-port path
        _, _, ready_ps = self.alus[engine.write_port].issue(
            Opcode.WRITE, b"", command.data
        )
        wait = max(0, ready_ps - self.sim.now_ps)
        self.sim.call_after(
            wait, self._issue_write, engine, addr, command.data, command.tag,
            Opcode.WRITE, None, finish, command.journey,
        )

    def _do_rmw(self, engine: CommandEngine, command: Command, finish) -> None:
        assert command.data is not None
        addr = self.route(command.address)
        read_done = self.avalon.read(
            engine.read_port, addr, CACHE_LINE_BYTES, journey=command.journey
        )

        def merge(old: bytes) -> None:
            stored, returned, ready_ps = self.alus[engine.write_port].issue(
                command.opcode, old, command.data, command.byte_enable
            )
            wait = max(0, ready_ps - self.sim.now_ps)
            self.sim.call_after(
                wait, self._issue_write, engine, addr, stored, command.tag,
                command.opcode, returned, finish, command.journey,
            )

        read_done.add_waiter(merge)

    def _issue_write(
        self, engine, addr, data, tag, opcode, returned, finish, journey=None
    ) -> None:
        done = self.avalon.write(engine.write_port, addr, data, journey=journey)

        def complete(_):
            # finish the write before releasing flush waiters so a flush
            # never completes ahead of the write it was ordered after
            finish(Response(tag, opcode, returned))
            self._writes_outstanding -= 1
            if self._writes_outstanding == 0:
                waiters, self._flush_waiters = self._flush_waiters, []
                for waiter in waiters:
                    waiter.trigger()

        done.add_waiter(complete)

    def _do_flush(self, command: Command, finish) -> None:
        self.flushes += 1
        if self._writes_outstanding == 0:
            finish(Response(command.tag, Opcode.FLUSH))
            return
        gate = Signal(f"{self.name}.flush")
        self._flush_waiters.append(gate)
        gate.add_waiter(lambda _: finish(Response(command.tag, Opcode.FLUSH)))
