"""Processor-side DMI host memory controller.

One of these fronts each populated DMI channel.  It owns the channel's
32-tag window (Section 2.3): every command acquires a tag at issue and
frees it when the buffer's *done* arrives.  When the buffer is slow enough
that all 32 tags are outstanding, issue stalls — the throughput-throttling
effect the paper calls out as a key design constraint for keeping the
FPGA's round-trip latency low.
"""

from __future__ import annotations

from typing import Optional

from ..dmi import Command, DmiChannel, Opcode, TagPool
from ..errors import ProtocolError
from ..sim import LatencyRecorder, Signal, Simulator
from ..telemetry import probe
from ..units import CACHE_LINE_BYTES


class HostMemoryController:
    """Tag-managed command issue over one DMI channel."""

    def __init__(
        self,
        sim: Simulator,
        channel: DmiChannel,
        name: str = "",
        num_tags: int = None,
    ):
        self.sim = sim
        self.channel = channel
        self.name = name or f"hmc.{channel.name}"
        self.tags = TagPool(sim) if num_tags is None else TagPool(sim, num_tags)
        self.latency = LatencyRecorder(f"{self.name}.cmd")

    # -- generic issue ------------------------------------------------------

    def _issue(
        self,
        opcode: Opcode,
        addr: int,
        data=None,
        byte_enable=None,
        result: Optional[Signal] = None,
        delay_ps: Optional[int] = None,
        reply_data: bool = False,
    ) -> Signal:
        """Acquire a tag (waiting if the window is full) and issue.

        ``result`` (a fresh signal when None) fires with the
        :class:`Response` — or with its data, if ``reply_data`` — once the
        tag is released and the round-trip latency recorded, ``delay_ps``
        after the done arrives when given.  Returns ``result``.
        """
        if result is None:
            result = Signal(f"{self.name}.{opcode.label}@{addr:#x}")
        txn = _Transaction(
            self, opcode, addr, data, byte_enable, result, delay_ps, reply_data
        )
        trace = probe.session
        if trace is not None:
            # every transaction passes here, so this is the arrival point
            # that drives periodic occupancy sampling
            if trace.occupancy is not None:
                trace.occupancy.maybe_sample(trace, txn.issued_at)
            journeys = trace.journeys
            if journeys is not None:
                # a line command issued inside a storage transfer becomes a
                # *child* journey of it (separate ":lines" scenario lane)
                txn.journeys = journeys
                txn.jid = journeys.begin(
                    opcode.label, addr, self.channel.name, txn.issued_at,
                    parent=journeys.current(), depth=len(self.tags._in_flight),
                )
        tag = self.tags.try_acquire()
        if tag is not None:
            txn.start(tag)
        else:
            self._wait_for_tag(txn.start)
        return result

    def _wait_for_tag(self, callback) -> None:
        gate = Signal(f"{self.name}.tagwait")
        self.tags._waiters.append(gate)
        self.tags.stall_events += 1
        stall_start = self.sim.now_ps

        def retry(_):
            tag = self.tags.try_acquire()
            if tag is None:
                self._wait_for_tag(callback)
            else:
                self.tags.stall_ps += self.sim.now_ps - stall_start
                callback(tag)

        gate.add_waiter(retry)

    # -- operations ------------------------------------------------------------

    def read_line(
        self, addr: int, result: Optional[Signal] = None, delay_ps: Optional[int] = None
    ) -> Signal:
        """128B cache-line read; ``result`` (a fresh signal by default)
        fires with the data bytes, ``delay_ps`` after the done when given."""
        if result is None:
            result = Signal(f"{self.name}.rdline@{addr:#x}")
        return self._issue(
            Opcode.READ, addr, result=result, delay_ps=delay_ps, reply_data=True
        )

    def write_line(
        self,
        addr: int,
        data: bytes,
        result: Optional[Signal] = None,
        delay_ps: Optional[int] = None,
    ) -> Signal:
        """128B cache-line write; ``result`` fires with the
        :class:`Response`, ``delay_ps`` after the done when given."""
        if len(data) != CACHE_LINE_BYTES:
            raise ProtocolError(f"write_line requires {CACHE_LINE_BYTES}B")
        return self._issue(Opcode.WRITE, addr, data, result=result, delay_ps=delay_ps)

    def partial_write(self, addr: int, data: bytes, byte_enable: bytes) -> Signal:
        return self._issue(Opcode.PARTIAL_WRITE, addr, data, byte_enable)

    def flush(self) -> Signal:
        """ConTutto extension: drain the buffer's write pipeline."""
        return self._issue(Opcode.FLUSH, 0)

    def min_store(self, addr: int, data: bytes) -> Signal:
        return self._issue(Opcode.MIN_STORE, addr, data)

    def max_store(self, addr: int, data: bytes) -> Signal:
        return self._issue(Opcode.MAX_STORE, addr, data)

    def cswap(self, addr: int, data: bytes) -> Signal:
        """Conditional swap; signal fires with the pre-swap line."""
        return self._issue(Opcode.CSWAP, addr, data)

    # -- diagnostics ---------------------------------------------------------------

    @property
    def in_flight(self) -> int:
        return self.tags.in_flight_count


class _Transaction:
    """One command from issue to done: the pending record behind
    :meth:`HostMemoryController._issue`."""

    __slots__ = (
        "hmc", "opcode", "addr", "data", "byte_enable", "result", "delay_ps",
        "reply_data", "issued_at", "journeys", "jid", "tag",
    )

    def __init__(self, hmc, opcode, addr, data, byte_enable, result, delay_ps,
                 reply_data):
        self.hmc = hmc
        self.opcode = opcode
        self.addr = addr
        self.data = data
        self.byte_enable = byte_enable
        self.result = result
        self.delay_ps = delay_ps
        self.reply_data = reply_data
        self.issued_at = hmc.sim.now_ps
        #: the journey tracker and id, when attribution is on
        self.journeys = None
        self.jid = None
        self.tag = None

    def start(self, tag: int) -> None:
        """Issue the command on ``tag`` (acquired now or after a stall)."""
        hmc = self.hmc
        self.tag = tag
        jid = self.jid
        if jid is not None:
            journeys = self.journeys
            now_ps = hmc.sim.now_ps
            if now_ps > self.issued_at:
                # recorded only when tag acquisition actually stalled
                journeys.stage_to(jid, "host.tag_wait", now_ps, kind="queue")
            journeys.bind(hmc.channel.name, tag, jid)
        command = Command(
            self.opcode, self.addr, tag, self.data, self.byte_enable, journey=jid
        )
        hmc.channel.host.issue(command).add_waiter(self.complete)

    def complete(self, response) -> None:
        """The done arrived: release the tag, record, answer the issuer."""
        hmc = self.hmc
        now_ps = hmc.sim.now_ps
        hmc.tags.release(self.tag)
        hmc.latency.samples.append(now_ps - self.issued_at)
        trace = probe.session
        if trace is not None:
            # tag acquire through done: includes any tag-window stall
            if trace.records_spans:
                trace.complete(
                    "processor", f"host.{self.opcode.label}",
                    self.issued_at, now_ps, {"addr": self.addr},
                )
            trace.counters["processor.commands"].count += 1
            trace.histograms["processor.cmd_ps"].samples.append(
                now_ps - self.issued_at
            )
        jid = self.jid
        if jid is not None:
            self.journeys.unbind(hmc.channel.name, self.tag)
            self.journeys.finish(jid, now_ps)
        value = response.data if self.reply_data else response
        if self.delay_ps is None:
            self.result.trigger(value)
        else:
            hmc.sim.call_after(self.delay_ps, self.result.trigger, value)
