"""The legacy per-buffer ``stats``: which keys a buffer reports, and when.

``MemoryBuffer.handle_command`` binds its ``cmd.<opcode>`` counter per
opcode on first use and its ``service`` recorder on the first response,
so a buffer's stats name exactly the opcodes it has served: no key for an
opcode it never saw, and no empty recorder.
"""

import pytest

from repro.dmi import Command, Opcode
from repro.sim import Signal, Simulator
from repro.telemetry import TraceSession

from .test_centaur import make_centaur, run_command
from ..fpga.test_contutto import make_contutto


@pytest.fixture(params=["centaur", "contutto"])
def buffer_and_sim(request):
    sim = Simulator()
    make = make_centaur if request.param == "centaur" else make_contutto
    return make(sim), sim


def serve_reads(sim, buffer, count):
    for tag in range(count):
        run_command(sim, buffer, Command(Opcode.READ, 128 * tag, tag))


class TestBufferStats:
    def test_reads_only_report_read_keys(self, buffer_and_sim):
        buffer, sim = buffer_and_sim
        serve_reads(sim, buffer, 3)
        assert list(buffer.stats.counters) == ["cmd.read"]
        assert list(buffer.stats.latencies) == ["service"]
        assert buffer.stats.metrics.names() == ["cmd.read", "service"]
        snapshot = buffer.stats.snapshot()
        assert sorted(snapshot) == ["count.cmd.read", "latency_ns.service"]
        assert snapshot["count.cmd.read"] == 3
        assert buffer.stats.latency("service").count == 3

    def test_fresh_buffer_reports_nothing(self, buffer_and_sim):
        buffer, _ = buffer_and_sim
        assert buffer.stats.snapshot() == {}
        assert buffer.stats.metrics.names() == []

    def test_unanswered_command_adds_no_service_entry(self, buffer_and_sim):
        buffer, _ = buffer_and_sim
        buffer.handle_command(Command(Opcode.READ, 0, 0), Signal("resp").trigger)
        # counted on arrival; the service recorder waits for a response
        assert buffer.stats.metrics.names() == ["cmd.read"]
        assert buffer.stats.snapshot() == {"count.cmd.read": 1}

    def test_each_opcode_bound_once(self, buffer_and_sim):
        buffer, sim = buffer_and_sim
        serve_reads(sim, buffer, 2)
        run_command(sim, buffer, Command(Opcode.WRITE, 0, 5, bytes(128)))
        serve_reads(sim, buffer, 1)
        assert buffer.stats.counters["cmd.read"].count == 3
        assert buffer.stats.counters["cmd.write"].count == 1
        assert buffer.stats.latencies["service"].count == 4

    def test_session_counts_commands_per_kind(self, buffer_and_sim):
        buffer, sim = buffer_and_sim
        with TraceSession("stats", max_events=0) as session:
            serve_reads(sim, buffer, 2)
        snapshot = session.registry.snapshot()
        assert snapshot[f"buffer.{buffer.kind}.commands"] == 2
        assert snapshot["buffer.service_ps.count"] == 2
