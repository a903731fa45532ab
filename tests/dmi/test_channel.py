"""Integration tests for the DMI channel: commands, errors, replay, freeze."""

import pytest

from repro.dmi import (
    Command,
    DmiChannel,
    EndpointConfig,
    FrameEndpoint,
    LinkErrorModel,
    LinkTrainer,
    Opcode,
    Response,
    SerialLink,
    TrainingConfig,
)
from repro.errors import ProtocolError
from repro.sim import Rng, Simulator, dmi_link_clock


def make_channel(
    sim,
    error_rate=0.0,
    buffer_config=None,
    service_delay_ps=50_000,
    seed=0,
    link_cls=SerialLink,
):
    """A channel against a simple in-memory backing store."""
    clock = dmi_link_clock(8.0)
    down = link_cls(
        sim, "down", 14, clock, cdr_capture=True,
        error_model=LinkErrorModel(frame_error_rate=error_rate),
        rng=Rng(1000 + seed, "down"),
    )
    up = link_cls(
        sim, "up", 21, clock,
        error_model=LinkErrorModel(frame_error_rate=error_rate),
        rng=Rng(2000 + seed, "up"),
    )
    store = {}

    def handler(cmd, respond):
        if cmd.opcode in (Opcode.WRITE, Opcode.PARTIAL_WRITE):
            if cmd.opcode is Opcode.PARTIAL_WRITE:
                old = bytearray(store.get(cmd.address, bytes(128)))
                for i, enabled in enumerate(cmd.byte_enable):
                    if enabled:
                        old[i] = cmd.data[i]
                store[cmd.address] = bytes(old)
            else:
                store[cmd.address] = cmd.data
            sim.call_after(service_delay_ps, respond, Response(cmd.tag, cmd.opcode))
        elif cmd.opcode is Opcode.READ:
            data = store.get(cmd.address, bytes(128))
            sim.call_after(service_delay_ps, respond, Response(cmd.tag, cmd.opcode, data))
        elif cmd.opcode is Opcode.FLUSH:
            sim.call_after(service_delay_ps, respond, Response(cmd.tag, cmd.opcode))
        else:
            raise AssertionError(f"unhandled {cmd.opcode}")

    buffer_config = buffer_config or EndpointConfig(
        tx_overhead_ps=2_000, rx_overhead_ps=2_000,
        replay_prep_ps=30_000, freeze_workaround=True,
        max_replay_start_ps=10_000,
    )
    channel = DmiChannel(sim, down, up, EndpointConfig(), buffer_config, handler)
    return channel, store


def endpoint_decoder(sim, frame_in_cls):
    """The decoder a :class:`FrameEndpoint` receiving ``frame_in_cls``
    hands its link."""
    return FrameEndpoint(
        sim, "rx", None, frame_in_cls, EndpointConfig(), on_payload=None
    ).decode


def train(sim, channel, seed=7):
    trainer = LinkTrainer(sim, TrainingConfig(), Rng(seed, "train"))
    proc = trainer.train(channel)
    sim.run_until_signal(proc.done, timeout_ps=10**10)
    return proc.result


class TestCleanChannel:
    def test_write_then_read_roundtrip(self):
        sim = Simulator()
        channel, _ = make_channel(sim)
        train(sim, channel)
        payload = bytes(range(128))
        sim.run_until_signal(channel.host.issue(Command(Opcode.WRITE, 0x1000, 0, payload)))
        resp = sim.run_until_signal(channel.host.issue(Command(Opcode.READ, 0x1000, 1)))
        assert resp.data == payload

    def test_read_of_unwritten_line_returns_zeros(self):
        sim = Simulator()
        channel, _ = make_channel(sim)
        train(sim, channel)
        resp = sim.run_until_signal(channel.host.issue(Command(Opcode.READ, 0x8000, 0)))
        assert resp.data == bytes(128)

    def test_partial_write_merges_bytes(self):
        sim = Simulator()
        channel, store = make_channel(sim)
        train(sim, channel)
        base = bytes([0xAA] * 128)
        sim.run_until_signal(channel.host.issue(Command(Opcode.WRITE, 0, 0, base)))
        mask = bytes([1 if i < 8 else 0 for i in range(128)])
        new = bytes([0x55] * 128)
        sim.run_until_signal(
            channel.host.issue(Command(Opcode.PARTIAL_WRITE, 0, 1, new, mask))
        )
        resp = sim.run_until_signal(channel.host.issue(Command(Opcode.READ, 0, 2)))
        assert resp.data[:8] == bytes([0x55] * 8)
        assert resp.data[8:] == bytes([0xAA] * 120)

    def test_flush_completes_without_data(self):
        sim = Simulator()
        channel, _ = make_channel(sim)
        train(sim, channel)
        resp = sim.run_until_signal(channel.host.issue(Command(Opcode.FLUSH, 0, 5)))
        assert resp.opcode is Opcode.FLUSH
        assert resp.data is None

    def test_many_tags_in_flight(self):
        sim = Simulator()
        channel, _ = make_channel(sim)
        train(sim, channel)
        signals = [
            channel.host.issue(Command(Opcode.WRITE, 128 * t, t, bytes([t] * 128)))
            for t in range(16)
        ]
        for sig in signals:
            sim.run_until_signal(sig)
        assert channel.host.commands_completed == 16

    def test_duplicate_tag_rejected(self):
        sim = Simulator()
        channel, _ = make_channel(sim)
        train(sim, channel)
        channel.host.issue(Command(Opcode.READ, 0, 3))
        with pytest.raises(ProtocolError):
            channel.host.issue(Command(Opcode.READ, 128, 3))

    def test_address_beyond_48_bits_rejected_at_issue(self):
        # the frame is never packed on a clean link, so the header check
        # must run when the command header is built
        sim = Simulator()
        channel, _ = make_channel(sim)
        train(sim, channel)
        with pytest.raises(ProtocolError):
            channel.host.issue(Command(Opcode.READ, 1 << 48, 4))
        assert channel.host.in_flight == 0  # the tag was not taken
        sim.run_until_signal(channel.host.issue(Command(Opcode.READ, 0, 4)))

    def test_no_replays_on_clean_link(self):
        sim = Simulator()
        channel, _ = make_channel(sim)
        train(sim, channel)
        for t in range(8):
            sim.run_until_signal(
                channel.host.issue(Command(Opcode.WRITE, 128 * t, t, bytes(128)))
            )
        assert channel.host_endpoint.replays_triggered == 0
        assert channel.buffer_endpoint.replays_triggered == 0


class TestErrorRecovery:
    def test_recovers_under_bit_errors(self):
        sim = Simulator()
        channel, _ = make_channel(sim, error_rate=0.05, seed=3)
        train(sim, channel)
        for i in range(30):
            payload = bytes((i + j) % 256 for j in range(128))
            sim.run_until_signal(
                channel.host.issue(Command(Opcode.WRITE, 128 * i, i % 32, payload)),
                timeout_ps=10**10,
            )
            resp = sim.run_until_signal(
                channel.host.issue(Command(Opcode.READ, 128 * i, (i + 1) % 32)),
                timeout_ps=10**10,
            )
            assert resp.data == payload
        assert channel.operational
        total_drops = channel.host_endpoint.crc_drops + channel.buffer_endpoint.crc_drops
        assert total_drops > 0, "error injection should have corrupted frames"

    def test_replays_were_exercised(self):
        sim = Simulator()
        channel, _ = make_channel(sim, error_rate=0.08, seed=5)
        train(sim, channel)
        for i in range(40):
            sim.run_until_signal(
                channel.host.issue(Command(Opcode.WRITE, 128 * i, i % 32, bytes(128))),
                timeout_ps=10**10,
            )
        replays = (
            channel.host_endpoint.replays_triggered
            + channel.buffer_endpoint.replays_triggered
        )
        assert replays > 0

    def test_deterministic_given_seed(self):
        def run(seed):
            sim = Simulator()
            channel, _ = make_channel(sim, error_rate=0.05, seed=seed)
            train(sim, channel)
            for i in range(10):
                sim.run_until_signal(
                    channel.host.issue(Command(Opcode.WRITE, 128 * i, i, bytes(128))),
                    timeout_ps=10**10,
                )
            return (sim.now_ps, channel.host_endpoint.replays_triggered)

        assert run(9) == run(9)


class TestFreezeWorkaround:
    def test_slow_replay_without_freeze_fails_channel(self):
        sim = Simulator()
        config = EndpointConfig(
            tx_overhead_ps=2_000, rx_overhead_ps=2_000,
            replay_prep_ps=30_000, freeze_workaround=False,
            max_replay_start_ps=10_000,
        )
        channel, _ = make_channel(sim, error_rate=0.08, buffer_config=config, seed=11)
        train(sim, channel)
        # run traffic until the buffer needs a replay; the channel must fail
        for i in range(200):
            sig = channel.host.issue(Command(Opcode.READ, 128 * i, i % 32))
            try:
                sim.run_until_signal(sig, timeout_ps=10**10)
            except Exception:
                break
            if not channel.operational:
                break
        assert not channel.operational
        assert "freeze workaround is disabled" in str(channel.failure)

    def test_freeze_workaround_sends_duplicates(self):
        sim = Simulator()
        channel, _ = make_channel(sim, error_rate=0.08, seed=11)
        train(sim, channel)
        for i in range(60):
            sim.run_until_signal(
                channel.host.issue(Command(Opcode.READ, 128 * i, i % 32)),
                timeout_ps=10**10,
            )
        assert channel.operational
        if channel.buffer_endpoint.replays_triggered:
            assert channel.buffer_endpoint.freeze_frames_sent > 0

    def test_fast_replay_needs_no_freeze(self):
        sim = Simulator()
        config = EndpointConfig(
            tx_overhead_ps=500, rx_overhead_ps=500,
            replay_prep_ps=2_000, freeze_workaround=False,
            max_replay_start_ps=10_000,
        )
        channel, _ = make_channel(sim, error_rate=0.05, buffer_config=config, seed=13)
        train(sim, channel)
        for i in range(30):
            sim.run_until_signal(
                channel.host.issue(Command(Opcode.READ, 128 * i, i % 32)),
                timeout_ps=10**10,
            )
        assert channel.operational
