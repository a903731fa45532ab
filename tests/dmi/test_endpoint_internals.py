"""White-box tests for FrameEndpoint internals: timers, idle ACKs, repack, decode."""

from repro.dmi import (
    Command,
    DataChunk,
    DownstreamFrame,
    Opcode,
    TrainingFrame,
    UpstreamFrame,
)
from repro.dmi.channel import CrcDrop
from repro.sim import Simulator
from repro.telemetry import TraceSession

from .test_channel import make_channel, train


def quiet_channel(sim):
    channel, store = make_channel(sim)
    train(sim, channel)
    return channel


class TestAckTimeoutMath:
    def test_timeout_includes_frtl_margin_and_burst(self):
        sim = Simulator()
        channel = quiet_channel(sim)
        ep = channel.host_endpoint
        base = ep.frtl_ps + ep.config.ack_timeout_margin_ps
        assert ep._ack_deadline_ps() is None  # nothing outstanding
        # enqueue a write: 8 frames outstanding extend the timeout
        channel.host.issue(Command(Opcode.WRITE, 0, 0, bytes(128)))
        sim.run(until_ps=sim.now_ps + 5_000)
        outstanding = len(ep._held)
        assert outstanding > 0
        _, oldest_sent_ps = next(iter(ep._held.values()))
        timeout = ep._ack_deadline_ps() - oldest_sent_ps
        assert timeout == base + outstanding * ep.tx_link.frame_wire_ps

    def test_no_replays_or_ack_checks_leak_after_quiesce(self):
        sim = Simulator()
        channel = quiet_channel(sim)
        sim.run_until_signal(channel.host.issue(Command(Opcode.READ, 0, 0)))
        sim.run()
        assert not channel.host_endpoint._held
        assert not channel.buffer_endpoint._held
        assert sim.pending_events == 0  # the system fully quiesces


def owe_ack(ep):
    """Make ``ep`` owe its peer an ACK: hand it a duplicate of the last
    payload frame it accepted, as a peer replaying after a lost ACK would."""
    ep._process_rx(UpstreamFrame(ep._last_accepted, None, [], DataChunk(0, 0, b"")))


class TestIdleAckBehaviour:
    def test_idle_ack_reuses_acknowledged_seq(self):
        sim = Simulator()
        channel = quiet_channel(sim)
        sim.run_until_signal(channel.host.issue(Command(Opcode.READ, 0, 1)))
        sim.run()
        buffer_ep = channel.buffer_endpoint
        accepted_before = buffer_ep.frames_accepted
        dups_before = buffer_ep.duplicates_seen
        # force the host to send a pure idle ACK now
        owe_ack(channel.host_endpoint)
        sim.run()
        # the idle frame must be classified as a duplicate, never as new
        assert buffer_ep.frames_accepted == accepted_before
        assert buffer_ep.duplicates_seen >= dups_before

    def test_idle_acks_rate_limited(self):
        sim = Simulator()
        channel = quiet_channel(sim)
        sim.run_until_signal(channel.host.issue(Command(Opcode.READ, 0, 1)))
        sim.run()
        ep = channel.host_endpoint
        sent_before = ep.tx_link.frames_sent
        for _ in range(10):
            owe_ack(ep)  # storm of ack-owed notes coalesces
        sim.run()
        assert ep.tx_link.frames_sent - sent_before <= 2


def record_sends(link):
    """Capture every frame ``link`` sends (and still send it)."""
    sent = []
    original_send = link.send
    link.send = lambda frame: (sent.append(frame), original_send(frame))[1]
    return sent


class TestRepack:
    def test_repack_refreshes_ack_field(self):
        sim = Simulator()
        channel = quiet_channel(sim)
        ep = channel.host_endpoint
        sent = record_sends(ep.tx_link)
        frame = DownstreamFrame(seq_id=5, ack_seq=None)
        ep._last_accepted = 9
        ep._resend(frame)
        ep._last_accepted = 23
        ep._resend(frame)
        assert [DownstreamFrame.unpack(f.pack()).ack_seq for f in sent] == [9, 23]
        assert [f.seq_id for f in sent] == [5, 5]
        # each retransmission is a new frame; the held one never changes
        assert frame.ack_seq is None
        assert sent[0] is not frame and sent[1] is not sent[0]

    def test_replayed_frames_carry_current_ack(self):
        sim = Simulator()
        channel = quiet_channel(sim)
        ep = channel.host_endpoint
        link = ep.tx_link
        arrivals = []
        deliver = link._deliver
        link._deliver = lambda got: (arrivals.append((got, got.ack_seq)), deliver(got))
        # send and hold a frame, then replay it with a newer ACK while the
        # first copy is still on the wire
        frame = DownstreamFrame(seq_id=0, ack_seq=None)
        link.send(frame)
        ep._held[0] = (frame, sim.now_ps)
        ep._last_accepted = 42
        ep._do_replay()
        sim.run(until_ps=sim.now_ps + 2 * (link.frame_wire_ps + link.latency_ps))
        assert len(arrivals) == 2
        (first, first_ack), (replayed, replayed_ack) = arrivals
        assert first is frame and first_ack is None  # already sent: old ACK
        assert replayed is not frame and replayed_ack == 42


class TestEndpointStatsExposure:
    def test_frames_accepted_counts_only_payload_frames(self):
        sim = Simulator()
        channel = quiet_channel(sim)
        before = channel.buffer_endpoint.frames_accepted
        sim.run_until_signal(
            channel.host.issue(Command(Opcode.WRITE, 0, 2, bytes(128)))
        )
        sim.run()
        # a 128B write is exactly 8 downstream frames
        assert channel.buffer_endpoint.frames_accepted - before == 8

    def test_read_response_is_four_data_frames_plus_done(self):
        sim = Simulator()
        channel = quiet_channel(sim)
        before = channel.host_endpoint.frames_accepted
        sim.run_until_signal(channel.host.issue(Command(Opcode.READ, 0, 3)))
        sim.run()
        # 4 chunks, done riding in the final one
        assert channel.host_endpoint.frames_accepted - before == 4


class TestDecode:
    """Bytes that arrive changed are decoded by the kind byte; what fails
    CRC or does not parse is a drop."""

    def test_kind_byte_dispatch(self):
        sim = Simulator()
        channel = quiet_channel(sim)
        ep = channel.buffer_endpoint
        signature = ep.decode(TrainingFrame(0xA501, echoed=True).pack())
        assert isinstance(signature, TrainingFrame) and signature.echoed
        frame = ep.decode(DownstreamFrame(3, 7).pack())
        assert isinstance(frame, DownstreamFrame)
        assert (frame.seq_id, frame.ack_seq) == (3, 7)
        # the other direction's frames are not ours to decode
        assert ep.decode(UpstreamFrame(3).pack()).training is False

    def test_drops_keep_their_kind(self):
        sim = Simulator()
        channel = quiet_channel(sim)
        ep = channel.buffer_endpoint
        flip_last = lambda image: image[:-1] + bytes([image[-1] ^ 1])
        training = ep.decode(flip_last(TrainingFrame(1).pack()))
        payload = ep.decode(flip_last(DownstreamFrame(0).pack()))
        assert isinstance(training, CrcDrop) and training.training
        assert isinstance(payload, CrcDrop) and not payload.training
        assert ep.decode(b"").training is False

    def test_training_drops_are_counted_but_not_traced(self):
        sim = Simulator()
        channel = quiet_channel(sim)
        ep = channel.buffer_endpoint
        with TraceSession("drops") as session:
            ep._process_rx(ep.decode(bytes([TrainingFrame.KIND]) + bytes(7)))
            assert ep.crc_drops == 1
            assert session.registry.snapshot().get("dmi.crc_drops", 0) == 0
            ep._process_rx(ep.decode(bytes([DownstreamFrame.KIND]) + bytes(7)))
            assert ep.crc_drops == 2
            assert session.registry.snapshot()["dmi.crc_drops"] == 1
