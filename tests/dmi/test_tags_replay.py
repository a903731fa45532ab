"""Tests for the tag window and the endpoint's replay bookkeeping."""

import pytest

from repro.dmi import (
    NUM_TAGS,
    DownstreamFrame,
    EndpointConfig,
    FrameEndpoint,
    SerialLink,
    TagPool,
    UpstreamFrame,
)
from repro.errors import ProtocolError, TagExhaustedError
from repro.sim import Process, Simulator, dmi_link_clock


class TestTagPool:
    def test_default_window_is_32(self):
        assert NUM_TAGS == 32
        assert TagPool(Simulator()).free_count == 32

    def test_acquire_release_cycle(self):
        pool = TagPool(Simulator())
        tag = pool.try_acquire()
        assert tag is not None
        assert pool.in_flight_count == 1
        pool.release(tag)
        assert pool.free_count == 32

    def test_exhaustion_returns_none(self):
        pool = TagPool(Simulator())
        for _ in range(32):
            assert pool.try_acquire() is not None
        assert pool.try_acquire() is None

    def test_acquire_or_raise(self):
        pool = TagPool(Simulator(), num_tags=1)
        pool.acquire_or_raise()
        with pytest.raises(TagExhaustedError):
            pool.acquire_or_raise()

    def test_release_unheld_tag_raises(self):
        with pytest.raises(ProtocolError):
            TagPool(Simulator()).release(5)

    def test_release_reports_hold_time(self):
        sim = Simulator()
        pool = TagPool(sim)
        tag = pool.try_acquire()
        sim.call_after(5_000, lambda: None)
        sim.run()
        assert pool.release(tag) == 5_000

    def test_process_blocks_until_tag_free(self):
        sim = Simulator()
        pool = TagPool(sim, num_tags=1)
        held = pool.try_acquire()
        got = []

        def waiter():
            tag = yield from pool.acquire()
            got.append((tag, sim.now_ps))

        Process(sim, waiter())
        sim.call_after(7_000, pool.release, held)
        sim.run()
        assert got == [(held, 7_000)]
        assert pool.stall_events == 1
        assert pool.stall_ps == 7_000

    def test_stall_accounting_zero_when_free(self):
        sim = Simulator()
        pool = TagPool(sim)
        done = []

        def worker():
            tag = yield from pool.acquire()
            done.append(tag)

        Process(sim, worker())
        sim.run()
        assert done and pool.stall_events == 0


def transmitter(depth=8, first_seq=0):
    """A host-side endpoint whose link delivers into a sink, and its sim.

    Frames it sends are held until an upstream frame's ACK retires them;
    nothing ever answers, so the held set is exactly what the test acks.
    """
    sim = Simulator()
    link = SerialLink(sim, "down", 14, dmi_link_clock(8.0))
    link.connect(lambda got: None, lambda raw: None)
    ep = FrameEndpoint(
        sim, "host", link, UpstreamFrame, EndpointConfig(replay_depth=depth),
        on_payload=lambda frame: None,
    )
    ep.frtl_ps = 10**9  # no ACK timeout fires within a test
    ep._next_tx_seq = first_seq
    return sim, ep


def send(sim, ep, count):
    for _ in range(count):
        ep.enqueue(None, None)
    sim.run(until_ps=sim.now_ps + 1_000_000)


def ack(ep, seq):
    """Deliver a peer frame carrying a cumulative ACK for ``seq``."""
    peer_seq = 0 if ep._last_accepted is None else (ep._last_accepted + 1) % 64
    ep._process_rx(UpstreamFrame(peer_seq, seq))


class TestReplayBuffer:
    """The held-frame bookkeeping of :class:`FrameEndpoint`: hold on send,
    cumulative ACK, replay in order, a depth that stalls transmission."""

    def test_hold_and_cumulative_ack(self):
        sim, ep = transmitter()
        send(sim, ep, 5)
        assert list(ep._held) == [0, 1, 2, 3, 4]
        ack(ep, 2)
        assert list(ep._held) == [3, 4]

    def test_ack_of_retired_frame_is_noop(self):
        sim, ep = transmitter()
        send(sim, ep, 1)
        ack(ep, 0)
        assert not ep._held
        ack(ep, 0)
        assert not ep._held

    def test_ack_with_wrap(self):
        sim, ep = transmitter(depth=16, first_seq=62)
        send(sim, ep, 4)
        assert list(ep._held) == [62, 63, 0, 1]
        ack(ep, 0)
        assert list(ep._held) == [1]

    def test_full_window_stalls_transmit(self):
        sim, ep = transmitter(depth=2)
        send(sim, ep, 3)
        assert list(ep._held) == [0, 1]
        assert len(ep._tx_queue) == 1  # stalled, not overflowed
        ack(ep, 0)
        assert list(ep._held) == [1, 2] and not ep._tx_queue

    def test_seq_ids_stay_distinct_across_wraps(self):
        sim, ep = transmitter(depth=4)
        for _ in range(40):  # 160 frames: the 6-bit space wraps twice
            send(sim, ep, 4)
            assert len(set(ep._held)) == len(ep._held) == 4
            ack(ep, list(ep._held)[-1])

    def test_frames_for_replay_in_order(self):
        sim, ep = transmitter(first_seq=3)
        send(sim, ep, 3)
        resent = []
        ep.tx_link.send = lambda frame: resent.append(frame)
        ep._do_replay()
        assert [f.seq_id for f in resent] == [3, 4, 5]
        assert [f.seq_id for f, _ in ep._held.values()] == [3, 4, 5]

    def test_mark_resent_updates_timestamps(self):
        sim, ep = transmitter()
        send(sim, ep, 2)
        ep._do_replay()
        resent_ps = ep.tx_link.next_free_ps
        assert resent_ps > sim.now_ps
        assert [sent for _, sent in ep._held.values()] == [resent_ps, resent_ps]

    def test_oldest_unacked_empty(self):
        sim, ep = transmitter()
        assert ep._ack_deadline_ps() is None
        ep._schedule_ack_check()
        assert not ep._ack_check_scheduled and sim.pending_events == 0

    def test_invalid_depth_rejected(self):
        for depth in (0, 64):
            with pytest.raises(ProtocolError):
                transmitter(depth=depth)

    def test_span(self):
        # the held window is a contiguous run of sequence IDs in send order
        sim, ep = transmitter(first_seq=62)
        send(sim, ep, 3)
        assert list(ep._held) == [62, 63, 0]
        assert [f.seq_id for f, _ in ep._held.values()] == [62, 63, 0]
        assert all(isinstance(f, DownstreamFrame) for f, _ in ep._held.values())
