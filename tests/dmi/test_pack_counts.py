"""Exact frame-pack counts: a frame gets a byte image only when it is observable.

A frame is packed only when the link's error model hits it or while the
link is desynced (a resync caught frames in flight, until the next resync
with nothing in flight).  The counts here are deterministic work counts,
so they are gated exactly.
"""

from collections import Counter

from repro.dmi import Command, DownstreamFrame, Opcode, TrainingFrame, UpstreamFrame
from repro.sim import Simulator

from .test_channel import make_channel, train

FRAME_CLASSES = (DownstreamFrame, UpstreamFrame, TrainingFrame)


def count_packs(monkeypatch) -> Counter:
    """Count ``pack()`` calls per frame class from now until the patch ends."""
    packs = Counter()
    for cls in FRAME_CLASSES:
        original = cls.pack

        def counted(self, _original=original, _name=cls.__name__):
            packs[_name] += 1
            return _original(self)

        monkeypatch.setattr(cls, "pack", counted)
    return packs


def workload(sim, channel, base_tag=0):
    """One write, one partial write and one read, each waited for."""
    mask = bytes(i % 2 for i in range(128))
    for command in (
        Command(Opcode.WRITE, 0, base_tag, bytes(range(128))),
        Command(Opcode.PARTIAL_WRITE, 128, base_tag + 1, bytes(128), mask),
        Command(Opcode.READ, 0, base_tag + 2),
    ):
        sim.run_until_signal(channel.host.issue(command), timeout_ps=10**10)


def frames_sent(channel):
    return channel.down_link.frames_sent + channel.up_link.frames_sent


class TestPackCounts:
    def test_clean_channel_packs_nothing(self, monkeypatch):
        packs = count_packs(monkeypatch)
        sim = Simulator()
        channel, store = make_channel(sim)
        train(sim, channel)  # training frames cross as objects too
        workload(sim, channel)
        sim.run()
        assert frames_sent(channel) > 0
        assert sum(packs.values()) == 0
        assert store[0] == bytes(range(128))

    def test_every_hit_frame_packs_once(self, monkeypatch):
        sim = Simulator()
        channel, _ = make_channel(sim)
        train(sim, channel)
        packs = count_packs(monkeypatch)
        before = frames_sent(channel)
        for link in (channel.down_link, channel.up_link):
            link.error_model.frame_error_rate = 1.0
        channel.host.issue(Command(Opcode.READ, 0, 0))
        sim.run()  # every frame fails CRC until the channel gives up
        assert not channel.operational
        sent = frames_sent(channel) - before
        assert sent > 0
        assert sum(packs.values()) == sent
        assert packs["TrainingFrame"] == 0

    def test_dirty_resync_packs_every_frame_until_clean_resync(self, monkeypatch):
        sim = Simulator()
        channel, _ = make_channel(sim)
        train(sim, channel)
        packs = count_packs(monkeypatch)
        down = channel.down_link
        channel.host.issue(Command(Opcode.WRITE, 0, 0, bytes(128)))
        sim.run(until_ps=sim.now_ps + 5_000)
        in_flight = down._in_flight
        sent_before = down.frames_sent
        assert in_flight > 0
        down.resync()  # catches frames in flight: the receiver loses lockstep
        assert down.desynced
        sim.run()  # garbled traffic until the replay limit fails the channel
        assert not channel.operational and down.desynced
        # the frames caught in flight are packed on arrival, every later one
        # at send; the upstream link stays in lockstep and packs nothing
        assert packs["DownstreamFrame"] == in_flight + down.frames_sent - sent_before
        assert packs["UpstreamFrame"] == 0

        channel.reset()
        train(sim, channel)  # resyncs with nothing in flight: lockstep again
        assert not down.desynced
        packs.clear()
        workload(sim, channel, base_tag=3)
        sim.run()
        assert sum(packs.values()) == 0
