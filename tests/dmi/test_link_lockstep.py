"""SerialLink against the always-packing, always-scrambling reference link.

The link skips the keystream while its two ends are in lockstep and sends
frames as objects, packing one only when the error model hits it or the
link is desynced.  These tests drive it and
:class:`~tests.dmi.reference.ReferenceLink` with the same random sequences
of sends, error-model arming, resyncs and drains; the reference delivers
bytes, decoded by the same receiver decoder.  In lockstep every delivery
(and the corruption count) must match the decoded reference, and a frame
whose bytes arrive intact is the very object sent.  A resync that catches
frames in flight garbles them, and every frame sent after it arrives
garbled unless another resync comes first.  Frames sent while desynced
are scrambled by both links from the same reset state, so they must match
the decoded reference too; only the frames caught in flight differ (the
reference scrambled them, the link did not).
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.dmi import (
    CommandHeader,
    DataChunk,
    DoneNotice,
    DownstreamFrame,
    LinkErrorModel,
    Opcode,
    SerialLink,
    UpstreamFrame,
)
from repro.dmi.channel import CrcDrop
from repro.sim import Rng, Simulator, dmi_link_clock

from .reference import ReferenceLink
from .test_channel import endpoint_decoder

#: (lanes, frame class) of the two DMI directions; every frame touches
#: every lane, so a desynced receiver garbles all of them
GEOMETRIES = [(14, DownstreamFrame), (21, UpstreamFrame)]

OPS = st.one_of(
    st.tuples(st.just("send"), st.integers(0, 255)),
    st.tuples(
        st.just("arm"),
        st.sampled_from([0.0, 0.3, 1.0]),
        st.integers(1, 4),
        st.integers(0, 2),
    ),
    st.tuples(st.just("resync")),
    st.tuples(st.just("drain")),
)


def make_frame(cls, value):
    """A full frame of ``cls`` whose payload bytes derive from ``value``."""
    tag = value % 32
    if cls is DownstreamFrame:
        data = bytes((value + i) & 0xFF for i in range(16))
        return DownstreamFrame(
            value % 64, None, CommandHeader(Opcode.WRITE, tag, value * 128),
            DataChunk(tag, 0, data),
        )
    data = bytes((value + i) & 0xFF for i in range(32))
    return UpstreamFrame(value % 64, 3, [DoneNotice(tag)], DataChunk(tag, 0, data))


def image(delivered):
    """Comparable form of a delivery: a frame's bytes, or the drop kind."""
    if isinstance(delivered, CrcDrop):
        return ("drop", delivered.training)
    return delivered.pack()


def make_pair(lanes, cls, seed=5):
    sim = Simulator()
    decode = endpoint_decoder(sim, cls)
    link = SerialLink(
        sim, "l", lanes, dmi_link_clock(8.0),
        error_model=LinkErrorModel(), rng=Rng(seed, "l"),
    )
    ref = ReferenceLink(lanes, LinkErrorModel(), Rng(seed, "l"), decode)
    seen = []
    link.connect(seen.append, decode)
    return sim, link, ref, seen


def arm(link, ref, rate, max_flips, drops):
    for model in (link.error_model, ref.error_model):
        model.frame_error_rate = rate
        model.max_flips = max_flips
        model.force_drops = drops


class TestLinkMatchesReference:
    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(GEOMETRIES), st.lists(OPS, max_size=40))
    @example(  # desync, then a clean resync back to lockstep under errors
        GEOMETRIES[0],
        [("arm", 0.3, 3, 1), ("send", 0x55), ("resync",), ("send", 0x66),
         ("drain",), ("resync",)] + [("send", value) for value in range(20)],
    )
    def test_random_operation_sequences(self, geometry, ops):
        lanes, cls = geometry
        sim, link, ref, seen = make_pair(lanes, cls)
        sent, in_flight, desynced, resyncs = [], 0, False, 0
        for op in ops + [("drain",)]:
            if op[0] == "send":
                frame = make_frame(cls, op[1])
                link.send(frame)
                ref.send(frame)
                sent.append((frame, desynced, resyncs))
                in_flight += 1
            elif op[0] == "arm":
                arm(link, ref, *op[1:])
            elif op[0] == "resync":
                link.resync()
                ref.resync()
                resyncs += 1
                desynced = in_flight > 0
                assert link.desynced == desynced
            else:
                corrupted = link.frames_corrupted
                ref_corrupted = ref.frames_corrupted
                sim.run()
                expect = ref.drain()
                assert len(seen) == len(sent)
                if desynced:
                    for got, (_, want), (frame, sent_desynced, epoch) in zip(
                        seen, expect, sent
                    ):
                        if sent_desynced:
                            assert image(got) == image(want)
                        if not sent_desynced or epoch == resyncs:
                            assert got is not frame
                            assert image(got) != frame.pack()
                    # the link hands over the frame itself exactly when its
                    # bytes arrive intact
                    assert link.frames_corrupted - corrupted == sum(
                        got is not frame for got, (frame, _, _) in zip(seen, sent)
                    )
                else:
                    assert [image(got) for got in seen] == [
                        image(want) for _, want in expect
                    ]
                    for got, (received, _), (frame, _, _) in zip(seen, expect, sent):
                        assert (got is frame) == (received == frame.pack())
                    assert (
                        link.frames_corrupted - corrupted
                        == ref.frames_corrupted - ref_corrupted
                    )
                seen.clear()
                sent.clear()
                in_flight = 0
