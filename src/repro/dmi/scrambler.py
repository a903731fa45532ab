"""Lane scrambling for the DMI high-speed serial channel.

High-speed SerDes links scramble transmitted bits to guarantee transition
density for clock recovery and to spread spectral energy.  This matters to
ConTutto specifically: the FPGA's receivers recover the sampling clock from
the data (CDR), unlike Centaur's forwarded-clock capture, so the data stream
must keep transitioning (Section 3.2).

We implement the PCIe-style additive LFSR scrambler, polynomial
x^23 + x^21 + x^16 + x^8 + x^5 + x^2 + 1, seeded per lane so each lane's
keystream differs.  Scrambling is an involution when transmitter and
receiver streams are synchronized: ``descramble(scramble(x)) == x``, and a
bit error in transit stays a single-bit error (additive scramblers do not
multiply errors — important for the CRC/replay behaviour to be realistic).

Because scrambling is an XOR that the receiver takes straight back out,
:class:`~repro.dmi.link.SerialLink` runs these scramblers only while its
two ends are out of lockstep (a resync with frames in flight); the rest of
the time the keystream cannot be observed and is never generated.  This is
therefore cold code, kept as the plain bit-serial LFSR.
"""

from __future__ import annotations

LFSR_WIDTH = 23
LFSR_TAPS = (23, 21, 16, 8, 5, 2)  # feedback taps, x^0 implied
LFSR_SEED_BASE = 0x3C_5A71  # arbitrary nonzero base; lane index is mixed in

_LFSR_MASK = (1 << LFSR_WIDTH) - 1


def _step_bits(state: int, nbits: int) -> tuple:
    """Advance ``state`` by ``nbits``; return (state, out).

    Output bits are packed LSB-first.
    """
    out = 0
    for i in range(nbits):
        bit = 0
        for tap in LFSR_TAPS:
            bit ^= (state >> (tap - 1)) & 1
        state = ((state << 1) | bit) & _LFSR_MASK
        out |= bit << i
    return state, out


class LfsrStream:
    """A deterministic keystream generator for one lane."""

    def __init__(self, lane: int, seed_base: int = LFSR_SEED_BASE):
        seed = (seed_base ^ (lane * 0x9E37)) & _LFSR_MASK
        if seed == 0:
            seed = 1  # an all-zero LFSR state is a fixed point; avoid it
        self.state = seed

    def next_byte(self) -> int:
        self.state, value = _step_bits(self.state, 8)
        return value


class LaneScrambler:
    """Scrambles/descrambles the byte stream crossing one serial lane.

    Transmitter and receiver each hold one of these with the same lane index;
    as long as they stay frame-synchronized (which link training establishes)
    their keystreams match.
    """

    def __init__(self, lane: int, seed_base: int = LFSR_SEED_BASE):
        self.lane = lane
        self.seed_base = seed_base
        self._stream = LfsrStream(lane, seed_base)

    def keystream(self, nbytes: int) -> bytes:
        """Consume the next ``nbytes`` of this lane's keystream."""
        return bytes(self._stream.next_byte() for _ in range(nbytes))

    def process(self, data: bytes) -> bytes:
        """XOR ``data`` with the lane keystream (same op scrambles and descrambles)."""
        return bytes(a ^ b for a, b in zip(data, self.keystream(len(data))))

    def resync(self) -> None:
        """Reset the keystream to the start-of-training state."""
        self._stream = LfsrStream(self.lane, self.seed_base)


class BundleScrambler:
    """Scrambler state for a whole lane bundle, byte-striped across lanes.

    Frames are serialized to bytes and striped round-robin across the lanes of
    the bundle, mirroring how 16 UI of each physical lane make up one frame.
    """

    def __init__(self, num_lanes: int, seed_base: int = LFSR_SEED_BASE):
        if num_lanes <= 0:
            raise ValueError(f"lane bundle needs at least one lane, got {num_lanes}")
        self.num_lanes = num_lanes
        self._lanes = [LaneScrambler(i, seed_base) for i in range(num_lanes)]

    def keystream_frame(self, n: int) -> bytes:
        """The next ``n`` striped keystream bytes (advances every lane used).

        Byte ``i`` meets lane ``i % num_lanes``; every frame restarts the
        striping at lane 0, so each lane consumes exactly the bytes its
        stripe positions demand.
        """
        num = self.num_lanes
        striped = bytearray(n)
        for lane_index, lane in enumerate(self._lanes[:n]):
            striped[lane_index::num] = lane.keystream(len(range(lane_index, n, num)))
        return bytes(striped)

    def process(self, data: bytes) -> bytes:
        """Scramble (or descramble) a serialized frame, striped across lanes."""
        return bytes(a ^ b for a, b in zip(data, self.keystream_frame(len(data))))

    def resync(self) -> None:
        for lane in self._lanes:
            lane.resync()
