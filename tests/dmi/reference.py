"""Textbook reference implementations the DMI fast paths are tested against."""

from collections import deque

from repro.dmi.crc import CRC16_INIT, CRC16_POLY
from repro.dmi.link import SerialLink
from repro.dmi.scrambler import BundleScrambler
from repro.errors import ConfigurationError
from repro.telemetry import probe


def crc16_bitwise(data: bytes, init: int = CRC16_INIT) -> int:
    """Bit-serial CRC-16/CCITT-FALSE."""
    crc = init
    for byte in data:
        crc ^= byte << 8
        for _ in range(8):
            if crc & 0x8000:
                crc = ((crc << 1) ^ CRC16_POLY) & 0xFFFF
            else:
                crc = (crc << 1) & 0xFFFF
    return crc


def corrupt_bytes(model, data: bytes, rng):
    """``LinkErrorModel.corrupt`` on a byte image, spelled out; returns
    ``(bytes, hit)``.  Same RNG draws: a forced drop flips bit 0 and draws
    nothing, ``rng.chance`` decides a hit (drawing nothing at rate 0), then
    the flip count and each flipped bit."""
    if model.force_drops > 0:
        model.force_drops -= 1
        return bytes([data[0] ^ 1]) + data[1:], True
    if not rng.chance(model.frame_error_rate):
        return data, False
    out = bytearray(data)
    for _ in range(rng.randint(1, max(1, model.max_flips))):
        bit = rng.randint(0, len(out) * 8 - 1)
        out[bit // 8] ^= 1 << (bit % 8)
    return bytes(out), True


class ReferenceLink:
    """A link that always packs and scrambles: live TX LFSRs, corruption on
    the scrambled bytes, live RX LFSRs, and every arrival decoded.  No
    timing; frames wait on a FIFO until :meth:`drain` delivers them."""

    def __init__(self, num_lanes, error_model, rng, decode):
        self.tx = BundleScrambler(num_lanes)
        self.rx = BundleScrambler(num_lanes)
        self.error_model = error_model
        self.rng = rng
        self.decode = decode
        self.wire = deque()
        self.frames_corrupted = 0

    def send(self, frame) -> None:
        packed = frame.pack()
        wire, _ = corrupt_bytes(self.error_model, self.tx.process(packed), self.rng)
        self.wire.append((wire, packed))

    def resync(self) -> None:
        self.tx.resync()
        self.rx.resync()

    def drain(self) -> list:
        """``(received bytes, decoded)`` for every frame on the wire."""
        delivered = []
        while self.wire:
            wire, packed = self.wire.popleft()
            received = self.rx.process(wire)
            self.frames_corrupted += received != packed
            delivered.append((received, self.decode(received)))
        return delivered


class PackingLink(SerialLink):
    """A :class:`SerialLink` that packs, CRCs and decodes every frame.

    Same timing, event count, RNG draws, scrambling and trace records as the
    link under test, but the frame always crosses as bytes and every arrival
    goes through the receiver's decoder.  ``images`` counts the byte images
    the object-passing link needs for the same traffic: one for each frame
    the error model hits in lockstep or that is sent desynced, and one for
    each frame sent in lockstep that arrives desynced.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.images = 0

    def send(self, frame) -> int:
        if self._deliver is None:
            raise ConfigurationError(f"link {self.name!r} has no receiver connected")
        wire_ps = self.frame_wire_ps
        start = max(self.sim.now_ps, self._next_free_ps)
        self._next_free_ps = start + wire_ps
        self.busy_ps += wire_ps
        packed = frame.pack()
        sent_desynced = self.desynced
        wire = self._tx_scrambler.process(packed) if sent_desynced else packed
        wire, hit = corrupt_bytes(self.error_model, wire, self.rng)
        self.images += sent_desynced or hit
        self._in_flight += 1
        arrival = start + wire_ps + self.latency_ps
        self.frames_sent += 1
        trace = probe.session
        if trace is not None:
            trace.complete("dmi", self._trace_label, start, arrival)
            trace.count("dmi.frames_sent")
        self.sim.call_at(arrival, self._arrive, wire, packed, sent_desynced)
        return arrival

    def _arrive(self, wire, packed, sent_desynced) -> None:
        self._in_flight -= 1
        if self.desynced:
            received = self._rx_scrambler.process(wire)
            self.images += not sent_desynced
        else:
            received = wire
        if received != packed:
            self.frames_corrupted += 1
            trace = probe.session
            if trace is not None:
                trace.instant("dmi", f"corrupt:{self.name}", self.sim.now_ps)
                trace.count("dmi.frames_corrupted")
        self.sim.call_after(
            self._deliver_delay_ps, self._deliver, self._decode(received)
        )
