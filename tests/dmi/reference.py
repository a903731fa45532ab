"""Textbook reference implementations the DMI fast paths are tested against."""

from collections import deque

from repro.dmi.crc import CRC16_INIT, CRC16_POLY
from repro.dmi.scrambler import BundleScrambler


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


class ReferenceLink:
    """A link that always scrambles: live TX LFSRs, corruption on the
    scrambled bytes, live RX LFSRs.  No timing; frames wait on a FIFO
    until :meth:`drain` delivers them."""

    def __init__(self, num_lanes, error_model, rng):
        self.tx = BundleScrambler(num_lanes)
        self.rx = BundleScrambler(num_lanes)
        self.error_model = error_model
        self.rng = rng
        self.wire = deque()
        self.frames_corrupted = 0

    def send(self, packed: bytes) -> None:
        wire = self.error_model.corrupt(self.tx.process(packed), self.rng)
        self.wire.append((wire, packed))

    def resync(self) -> None:
        self.tx.resync()
        self.rx.resync()

    def drain(self) -> list:
        delivered = []
        while self.wire:
            wire, packed = self.wire.popleft()
            received = self.rx.process(wire)
            self.frames_corrupted += received != packed
            delivered.append(received)
        return delivered
