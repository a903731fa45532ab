"""CRC for DMI frame protection.

The paper states both upstream and downstream frames are protected with a
"strong cyclic redundancy check".  The POWER8 memory-buffer manual does not
publish the exact polynomial, so we use CRC-16/CCITT-FALSE (polynomial
0x1021, init 0xFFFF) — a standard 16-bit CRC of the same strength class.
What the experiments exercise is the *behaviour*: any corrupted frame fails
its check and triggers replay, and an intact frame never does.

The stdlib's ``binascii.crc_hqx`` computes exactly this CRC (XMODEM
register update, caller-supplied init) in C; frames are checked on every
transfer, so the simulator uses it rather than a Python table walk.  The
bit-serial reference it is tested against lives in ``tests/dmi``.
"""

from __future__ import annotations

from binascii import crc_hqx

CRC16_POLY = 0x1021
CRC16_INIT = 0xFFFF


def crc16(data: bytes, init: int = CRC16_INIT) -> int:
    """CRC-16/CCITT-FALSE over ``data``."""
    return crc_hqx(data, init)


def append_crc(data: bytes) -> bytes:
    """Return ``data`` with its big-endian CRC-16 appended."""
    return data + crc_hqx(data, CRC16_INIT).to_bytes(2, "big")


def check_crc(framed: bytes) -> bool:
    """Verify a buffer produced by :func:`append_crc`.

    Checking a CRC-appended message yields a fixed residue; comparing against
    a recomputed CRC keeps the code obvious.
    """
    if len(framed) < 2:
        return False
    return crc_hqx(framed[:-2], CRC16_INIT) == int.from_bytes(framed[-2:], "big")
