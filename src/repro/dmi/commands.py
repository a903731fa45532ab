"""DMI memory commands.

The primary DMI commands (Section 2.2) operate on 128-byte cache lines:

* full cache-line read,
* full cache-line write,
* partial cache-line write, executed as an atomic read-modify-write.

ConTutto's FPGA extends the command set (Section 4.2/4.3) with operations
Centaur does not implement:

* ``FLUSH`` — drain outstanding writes to the memory devices (required by
  the persistent-memory software stack),
* fine-grained in-line acceleration ops: ``MIN_STORE``, ``MAX_STORE``,
  ``CSWAP`` (conditional swap), executed by augmented command engines.

A command is identified in flight by its *tag* (0–31); see
:mod:`repro.dmi.tags`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional

from ..errors import AlignmentError, ProtocolError
from ..units import CACHE_LINE_BYTES


class Opcode(enum.Enum):
    """DMI command opcodes (base protocol + ConTutto extensions)."""

    READ = "read"                  # full 128B cache-line read
    WRITE = "write"                # full 128B cache-line write
    PARTIAL_WRITE = "partial_write"  # read-modify-write of a 128B line
    FLUSH = "flush"                # ConTutto extension: drain write queue
    MIN_STORE = "min_store"        # ConTutto in-line accel: store min(mem, data)
    MAX_STORE = "max_store"        # ConTutto in-line accel: store max(mem, data)
    CSWAP = "cswap"                # ConTutto in-line accel: conditional swap

    # Classification flags and the label: plain member attributes, set once
    # below (the command path reads them several times per command).

    #: the value string (``Enum.value`` is a Python-level property)
    label: str

    #: True for commands only the FPGA buffer implements (not Centaur)
    is_extension: bool
    #: True if the processor sends a data payload with the command
    has_downstream_data: bool
    #: True if the buffer returns cache-line data upstream
    returns_data: bool
    #: True if execution requires read + merge + write at the buffer
    is_rmw: bool


_EXTENSION_OPS = frozenset(
    {Opcode.FLUSH, Opcode.MIN_STORE, Opcode.MAX_STORE, Opcode.CSWAP}
)
_DOWNSTREAM_DATA_OPS = frozenset(
    {Opcode.WRITE, Opcode.PARTIAL_WRITE, Opcode.MIN_STORE, Opcode.MAX_STORE,
     Opcode.CSWAP}
)
_RETURNS_DATA_OPS = frozenset({Opcode.READ, Opcode.CSWAP})
_RMW_OPS = frozenset(
    {Opcode.PARTIAL_WRITE, Opcode.MIN_STORE, Opcode.MAX_STORE, Opcode.CSWAP}
)

for _op in Opcode:
    _op.label = _op.value
    _op.is_extension = _op in _EXTENSION_OPS
    _op.has_downstream_data = _op in _DOWNSTREAM_DATA_OPS
    _op.returns_data = _op in _RETURNS_DATA_OPS
    _op.is_rmw = _op in _RMW_OPS
del _op


@dataclass(init=False)
class Command:
    """One memory command as issued on the DMI channel.

    ``address`` is a buffer-local byte address, 128B-aligned.  For write-class
    commands ``data`` carries the full 128-byte payload; for partial writes
    ``byte_enable`` selects which bytes within the line are merged.
    """

    opcode: Opcode
    address: int
    tag: int
    data: Optional[bytes] = None
    byte_enable: Optional[bytes] = field(default=None, repr=False)
    #: attribution journey id (host-side only; never serialized into
    #: frames — the buffer side recovers it from the (channel, tag)
    #: binding in the journey tracker).  Not part of command identity.
    journey: Optional[int] = field(default=None, repr=False, compare=False)

    # Written out, not generated with a __post_init__ hook: one command is
    # built per transaction, and the validation runs in the same call.
    def __init__(
        self,
        opcode: Opcode,
        address: int,
        tag: int,
        data: Optional[bytes] = None,
        byte_enable: Optional[bytes] = None,
        journey: Optional[int] = None,
    ):
        if address % CACHE_LINE_BYTES != 0 and opcode is not Opcode.FLUSH:
            raise AlignmentError(
                f"{opcode.value} address {address:#x} not 128B-aligned"
            )
        if not 0 <= tag < 32:
            raise ProtocolError(f"tag {tag} outside the 32-tag window")
        if opcode.has_downstream_data:
            if data is None or len(data) != CACHE_LINE_BYTES:
                raise ProtocolError(
                    f"{opcode.value} requires a {CACHE_LINE_BYTES}B payload"
                )
        elif data is not None:
            raise ProtocolError(f"{opcode.value} must not carry data")
        if opcode is Opcode.PARTIAL_WRITE:
            if byte_enable is None or len(byte_enable) != CACHE_LINE_BYTES:
                raise ProtocolError(
                    "partial_write requires a 128B byte-enable mask"
                )
        elif byte_enable is not None:
            raise ProtocolError(f"{opcode.value} must not carry byte enables")
        self.opcode = opcode
        self.address = address
        self.tag = tag
        self.data = data
        self.byte_enable = byte_enable
        self.journey = journey


@dataclass(init=False)
class Response:
    """Completion sent by the buffer back to the processor.

    Every command eventually yields a *done* for its tag; read-class commands
    additionally return the cache-line ``data`` (in frames preceding the done).
    """

    tag: int
    opcode: Opcode
    data: Optional[bytes] = None

    def __init__(self, tag: int, opcode: Opcode, data: Optional[bytes] = None):
        if not 0 <= tag < 32:
            raise ProtocolError(f"tag {tag} outside the 32-tag window")
        if opcode.returns_data:
            if data is None or len(data) != CACHE_LINE_BYTES:
                raise ProtocolError(
                    f"{opcode.value} response requires a {CACHE_LINE_BYTES}B payload"
                )
        elif data is not None:
            raise ProtocolError(f"{opcode.value} response must not carry data")
        self.tag = tag
        self.opcode = opcode
        self.data = data
