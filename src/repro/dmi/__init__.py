"""DMI channel model: frames, CRC, scrambling, links, handshake, training."""

from .channel import (
    BufferCommandLayer,
    DmiChannel,
    EndpointConfig,
    FrameEndpoint,
    HostCommandLayer,
)
from .commands import Command, Opcode, Response
from .crc import append_crc, check_crc, crc16
from .frames import (
    DOWN_DATA_CHUNK,
    DOWN_LANES,
    DOWN_WIRE_BYTES,
    FRAME_UI,
    SEQ_MOD,
    UP_DATA_CHUNK,
    UP_LANES,
    UP_WIRE_BYTES,
    CommandHeader,
    DataChunk,
    DoneNotice,
    DownstreamFrame,
    TrainingFrame,
    UpstreamFrame,
    next_seq,
    seq_distance,
)
from .link import LinkErrorModel, SerialLink
from .scrambler import BundleScrambler, LaneScrambler
from .tags import NUM_TAGS, TagPool
from .training import (
    DEFAULT_HOST_MAX_FRTL_PS,
    LinkTrainer,
    TrainingConfig,
    TrainingResult,
)

__all__ = [
    "BufferCommandLayer",
    "BundleScrambler",
    "Command",
    "CommandHeader",
    "DEFAULT_HOST_MAX_FRTL_PS",
    "DOWN_DATA_CHUNK",
    "DOWN_LANES",
    "DOWN_WIRE_BYTES",
    "DataChunk",
    "DmiChannel",
    "DoneNotice",
    "DownstreamFrame",
    "EndpointConfig",
    "FRAME_UI",
    "FrameEndpoint",
    "HostCommandLayer",
    "LaneScrambler",
    "LinkErrorModel",
    "LinkTrainer",
    "NUM_TAGS",
    "Opcode",
    "Response",
    "SEQ_MOD",
    "SerialLink",
    "TagPool",
    "TrainingConfig",
    "TrainingFrame",
    "TrainingResult",
    "UP_DATA_CHUNK",
    "UP_LANES",
    "UP_WIRE_BYTES",
    "UpstreamFrame",
    "append_crc",
    "check_crc",
    "crc16",
    "next_seq",
    "seq_distance",
]
