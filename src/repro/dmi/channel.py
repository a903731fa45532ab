"""DMI channel protocol: frame handshake, replay, and the command layer.

This module implements the two-level handshake of Section 2.3:

* **Frame loop** (:class:`FrameEndpoint`): every transmitted frame carries a
  6-bit sequence ID and is held in a replay buffer until the peer's
  cumulative ACK arrives (ACKs ride in frames travelling the opposite
  direction).  A receiver silently drops frames that fail CRC or arrive out
  of sequence; the transmitter notices the missing ACK after the measured
  round-trip time and replays from the oldest unacknowledged frame.  No NAK
  or explicit frame ID is ever sent back.

* **Command loop** (:class:`HostCommandLayer` / :class:`BufferCommandLayer`):
  commands are issued with one of 32 tags, write data arrives in 16-byte
  chunks interleaved across frames, read data returns in 32-byte chunks, and
  a *done* retires the tag.

The ConTutto-specific replay behaviour is modeled: an FPGA endpoint needs
``replay_prep_ps`` to fence off MBS and switch its transmit path to the
replay buffer.  If that exceeds the host's ``max_replay_start_ps`` the
channel fails — unless the *freeze workaround* is enabled, in which case the
endpoint re-transmits its last frame (duplicates the host ignores) until the
replay is ready, exactly the "cheat" of Section 3.3.
"""

from __future__ import annotations

from collections import OrderedDict, deque
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, Optional, Tuple, Union

from ..errors import ProtocolError, ReplayError
from ..sim import Signal, Simulator
from ..telemetry import probe
from ..units import CACHE_LINE_BYTES
from .commands import Command, Opcode, Response
from .frames import (
    DOWN_DATA_CHUNK,
    SEQ_MOD,
    UP_DATA_CHUNK,
    CommandHeader,
    DataChunk,
    DoneNotice,
    DownstreamFrame,
    Frame,
    TrainingFrame,
    UpstreamFrame,
)
from .link import SerialLink

#: default replay depth: unacknowledged frames one endpoint may hold
DEFAULT_DEPTH = 32

#: chunk offset value that marks a byte-enable mask chunk (masks are 16 bytes
#: of bits covering the 128-byte line; real offsets are 0..112)
MASK_CHUNK_OFFSET = CACHE_LINE_BYTES


class CrcDrop:
    """What :meth:`FrameEndpoint.decode` returns for bytes that fail CRC or
    do not parse.  ``training`` marks an image whose kind byte says training
    frame: its drop is counted but not traced."""

    __slots__ = ("training",)

    def __init__(self, training: bool):
        self.training = training


_PAYLOAD_DROP = CrcDrop(training=False)
_TRAINING_DROP = CrcDrop(training=True)


@dataclass
class EndpointConfig:
    """Per-endpoint protocol timing and behaviour knobs."""

    #: internal logic latency from payload ready to frame on the link
    tx_overhead_ps: int = 500
    #: internal logic latency from frame delivery to payload visible
    rx_overhead_ps: int = 500
    #: how long past the measured round trip before a missing ACK is declared
    ack_timeout_margin_ps: int = 10_000
    #: delay before sending a pure-ACK idle frame when there is no other traffic
    idle_ack_delay_ps: int = 1_000
    #: time to fence the command pipeline and switch to the replay buffer
    replay_prep_ps: int = 0
    #: retransmit the last frame while preparing replay (ConTutto's "cheat")
    freeze_workaround: bool = False
    #: consecutive replays without ACK progress before the channel fails
    replay_limit: int = 8
    #: replay buffer depth (bounds unacknowledged frames in flight)
    replay_depth: int = DEFAULT_DEPTH
    #: the longest the peer tolerates between replay trigger and replay start;
    #: only enforced against endpoints whose peer is a POWER8 host
    max_replay_start_ps: Optional[int] = None


class FrameEndpoint:
    """One side of the DMI frame loop (link layer + replay).

    Every transmitted frame is held until the peer's cumulative ACK for its
    sequence ID comes back; when an ACK goes missing for longer than the
    trained FRTL allows, the endpoint replays from the oldest held frame.
    The held frames live in ``_held``, an ordered ``seq -> (frame,
    sent_at_ps)`` map in transmit order.  ``replay_depth`` bounds it: when
    it is full transmission stalls, which is how link-level flow control
    emerges.  Held entries are frames, not packed bytes, so a
    retransmission can refresh the piggybacked ACK (see :meth:`_resend`).
    """

    def __init__(
        self,
        sim: Simulator,
        name: str,
        tx_link: SerialLink,
        frame_in_cls: type,
        config: EndpointConfig,
        on_payload: Optional[Callable[[Frame], None]],
        on_fail: Optional[Callable[[Exception], None]] = None,
    ):
        self.sim = sim
        self.name = name
        self.tx_link = tx_link
        self.frame_in_cls = frame_in_cls
        # we *receive* frame_in_cls frames, so we transmit the other kind
        self._frame_out_cls = (
            DownstreamFrame if frame_in_cls is UpstreamFrame else UpstreamFrame
        )
        if not 0 < config.replay_depth < SEQ_MOD:
            # the depth must leave sequence-number headroom to tell
            # duplicates from new frames after a wrap
            raise ProtocolError(
                f"replay depth must be in (0, {SEQ_MOD}), got {config.replay_depth}"
            )
        self.config = config
        self.on_payload = on_payload
        self.on_fail = on_fail
        self.peer: Optional["FrameEndpoint"] = None

        self._next_tx_seq = 0
        self._last_tx_frame: Optional[Frame] = None
        self._last_accepted: Optional[int] = None
        # payloads (the outgoing frame's fields after seq and ACK), popped
        # from the front on every pump: a deque keeps that O(1)
        self._tx_queue: Deque[tuple] = deque()
        #: transmitted frames awaiting ACK: seq -> (frame, sent_at_ps)
        self._held: "OrderedDict[int, Tuple[Frame, int]]" = OrderedDict()
        self._ack_check_scheduled = False
        self._idle_ack_scheduled = False
        self._last_idle_ack_ps = -(10**12)
        self._replay_in_progress = False
        self._consecutive_replays = 0
        #: measured at link training; ACK timeout = frtl + margin
        self.frtl_ps: int = 0
        self.failed = False
        #: the exception that killed the channel (None while operational)
        self.failure: Optional[Exception] = None
        #: during training: echo received signature frames back (buffer side)
        self.training_echo = False
        #: during training: callback for echoed signatures (host side)
        self.on_training: Optional[Callable[[TrainingFrame], None]] = None
        # Stats
        self.frames_accepted = 0
        self.crc_drops = 0
        self.seq_drops = 0
        self.duplicates_seen = 0
        self.replays_triggered = 0
        self.ack_timeouts = 0
        self.freeze_frames_sent = 0

    # -- transmit ----------------------------------------------------------

    def enqueue(self, *fields: object) -> None:
        """Queue a payload for transmission: the outgoing frame's fields
        after its sequence ID and ACK, positionally (downstream ``command,
        chunk``; upstream ``dones, chunk``)."""
        if self.failed:
            if isinstance(self.failure, ReplayError):
                # replay exhaustion killed the channel: surface the specific
                # error class so callers can route to firmware recovery
                raise ReplayError(
                    f"endpoint {self.name!r}: channel is down ({self.failure})"
                )
            raise ProtocolError(f"endpoint {self.name!r}: channel is down")
        self._tx_queue.append(fields)
        self.sim.call_after(self.config.tx_overhead_ps, self._pump)

    def _pump(self) -> None:
        if self.failed or self._replay_in_progress:
            return
        queue, held, link = self._tx_queue, self._held, self.tx_link
        depth = self.config.replay_depth
        make = self._frame_out_cls
        latency_ps = link.latency_ps
        # a full hold stalls transmission; the pump after the next ACK
        # resumes it, so the hold never overflows and, with depth < SEQ_MOD,
        # never holds the same sequence ID twice
        while queue and len(held) < depth:
            seq = self._next_tx_seq
            self._next_tx_seq = (seq + 1) % SEQ_MOD
            frame = make(seq, self._last_accepted, *queue.popleft())
            # Retransmissions send copies with the ACK field refreshed (see
            # _resend).  Stamp the hold with the time the frame finishes
            # serializing (its arrival less the pipe latency) — under a
            # transmit backlog that is later than now, and the ACK timer
            # must not start before the frame even leaves.
            held[seq] = (frame, link.send(frame) - latency_ps)
            self._last_tx_frame = frame
        if not self._ack_check_scheduled:  # usually armed: skip the call
            self._schedule_ack_check()

    # -- ACK timeout / replay ------------------------------------------------

    def _ack_deadline_ps(self) -> Optional[int]:
        """When the oldest held frame's ACK is overdue; None if none is held.

        The ACK may take the trained round trip plus a margin, and a
        transmit burst serializes at one frame per wire time, so the ACK for
        the oldest frame can legitimately lag by the whole burst length.
        """
        held = self._held
        for seq in held:
            return (
                held[seq][1] + self.frtl_ps + self.config.ack_timeout_margin_ps
                + len(held) * self.tx_link.frame_wire_ps
            )
        return None

    def _schedule_ack_check(self) -> None:
        if self._ack_check_scheduled:
            return
        deadline = self._ack_deadline_ps()
        if deadline is None:
            return
        self._ack_check_scheduled = True
        now_ps = self.sim.now_ps
        self.sim.call_at(deadline if deadline > now_ps else now_ps, self._ack_check)

    def _ack_check(self) -> None:
        self._ack_check_scheduled = False
        if self.failed or self._replay_in_progress:
            return
        deadline = self._ack_deadline_ps()
        if deadline is None:
            return
        if self.sim.now_ps >= deadline:
            self.ack_timeouts += 1
            trace = probe.session
            if trace is not None:
                trace.count("dmi.ack_timeouts")
            self._start_replay()
        else:
            self._schedule_ack_check()

    def _start_replay(self) -> None:
        self._consecutive_replays += 1
        self.replays_triggered += 1
        trace = probe.session
        if trace is not None:
            if trace.records_spans:
                trace.instant(
                    "dmi", f"replay:{self.name}", self.sim.now_ps,
                    {"consecutive": self._consecutive_replays,
                     "outstanding": len(self._held)},
                )
            trace.count("dmi.replays")
        if self._consecutive_replays > self.config.replay_limit:
            self._fail(ReplayError(
                f"endpoint {self.name!r}: {self._consecutive_replays} replays "
                "without ACK progress"
            ))
            return
        prep = self.config.replay_prep_ps
        limit = self.config.max_replay_start_ps
        if limit is not None and prep > limit and not self.config.freeze_workaround:
            self._fail(ReplayError(
                f"endpoint {self.name!r}: replay start {prep}ps exceeds host "
                f"limit {limit}ps and freeze workaround is disabled"
            ))
            return
        self._replay_in_progress = True
        if prep > 0 and self.config.freeze_workaround and self._last_tx_frame:
            # Freeze the flow from the host's perspective: keep re-sending the
            # last upstream frame (a duplicate the peer ignores) until ready.
            n_freeze = max(1, prep // max(self.tx_link.frame_wire_ps, 1))
            for _ in range(min(n_freeze, 64)):
                self._resend(self._last_tx_frame)
                self.freeze_frames_sent += 1
                if trace is not None:
                    trace.count("dmi.freeze_frames")
        self.sim.call_after(prep, self._do_replay)

    def _resend(self, frame: Frame) -> None:
        """Retransmit ``frame`` with the ACK field refreshed to the current state.

        Re-sending a frame with the ACK it was *originally* sent with is
        dangerous: after the 6-bit sequence space wraps, that stale value
        can alias into the peer's live transmit window and cumulatively
        retire frames the peer never actually delivered to us.  The
        retransmission is a new frame: a copy still in flight keeps the ACK
        it was sent with.
        """
        self.tx_link.send(frame.with_ack(self._last_accepted))

    def _do_replay(self) -> None:
        if self.failed:
            return
        held = self._held
        for frame, _ in held.values():
            self._resend(frame)
            self._last_tx_frame = frame
        # Restart ACK timers from when the replay burst has fully drained
        # onto the wire, not from now — otherwise a backlog triggers another
        # replay before this one has even been transmitted.
        resent_ps = self.tx_link.next_free_ps
        for seq, (frame, _) in list(held.items()):
            held[seq] = (frame, resent_ps)
        self._replay_in_progress = False
        self._schedule_ack_check()
        self._pump()

    def _fail(self, exc: Exception) -> None:
        self.failed = True
        self.failure = exc
        trace = probe.session
        if trace is not None:
            if trace.records_spans:
                trace.instant(
                    "dmi", f"channel_failed:{self.name}", self.sim.now_ps,
                    {"error": str(exc)},
                )
            trace.count("dmi.channel_failed")
        if self.on_fail is not None:
            self.on_fail(exc)
        else:
            raise exc

    def reset(self) -> None:
        """Return the endpoint to its power-on protocol state.

        Used by firmware-driven channel recovery: after a reset on both
        sides, link training re-establishes scrambler sync and FRTL and the
        channel comes back without a system reboot.  Any in-flight frames
        are discarded — command-layer state must be reset alongside.
        """
        self.failed = False
        self.failure = None
        self._next_tx_seq = 0
        self._last_tx_frame = None
        self._last_accepted = None
        self._tx_queue.clear()
        self._held.clear()
        self._ack_check_scheduled = False
        self._idle_ack_scheduled = False
        self._last_idle_ack_ps = -(10**12)
        self._replay_in_progress = False
        self._consecutive_replays = 0
        self.frtl_ps = 0

    # -- receive ------------------------------------------------------------

    def listen(self, link: SerialLink) -> None:
        """Receive from ``link``: each arriving frame reaches
        :meth:`_process_rx` ``rx_overhead_ps`` after it lands, scheduled by
        the link itself."""
        link.connect(self._process_rx, self.decode, self.config.rx_overhead_ps)

    def decode(self, raw: bytes) -> Union[Frame, CrcDrop]:
        """Decode bytes that arrived changed (wired via :meth:`SerialLink.connect`).

        The kind byte picks the decoder: a training frame, or the frame class
        this endpoint receives.  Bytes that fail CRC or do not parse become a
        :class:`CrcDrop`.
        """
        training = bool(raw) and raw[0] == TrainingFrame.KIND
        try:
            if training:
                return TrainingFrame.unpack(raw)
            return self.frame_in_cls.unpack(raw)
        except ProtocolError:
            return _TRAINING_DROP if training else _PAYLOAD_DROP

    def send_training_signature(self, signature: int) -> None:
        """Transmit an FRTL-measurement signature (training only)."""
        self.tx_link.send(TrainingFrame(signature))

    def _handle_training(self, frame: TrainingFrame) -> None:
        if self.training_echo and not frame.echoed:
            # Mirror the signature back after our internal pipeline delay —
            # this is what makes the measured FRTL include the buffer logic.
            self.sim.call_after(
                self.config.tx_overhead_ps,
                lambda: self.tx_link.send(TrainingFrame(frame.signature, echoed=True)),
            )
        elif self.on_training is not None:
            self.on_training(frame)

    def _process_rx(self, frame: Union[Frame, CrcDrop]) -> None:
        if self.failed:
            return
        kind = frame.__class__
        if kind is CrcDrop:
            self.crc_drops += 1
            trace = probe.session
            if trace is not None and not frame.training:
                if trace.records_spans:
                    trace.instant("dmi", f"crc_drop:{self.name}", self.sim.now_ps)
                trace.count("dmi.crc_drops")
            return
        if kind is TrainingFrame:
            self._handle_training(frame)
            return
        # 1) the ACK piggybacked on this frame retires our transmitted
        # frames.  ACKs are cumulative: acknowledging N retires every held
        # frame up to and including N (ACKs themselves can be lost; a later
        # one covers for earlier ones).  An ACK for a frame no longer held
        # (a duplicate after a replay) retires nothing.
        ack_seq = frame.ack_seq
        if ack_seq is not None:
            held = self._held
            if ack_seq in held:
                popitem = held.popitem
                while popitem(False)[0] != ack_seq:
                    pass
                self._consecutive_replays = 0
                if self._tx_queue:
                    self._pump()  # the hold has room again
                elif not (self._ack_check_scheduled or self._replay_in_progress):
                    # what _pump would do with nothing queued
                    self._schedule_ack_check()
        # 2) sequence check for the payload direction.  Forward distance from
        # the last accepted frame classifies the arrival: 1 = the expected
        # next frame; 2..depth = a gap (something before it was dropped, so
        # drop this too and let replay resend in order); anything else can
        # only be a duplicate of an already-accepted frame (replay holds at
        # most `depth` frames, so live frames are never further ahead).
        seq_id = frame.seq_id
        last = self._last_accepted
        fwd = (seq_id - (-1 if last is None else last)) % SEQ_MOD
        trace = probe.session
        if fwd == 1:
            self._last_accepted = seq_id
            self.frames_accepted += 1
            if trace is not None:
                trace.frames_accepted.count += 1
            ack_owed = True
        elif 2 <= fwd <= self.config.replay_depth:
            self.seq_drops += 1
            if trace is not None:
                trace.count("dmi.seq_drops")
            return
        else:
            self.duplicates_seen += 1
            if trace is not None:
                trace.counters["dmi.duplicates"].count += 1
            # Re-ACK only *payload* duplicates: they mean the peer is
            # replaying held frames because our earlier ACK was lost.  An
            # idle duplicate is just an ACK carrier — it is never held for
            # replay, so answering it with another idle ACK would bounce
            # idle frames between the endpoints forever.
            ack_owed = not frame.is_idle
        if ack_owed and not self._idle_ack_scheduled:
            # Make sure the peer hears our ACK even if we have nothing to
            # send.  Idle ACKs are coalesced and rate-limited: under a
            # duplicate storm (peer replaying) one ACK answers the whole
            # burst.  Flooding one idle frame per received duplicate would
            # saturate the opposite wire and congest the channel into
            # collapse.
            self._idle_ack_scheduled = True
            fire_at = self.sim.now_ps + self.config.idle_ack_delay_ps
            earliest = self._last_idle_ack_ps + 4 * self.tx_link.frame_wire_ps
            self.sim.call_at(
                earliest if earliest > fire_at else fire_at, self._send_idle_ack
            )
        if fwd == 1:
            self.on_payload(frame)

    def _send_idle_ack(self) -> None:
        self._idle_ack_scheduled = False
        if self.failed or self._last_accepted is None:
            return
        if self._tx_queue:
            return  # a data frame will carry the ACK
        self._last_idle_ack_ps = self.sim.now_ps
        # Idle ACK frames re-use a sequence ID the peer has *already
        # acknowledged* (the peer treats them as duplicates), so they need no
        # ACK themselves and the ack exchange terminates.  Reusing merely the
        # last *transmitted* ID would be wrong: if that frame was corrupted
        # in flight, the peer would accept the empty idle frame in its place.
        seq = self._next_tx_seq
        for seq in self._held:  # the oldest held frame, if any
            break
        seq = (seq - 1) % SEQ_MOD
        self.tx_link.send(self._frame_out_cls(seq, self._last_accepted))


# ---------------------------------------------------------------------------
# Command layer
# ---------------------------------------------------------------------------

_CHUNKS_PER_WRITE = CACHE_LINE_BYTES // DOWN_DATA_CHUNK   # 8
_CHUNKS_PER_READ = CACHE_LINE_BYTES // UP_DATA_CHUNK      # 4
#: chunk offsets of one line, in line order
_WRITE_OFFSETS = range(0, CACHE_LINE_BYTES, DOWN_DATA_CHUNK)
_READ_OFFSETS = range(0, CACHE_LINE_BYTES, UP_DATA_CHUNK)


@dataclass
class _HostPending:
    command: Command
    signal: Signal
    issued_ps: int
    chunks: Dict[int, bytes] = field(default_factory=dict)


class HostCommandLayer:
    """Processor-side command issue over a :class:`FrameEndpoint`."""

    def __init__(self, sim: Simulator, endpoint: FrameEndpoint):
        self.sim = sim
        self.endpoint = endpoint
        self._pending: Dict[int, _HostPending] = {}
        # Stats
        self.commands_issued = 0
        self.commands_completed = 0

    def issue(self, command: Command) -> Signal:
        """Send ``command`` downstream; returns a Signal firing with Response."""
        if command.tag in self._pending:
            raise ProtocolError(f"tag {command.tag} already has a command in flight")
        # built first: an address the frame cannot carry raises before the
        # tag is taken
        header = CommandHeader(command.opcode, command.tag, command.address)
        done = Signal(f"cmd.tag{command.tag}")
        self._pending[command.tag] = _HostPending(command, done, self.sim.now_ps)
        self.commands_issued += 1
        trace = probe.session
        if trace is not None:
            trace.counters["dmi.commands_issued"].count += 1

        first_chunk = None
        if command.opcode.has_downstream_data:
            assert command.data is not None
            first_chunk = DataChunk(command.tag, 0, command.data[:DOWN_DATA_CHUNK])
        self.endpoint.enqueue(header, first_chunk)

        if command.opcode is Opcode.PARTIAL_WRITE:
            assert command.byte_enable is not None
            mask_bits = bytearray(CACHE_LINE_BYTES // 8)
            for i, enabled in enumerate(command.byte_enable):
                if enabled:
                    mask_bits[i // 8] |= 1 << (i % 8)
            self.endpoint.enqueue(
                None, DataChunk(command.tag, MASK_CHUNK_OFFSET, bytes(mask_bits))
            )
        if command.opcode.has_downstream_data:
            assert command.data is not None
            for off in range(DOWN_DATA_CHUNK, CACHE_LINE_BYTES, DOWN_DATA_CHUNK):
                self.endpoint.enqueue(
                    None, DataChunk(command.tag, off, command.data[off : off + DOWN_DATA_CHUNK])
                )
        return done

    def on_upstream(self, frame: UpstreamFrame) -> None:
        """Payload handler for the host's receive direction."""
        if frame.chunk is not None:
            pending = self._pending.get(frame.chunk.tag)
            if pending is None:
                raise ProtocolError(f"read data for idle tag {frame.chunk.tag}")
            pending.chunks[frame.chunk.offset] = frame.chunk.data
        for done in frame.dones:
            self._complete(done.tag)

    def _complete(self, tag: int) -> None:
        pending = self._pending.pop(tag, None)
        if pending is None:
            raise ProtocolError(f"done for idle tag {tag}")
        data = None
        if pending.command.opcode.returns_data:
            if len(pending.chunks) != _CHUNKS_PER_READ:
                raise ProtocolError(
                    f"tag {tag}: done before all read data "
                    f"({len(pending.chunks)}/{_CHUNKS_PER_READ} chunks)"
                )
            data = b"".join([pending.chunks[off] for off in _READ_OFFSETS])
        self.commands_completed += 1
        trace = probe.session
        if trace is not None:
            if trace.records_spans:
                # the frame-loop round trip of one command: issue to done
                trace.complete(
                    "dmi", f"cmd.{pending.command.opcode.value}",
                    pending.issued_ps, self.sim.now_ps, {"tag": tag},
                )
            trace.counters["dmi.commands_completed"].count += 1
            trace.histograms["dmi.cmd_rtt_ps"].samples.append(
                self.sim.now_ps - pending.issued_ps
            )
            journeys = trace.journeys
            jid = pending.command.journey
            if journeys is not None and jid is not None:
                # upstream leg: buffer respond through done delivery
                journeys.stage_to(jid, "dmi.up", self.sim.now_ps)
        pending.signal.trigger(Response(tag, pending.command.opcode, data))

    @property
    def in_flight(self) -> int:
        return len(self._pending)


@dataclass
class _BufferPending:
    header: CommandHeader
    chunks: Dict[int, bytes] = field(default_factory=dict)
    mask: Optional[bytes] = None


class BufferCommandLayer:
    """Buffer-side command assembly and response transmission.

    ``handler(command, respond)`` is the buffer model's entry point: it
    receives a fully assembled :class:`Command` and a ``respond(Response)``
    callable to invoke when execution finishes (after whatever simulated
    delay the buffer's internals add).
    """

    def __init__(
        self,
        sim: Simulator,
        endpoint: FrameEndpoint,
        handler: Callable[[Command, Callable[[Response], None]], None],
        channel_name: str = "",
    ):
        self.sim = sim
        self.endpoint = endpoint
        self.handler = handler
        #: the owning channel's name — the journey tracker's binding key
        #: (frames carry no journey id across the wire)
        self.channel_name = channel_name or endpoint.name.rsplit(".", 1)[0]
        self._assembling: Dict[int, _BufferPending] = {}
        # Stats
        self.commands_received = 0
        self.responses_sent = 0

    def on_downstream(self, frame: DownstreamFrame) -> None:
        """Payload handler for the buffer's receive direction.

        A command completes only on a frame that carries its header or one
        of its chunks, so only the (at most two) tags this frame touches
        are checked, in assembly order: a chunk's command was already
        assembling, so it is older than a header arriving alongside.
        """
        assembling = self._assembling
        command, chunk = frame.command, frame.chunk
        if command is not None:
            tag = command.tag
            if tag in assembling:
                raise ProtocolError(f"tag {tag}: command while previous is assembling")
            assembling[tag] = _BufferPending(command)
        if chunk is not None:
            pending = assembling.get(chunk.tag)
            if pending is None:
                raise ProtocolError(f"write data for idle tag {chunk.tag}")
            if chunk.offset == MASK_CHUNK_OFFSET:
                pending.mask = chunk.data
            else:
                pending.chunks[chunk.offset] = chunk.data
            if self._is_complete(pending):
                self._dispatch(chunk.tag)
        if command is not None and (chunk is None or chunk.tag != command.tag):
            if self._is_complete(assembling[command.tag]):
                self._dispatch(command.tag)

    def _is_complete(self, pending: _BufferPending) -> bool:
        op = pending.header.opcode
        if op.has_downstream_data and len(pending.chunks) < _CHUNKS_PER_WRITE:
            return False
        if op is Opcode.PARTIAL_WRITE and pending.mask is None:
            return False
        return True

    def _dispatch(self, tag: int) -> None:
        pending = self._assembling.pop(tag)
        op = pending.header.opcode
        data = None
        if op.has_downstream_data:
            data = b"".join([pending.chunks[off] for off in _WRITE_OFFSETS])
        byte_enable = None
        if op is Opcode.PARTIAL_WRITE:
            assert pending.mask is not None
            byte_enable = bytes(
                1 if (pending.mask[i // 8] >> (i % 8)) & 1 else 0
                for i in range(CACHE_LINE_BYTES)
            )
        command = Command(op, pending.header.address, tag, data, byte_enable)
        self.commands_received += 1
        trace = probe.session
        if trace is not None:
            journeys = trace.journeys
            if journeys is not None:
                jid = journeys.bound(self.channel_name, tag)
                if jid is not None:
                    # re-attach the journey the wire stripped, and close the
                    # downstream leg: host issue through command assembly
                    command.journey = jid
                    journeys.stage_to(jid, "dmi.down", self.sim.now_ps)
        self.handler(command, lambda resp: self.respond(resp))

    def respond(self, response: Response) -> None:
        """Send a response upstream: data chunks (if any) then the done."""
        trace = probe.session
        if trace is not None:
            journeys = trace.journeys
            if journeys is not None:
                jid = journeys.bound(self.channel_name, response.tag)
                if jid is not None:
                    # buffer window: command dispatch through response ready
                    journeys.stage_to(jid, "buffer", self.sim.now_ps)
        if response.data is not None:
            for off in _READ_OFFSETS[:-1]:
                self.endpoint.enqueue(
                    None, DataChunk(response.tag, off, response.data[off : off + UP_DATA_CHUNK])
                )
            last = _READ_OFFSETS[-1]
            self.endpoint.enqueue(
                [DoneNotice(response.tag)],
                DataChunk(response.tag, last, response.data[last : last + UP_DATA_CHUNK]),
            )
        else:
            self.endpoint.enqueue([DoneNotice(response.tag)], None)
        self.responses_sent += 1


# ---------------------------------------------------------------------------
# Channel assembly
# ---------------------------------------------------------------------------


class DmiChannel:
    """A fully wired DMI channel: host endpoint <-> buffer endpoint.

    Construction wires the two serial links to the two endpoints and the
    command layers on top.  Link training (:mod:`repro.dmi.training`) must
    run before commands flow; it fills in the measured FRTL on both sides.
    """

    def __init__(
        self,
        sim: Simulator,
        down_link: SerialLink,
        up_link: SerialLink,
        host_config: EndpointConfig,
        buffer_config: EndpointConfig,
        buffer_handler: Callable[[Command, Callable[[Response], None]], None],
        name: str = "dmi0",
    ):
        self.sim = sim
        self.name = name
        self.down_link = down_link
        self.up_link = up_link
        self.failure: Optional[Exception] = None

        # each endpoint decodes only its own frame class (frame_in_cls), so
        # payloads go straight to the command layer on top of it
        self.host_endpoint = FrameEndpoint(
            sim, f"{name}.host", down_link, UpstreamFrame, host_config,
            on_payload=None, on_fail=self._on_fail,
        )
        self.buffer_endpoint = FrameEndpoint(
            sim, f"{name}.buffer", up_link, DownstreamFrame, buffer_config,
            on_payload=None, on_fail=self._on_fail,
        )
        self.buffer_endpoint.listen(down_link)
        self.host_endpoint.listen(up_link)

        self.host = HostCommandLayer(sim, self.host_endpoint)
        self.buffer = BufferCommandLayer(
            sim, self.buffer_endpoint, buffer_handler, channel_name=name
        )
        self.host_endpoint.on_payload = self.host.on_upstream
        self.buffer_endpoint.on_payload = self.buffer.on_downstream

    def _on_fail(self, exc: Exception) -> None:
        self.failure = exc
        self.host_endpoint.failed = True
        self.buffer_endpoint.failed = True

    @property
    def operational(self) -> bool:
        return self.failure is None

    def set_frtl(self, frtl_ps: int) -> None:
        """Record the trained frame round-trip latency on both endpoints."""
        self.host_endpoint.frtl_ps = frtl_ps
        self.buffer_endpoint.frtl_ps = frtl_ps

    def reset(self) -> None:
        """Firmware-driven channel reset: both endpoints back to power-on.

        In-flight commands are abandoned (their signals never fire — the
        issuing software layer must re-drive them after recovery), and the
        caller must let any frames still in flight drain before starting
        link training, or the freshly resynchronized descramblers would
        consume keystream for frames the new transmit streams never sent.
        """
        self.failure = None
        self.host_endpoint.reset()
        self.buffer_endpoint.reset()
        self.host._pending.clear()
        self.buffer._assembling.clear()
