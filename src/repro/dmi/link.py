"""Physical-layer model of one DMI link direction.

A :class:`SerialLink` is a unidirectional bundle of high-speed lanes (14
downstream, 21 upstream).  It models:

* **serialization**: one frame occupies 16 UI on every lane, so at 8 GHz a
  frame takes 2 ns on the wire and back-to-back frames cannot overlap;
* **latency**: transmitter SerDes + flight time + receiver capture.  The
  receive path differs by capture mode — Centaur uses the forwarded clock,
  while ConTutto's FPGA transceivers recover the clock from the data (CDR)
  and pay extra capture latency (Section 3.2);
* **scrambling**: the byte stream is scrambled at the transmitter and
  descrambled at the receiver with per-lane LFSRs.  While both ends are in
  lockstep this cancels exactly, so the link only runs the LFSRs after a
  resync that caught frames in flight, when the receiver garbles traffic;
* **bit errors**: an error model flips wire bits with a configurable
  per-frame probability, which surfaces at the receiver as CRC failures and
  exercises the replay machinery.

Frames cross the link as objects.  A frame is packed (with its CRC) only
when its bytes are observable — the error model hit it, or the link is
desynced — and bytes that arrive changed are handed to the receiver's
decoder, which turns them into a frame or a CRC drop.  Framing and
protocol live in :mod:`repro.dmi.channel`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Union

from ..errors import ConfigurationError
from ..sim import ClockDomain, Rng, Simulator
from ..telemetry import probe
from .frames import FRAME_UI, Frame
from .scrambler import BundleScrambler


@dataclass
class LinkErrorModel:
    """Stochastic corruption of frames in flight.

    ``frame_error_rate`` is the probability that a given frame suffers at
    least one bit flip in transit.  Real DMI links run with raw BERs around
    1e-12 and rely on CRC+replay; tests crank this up to exercise recovery.
    """

    frame_error_rate: float = 0.0
    max_flips: int = 1
    #: corrupt the next N frames unconditionally (deterministic drops for
    #: fault injection); consumed before the stochastic rate is consulted
    force_drops: int = 0

    def corrupt(
        self, data: Union[Frame, bytes], rng: Rng
    ) -> Union[Frame, bytes]:
        """Return ``data`` with this frame's bit flips applied.

        ``data`` is a frame or a packed byte image.  A frame the model
        misses comes back unchanged, as the same object; a hit packs it and
        returns the flipped image.  Flips that cancel out leave the image
        equal to the input, so a frame comes back unchanged then too: a
        returned image always differs from the frame's own.

        Invariant the link relies on: the flips never depend on the bytes
        of ``data``.  Whether a frame is hit comes from ``rng`` alone (a
        forced drop flips bit 0); how many bits flip and where come from
        ``rng`` and the image length, which is needed only after a hit.  So
        corrupting a scrambled frame and descrambling it equals corrupting
        the plain frame, with the same RNG draws.
        """
        if self.force_drops > 0:
            self.force_drops -= 1
            out = bytearray(_image(data))
            out[0] ^= 1
            return bytes(out)
        if not rng.chance(self.frame_error_rate):
            return data
        image = _image(data)
        out = bytearray(image)
        flips = rng.randint(1, max(1, self.max_flips))
        for _ in range(flips):
            bit = rng.randint(0, len(out) * 8 - 1)
            out[bit // 8] ^= 1 << (bit % 8)
        return data if out == image else bytes(out)


def _image(data: Union[Frame, bytes]) -> bytes:
    return data.pack() if isinstance(data, Frame) else data


class SerialLink:
    """One direction of the DMI channel: an ordered, lossy-by-corruption pipe."""

    #: extra receiver latency when the sampling clock is recovered from data
    CDR_EXTRA_PS = 900
    #: SerDes transmit + receive base latency (both modes)
    SERDES_BASE_PS = 1_600
    #: time of flight over the board trace
    FLIGHT_PS = 500

    def __init__(
        self,
        sim: Simulator,
        name: str,
        num_lanes: int,
        link_clock: ClockDomain,
        cdr_capture: bool = False,
        error_model: Optional[LinkErrorModel] = None,
        rng: Optional[Rng] = None,
    ):
        if num_lanes <= 0:
            raise ConfigurationError(f"link {name!r}: needs at least one lane")
        self.sim = sim
        self.name = name
        self.num_lanes = num_lanes
        self.link_clock = link_clock
        self.cdr_capture = cdr_capture
        self.error_model = error_model or LinkErrorModel()
        self.rng = rng or Rng(0, name)
        self._tx_scrambler = BundleScrambler(num_lanes)
        self._rx_scrambler = BundleScrambler(num_lanes)
        #: frames serialized but not yet delivered
        self._in_flight = 0
        #: set by a resync that caught frames in flight, cleared by a resync
        #: with none; only while set do the scramblers run (see send())
        self.desynced = False
        # ClockDomain periods are fixed at construction, so both timing
        # constants are plain attributes: the send path and the endpoints'
        # ACK math read them for every frame.
        #: serialization time of one frame: 16 UI at the link rate
        self.frame_wire_ps = FRAME_UI * link_clock.period_ps
        #: pipe latency from start-of-serialization to start-of-delivery
        self.latency_ps = (
            self.SERDES_BASE_PS + self.FLIGHT_PS
            + (self.CDR_EXTRA_PS if cdr_capture else 0)
        )
        self._next_free_ps = 0
        #: span label, formatted once — send() traces every frame
        self._trace_label = f"frame:{name}"
        self._deliver: Optional[Callable[[object], None]] = None
        self._decode: Optional[Callable[[bytes], object]] = None
        #: receiver latency from arrival to ``_deliver`` (see connect())
        self._deliver_delay_ps = 0
        # Stats
        self.frames_sent = 0
        self.frames_corrupted = 0
        self.busy_ps = 0

    # -- wiring ------------------------------------------------------------

    def connect(
        self,
        deliver: Callable[[object], None],
        decode: Callable[[bytes], object],
        delay_ps: int = 0,
    ) -> None:
        """Attach the receiver; called once during channel assembly.

        ``deliver`` receives every arriving frame, as its own event
        ``delay_ps`` after the frame lands (the receiver's internal logic
        latency; the link schedules it, so a frame costs no trampoline).  A
        frame whose bytes arrive changed is first passed, as bytes, through
        ``decode`` at arrival, which returns the frame they decode to or the
        receiver's CRC-drop marker; ``deliver`` gets that result instead.
        """
        if self._deliver is not None:
            raise ConfigurationError(f"link {self.name!r} already connected")
        self._deliver = deliver
        self._decode = decode
        self._deliver_delay_ps = delay_ps

    # -- timing ------------------------------------------------------------

    @property
    def next_free_ps(self) -> int:
        """When the wire finishes serializing everything queued so far."""
        return max(self._next_free_ps, self.sim.now_ps)

    def resync(self) -> None:
        """Reset scrambler state on both ends (start of link training).

        Frames still in flight were scrambled against the old keystream, so
        the reset receiver garbles them and stays out of step with the
        transmitter until a resync with nothing in flight restarts both
        ends together.
        """
        self._tx_scrambler.resync()
        self._rx_scrambler.resync()
        self.desynced = self._in_flight > 0

    # -- transfer ------------------------------------------------------------

    def send(self, frame: Frame) -> int:
        """Transmit one frame; returns its delivery timestamp (ps).

        Frames serialize back to back: a send issued while the wire is busy
        queues behind the in-flight frame (the protocol layer paces itself,
        but training patterns burst).  The frame must not change after this
        call: it may be delivered as the same object.
        """
        if self._deliver is None:
            raise ConfigurationError(f"link {self.name!r} has no receiver connected")
        wire_ps = self.frame_wire_ps
        now_ps = self.sim.now_ps
        start = self._next_free_ps
        if start < now_ps:
            start = now_ps
        self._next_free_ps = start + wire_ps
        self.busy_ps += wire_ps

        # In lockstep the receiver XORs out exactly the keystream the
        # transmitter XORed in, and corruption does not depend on the bytes
        # it flips (LinkErrorModel.corrupt), so descramble(corrupt(
        # scramble(x))) == corrupt(x): the keystream is never observable
        # and is only generated while the ends are desynced.  In lockstep
        # the frame goes out as an object, packed only if the error model
        # hits it.
        if self.desynced:
            packed = frame.pack()
            wire = self.error_model.corrupt(
                self._tx_scrambler.process(packed), self.rng
            )
        else:
            packed = None
            model = self.error_model
            # A clean model returns every frame untouched and draws nothing
            # (Rng.chance(0) consumes no state), so skip the call per frame.
            if model.force_drops == 0 and model.frame_error_rate == 0.0:
                wire = frame
            else:
                wire = model.corrupt(frame, self.rng)
        self._in_flight += 1
        arrival = start + wire_ps + self.latency_ps
        self.frames_sent += 1
        trace = probe.session
        if trace is not None:
            if trace.records_spans:
                # serialization start through delivery: the whole wire transit
                trace.complete("dmi", self._trace_label, start, arrival)
            trace.frames_sent.count += 1
        self.sim.call_at(arrival, self._arrive, frame, packed, wire)
        return arrival

    def _arrive(
        self, frame: Frame, packed: Optional[bytes], wire: Union[Frame, bytes]
    ) -> None:
        """Deliver ``frame``, which went out as ``wire`` (image ``packed``).

        ``wire`` is the frame itself when it left in lockstep untouched,
        otherwise bytes: the corrupted image, or the scrambled one when it
        left desynced (then ``packed`` is its plain image).
        """
        self._in_flight -= 1
        if self.desynced:
            # the receiver descrambles whatever arrives, including frames
            # that left in lockstep before the resync that desynced it
            if packed is None:
                packed = frame.pack()
            received = self._rx_scrambler.process(packed if wire is frame else wire)
            intact = received == packed
        else:
            # corrupt() returns an image only when it differs from the frame's
            received = wire
            intact = wire is frame
        assert self._deliver is not None and self._decode is not None
        if intact:
            self.sim.call_after(self._deliver_delay_ps, self._deliver, frame)
            return
        self.frames_corrupted += 1
        trace = probe.session
        if trace is not None:
            if trace.records_spans:
                trace.instant("dmi", f"corrupt:{self.name}", self.sim.now_ps)
            trace.count("dmi.frames_corrupted")
        self.sim.call_after(
            self._deliver_delay_ps, self._deliver, self._decode(received)
        )

    def utilization(self, window_ps: int) -> float:
        """Fraction of ``window_ps`` the wire spent serializing frames."""
        if window_ps <= 0:
            raise ValueError("utilization window must be positive")
        return min(1.0, self.busy_ps / window_ps)
