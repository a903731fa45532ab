"""DMI link training: alignment phases, FRTL measurement, budget check.

Training proceeds the way Section 3.3 describes:

1. **bit / word / frame alignment** — the two sides exchange patterns until
   the receiver locks.  On real hardware "link training often does not
   complete successfully in a single try"; we model each phase with a
   per-attempt lock probability so the firmware's retry path is exercised.
2. **FRTL measurement** — the host transmits signature frames; the buffer
   echoes them after its real (simulated) internal pipeline delay, and the
   host measures the round trip.  The largest of several rounds becomes the
   channel's Frame Round Trip Latency.
3. **budget check** — the POWER8 host hardware tolerates only a bounded
   FRTL.  If the measured value exceeds ``host_max_frtl_ps``, training fails
   with :class:`FrtlBudgetError`: this is the exact design constraint that
   forced the CRC-stage reduction and receiver-FIFO bypass on ConTutto.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from ..errors import FrtlBudgetError, LinkTrainingError
from ..sim import Process, Rng, Signal, Simulator
from ..telemetry import probe
from ..units import ns_to_ps
from .channel import DmiChannel

#: POWER8's maximum tolerable FRTL.  The memory-buffer interface budget is on
#: the order of a few hundred nest cycles; we use 400 ns, which a Centaur
#: clears easily and ConTutto clears only after its timing optimizations.
DEFAULT_HOST_MAX_FRTL_PS = ns_to_ps(400)


@dataclass
class TrainingConfig:
    """Knobs for the training sequence."""

    #: probability that one alignment phase locks on a given attempt
    phase_lock_probability: float = 0.7
    #: alignment attempts per phase before training gives up
    max_phase_attempts: int = 20
    #: simulated duration of one alignment attempt
    phase_attempt_ps: int = ns_to_ps(2_000)
    #: number of FRTL signature round trips (max is taken)
    frtl_rounds: int = 4
    #: host silicon's maximum tolerable FRTL
    host_max_frtl_ps: int = DEFAULT_HOST_MAX_FRTL_PS
    #: extra margin folded into the recorded FRTL (guard band)
    frtl_guard_ps: int = ns_to_ps(4)


@dataclass
class TrainingResult:
    """Outcome of a successful training run."""

    frtl_ps: int
    phase_attempts: List[int] = field(default_factory=list)
    duration_ps: int = 0

    @property
    def total_attempts(self) -> int:
        return sum(self.phase_attempts)


_ALIGNMENT_PHASES = ("bit", "word", "frame")


class LinkTrainer:
    """Runs the training sequence on a :class:`DmiChannel`."""

    def __init__(self, sim: Simulator, config: TrainingConfig, rng: Rng):
        self.sim = sim
        self.config = config
        self.rng = rng

    def train(self, channel: DmiChannel) -> Process:
        """Start training as a simulated process; result is TrainingResult.

        Raises :class:`LinkTrainingError` (alignment never locked) or
        :class:`FrtlBudgetError` (measured FRTL over the host limit) inside
        the process — callers see it when reading ``process.result``.
        """
        return Process(self.sim, self._run(channel), name=f"train.{channel.name}")

    def _run(self, channel: DmiChannel):
        start_ps = self.sim.now_ps
        trace = probe.session
        if trace is not None:
            # every train() entry is a (re)train of the channel: the first is
            # initial bring-up, later ones are firmware-driven retrains
            if trace.records_spans:
                trace.instant("dmi", f"retrain:{channel.name}", start_ps)
            trace.count("dmi.trainings_started")
        channel.down_link.resync()
        channel.up_link.resync()

        attempts_per_phase: List[int] = []
        for phase in _ALIGNMENT_PHASES:
            attempts = 0
            locked = False
            while attempts < self.config.max_phase_attempts:
                attempts += 1
                yield self.config.phase_attempt_ps
                if self.rng.chance(self.config.phase_lock_probability):
                    locked = True
                    break
            if not locked:
                raise LinkTrainingError(
                    f"{channel.name}: {phase} alignment failed after "
                    f"{attempts} attempts"
                )
            attempts_per_phase.append(attempts)

        frtl_ps = yield from self._measure_frtl(channel)
        frtl_ps += self.config.frtl_guard_ps
        if frtl_ps > self.config.host_max_frtl_ps:
            raise FrtlBudgetError(
                f"{channel.name}: measured FRTL {frtl_ps / 1000:.1f} ns exceeds "
                f"host limit {self.config.host_max_frtl_ps / 1000:.1f} ns"
            )
        channel.set_frtl(frtl_ps)
        trace = probe.session  # re-fetch: training spans many sim events
        if trace is not None:
            if trace.records_spans:
                trace.complete(
                    "dmi", f"train:{channel.name}", start_ps, self.sim.now_ps,
                    {"frtl_ps": frtl_ps, "attempts": attempts_per_phase},
                )
            trace.count("dmi.trainings_completed")
        return TrainingResult(
            frtl_ps=frtl_ps,
            phase_attempts=attempts_per_phase,
            duration_ps=self.sim.now_ps - start_ps,
        )

    def _measure_frtl(self, channel: DmiChannel):
        """Signature round trips through the actual simulated pipeline."""
        channel.buffer_endpoint.training_echo = True
        worst = 0
        # Signature frames can themselves be corrupted in flight; retransmit
        # after a generous timeout (real training patterns repeat anyway).
        # The window is at least twice the host's FRTL budget so that an
        # exhausted retry loop is evidence of a budget-busting round trip,
        # not of ordinary frame loss.
        retry_after_ps = max(ns_to_ps(1_000), 2 * self.config.host_max_frtl_ps)
        try:
            for round_no in range(self.config.frtl_rounds):
                attempt = 0
                while True:
                    echo = Signal(f"frtl.{round_no}.{attempt}")
                    signature = (0xA5 << 8) | ((round_no * 16 + attempt) & 0xFF)

                    def on_training(frame, _sig=signature, _echo=echo):
                        if frame.signature == _sig and frame.echoed and not _echo.triggered:
                            _echo.trigger(self.sim.now_ps)

                    def give_up(_echo=echo):
                        if not _echo.triggered:
                            _echo.trigger(None)

                    channel.host_endpoint.on_training = on_training
                    t0 = self.sim.now_ps
                    channel.host_endpoint.send_training_signature(signature)
                    self.sim.call_after(retry_after_ps, give_up)
                    t_arrive = yield echo
                    if t_arrive is not None:
                        worst = max(worst, t_arrive - t0)
                        break
                    attempt += 1
                    if attempt >= 16:
                        raise FrtlBudgetError(
                            f"{channel.name}: no FRTL signature echo within "
                            f"{retry_after_ps / 1000:.0f} ns across {attempt} "
                            "attempts - round trip exceeds the host budget "
                            "or the link is dead"
                        )
        finally:
            channel.buffer_endpoint.training_echo = False
            channel.host_endpoint.on_training = None
        return worst
