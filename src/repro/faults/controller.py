"""The fault controller: executes a compiled plan on the sim kernel.

:class:`FaultController` takes a :class:`~repro.faults.plan.FaultPlan`,
binds its entries to injectors against a built system, and schedules
every compiled :class:`FaultEvent` as a kernel callback (offset from the
simulated time at :meth:`start`).  For each firing it:

* calls the injector's ``inject`` and tallies the outcome in the
  :class:`~repro.faults.report.ResilienceReport`,
* emits a ``fault`` instant (and a ``fault`` span once the window
  closes) plus ``faults.*`` counters on the ambient trace session,
* opens a *fault window* — the interval during which in-flight journeys
  are considered fault-affected.  The controller registers itself as the
  journey tracker's ``fault_probe`` so every journey that overlaps an
  open window is tagged with the fault labels at finish time (nil-checked:
  zero cost when no controller is active).

Windows with ``duration_ps > 0`` schedule the injector's ``recover`` at
window end.  Injectors flagged ``needs_heal`` (channel retraining runs
the simulator itself) defer recovery to :meth:`heal`, which the driving
experiment calls between ``sim.run`` invocations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..sim import Rng, Simulator, derive_seed
from ..telemetry import probe
from .injectors import Injector, make_injector
from .plan import FaultEvent, FaultPlan
from .report import ResilienceReport


@dataclass
class FaultWindow:
    """One open (or closed) fault interval, keyed by the spec label."""

    label: str
    index: int
    start_ps: int
    end_ps: Optional[int] = None


class FaultController:
    """Schedules a plan's events and tracks active fault windows."""

    def __init__(self, sim: Simulator, plan: FaultPlan, seed: int = 0):
        self.sim = sim
        self.plan = plan
        self.seed = seed
        self.report = ResilienceReport(plan.name)
        self.windows: List[FaultWindow] = []
        self._injectors: List[Injector] = []
        self._pending_heal: List[Tuple[FaultEvent, FaultWindow, Injector]] = []
        self._started = False
        self._stopped = False
        self._tracker = None

    # -- setup ----------------------------------------------------------

    def install(self, system) -> "FaultController":
        """Build and bind one injector per plan entry."""
        root = Rng(derive_seed(self.seed, f"faults.{self.plan.name}"), "faults")
        self._injectors = []
        for spec in self.plan.specs:
            injector = make_injector(spec, self.sim, root.fork(spec.label))
            injector.bind(system)
            self._injectors.append(injector)
        return self

    def start(self) -> "FaultController":
        """Schedule every compiled event, offset from the current sim time."""
        if self._started:
            return self
        self._started = True
        offset = self.sim.now_ps
        for event in self.plan.compile(self.seed):
            self.sim.call_at(offset + event.at_ps, self._fire, event)
        trace = probe.session
        if trace is not None and trace.journeys is not None:
            self._tracker = trace.journeys
            self._tracker.fault_probe = self.fault_tags
        return self

    # -- event execution -------------------------------------------------

    def _fire(self, event: FaultEvent) -> None:
        if self._stopped:
            return
        now = self.sim.now_ps
        spec = event.spec
        injector = self._injectors[event.index]
        outcome = injector.inject(now)
        self.report.record_injection(spec, outcome)
        trace = probe.session
        if trace is not None:
            if trace.records_spans:
                trace.instant("fault", f"inject:{spec.label}", now, args={
                    "injector": spec.injector,
                    "target": spec.target,
                    "outcome": outcome,
                })
            trace.count("faults.injected" if outcome == "injected"
                        else "faults.skipped")
            if outcome == "injected":
                trace.count(f"faults.{spec.injector}")
        if outcome == "skipped":
            return
        window = FaultWindow(spec.label, event.index, now)
        self.windows.append(window)
        if spec.duration_ps > 0:
            self.sim.call_at(now + spec.duration_ps, self._close, event, window)
        elif injector.needs_heal:
            self._pending_heal.append((event, window, injector))
        else:
            window.end_ps = now  # point fault: tags journeys in flight now

    def _close(self, event: FaultEvent, window: FaultWindow) -> None:
        if self._stopped or window.end_ps is not None:
            return
        injector = self._injectors[event.index]
        if injector.needs_heal:
            self._pending_heal.append((event, window, injector))
            return
        now = self.sim.now_ps
        outcome = injector.recover(now)
        window.end_ps = now
        self._record_recovery(event.spec, window, outcome)

    def _record_recovery(self, spec, window: FaultWindow, outcome: str) -> None:
        self.report.record_recovery(spec, outcome)
        trace = probe.session
        if trace is not None:
            end = window.end_ps if window.end_ps is not None else window.start_ps
            if trace.records_spans:
                trace.complete("fault", spec.label, window.start_ps, end, args={
                    "injector": spec.injector,
                    "target": spec.target,
                    "outcome": outcome,
                })
            if outcome in ("recovered", "failed", "lost"):
                trace.count(f"faults.{outcome}")

    # -- out-of-kernel recovery ------------------------------------------

    def heal(self) -> List[Tuple[str, str]]:
        """Run deferred recoveries that cannot execute inside kernel events
        (channel retraining drives the simulator).  Call between sim runs.
        Returns ``[(label, outcome), ...]``."""
        healed: List[Tuple[str, str]] = []
        pending, self._pending_heal = self._pending_heal, []
        for event, window, injector in pending:
            outcome = injector.heal(self.sim.now_ps)
            window.end_ps = self.sim.now_ps
            self._record_recovery(event.spec, window, outcome)
            healed.append((event.spec.label, outcome))
        return healed

    # -- journey tagging --------------------------------------------------

    def fault_tags(self, start_ps: int, end_ps: int) -> Tuple[str, ...]:
        """Labels of fault windows overlapping [start_ps, end_ps].

        Installed as the journey tracker's ``fault_probe``; an open window
        (``end_ps is None``) overlaps everything after its start.
        """
        hits = {
            w.label
            for w in self.windows
            if w.start_ps <= end_ps and (w.end_ps is None or w.end_ps >= start_ps)
        }
        return tuple(sorted(hits))

    # -- teardown ---------------------------------------------------------

    def stop(self) -> ResilienceReport:
        """Close every open window (recovering where possible) and detach.

        Idempotent.  Scheduled events still in the kernel queue become
        no-ops.  Returns the resilience report.
        """
        if self._stopped:
            return self.report
        self._stopped = True
        now = self.sim.now_ps
        deferred = {id(w) for _, w, _ in self._pending_heal}
        for event, window, injector in self._pending_heal:
            outcome = injector.heal(now)
            window.end_ps = now
            self._record_recovery(event.spec, window, outcome)
        self._pending_heal = []
        for window in self.windows:
            if window.end_ps is None and id(window) not in deferred:
                injector = self._injectors[window.index]
                outcome = injector.recover(now)
                window.end_ps = now
                self._record_recovery(self.plan.specs[window.index], window, outcome)
        # publish the closed windows so the attribution artifact and the
        # time-bucketed resilience view can line injections up with latency
        trace = probe.session
        if trace is not None and hasattr(trace, "fault_windows"):
            for window in self.windows:
                spec = self.plan.specs[window.index]
                trace.fault_windows.append({
                    "label": window.label,
                    "injector": spec.injector,
                    "target": spec.target,
                    "start_ps": window.start_ps,
                    "end_ps": window.end_ps if window.end_ps is not None else now,
                })
        if self._tracker is not None:
            if self._tracker.fault_probe == self.fault_tags:
                self._tracker.fault_probe = None
            self._tracker = None
        return self.report
