"""Bandwidth arbitration between the POWER8 and the accelerators.

The Access processor "arbitrate[s] and schedule[s] the load and store
instructions to the DDR3 DIMMs, thereby supporting various schemes for
allocating and distributing the available memory bandwidth between the
POWER8 and the individual accelerators" (Section 4.3).

:class:`BandwidthArbiter` implements the allocation policies as a front
end over the DIMM ports: weighted shares with work conservation.  Requests
from a class that exceeds its share are delayed until its token bucket
refills; unused bandwidth flows to whoever is asking.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from ..errors import AccelError
from ..sim import Signal, Simulator


@dataclass(frozen=True)
class SharePolicy:
    """Weighted bandwidth shares per requestor class."""

    shares: Dict[str, float]

    def __post_init__(self) -> None:
        if not self.shares:
            raise AccelError("share policy needs at least one class")
        for name, share in self.shares.items():
            if share <= 0:
                raise AccelError(f"share for {name!r} must be positive")

    def fraction(self, name: str) -> float:
        if name not in self.shares:
            raise AccelError(f"unknown requestor class {name!r}")
        return self.shares[name] / sum(self.shares.values())


#: the default split the paper's experiments imply: the host keeps priority
#: but accelerators may consume everything the host leaves idle
HOST_PRIORITY = SharePolicy({"host": 3.0, "accel": 1.0})
EQUAL_SPLIT = SharePolicy({"host": 1.0, "accel": 1.0})


class BandwidthArbiter:
    """Token-bucket arbitration over an aggregate bandwidth budget."""

    def __init__(
        self,
        sim: Simulator,
        aggregate_gb_s: float,
        policy: SharePolicy = HOST_PRIORITY,
        window_us: float = 10.0,
        name: str = "arbiter",
    ):
        if aggregate_gb_s <= 0:
            raise AccelError("aggregate bandwidth must be positive")
        self.sim = sim
        self.aggregate_gb_s = aggregate_gb_s
        self.policy = policy
        self.window_ps = int(window_us * 1e6)
        self.name = name
        self._window_start_ps = 0
        self._consumed: Dict[str, int] = {}
        self.delays = 0

    def _budget_bytes(self, requestor: str) -> int:
        """Bytes ``requestor`` may move per accounting window."""
        window_s = self.window_ps / 1e12
        total = self.aggregate_gb_s * 1e9 * window_s
        return int(total * self.policy.fraction(requestor))

    def _roll_window(self) -> None:
        if self.sim.now_ps - self._window_start_ps >= self.window_ps:
            self._window_start_ps = self.sim.now_ps
            self._consumed = {}

    def request(self, requestor: str, nbytes: int) -> Signal:
        """Claim bandwidth for a transfer; fires when the transfer may start.

        Work-conserving: if the *other* classes are idle this window, a
        requestor may exceed its share.
        """
        self._roll_window()
        done = Signal(f"{self.name}.{requestor}")
        used = self._consumed.get(requestor, 0)
        others_active = any(k != requestor and v > 0 for k, v in self._consumed.items())
        budget = self._budget_bytes(requestor)
        over_budget = used + nbytes > budget
        self._consumed[requestor] = used + nbytes
        if over_budget and others_active:
            # delay to the next window boundary — the share was exhausted
            self.delays += 1
            resume = self._window_start_ps + self.window_ps
            self.sim.call_at(max(resume, self.sim.now_ps), done.trigger)
        else:
            self.sim.call_after(0, done.trigger)
        return done

    def consumed_gb_s(self, requestor: str) -> float:
        """Bandwidth the class has consumed in the current window."""
        elapsed_ps = max(1, self.sim.now_ps - self._window_start_ps)
        return self._consumed.get(requestor, 0) / (elapsed_ps / 1e12) / 1e9
