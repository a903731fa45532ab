"""The software-controllable added-latency knob (Section 4.1).

ConTutto adds variable latency to memory by inserting delay modules between
the MBS logic and the Avalon bus.  Each knob position adds 6 fabric cycles
= 24 ns at 250 MHz; the position is set from software (through the FSI/I2C
register path in :mod:`repro.firmware`).

Table 3 uses positions 0 (base, 390 ns), 2 (438 ns), 6 (534 ns) and
7 (558 ns).
"""

from __future__ import annotations

from ..errors import ConfigurationError
from ..sim import ClockDomain, fabric_clock

CYCLES_PER_POSITION = 6
MAX_POSITION = 7


class LatencyKnob:
    """Delay stage between MBS and the Avalon bus."""

    def __init__(self, clock: ClockDomain = None):
        self.clock = clock or fabric_clock()
        self._position = 0
        #: added one-way latency on the command path to memory; a plain
        #: attribute, kept in step by set_position (MBS reads it per command)
        self.delay_ps = 0

    @property
    def position(self) -> int:
        return self._position

    def set_position(self, position: int) -> None:
        if not 0 <= position <= MAX_POSITION:
            raise ConfigurationError(
                f"latency knob position {position} outside 0..{MAX_POSITION}"
            )
        self._position = position
        self.delay_ps = self.clock.cycles_to_ps(self.delay_cycles)

    @property
    def delay_cycles(self) -> int:
        return self._position * CYCLES_PER_POSITION

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<LatencyKnob @ {self._position} (+{self.delay_ps / 1000:.0f} ns)>"
