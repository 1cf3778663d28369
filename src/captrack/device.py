"""Device behavior: GPS mode selection, task scheduling, power hysteresis.

The device sleeps between ticks and wakes for three periodic activities:
voltage sensing, GPS fixes (with attached Coulomb-counter read and position
write), and bulk NB-IoT uploads. Which GPS start mode a fix uses depends on
how stale the ephemeris is and whether the backup domain survived since the
last fix; every activity is gated on a minimum capacitor voltage.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from .energy_model import SystemConfig, VoltageThresholds

SENSE = "sense"
FIX = "fix"
TRANSMIT = "transmit"


class Power(enum.Enum):
    ON = "On"
    OFF = "Off"


class GpsMode(enum.Enum):
    HOT = "Hot"
    HOT_EPHEMERIS = "HotWithEphemeris"
    WARM_EPHEMERIS = "WarmWithEphemeris"
    COLD = "Cold"


@dataclass
class GpsContext:
    """Ephemeris freshness state. age_s is None whenever the backup domain
    (RTC + backup RAM) has lost power, which forces the next fix cold."""

    ephemeris_age_s: int | None = 0
    backup_valid: bool = True

    def __post_init__(self) -> None:
        if not self.backup_valid:
            self.ephemeris_age_s = None

    def invalidate(self) -> None:
        self.backup_valid = False
        self.ephemeris_age_s = None

    def advance(self, seconds: int) -> None:
        if self.ephemeris_age_s is not None:
            self.ephemeris_age_s += seconds


@dataclass(frozen=True)
class DataSample:
    """One buffered record: position plus the Coulomb delta since last fix."""

    POSITION_BYTES = 12  # 8 lon/lat + 4 GPS time
    COULOMB_BYTES = 4
    WIRE_BYTES = POSITION_BYTES + COULOMB_BYTES

    time_s: int
    coulomb_c: float


@dataclass
class DeviceState:
    power: Power
    gps: GpsContext
    buffer: list[DataSample] = field(default_factory=list)
    coulomb_accumulator: float = 0.0
    clock: int = 0

    @classmethod
    def initial(cls, config: SystemConfig, power_on: bool) -> "DeviceState":
        # An unpowered start means the backup domain never held state.
        if power_on and config.initial_backup_valid:
            gps = GpsContext(config.initial_ephemeris_age_s, True)
        else:
            gps = GpsContext(None, False)
        return cls(Power.ON if power_on else Power.OFF, gps)


def select_gps_mode(
    gps: GpsContext, voltage: float, thresholds: VoltageThresholds, config: SystemConfig
) -> GpsMode | None:
    """Pick the start mode for a due fix, or None to skip it on low voltage.

    Stale-to-fresh: cold when the backup domain is gone or the ephemeris is
    older than the warm limit; warm (always with a download) in between; hot
    within the hot limit, upgraded to hot-with-download once the age passes
    the refresh age, falling back to plain hot if the download threshold is
    not met but the hot one is.
    """
    age = gps.ephemeris_age_s
    if not gps.backup_valid or age is None or age > config.ephemeris_warm_limit_s:
        if voltage >= thresholds.cold_start:
            return GpsMode.COLD
        return None
    if age <= config.ephemeris_hot_limit_s:
        if age >= config.ephemeris_refresh_age_s and voltage >= thresholds.hot_ephemeris:
            return GpsMode.HOT_EPHEMERIS
        if voltage >= thresholds.hot_start:
            return GpsMode.HOT
        return None
    if voltage >= thresholds.warm_ephemeris:
        return GpsMode.WARM_EPHEMERIS
    return None


# Modes whose fix leaves a fresh ephemeris.
_EPHEMERIS_RESET = (GpsMode.HOT_EPHEMERIS, GpsMode.WARM_EPHEMERIS, GpsMode.COLD)


def due_schedule(clock0: int, n_ticks: int, config: SystemConfig) -> list[tuple[str, ...]]:
    """The activities due in each of n_ticks consecutive ticks from clock0,
    one tuple per tick in execution order. Disabled intervals (None) never
    fire; everything fires at clock 0."""
    clock = clock0 + np.arange(n_ticks, dtype=np.int64) * config.base_tick_s
    code = np.zeros(n_ticks, dtype=np.int64)
    names = (SENSE, FIX, TRANSMIT)
    intervals = (config.sense_interval_s, config.fix_interval_s, config.transmit_interval_s)
    for bit, interval in enumerate(intervals):
        if interval is not None:
            code |= (clock % interval == 0).astype(np.int64) << bit
    sets = [tuple(name for bit, name in enumerate(names) if c >> bit & 1) for c in range(8)]
    return [sets[c] for c in code.tolist()]


def on_fix_success(state: DeviceState, mode: GpsMode, coulomb_value: float) -> None:
    """Record the sample and refresh the ephemeris bookkeeping.

    Any successful fix revives the backup domain. Modes that download orbit
    data (and cold, which acquires it from scratch) reset the age; a plain
    hot fix leaves it running.
    """
    state.buffer.append(DataSample(state.clock, coulomb_value))
    state.gps.backup_valid = True
    if mode in _EPHEMERIS_RESET:
        state.gps.ephemeris_age_s = 0
    elif state.gps.ephemeris_age_s is None:
        state.gps.ephemeris_age_s = 0


def read_coulomb(state: DeviceState) -> float:
    """Drain the charge accumulated since the previous read, in coulombs."""
    value = state.coulomb_accumulator
    state.coulomb_accumulator = 0.0
    return value


# The upload whose bench-measured duration is TASKS["NbIot"].duration_s;
# payload-scaled uploads last in proportion to their size over this one.
REFERENCE_PAYLOAD_BYTES = 30 * DataSample.WIRE_BYTES


def payload_bytes(samples: int) -> int:
    """Upload size for a buffer of samples; 16 bytes each."""
    if samples < 0:
        raise ValueError(f"sample count must be >= 0, got {samples}")
    return DataSample.WIRE_BYTES * samples


def on_depletion(state: DeviceState) -> None:
    """Voltage fell below v_min: power down, backup domain lost, buffer kept."""
    state.power = Power.OFF
    state.gps.invalidate()


def on_recovery(state: DeviceState) -> None:
    """Voltage recovered to v_turn_on at a tick boundary: resume scheduling."""
    state.power = Power.ON
