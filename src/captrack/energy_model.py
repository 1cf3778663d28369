"""Task power model and system configuration for the tracker simulator.

Currents come from per-component bench measurements. A task's system-level
current is its base component draw plus, where applicable, the MCU active-mode
base (0.091 mA), the GPS backup domain (0.028 mA), and the capacitor leakage
of the configured part. Energies are current x duration x supply voltage.
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass, field, replace

from .errors import ConfigError
from .harvest import DEFAULT_COMBINER_EFFICIENCY, DEFAULT_V_SUPPLY

MCU_ACTIVE_BASE_MA = 0.091
GPS_BACKUP_MA = 0.028

# Leakage pairing for the stocked capacitor sizes (farads -> mA).
LEAKAGE_BY_CAPACITANCE = {1.0: 0.010, 2.5: 0.016, 5.0: 0.030}

DEFAULT_V_MAX = 5.5

# The scheduled activities as the bits of a due code, in the order a tick
# runs them.
SENSE, FIX, TRANSMIT = 1, 2, 4


@dataclass(frozen=True)
class TaskSpec:
    """Composition recipe for one schedulable task: its measured base draw
    (label names the bench row) and the always-on draws that ride along
    with it."""

    label: str  # "" = no measured draw of its own
    base_ma: float
    duration_s: float | None  # None = continuous (sleep, off)
    mcu_active: bool
    gps_backup: bool
    base_std_ma: float = 0.0
    duration_std_s: float = 0.0


# The full task set the scheduler can issue, and the only place a measured
# task draw is written down.
TASKS: dict[str, TaskSpec] = {
    "HotStart": TaskSpec("GPS hot start", 7.5, 1.0, True, False),
    "WarmStart": TaskSpec("GPS warm start", 7.5, 4.0, True, False),
    "EphemerisDownload": TaskSpec("GPS ephemeris download", 7.5, 30.0, True, False),
    "ColdStart": TaskSpec("GPS cold start", 8.0, 36.118, True, False, 0.0, 1.96),
    "GpsI2cWrite": TaskSpec("GPS I2C write", 2.0, 0.00038, True, False),
    "Sleep": TaskSpec("MCU Sleep (standby)", 0.00065, None, False, True),
    "NbIot": TaskSpec("NB-IoT", 20.65, 7.89, True, True, 2.78, 1.66),
    "AdcRead": TaskSpec("ADC read", 0.311, 0.00005, False, True),
    "I2cReadCoulomb": TaskSpec("I2C read Coulomb counter", 0.091, 0.00023, False, True),
    "TurnedOff": TaskSpec("", 0.0, None, False, False),
}


@dataclass(frozen=True)
class ActivitySpec:
    """One logged activity: the due-code bit of the scheduled activity it
    serves, the VoltageThresholds field that gates it ("" = ungated), and its
    task chain in run order."""

    activity: int
    gate: str
    chain: tuple[str, ...]


# Every activity the log records as a success, keyed by its event kind, and
# the only place a task chain is written down. A fix ends with the position
# write and the Coulomb-counter read.
ACTIVITIES: dict[str, ActivitySpec] = {
    "Sense": ActivitySpec(SENSE, "", ("AdcRead",)),
    "FixHot": ActivitySpec(FIX, "hot_start", ("HotStart", "GpsI2cWrite", "I2cReadCoulomb")),
    "FixHotEph": ActivitySpec(FIX, "hot_ephemeris", ("HotStart", "EphemerisDownload", "GpsI2cWrite", "I2cReadCoulomb")),
    "FixWarmEph": ActivitySpec(FIX, "warm_ephemeris", ("WarmStart", "EphemerisDownload", "GpsI2cWrite", "I2cReadCoulomb")),
    "FixCold": ActivitySpec(FIX, "cold_start", ("ColdStart", "GpsI2cWrite", "I2cReadCoulomb")),
    "Transmit": ActivitySpec(TRANSMIT, "nbiot", ("NbIot",)),
}
# Each gate threshold and the chain it must cover.
_GATED = {spec.gate: spec.chain for spec in ACTIVITIES.values() if spec.gate}


def compose_task_current(task: str, leakage_ma: float, base_ma: float | None = None) -> float:
    """System-level current of a task in mA, for the given capacitor leakage.

    base_ma overrides the task's measured base draw (used for jittered runs).
    """
    if task not in TASKS:
        raise KeyError(f"unknown task {task!r}")
    if leakage_ma <= 0:
        raise ValueError(f"leakage must be positive, got {leakage_ma}")
    spec = TASKS[task]
    current = spec.base_ma if base_ma is None else base_ma
    if spec.mcu_active:
        current += MCU_ACTIVE_BASE_MA
    if spec.gps_backup:
        current += GPS_BACKUP_MA
    return current + leakage_ma


def task_energy(current_ma: float, duration_s: float, v_supply: float = DEFAULT_V_SUPPLY) -> float:
    """Energy of a timed task in mJ: current x duration x supply voltage."""
    if current_ma < 0 or duration_s < 0 or v_supply <= 0:
        raise ValueError("current and duration must be >= 0, v_supply > 0")
    return current_ma * duration_s * v_supply


def safe_voltage_threshold(task_energy_mj: float, capacitance_f: float, v_min: float) -> float:
    """Lowest start voltage that covers the task from stored energy alone.

    sqrt(v_min^2 + 2 E / C): the capacitor above v_min must hold the task's
    energy with no harvesting assumed.
    """
    if task_energy_mj < 0 or capacitance_f <= 0 or v_min <= 0:
        raise ValueError("energy >= 0, capacitance > 0, v_min > 0 required")
    try:
        return math.sqrt(v_min**2 + 2.0 * (task_energy_mj / 1000.0) / capacitance_f)
    except OverflowError:  # v_min**2 past the float range
        return math.inf


@dataclass(frozen=True)
class CapacitorSpec:
    capacitance_f: float
    leakage_ma: float
    v_max: float = DEFAULT_V_MAX

    @classmethod
    def from_capacitance(cls, capacitance_f: float, v_max: float = DEFAULT_V_MAX) -> "CapacitorSpec":
        """Build a spec for a stocked size, picking its paired leakage."""
        if capacitance_f not in LEAKAGE_BY_CAPACITANCE:
            known = sorted(LEAKAGE_BY_CAPACITANCE)
            raise ValueError(f"no leakage pairing for {capacitance_f} F; stocked sizes: {known}")
        return cls(capacitance_f, LEAKAGE_BY_CAPACITANCE[capacitance_f], v_max)


@dataclass(frozen=True)
class VoltageThresholds:
    """Gate voltages: hysteresis bounds plus per-task execution minimums."""

    v_min: float = 1.8
    v_turn_on: float = 2.2
    hot_start: float = 1.9
    hot_ephemeris: float = 2.0
    warm_ephemeris: float = 2.1
    nbiot: float = 2.0
    cold_start: float | None = None  # filled by validate_config when absent


@dataclass(frozen=True)
class SystemConfig:
    capacitor: CapacitorSpec = field(default_factory=lambda: CapacitorSpec.from_capacitance(2.5))
    thresholds: VoltageThresholds = field(default_factory=VoltageThresholds)
    v_supply: float = DEFAULT_V_SUPPLY
    sense_interval_s: int | None = 60
    fix_interval_s: int | None = 120
    transmit_interval_s: int | None = 3600
    ephemeris_hot_limit_s: int = 14400  # 4 h
    ephemeris_warm_limit_s: int = 172800  # 2 days
    ephemeris_refresh_age_s: int = 10800  # 3 h
    base_tick_s: int = 60
    initial_voltage: float = 5.5
    initial_ephemeris_age_s: int = 0
    initial_backup_valid: bool = True
    combiner_efficiency: float = DEFAULT_COMBINER_EFFICIENCY
    random_seed: int = 42
    task_jitter: bool = False  # draw NB-IoT/cold durations and currents per event
    payload_scaling: bool = False  # scale transmit duration with buffered bytes


def _chain_bound_v(chain: tuple[str, ...], config: SystemConfig) -> float:
    """Safe start voltage for a task chain at mean durations."""
    cap = config.capacitor
    energy = sum(task_energy(compose_task_current(t, cap.leakage_ma), TASKS[t].duration_s, config.v_supply) for t in chain)
    return safe_voltage_threshold(energy, cap.capacitance_f, config.thresholds.v_min)


def _worst_case_stack_s(config: SystemConfig) -> float:
    """Longest possible task stack in one tick: the longest chain of each
    enabled activity, 3-sigma if jitter is on."""
    sigma = 3.0 if config.task_jitter else 0.0
    intervals = {SENSE: config.sense_interval_s, FIX: config.fix_interval_s, TRANSMIT: config.transmit_interval_s}
    longest = dict.fromkeys(intervals, 0.0)
    for spec in ACTIVITIES.values():
        length = sum(TASKS[t].duration_s + sigma * TASKS[t].duration_std_s for t in spec.chain)
        longest[spec.activity] = max(longest[spec.activity], length)
    return sum(length for activity, length in longest.items() if intervals[activity] is not None)


def validate_config(config: SystemConfig) -> SystemConfig:
    """Check every invariant; return a config with the cold threshold filled.

    Violations raise ConfigError listing each offending field. Thresholds set
    below their analytic safe bound only warn: the bound assumes zero harvest,
    so lower values are aggressive rather than wrong.
    """
    errors: list[str] = []
    cap = config.capacitor
    thr = config.thresholds

    if cap.capacitance_f <= 0:
        errors.append(f"capacitance must be positive, got {cap.capacitance_f}")
    if cap.leakage_ma <= 0:
        errors.append(f"leakage_ma must be positive, got {cap.leakage_ma}")
    if cap.v_max <= 0:
        errors.append(f"v_max must be positive, got {cap.v_max}")
    if config.v_supply <= 0:
        errors.append(f"v_supply must be positive, got {config.v_supply}")
    if config.base_tick_s < 1:
        errors.append(f"base_tick_s must be >= 1, got {config.base_tick_s}")
    if cap.capacitance_f > 0 and cap.leakage_ma > 0 and config.v_supply > 0:
        # Each load's R = v_supply / I and tau = R C, as the engine computes
        # them, must be normal finite floats: a zero, subnormal or infinite
        # one has lost its bits.
        lost = []
        for task in TASKS:
            amps = compose_task_current(task, cap.leakage_ma) * 1e-3
            r = config.v_supply / amps if amps else math.inf
            if not all(sys.float_info.min <= x < math.inf for x in (r, r * cap.capacitance_f)):
                lost.append(task)
        if lost:
            errors.append(f"R = v_supply / current or R C is zero, subnormal or infinite for {', '.join(lost)}")

    if not 0 < thr.v_min < thr.v_turn_on:
        errors.append(f"need 0 < v_min < v_turn_on, got {thr.v_min} / {thr.v_turn_on}")
    if not thr.v_turn_on < cap.v_max:
        errors.append(f"need v_turn_on < v_max, got {thr.v_turn_on} / {cap.v_max}")
    for name in _GATED:
        value = getattr(thr, name)
        if value is not None and not thr.v_min <= value < cap.v_max:  # None: cold_start, derived below
            errors.append(f"threshold {name}={value} outside [v_min, v_max) = [{thr.v_min}, {cap.v_max})")
    if config.initial_voltage > cap.v_max:
        errors.append(f"initial_voltage {config.initial_voltage} exceeds v_max {cap.v_max}")
    if config.initial_voltage < 0:
        errors.append(f"initial_voltage must be >= 0, got {config.initial_voltage}")

    for name in ("sense_interval_s", "fix_interval_s", "transmit_interval_s"):
        value = getattr(config, name)
        if value is None:
            continue
        if value <= 0:
            errors.append(f"{name}={value} must be positive (or None to disable)")
        elif value >= 2**63:  # the schedule's clock is int64
            errors.append(f"{name}={value} must be below 2^63 s")
        elif config.base_tick_s >= 1 and value % config.base_tick_s != 0:  # a bad tick is reported above
            errors.append(f"{name}={value} not a multiple of base tick {config.base_tick_s}")

    if not 0 < config.ephemeris_refresh_age_s < config.ephemeris_hot_limit_s:
        errors.append(
            f"need 0 < refresh_age < hot_limit, got {config.ephemeris_refresh_age_s} / {config.ephemeris_hot_limit_s}"
        )
    if config.ephemeris_hot_limit_s >= config.ephemeris_warm_limit_s:
        errors.append(
            f"need hot_limit < warm_limit, got {config.ephemeris_hot_limit_s} / {config.ephemeris_warm_limit_s}"
        )
    if not 0 < config.combiner_efficiency <= 1:
        errors.append(f"combiner_efficiency must be in (0, 1], got {config.combiner_efficiency}")
    if config.initial_ephemeris_age_s < 0:
        errors.append(f"initial_ephemeris_age_s must be >= 0, got {config.initial_ephemeris_age_s}")
    if config.random_seed < 0:
        errors.append(f"random_seed must be >= 0, got {config.random_seed}")

    if config.base_tick_s >= 1:
        stack = _worst_case_stack_s(config)
        if stack > config.base_tick_s:
            errors.append(
                f"worst-case task stack {stack:.3f} s exceeds base_tick_s {config.base_tick_s}"
            )

    if errors:
        raise ConfigError(errors)

    # The derived cold threshold: the safe bound for the cold fix's chain,
    # rounded up to 0.01 V. It may land a hair below the bound, and is not
    # warned about then, nor when a validated config is validated again.
    bound = _chain_bound_v(_GATED["cold_start"], config)
    derived = math.ceil(bound * 100.0 - 1e-9) / 100.0 if math.isfinite(bound) else None
    cold = thr.cold_start
    if cold is None:
        if derived is None:
            raise ConfigError([f"derived cold_start bound {bound} V is not finite"])
        cold = derived
        if not thr.v_min <= cold < cap.v_max:
            raise ConfigError([f"derived cold_start threshold {cold} outside [v_min, v_max)"])

    validated = replace(config, thresholds=replace(thr, cold_start=cold))

    for name, chain in _GATED.items():
        value = getattr(validated.thresholds, name)
        bound = _chain_bound_v(chain, validated)
        if value < bound - 1e-12 and not (name == "cold_start" and value == derived):
            # Warned from this one line, whoever validates: under the default
            # filter each distinct text then shows once per process, and a
            # forked sweep worker inherits the record of what already showed.
            warnings.warn(f"threshold {name}={value:.3f} V is below its safe bound {bound:.4f} V")
    return validated
