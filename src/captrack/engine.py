"""Simulation loop: per-tick task execution over a harvest trace.

Each tick executes the due activities as consecutive constant-load segments
of the closed-form capacitor solution, then sleeps for the remainder. Floor
(v_min) and ceiling (v_max) crossings are located analytically inside
segments, so depletion times, clamp windows, and the energy ledger are exact
rather than discretized to the tick.

The loop steps each segment with constants built once per run: per load its
resistance, time constant and leakage share, and per (load, exact duration)
the three exponentials of the solution. The event log is kept as columns.

Most ticks of a sparse schedule are only a sleep. Each stretch of
activity-free ticks, found once from the schedule, is stepped in one loop
(_idle) with _step's operations in _step's order, so the bits are those of
stepping tick by tick. A tick whose margin test leaves a bound crossing
possible, or an off tick that starts at v_turn_on, is handed back to the
per-tick path, which alone decides depletion, recovery and a ClampStart
inside a tick.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections import defaultdict
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field, fields

import numpy as np

from . import device as dev
from .capacitor import equivalent_resistance, integrate_segment, time_to_voltage
from .device import select_gps_mode
from .energy_model import ACTIVITIES, FIX, SENSE, TASKS, TRANSMIT, SystemConfig, compose_task_current, validate_config
from .harvest import HarvestTrace, TextColumn, TraceError, csv_field, number_text, text_column, write_csv

SECONDS_PER_DAY = 86400

# Event kinds, fixed vocabulary. An event log stores each kind as its index
# in this tuple.
EVENT_KINDS = (
    "Sense", "FixHot", "FixHotEph", "FixWarmEph", "FixCold", "FixSkipped",
    "Transmit", "TransmitSkipped", "TransmitFailed", "TaskFailed",
    "Depletion", "Recovery", "ClampStart", "ClampEnd",
)
(
    _SENSE, _FIX_HOT, _FIX_HOT_EPH, _FIX_WARM_EPH, _FIX_COLD, _FIX_SKIPPED,
    _TRANSMIT, _TRANSMIT_SKIPPED, _TRANSMIT_FAILED, _TASK_FAILED,
    _DEPLETION, _RECOVERY, _CLAMP_START, _CLAMP_END,
) = range(len(EVENT_KINDS))
# Kinds counted per day, in DayMetrics field order, and each kind code's
# column in the per-day table (-1: not counted).
_DAY_KINDS = (_FIX_HOT, _FIX_HOT_EPH, _FIX_WARM_EPH, _FIX_COLD, _TRANSMIT, _DEPLETION)
_DAY_COLUMN = np.full(len(EVENT_KINDS), -1)
_DAY_COLUMN[list(_DAY_KINDS)] = np.arange(len(_DAY_KINDS))

_EVENT_ROW = np.dtype([
    ("time_s", "f8"), ("kind", "i8"), ("voltage_before", "f8"), ("voltage_after", "f8"), ("detail", "i8"),
])

# Distinct durations whose exponentials one load keeps. A fixed task
# duration is one value; the closing sleeps of a run without jitter took 37
# values over 20 days and 49 over a year (how the activities' end times round
# depends on the tick's start time). Durations past the limit, as with
# jitter, are computed per segment and not kept.
_FACTOR_CACHE_LIMIT = 256

# Relative margin M of the cheap test that rules a crossing out before its
# logarithm is taken. It passes only where the logarithm's ratio exceeds
# M exp(x), so the crossing time exceeds the duration by ~1e-9 tau, far above
# the ~1e-15 relative rounding of either side, for x below ~1e6. For x past
# ~700, exp(-x) is 0 and the test never passes.
_CROSSING_MARGIN = 1.0 + 1e-9


def _factors(factors: dict, duration: float, tau: float) -> tuple[float, float, float]:
    """exp(-x), -expm1(-x) and -expm1(-2x) for x = duration / tau, kept in
    the load's table while it has room."""
    x = duration / tau
    f = (math.exp(-x), -math.expm1(-x), -math.expm1(-2.0 * x))
    if len(factors) < _FACTOR_CACHE_LIMIT:
        factors[duration] = f
    return f


TIMESERIES_HEADER = ["t_s", "voltage_v", "i_solar_a", "i_kinetic_a", "i_combined_a", "power_state", "event"]


@dataclass
class EventLog:
    """A run's events as parallel columns, in log order.

    kind indexes EVENT_KINDS; detail indexes details, whose entry 0 is the
    empty detail. Success events are stamped at the end of their activity,
    with voltage_before at its start; skips and crossings are stamped at the
    instant they happen, which for crossings is a fractional second.
    """

    time_s: np.ndarray
    kind: np.ndarray
    voltage_before: np.ndarray
    voltage_after: np.ndarray
    detail: np.ndarray
    details: tuple[str, ...] = ("",)

    @classmethod
    def from_rows(
        cls, rows: Sequence[tuple[float, int, float, float, int]], details: Iterable[str] = ("",)
    ) -> "EventLog":
        """Columns from (time, kind code, v_before, v_after, detail code) rows."""
        table = np.fromiter(rows, dtype=_EVENT_ROW, count=len(rows))
        return cls(
            table["time_s"], table["kind"], table["voltage_before"], table["voltage_after"],
            table["detail"], tuple(details),
        )

    def __len__(self) -> int:
        return int(self.time_s.size)


@dataclass
class EnergyLedger:
    """Energy bookkeeping in joules, each term integrated in closed form.

    The closure identity harvested - consumed - leakage - discarded =
    delta_stored is not enforced anywhere; each term is computed
    independently, so checking it validates the integrator.
    """

    harvested_in_j: float = 0.0
    consumed_by_task_j: dict[str, float] = field(default_factory=dict)
    leakage_j: float = 0.0
    discarded_at_clamp_j: float = 0.0
    delta_stored_j: float = 0.0

    @property
    def consumed_total_j(self) -> float:
        return sum(self.consumed_by_task_j.values()) + self.leakage_j

    @property
    def closure_error_j(self) -> float:
        return self.harvested_in_j - self.consumed_total_j - self.discarded_at_clamp_j - self.delta_stored_j

    def to_dict(self) -> dict:
        return {
            "harvested_in_j": self.harvested_in_j,
            "consumed_by_task_j": dict(sorted(self.consumed_by_task_j.items())),
            "leakage_j": self.leakage_j,
            "discarded_at_clamp_j": self.discarded_at_clamp_j,
            "delta_stored_j": self.delta_stored_j,
            "consumed_total_j": self.consumed_total_j,
            "closure_error_j": self.closure_error_j,
        }


@dataclass(frozen=True)
class DayMetrics:
    day: int
    hot: int
    hot_ephemeris: int
    warm_ephemeris: int
    cold: int
    transmissions: int
    depletions: int

    @property
    def total(self) -> int:
        return self.hot + self.hot_ephemeris + self.warm_ephemeris + self.cold


@dataclass
class SimMetrics:
    hot_fixes: int = 0
    hot_ephemeris: int = 0
    warm_ephemeris: int = 0
    cold_starts: int = 0
    total_fixes: int = 0
    skipped_fixes: int = 0
    failed_tasks: int = 0
    fixes_per_day_mean: float = 0.0
    fixes_per_day_std: float = 0.0
    transmissions: int = 0
    skipped_transmissions: int = 0
    failed_transmissions: int = 0
    depletion_count: int = 0
    total_off_s: float = 0.0
    longest_data_gap_s: float = 0.0
    min_voltage: float = 0.0
    per_day: list[DayMetrics] = field(default_factory=list)

    def to_dict(self) -> dict:
        out = {f.name: getattr(self, f.name) for f in fields(self) if f.name != "per_day"}
        out["per_day"] = [
            {
                "day": d.day, "hot": d.hot, "hot_ephemeris": d.hot_ephemeris,
                "warm_ephemeris": d.warm_ephemeris, "cold": d.cold, "total": d.total,
                "transmissions": d.transmissions, "depletions": d.depletions,
            }
            for d in self.per_day
        ]
        return out


@dataclass
class SimResult:
    config: SystemConfig
    harvest: HarvestTrace
    duration_s: int
    times_s: np.ndarray  # tick boundaries, length n+1
    voltages: np.ndarray  # voltage at each boundary
    power_on: np.ndarray  # power state at each boundary (bool)
    log: EventLog
    metrics: SimMetrics
    ledger: EnergyLedger


@dataclass(frozen=True)
class FixRecord:
    """The samples a run's fixes buffered, as columns in log order.

    time_s and kind are the fix event's; coulomb_c is the kinetic charge
    the Coulomb counter read at the fix, counted over whole ticks since the
    previous fix's tick; delivered_s is the time of the upload that sent the
    sample, NaN if none did. undrained_c is the charge counted after the last
    fix.
    """

    time_s: np.ndarray
    kind: np.ndarray
    coulomb_c: np.ndarray
    delivered_s: np.ndarray
    undrained_c: float


class _Simulator:
    """Mutable per-run machinery; one instance per run, strictly sequential.

    t and v are the time and voltage at the end of the last segment. The
    device state is what the scheduler decides from: whether it is powered,
    the tick start of the last ephemeris refresh (the ephemeris age is the
    tick start minus it; None once the backup domain has lost power), and
    the number of fixes buffered since the last successful upload.
    """

    def __init__(self, config: SystemConfig):
        self.config = config
        self.rng: np.random.Generator | None = None  # built at the first jittered draw
        self.rows: list[tuple[float, int, float, float, int]] = []  # EventLog.from_rows input
        self.details: dict[str, int] = {"": 0}
        self.harvested_j = 0.0
        self.leakage_j = 0.0
        self.discarded_j = 0.0
        self.consumed: defaultdict[str, float] = defaultdict(float)  # tasks in first-use order
        self.clamp_active = False
        self.powered = config.initial_voltage >= config.thresholds.v_turn_on
        # An unpowered start means the backup domain never held state.
        backed = self.powered and config.initial_backup_valid
        self.ephemeris_t = -config.initial_ephemeris_age_s if backed else None
        self.buffered = 0
        self.t = 0.0
        self.v = config.initial_voltage
        cap = config.capacitor
        self.c = cap.capacitance_f
        self.v_max = cap.v_max
        self.v_pinned = cap.v_max - 1e-12
        self.v_min = config.thresholds.v_min
        upload = ACTIVITIES["Transmit"]
        self.upload_gate = getattr(config.thresholds, upload.gate)
        (self.upload,) = upload.chain  # one task, whose current and duration each upload may draw
        self.loads = {name: self._load(name, compose_task_current(name, cap.leakage_ma)) for name in TASKS}
        # Per power state, what _idle steps a whole tick with: the load, its
        # factors for the tick length, the floor the asymptote must be below
        # for a v_min check (none when unpowered), and the start voltage that
        # ends the stretch (v_turn_on when unpowered).
        tick = float(config.base_tick_s)
        self.stretches = {
            powered: (load, load[-1].get(tick) or _factors(load[-1], tick, load[2]), floor, v_on)
            for powered, load, floor, v_on in (
                (True, self.loads["Sleep"], self.v_min, math.inf),
                (False, self.loads["TurnedOff"], -math.inf, config.thresholds.v_turn_on),
            )
        }
        # Per logged activity: its event code, and (load, mean duration,
        # duration deviation) of each task in its chain.
        self.plans = {
            kind: (EVENT_KINDS.index(kind), tuple(
                (self.loads[name], TASKS[name].duration_s, TASKS[name].duration_std_s) for name in spec.chain
            ))
            for kind, spec in ACTIVITIES.items()
        }

    def _load(self, task: str, current_ma: float) -> tuple:
        """Per-run constants of a constant-current load, in _step's order:
        task, R, tau = R C, tau / 2, the leakage share of its consumption
        and the rest, v_max^2 / R (its draw while pinned), and a table of
        exact duration -> (exp(-x), -expm1(-x), -expm1(-2x)), x = duration / tau.
        """
        cfg = self.config
        r = equivalent_resistance(cfg.v_supply, current_ma)
        tau = r * self.c
        leak = min(1.0, cfg.capacitor.leakage_ma / current_ma)
        return task, r, tau, tau / 2.0, leak, 1.0 - leak, self.v_max * self.v_max / r, {}

    def log(self) -> EventLog:
        return EventLog.from_rows(self.rows, self.details)

    def _detail(self, text: str) -> int:
        return self.details.setdefault(text, len(self.details))

    def _draw(self, mean: float, std: float) -> float:
        """Per-event jittered value, truncated at three sigma; mean when off."""
        if std == 0.0 or not self.config.task_jitter:
            return mean
        if self.rng is None:  # here, so that jitter-free runs never import numpy.random
            self.rng = np.random.default_rng(self.config.random_seed)
        value = float(self.rng.normal(mean, std))
        return min(max(value, mean - 3.0 * std, 1e-9), mean + 3.0 * std)

    def _step(self, load: tuple, duration: float, i_h: float, check_floor: bool) -> bool:
        """Advance t and v over one constant-load segment and book its energy.

        Returns whether the device depleted: then the segment stops at the
        v_min crossing, and the caller decides what happens next. The
        arithmetic is capacitor.integrate_segment's, term for term.
        """
        if duration <= 0.0:
            return False
        task, r, tau, half_tau, leak, keep, pinned_w, factors = load
        t0 = self.t
        v0 = self.v
        v_max = self.v_max
        a = i_h * r  # asymptote
        pinned = v0 >= self.v_pinned and a >= v_max
        if self.clamp_active and not pinned:
            self.rows.append((t0, _CLAMP_END, v0, v0, 0))
            self.clamp_active = False
        depleted = False
        if pinned:
            if not self.clamp_active:
                self.rows.append((t0, _CLAMP_START, v_max, v_max, 0))
                self.clamp_active = True
            harvested = i_h * v_max * duration
            consumed = pinned_w * duration
            self.discarded_j += harvested - consumed
            self.t = t0 + duration
            self.v = v_max
        else:
            e, em1, em2 = factors.get(duration) or _factors(factors, duration, tau)
            b = v0 - a
            # A crossing time (time_to_voltage) takes a logarithm, skipped
            # where the unclamped end voltage a + b e stays clear of the bound:
            # b e < (v_max - a) M or b e > (v_min - a) M puts the crossing past
            # the duration.
            if (
                a > v_max and v0 < v_max and not b * e < (v_max - a) * _CROSSING_MARGIN
                and (t_up := time_to_voltage(v0, i_h, r, self.c, v_max)) <= duration
            ):
                _, harvested, consumed = integrate_segment(v0, i_h, r, self.c, t_up)
                self.harvested_j += harvested
                self.leakage_j += consumed * leak
                self.consumed[task] += consumed * keep
                self.rows.append((t0 + t_up, _CLAMP_START, v_max, v_max, 0))
                self.clamp_active = True
                rest = duration - t_up
                harvested = i_h * v_max * rest
                consumed = pinned_w * rest
                self.discarded_j += harvested - consumed
                self.t = t0 + duration
                self.v = v_max
            elif (
                check_floor and a < self.v_min and v0 > self.v_min
                and not b * e > (self.v_min - a) * _CROSSING_MARGIN
                and (t_dn := time_to_voltage(v0, i_h, r, self.c, self.v_min)) <= duration
            ):
                _, harvested, consumed = integrate_segment(v0, i_h, r, self.c, t_dn)
                self.t = t0 + t_dn
                self.v = self.v_min
                depleted = True
            else:
                harvested = i_h * (a * duration + b * tau * em1)
                consumed = (a * a * duration + 2.0 * a * b * tau * em1 + b * b * half_tau * em2) / r
                v_end = a + b * e
                self.t = t0 + duration
                self.v = v_max if v_end > v_max else v_end
        self.harvested_j += harvested
        self.leakage_j += consumed * leak
        self.consumed[task] += consumed * keep
        return depleted

    # -- tick execution -----------------------------------------------------

    def _deplete(self, i_h: float, tick_end: float, failure: int | None, detail: str) -> float:
        """Shut down at a v_min crossing and coast on leakage to tick end."""
        t, v = self.t, self.v
        if failure is not None:
            self.rows.append((t, failure, v, v, self._detail(detail)))
        self.rows.append((t, _DEPLETION, v, v, 0))
        self.powered = False
        self.ephemeris_t = None  # the backup domain is lost; flash keeps the buffer
        self._step(self.loads["TurnedOff"], tick_end - t, i_h, False)
        return self.v

    def execute_tick(self, t_start: float, due: int, i_h: float) -> float:
        """Run one On-state tick: the due code's activities then sleep, with gating."""
        cfg = self.config
        step = self._step
        rows = self.rows
        loads = self.loads
        plans = self.plans
        tick_end = t_start + cfg.base_tick_s
        self.t = float(t_start)

        if due & SENSE:
            v_before = self.v
            for load, duration, _ in plans["Sense"][1]:
                if step(load, duration, i_h, True):
                    return self._deplete(i_h, tick_end, _TASK_FAILED, load[0])
            rows.append((self.t, _SENSE, v_before, self.v, 0))

        if due & FIX:
            refreshed = self.ephemeris_t
            kind = select_gps_mode(None if refreshed is None else t_start - refreshed, self.v, cfg)
            if kind is None:
                rows.append((self.t, _FIX_SKIPPED, self.v, self.v, self._detail("low-voltage")))
            else:
                code, plan = plans[kind]
                if cfg.task_jitter:  # draw every duration before the first segment runs
                    plan = [(load, self._draw(mean, std), 0.0) for load, mean, std in plan]
                v_before = self.v
                for load, duration, _ in plan:
                    if step(load, duration, i_h, True):
                        return self._deplete(i_h, tick_end, _TASK_FAILED, load[0])
                if code != _FIX_HOT:  # every other fix leaves a fresh ephemeris
                    self.ephemeris_t = t_start
                self.buffered += 1
                rows.append((self.t, code, v_before, self.v, 0))

        if due & TRANSMIT:
            samples = self.buffered
            if self.v < self.upload_gate:
                rows.append((self.t, _TRANSMIT_SKIPPED, self.v, self.v, self._detail("low-voltage")))
            else:
                task = self.upload
                spec = TASKS[task]
                load = loads[task]
                if cfg.task_jitter:
                    base_ma = self._draw(spec.base_ma, spec.base_std_ma)
                    load = self._load(task, compose_task_current(task, cfg.capacitor.leakage_ma, base_ma))
                duration = self._draw(spec.duration_s, spec.duration_std_s)
                if cfg.payload_scaling:
                    duration *= dev.payload_bytes(samples) / dev.REFERENCE_PAYLOAD_BYTES
                detail = f"samples={samples}"
                v_before = self.v
                if step(load, duration, i_h, True):
                    return self._deplete(i_h, tick_end, _TRANSMIT_FAILED, detail)
                self.buffered = 0
                rows.append((self.t, _TRANSMIT, v_before, self.v, self._detail(detail)))

        if step(loads["Sleep"], tick_end - self.t, i_h, True):
            return self._deplete(i_h, tick_end, None, "")
        return self.v

    def _idle(self, start: int, stop: int, combined: list[float], voltages: list[float], power_on: list[bool]) -> int:
        """Step ticks start..stop-1 as whole-tick Sleep (powered) or TurnedOff
        (unpowered) segments; return the first tick not stepped.

        Each tick is _step's plain case, pinned or without a crossing, with
        _step's operations in _step's order. The stretch stops at a tick whose
        margin test leaves a v_max crossing possible, or a v_min crossing when
        powered, and, when unpowered, at a tick that starts at or above
        v_turn_on. Appends each tick's end voltage and power state.
        """
        powered = self.powered
        (task, r, tau, half_tau, leak, keep, pinned_w, _), (e, em1, em2), floor, v_on = self.stretches[powered]
        tick = self.config.base_tick_s
        duration = float(tick)
        v_max, v_min, v_pinned = self.v_max, self.v_min, self.v_pinned
        rows = self.rows
        append = voltages.append
        clamp = self.clamp_active
        harvested_j, leakage_j, discarded_j = self.harvested_j, self.leakage_j, self.discarded_j
        spent = self.consumed.get(task, 0.0)
        v = self.v
        margin = _CROSSING_MARGIN
        for i in range(start, stop):
            if v >= v_on:
                break
            i_h = combined[i]
            a = i_h * r
            if v >= v_pinned and a >= v_max:
                if not clamp:
                    rows.append((float(i * tick), _CLAMP_START, v_max, v_max, 0))
                    clamp = True
                harvested = i_h * v_max * duration
                consumed = pinned_w * duration
                discarded_j += harvested - consumed
                v = v_max
            else:
                b = v - a
                be = b * e
                if (
                    a > v_max and v < v_max and not be < (v_max - a) * margin
                    or a < floor and v > v_min and not be > (v_min - a) * margin
                ):
                    break
                if clamp:
                    rows.append((float(i * tick), _CLAMP_END, v, v, 0))
                    clamp = False
                harvested = i_h * (a * duration + b * tau * em1)
                consumed = (a * a * duration + 2.0 * a * b * tau * em1 + b * b * half_tau * em2) / r
                v_end = a + be
                v = v_max if v_end > v_max else v_end
            harvested_j += harvested
            leakage_j += consumed * leak
            spent += consumed * keep
            append(v)
        else:
            i = stop
        if i > start:
            self.t = float(i * tick)
            self.v = v
            self.clamp_active = clamp
            self.harvested_j, self.leakage_j, self.discarded_j = harvested_j, leakage_j, discarded_j
            self.consumed[task] = spent
            power_on += [powered] * (i - start)
        return i

    # -- whole run ----------------------------------------------------------

    def run(self, harvest: HarvestTrace, n_ticks: int) -> SimResult:
        cfg = self.config
        tick = cfg.base_tick_s
        v_turn_on = cfg.thresholds.v_turn_on

        times = np.arange(n_ticks + 1, dtype=np.int64) * tick
        codes = dev.due_codes(0, n_ticks, cfg)
        busy = [*np.flatnonzero(codes).tolist(), n_ticks]  # ticks with an activity due, then the end
        due = codes.tolist()
        combined = harvest.combined_a[:n_ticks].tolist()
        v_initial = self.v
        voltages = [v_initial]
        power_on = []
        execute_tick = self.execute_tick
        idle = self._idle
        turned_off = self.loads["TurnedOff"]

        i = 0
        while i < n_ticks:
            if not self.powered:
                i = idle(i, n_ticks, combined, voltages, power_on)
                if i == n_ticks:
                    break
                if self.v < v_turn_on:  # a v_max crossing may fall inside this off tick
                    power_on.append(False)
                    self.t = float(i * tick)
                    self._step(turned_off, tick, combined[i], False)
                    voltages.append(self.v)
                    i += 1
                    continue
                self.powered = True
                self.rows.append((float(i * tick), _RECOVERY, self.v, self.v, 0))
            elif not due[i]:
                i = idle(i, busy[bisect_left(busy, i)], combined, voltages, power_on)
                if i == n_ticks:
                    break
            power_on.append(True)
            voltages.append(execute_tick(i * tick, due[i], combined[i]))
            i += 1

        power_on.append(self.powered)
        duration = n_ticks * tick
        ledger = EnergyLedger(
            self.harvested_j, dict(self.consumed), self.leakage_j, self.discarded_j,
            0.5 * cfg.capacitor.capacitance_f * (self.v**2 - v_initial**2),
        )
        voltages = np.array(voltages)
        log = self.log()
        power_on = np.array(power_on, dtype=bool)
        metrics = compute_metrics(log, duration, voltages=voltages, power_on_at_start=bool(power_on[0]))
        return SimResult(cfg, harvest, duration, times, voltages, power_on, log, metrics, ledger)


def run_simulation(config: SystemConfig, harvest: HarvestTrace, duration_s: int | None = None) -> SimResult:
    """Simulate the device over a harvest trace.

    Deterministic for a given (config, trace): all randomness flows from
    config.random_seed. The trace resolution must equal the base tick, and
    the requested duration must fit inside the trace.
    """
    config = validate_config(config)
    if harvest.resolution_s != config.base_tick_s:
        raise TraceError(
            f"trace resolution {harvest.resolution_s} s != base tick {config.base_tick_s} s"
        )
    available = harvest.duration_s
    if duration_s is None:
        duration_s = available
    if duration_s <= 0:
        raise TraceError(f"duration must be positive, got {duration_s}")
    if duration_s > available:
        raise TraceError(f"trace covers {available} s, shorter than requested {duration_s} s")
    if duration_s % config.base_tick_s != 0:
        raise TraceError(f"duration {duration_s} not a multiple of base tick {config.base_tick_s}")
    sim = _Simulator(config)
    return sim.run(harvest, duration_s // config.base_tick_s)


def compute_metrics(
    log: EventLog,
    run_length_s: float,
    voltages: np.ndarray | None = None,
    power_on_at_start: bool = True,
) -> SimMetrics:
    """Aggregate an event log into schedule metrics.

    The off time runs from each Depletion (or from t = 0 when the device
    starts off) to the next Recovery or the end of the run. Per-day
    statistics cover complete days only (population deviation); partial
    trailing days are excluded. An empty log yields all zeros.
    """
    m = SimMetrics()
    if not len(log) and voltages is None:
        return m

    kind = log.kind
    counts = np.bincount(kind, minlength=len(EVENT_KINDS)).tolist()
    m.hot_fixes = counts[_FIX_HOT]
    m.hot_ephemeris = counts[_FIX_HOT_EPH]
    m.warm_ephemeris = counts[_FIX_WARM_EPH]
    m.cold_starts = counts[_FIX_COLD]
    m.total_fixes = m.hot_fixes + m.hot_ephemeris + m.warm_ephemeris + m.cold_starts
    m.skipped_fixes = counts[_FIX_SKIPPED]
    m.failed_tasks = counts[_TASK_FAILED]
    m.transmissions = counts[_TRANSMIT]
    m.skipped_transmissions = counts[_TRANSMIT_SKIPPED]
    m.failed_transmissions = counts[_TRANSMIT_FAILED]
    m.depletion_count = counts[_DEPLETION]

    flips = np.flatnonzero((kind == _DEPLETION) | (kind == _RECOVERY))
    off_since = None if power_on_at_start else 0.0
    for k, t in zip(kind[flips].tolist(), log.time_s[flips].tolist()):
        if k == _DEPLETION:
            off_since = t
        elif off_since is not None:
            m.total_off_s += t - off_since
            off_since = None
    if off_since is not None:
        m.total_off_s += run_length_s - off_since

    is_fix = (kind >= _FIX_HOT) & (kind <= _FIX_COLD)
    fix_times = log.time_s[is_fix]
    if fix_times.size:
        edges = np.concatenate([[0.0], fix_times, [float(run_length_s)]])
        m.longest_data_gap_s = float(np.diff(edges).max())
    elif len(log):
        m.longest_data_gap_s = float(run_length_s)

    candidates = []
    if voltages is not None and len(voltages):
        candidates.append(float(np.min(voltages)))
    if len(log):
        low = float(np.minimum(log.voltage_before, log.voltage_after).min())
        if not low > 0.0:  # keep min()'s choice between 0.0 and -0.0
            low = min(map(min, zip(log.voltage_before.tolist(), log.voltage_after.tolist())))
        candidates.append(low)
    if candidates:
        m.min_voltage = min(candidates)

    complete_days = int(run_length_s) // SECONDS_PER_DAY
    if complete_days:
        day = log.time_s // SECONDS_PER_DAY
        column = _DAY_COLUMN[kind]
        counted = (day < complete_days) & (column >= 0)
        cell = day[counted].astype(np.int64) * len(_DAY_KINDS) + column[counted]
        table = np.bincount(cell, minlength=complete_days * len(_DAY_KINDS)).reshape(complete_days, -1)
        day_counts = table[:, :4].sum(axis=1)
        m.fixes_per_day_mean = float(day_counts.mean())
        m.fixes_per_day_std = float(day_counts.std())  # population deviation
        m.per_day = [DayMetrics(d, *row) for d, row in enumerate(table.tolist())]
    return m


def fix_record(result: SimResult) -> FixRecord:
    """The run's fix record, derived from its event log and trace.

    A fix ends inside its tick (validate_config caps the task stack at
    base_tick_s), so its tick is time_s // base_tick_s. The counter adds each
    tick's kinetic charge at the tick's end and is read at every fix. A
    successful upload sends every sample buffered before it in log order.
    """
    log = result.log
    tick = result.config.base_tick_s
    n_ticks = len(result.times_s) - 1
    fixes = np.flatnonzero((log.kind >= _FIX_HOT) & (log.kind <= _FIX_COLD))
    time_s = log.time_s[fixes]
    counted = np.concatenate([[0.0], np.cumsum(result.harvest.kinetic_a[:n_ticks] * tick)])
    read = counted[np.concatenate([[0], time_s // tick]).astype(np.intp)]
    uploads = np.flatnonzero(log.kind == _TRANSMIT)
    upload = np.searchsorted(uploads, fixes)
    delivered_s = np.full(fixes.size, np.nan)
    sent = upload < uploads.size
    delivered_s[sent] = log.time_s[uploads[upload[sent]]]
    return FixRecord(time_s, log.kind[fixes], np.diff(read), delivered_s, float(counted[-1] - read[-1]))


def _row_tails(result: SimResult) -> tuple[TextColumn, np.ndarray]:
    """The "power_state,event" fields of the tick rows, then of the events in log order.

    They come from a table: "Off," and "On," for tick rows, then an Off/On
    pair for each distinct (kind, detail) of the log. Returned: the table and
    each row's entry in it.
    """
    log = result.log
    n_details = len(log.details)
    pairs, label = np.unique(log.kind * n_details + log.detail, return_inverse=True)
    tails = ["Off,", "On,"]
    for pair in pairs.tolist():
        kind, detail = EVENT_KINDS[pair // n_details], log.details[pair % n_details]
        text = csv_field(f"{kind}:{detail}" if detail else kind)
        tails += [f"Off,{text}", f"On,{text}"]
    # The power state after each event, in log order (not time order): set by the
    # latest Depletion or Recovery so far, else the first tick row's state.
    sets_power = np.where(log.kind == _DEPLETION, 0, np.where(log.kind == _RECOVERY, 1, -1))
    latest = np.maximum.accumulate(np.where(sets_power >= 0, np.arange(len(log)), -1))
    power = np.where(latest >= 0, sets_power[latest], 1 if result.power_on[0] else 0)
    return text_column(tails), np.concatenate([np.where(result.power_on, 1, 0), 2 + 2 * label + power])


def export_timeseries(result: SimResult, path: str) -> None:
    """Write the run as CSV: one row per tick boundary plus one per event.

    Rows are in time order; on equal times the tick row comes first and
    events keep log order. Event rows repeat the harvest currents of their
    containing tick; the power_state column tracks depletion/recovery flips
    through the log.
    """
    harvest = result.harvest
    n = len(result.times_s) - 1
    row_t = np.concatenate([result.times_s, result.log.time_s])
    order = np.argsort(row_t, kind="stable")
    voltage = np.concatenate([result.voltages, result.log.voltage_after])
    tails, codes = _row_tails(result)  # its per-event arrays are freed before any row is written
    series = (harvest.solar_a, harvest.kinetic_a, harvest.combined_a)

    def rows(start: int, stop: int) -> list[TextColumn]:
        idx = order[start:stop]
        t = row_t[idx]
        # Trace step of each row, clamped to the run: the final tick row, and
        # any event at or past the end, repeat the last step's currents. Each
        # step's currents are formatted once.
        step = np.maximum(np.minimum(t // harvest.resolution_s, n - 1), 0).astype(np.intp)
        first = int(step.min())
        currents = [number_text(s[first : int(step.max()) + 1], "%.9e").take(step - first) for s in series]
        return [number_text(t, "%.5f"), number_text(voltage[idx], "%.6f"), *currents, tails.take(codes[idx])]

    write_csv(path, TIMESERIES_HEADER, len(order), rows)
