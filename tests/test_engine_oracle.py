"""Bit identity of the engine against the per-segment call chain it replaced.

OracleSimulator and oracle_compute_metrics below are the earlier bodies of
engine._Simulator (with its _segment, _account and _run_activity) and
engine.compute_metrics, kept verbatim apart from their names. They log
SimEvent records and call the per-tick due_tasks, both kept here as they
were, and select_gps_mode through a shim that maps the fix kind it now
returns back to the earlier GpsMode decision record. GpsMode,
FIX_EVENT_KIND, and the device state and hooks (DataSample, DeviceState,
on_fix_success and the rest) are kept here too; on_fix_success also keeps
every sample it buffers. Every case runs the same config and trace through
both engines and compares voltages and power states bit for bit. The
oracle's events are converted to columns and compared with the engine's log:
times and voltages bit for bit, kinds and details (so the samples=N of each
upload) in order. The ledger and metrics are compared for equality, and the
engine's fix_record against the oracle's samples and end-of-run buffer.
"""

import enum
import math
import warnings
from dataclasses import dataclass, field, replace
from types import SimpleNamespace

import numpy as np
import pytest

from hypothesis import event, given, settings
from hypothesis import strategies as st

from captrack import device, engine
from captrack.capacitor import equivalent_resistance, integrate_segment
from captrack.device import FIX, SENSE, TRANSMIT
from captrack.energy_model import (
    ACTIVITIES,
    TASKS,
    CapacitorSpec,
    SystemConfig,
    VoltageThresholds,
    compose_task_current,
    validate_config,
)
from captrack.engine import (
    EVENT_KINDS,
    SECONDS_PER_DAY,
    DayMetrics,
    EnergyLedger,
    EventLog,
    SimMetrics,
    compute_metrics,
    fix_record,
    run_simulation,
)
from captrack.harvest import HarvestTrace


class GpsMode(enum.Enum):
    HOT = "Hot"
    HOT_EPHEMERIS = "HotWithEphemeris"
    WARM_EPHEMERIS = "WarmWithEphemeris"
    COLD = "Cold"


FIX_EVENT_KIND = {
    GpsMode.HOT: "FixHot",
    GpsMode.HOT_EPHEMERIS: "FixHotEph",
    GpsMode.WARM_EPHEMERIS: "FixWarmEph",
    GpsMode.COLD: "FixCold",
}
MODE_OF_KIND = {kind: mode for mode, kind in FIX_EVENT_KIND.items()}


class Power(enum.Enum):
    ON = "On"
    OFF = "Off"


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

    time_s: int
    coulomb_c: float


@dataclass
class DeviceState:
    power: Power
    gps: GpsContext
    buffer: list[DataSample] = field(default_factory=list)
    coulomb_accumulator: float = 0.0
    clock: int = 0
    samples: list[DataSample] = field(default_factory=list)  # every sample buffered

    @classmethod
    def initial(cls, config: SystemConfig, power_on: bool) -> "DeviceState":
        # An unpowered start means the backup domain never held state.
        if power_on and config.initial_backup_valid:
            gps = GpsContext(config.initial_ephemeris_age_s, True)
        else:
            gps = GpsContext(None, False)
        return cls(Power.ON if power_on else Power.OFF, gps)


# Modes whose fix leaves a fresh ephemeris.
_EPHEMERIS_RESET = (GpsMode.HOT_EPHEMERIS, GpsMode.WARM_EPHEMERIS, GpsMode.COLD)


def on_fix_success(state: DeviceState, mode: GpsMode, coulomb_value: float) -> None:
    """Record the sample and refresh the ephemeris bookkeeping.

    Any successful fix revives the backup domain. Modes that download orbit
    data (and cold, which acquires it from scratch) reset the age; a plain
    hot fix leaves it running.
    """
    state.buffer.append(DataSample(state.clock, coulomb_value))
    state.samples.append(state.buffer[-1])
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


def on_depletion(state: DeviceState) -> None:
    """Voltage fell below v_min: power down, backup domain lost, buffer kept."""
    state.power = Power.OFF
    state.gps.invalidate()


def on_recovery(state: DeviceState) -> None:
    """Voltage recovered to v_turn_on at a tick boundary: resume scheduling."""
    state.power = Power.ON


# What the oracle loop calls as `dev`: the device module's schedule names and
# payload model, with the hooks above.
dev = SimpleNamespace(
    SENSE=SENSE, FIX=FIX, TRANSMIT=TRANSMIT,
    payload_bytes=device.payload_bytes, REFERENCE_PAYLOAD_BYTES=device.REFERENCE_PAYLOAD_BYTES,
    on_fix_success=on_fix_success, read_coulomb=read_coulomb, on_depletion=on_depletion, on_recovery=on_recovery,
)


@dataclass(frozen=True)
class SimEvent:
    """One logged occurrence. Success events are stamped at the end of their
    activity (voltage_before at its start); skips and crossings at the
    instant they happen, which for crossings is a fractional second."""

    time_s: float
    kind: str
    voltage_before: float
    voltage_after: float
    detail: str = ""


@dataclass
class SimResult:
    """The result record the oracle builds: the event log is a list."""

    config: SystemConfig
    harvest: HarvestTrace
    duration_s: int
    times_s: np.ndarray
    voltages: np.ndarray
    power_on: np.ndarray
    events: list[SimEvent]
    metrics: SimMetrics
    ledger: EnergyLedger
    device: DeviceState


FIX_EVENT_KINDS = frozenset(FIX_EVENT_KIND.values())


def oracle_run(config: SystemConfig, harvest: HarvestTrace, duration_s: int) -> SimResult:
    config = validate_config(config)
    return OracleSimulator(config).run(harvest, duration_s // config.base_tick_s)


# -- oracle: the replaced engine loop and metrics, verbatim ---------------------


def due_tasks(clock: int, config: SystemConfig) -> list[str]:
    """Activities due this tick, in execution order. Disabled intervals
    (None) never fire; everything fires at clock 0."""
    if clock % config.base_tick_s != 0:
        raise ValueError(f"clock {clock} not on the {config.base_tick_s} s tick grid")
    due = []
    for name, interval in (
        (SENSE, config.sense_interval_s),
        (FIX, config.fix_interval_s),
        (TRANSMIT, config.transmit_interval_s),
    ):
        if interval is not None and clock % interval == 0:
            due.append(name)
    return due


def select_gps_mode(gps: GpsContext, voltage: float, thresholds: VoltageThresholds, config: SystemConfig):
    assert thresholds is config.thresholds  # the engine's selection reads the config's
    kind = device.select_gps_mode(gps.ephemeris_age_s if gps.backup_valid else None, voltage, config)
    mode = None if kind is None else MODE_OF_KIND[kind]
    return SimpleNamespace(mode=mode, skipped=mode is None, skip_reason="low-voltage")


class OracleSimulator:
    """Mutable per-run machinery; one instance per run, strictly sequential."""

    def __init__(self, config: SystemConfig):
        self.config = config
        self.rng = np.random.default_rng(config.random_seed)
        self.events: list[SimEvent] = []
        self.ledger = EnergyLedger()
        self.clamp_active = False
        self.off_since: float | None = None
        self.total_off_s = 0.0
        power_on = config.initial_voltage >= config.thresholds.v_turn_on
        self.state = DeviceState.initial(config, power_on)
        self.v = config.initial_voltage
        self._current_cache = {
            name: compose_task_current(name, config.capacitor.leakage_ma) for name in TASKS
        }

    # -- primitives ---------------------------------------------------------

    def _emit(self, kind: str, time_s: float, before: float, after: float, detail: str = "") -> None:
        self.events.append(SimEvent(time_s, kind, before, after, detail))

    def _account(self, task: str, harvested: float, consumed: float, leak_frac: float, discarded: float = 0.0) -> None:
        led = self.ledger
        led.harvested_in_j += harvested
        led.discarded_at_clamp_j += discarded
        led.leakage_j += consumed * leak_frac
        led.consumed_by_task_j[task] = led.consumed_by_task_j.get(task, 0.0) + consumed * (1.0 - leak_frac)

    def _draw(self, mean: float, std: float) -> float:
        """Per-event jittered value, truncated at three sigma; mean when off."""
        if std == 0.0 or not self.config.task_jitter:
            return mean
        value = float(self.rng.normal(mean, std))
        return min(max(value, mean - 3.0 * std, 1e-9), mean + 3.0 * std)

    def _segment(
        self, t0: float, v0: float, task: str, current_ma: float, duration: float,
        i_h: float, check_floor: bool,
    ) -> tuple[float, float, bool]:
        """Advance one constant-load segment with crossing handling.

        Returns (end time, end voltage, depleted). On depletion the segment
        stops at the v_min crossing; the caller decides what happens next.
        """
        if duration <= 0.0:
            return t0, v0, False
        cfg = self.config
        cap = cfg.capacitor
        r = equivalent_resistance(cfg.v_supply, current_ma)
        c = cap.capacitance_f
        v_max, v_min = cap.v_max, cfg.thresholds.v_min
        leak_frac = min(1.0, cap.leakage_ma / current_ma)
        asymptote = i_h * r
        tau = r * c

        pinned = v0 >= v_max - 1e-12 and asymptote >= v_max
        if self.clamp_active and not pinned:
            self._emit("ClampEnd", t0, v0, v0)
            self.clamp_active = False
        if pinned:
            if not self.clamp_active:
                self._emit("ClampStart", t0, v_max, v_max)
                self.clamp_active = True
            harvested = i_h * v_max * duration
            consumed = v_max * v_max / r * duration
            self._account(task, harvested, consumed, leak_frac, discarded=harvested - consumed)
            return t0 + duration, v_max, False

        if asymptote > v_max and v0 < v_max:
            t_up = tau * math.log((v0 - asymptote) / (v_max - asymptote))
            if t_up <= duration:
                _, harvested, consumed = integrate_segment(v0, i_h, r, c, t_up)
                self._account(task, harvested, consumed, leak_frac)
                t_cross = t0 + t_up
                self._emit("ClampStart", t_cross, v_max, v_max)
                self.clamp_active = True
                rest = duration - t_up
                harvested = i_h * v_max * rest
                consumed = v_max * v_max / r * rest
                self._account(task, harvested, consumed, leak_frac, discarded=harvested - consumed)
                return t0 + duration, v_max, False

        if check_floor and asymptote < v_min and v0 > v_min:
            t_dn = tau * math.log((v0 - asymptote) / (v_min - asymptote))
            if t_dn <= duration:
                _, harvested, consumed = integrate_segment(v0, i_h, r, c, t_dn)
                self._account(task, harvested, consumed, leak_frac)
                return t0 + t_dn, v_min, True

        v_end, harvested, consumed = integrate_segment(v0, i_h, r, c, duration)
        self._account(task, harvested, consumed, leak_frac)
        return t0 + duration, min(v_end, v_max), False

    # -- tick execution -----------------------------------------------------

    def _deplete(self, t: float, v: float, i_h: float, tick_end: float, failure: tuple[str, str] | None) -> float:
        """Shut down at a v_min crossing and coast on leakage to tick end."""
        if failure is not None:
            kind, detail = failure
            self._emit(kind, t, v, v, detail)
        self._emit("Depletion", t, v, v)
        dev.on_depletion(self.state)
        self.off_since = t
        _, v, _ = self._segment(t, v, "TurnedOff", self._current_cache["TurnedOff"], tick_end - t, i_h, False)
        return v

    def _run_activity(
        self, cursor: float, v: float, segments: list[tuple[str, float, float]], i_h: float
    ) -> tuple[float, float, str | None]:
        """Run consecutive task segments; stop at depletion, naming the task."""
        for task, current_ma, duration in segments:
            cursor, v, depleted = self._segment(cursor, v, task, current_ma, duration, i_h, True)
            if depleted:
                return cursor, v, task
        return cursor, v, None

    def _fix_segments(self, mode: GpsMode) -> list[tuple[str, float, float]]:
        names = {
            GpsMode.HOT: ("HotStart",),
            GpsMode.HOT_EPHEMERIS: ("HotStart", "EphemerisDownload"),
            GpsMode.WARM_EPHEMERIS: ("WarmStart", "EphemerisDownload"),
            GpsMode.COLD: ("ColdStart",),
        }[mode]
        segments = []
        for name in names:
            spec = TASKS[name]
            segments.append((name, self._current_cache[name], self._draw(spec.duration_s, spec.duration_std_s)))
        for name in ("GpsI2cWrite", "I2cReadCoulomb"):
            segments.append((name, self._current_cache[name], TASKS[name].duration_s))
        return segments

    def execute_tick(self, t_start: float, tasks: list[str], i_h: float) -> float:
        """Run one On-state tick: due activities then sleep, with gating."""
        cfg = self.config
        thr = cfg.thresholds
        state = self.state
        tick_end = t_start + cfg.base_tick_s
        cursor = float(t_start)
        v = self.v

        for activity in tasks:
            if activity == dev.SENSE:
                spec = TASKS["AdcRead"]
                v_before = v
                cursor, v, failed = self._run_activity(
                    cursor, v, [("AdcRead", self._current_cache["AdcRead"], spec.duration_s)], i_h
                )
                if failed:
                    return self._deplete(cursor, v, i_h, tick_end, ("TaskFailed", failed))
                self._emit("Sense", cursor, v_before, v)

            elif activity == dev.FIX:
                decision = select_gps_mode(state.gps, v, thr, cfg)
                if decision.skipped:
                    self._emit("FixSkipped", cursor, v, v, decision.skip_reason)
                    continue
                v_before = v
                cursor, v, failed = self._run_activity(cursor, v, self._fix_segments(decision.mode), i_h)
                if failed:
                    return self._deplete(cursor, v, i_h, tick_end, ("TaskFailed", failed))
                coulomb = dev.read_coulomb(state)
                dev.on_fix_success(state, decision.mode, coulomb)
                self._emit(FIX_EVENT_KIND[decision.mode], cursor, v_before, v)

            elif activity == dev.TRANSMIT:
                samples = len(state.buffer)
                detail = f"samples={samples}"
                if v < thr.nbiot:
                    self._emit("TransmitSkipped", cursor, v, v, "low-voltage")
                    continue
                spec = TASKS["NbIot"]
                current = compose_task_current(
                    "NbIot", cfg.capacitor.leakage_ma, base_ma=self._draw(spec.base_ma, spec.base_std_ma)
                )
                duration = self._draw(spec.duration_s, spec.duration_std_s)
                if cfg.payload_scaling:
                    duration *= dev.payload_bytes(samples) / dev.REFERENCE_PAYLOAD_BYTES
                v_before = v
                cursor, v, failed = self._run_activity(cursor, v, [("NbIot", current, duration)], i_h)
                if failed:
                    return self._deplete(cursor, v, i_h, tick_end, ("TransmitFailed", detail))
                state.buffer.clear()
                self._emit("Transmit", cursor, v_before, v, detail)

            else:
                raise ValueError(f"unknown activity {activity!r}")

        cursor, v, depleted = self._segment(
            cursor, v, "Sleep", self._current_cache["Sleep"], tick_end - cursor, i_h, True
        )
        if depleted:
            return self._deplete(cursor, v, i_h, tick_end, None)
        return v

    def execute_off_tick(self, t_start: float, i_h: float) -> float:
        _, v, _ = self._segment(
            t_start, self.v, "TurnedOff", self._current_cache["TurnedOff"], self.config.base_tick_s, i_h, False
        )
        return v

    # -- whole run ----------------------------------------------------------

    def run(self, harvest: HarvestTrace, n_ticks: int) -> SimResult:
        cfg = self.config
        tick = cfg.base_tick_s
        state = self.state
        if state.power is Power.OFF:
            self.off_since = 0.0

        times = np.arange(n_ticks + 1, dtype=np.int64) * tick
        voltages = np.empty(n_ticks + 1)
        power_on = np.empty(n_ticks + 1, dtype=bool)
        voltages[0] = self.v
        power_on[0] = state.power is Power.ON
        v_initial = self.v

        for i in range(n_ticks):
            t = i * tick
            if state.power is Power.OFF and self.v >= cfg.thresholds.v_turn_on:
                dev.on_recovery(state)
                self.total_off_s += t - self.off_since
                self.off_since = None
                self._emit("Recovery", float(t), self.v, self.v)
            power_on[i] = state.power is Power.ON

            i_h = float(harvest.combined_a[i])
            if state.power is Power.ON:
                self.v = self.execute_tick(float(t), due_tasks(state.clock, cfg), i_h)
            else:
                self.v = self.execute_off_tick(float(t), i_h)

            state.coulomb_accumulator += float(harvest.kinetic_a[i]) * tick
            state.clock += tick
            state.gps.advance(tick)
            voltages[i + 1] = self.v

        power_on[n_ticks] = state.power is Power.ON
        duration = n_ticks * tick
        if self.off_since is not None:
            self.total_off_s += duration - self.off_since

        self.ledger.delta_stored_j = 0.5 * cfg.capacitor.capacitance_f * (self.v**2 - v_initial**2)
        metrics = oracle_compute_metrics(
            self.events, duration, voltages=voltages, total_off_s=self.total_off_s
        )
        return SimResult(
            cfg, harvest, duration, times, voltages, power_on, self.events, metrics, self.ledger, state
        )


def oracle_compute_metrics(
    events: list[SimEvent],
    run_length_s: float,
    voltages: np.ndarray | None = None,
    total_off_s: float | None = None,
) -> SimMetrics:
    """Aggregate an event log into schedule metrics.

    Per-day statistics cover complete days only (population deviation);
    partial trailing days are excluded. An empty log yields all zeros.
    """
    m = SimMetrics()
    if not events and voltages is None:
        return m

    kind_counts: dict[str, int] = {}
    for e in events:
        kind_counts[e.kind] = kind_counts.get(e.kind, 0) + 1
    m.hot_fixes = kind_counts.get("FixHot", 0)
    m.hot_ephemeris = kind_counts.get("FixHotEph", 0)
    m.warm_ephemeris = kind_counts.get("FixWarmEph", 0)
    m.cold_starts = kind_counts.get("FixCold", 0)
    m.total_fixes = m.hot_fixes + m.hot_ephemeris + m.warm_ephemeris + m.cold_starts
    m.skipped_fixes = kind_counts.get("FixSkipped", 0)
    m.failed_tasks = kind_counts.get("TaskFailed", 0)
    m.transmissions = kind_counts.get("Transmit", 0)
    m.skipped_transmissions = kind_counts.get("TransmitSkipped", 0)
    m.failed_transmissions = kind_counts.get("TransmitFailed", 0)
    m.depletion_count = kind_counts.get("Depletion", 0)

    if total_off_s is not None:
        m.total_off_s = total_off_s
    else:
        # Reconstruct from depletion/recovery alternation; leading Off time
        # before the first event is not observable from the log alone.
        off_since = None
        for e in events:
            if e.kind == "Depletion":
                off_since = e.time_s
            elif e.kind == "Recovery" and off_since is not None:
                m.total_off_s += e.time_s - off_since
                off_since = None
        if off_since is not None:
            m.total_off_s += run_length_s - off_since

    fix_times = [e.time_s for e in events if e.kind in FIX_EVENT_KINDS]
    if fix_times:
        edges = [0.0, *fix_times, float(run_length_s)]
        m.longest_data_gap_s = max(b - a for a, b in zip(edges, edges[1:]))
    elif events:
        m.longest_data_gap_s = float(run_length_s)

    candidates = []
    if voltages is not None and len(voltages):
        candidates.append(float(np.min(voltages)))
    if events:
        candidates.append(min(min(e.voltage_before, e.voltage_after) for e in events))
    if candidates:
        m.min_voltage = min(candidates)

    complete_days = int(run_length_s) // SECONDS_PER_DAY
    day_counts = np.zeros(complete_days, dtype=int)
    per_day: dict[int, dict[str, int]] = {
        d: {"hot": 0, "hot_eph": 0, "warm_eph": 0, "cold": 0, "tx": 0, "depl": 0} for d in range(complete_days)
    }
    for e in events:
        day = int(e.time_s // SECONDS_PER_DAY)
        if day >= complete_days:
            continue
        row = per_day[day]
        if e.kind == "FixHot":
            row["hot"] += 1
        elif e.kind == "FixHotEph":
            row["hot_eph"] += 1
        elif e.kind == "FixWarmEph":
            row["warm_eph"] += 1
        elif e.kind == "FixCold":
            row["cold"] += 1
        elif e.kind == "Transmit":
            row["tx"] += 1
        elif e.kind == "Depletion":
            row["depl"] += 1
        if e.kind in FIX_EVENT_KINDS:
            day_counts[day] += 1
    if complete_days:
        m.fixes_per_day_mean = float(day_counts.mean())
        m.fixes_per_day_std = float(day_counts.std())  # population deviation
        m.per_day = [
            DayMetrics(d, r["hot"], r["hot_eph"], r["warm_eph"], r["cold"], r["tx"], r["depl"])
            for d, r in per_day.items()
        ]
    return m


# -- helpers --------------------------------------------------------------------


def bits(values) -> list[int]:
    return np.asarray(values, dtype=np.float64).view(np.int64).tolist()


def log_of(events: list[SimEvent]) -> EventLog:
    """The oracle's events as EventLog columns, details numbered in order of first use."""
    details = {"": 0}
    rows = [
        (e.time_s, EVENT_KINDS.index(e.kind), e.voltage_before, e.voltage_after,
         details.setdefault(e.detail, len(details)))
        for e in events
    ]
    return EventLog.from_rows(rows, details)


def assert_same_log(log: EventLog, events: list[SimEvent]) -> None:
    old = log_of(events)
    for column in ("time_s", "voltage_before", "voltage_after"):
        assert bits(getattr(log, column)) == bits(getattr(old, column))
    assert log.kind.tolist() == old.kind.tolist()
    assert [log.details[d] for d in log.detail.tolist()] == [e.detail for e in events]


def assert_same_run(config: SystemConfig, trace: HarvestTrace, duration_s: int) -> SimResult:
    new = run_simulation(config, trace, duration_s)
    old = oracle_run(config, trace, duration_s)
    assert bits(new.voltages) == bits(old.voltages)
    assert np.array_equal(new.power_on, old.power_on)
    assert np.array_equal(new.times_s, old.times_s)
    assert_same_log(new.log, old.events)
    # repr tells -0.0 from 0.0 and shows every bit of a float.
    assert repr(new.ledger.to_dict()) == repr(old.ledger.to_dict())
    assert list(new.ledger.consumed_by_task_j) == list(old.ledger.consumed_by_task_j)
    assert repr(new.metrics.to_dict()) == repr(old.metrics.to_dict())
    assert_same_samples(new, old)
    return old


def assert_same_samples(new: engine.SimResult, old: SimResult) -> None:
    """The fix record against the oracle's samples, remainder and end buffer."""
    record = fix_record(new)
    samples, buffer = old.device.samples, old.device.buffer
    tick = new.config.base_tick_s
    assert (record.time_s // tick * tick).tolist() == [s.time_s for s in samples]
    # Charge differences of a running sum, not the oracle's running drains.
    tolerance = 1e-12 * float(new.harvest.kinetic_a[: len(new.voltages) - 1].sum()) * tick
    assert np.all(np.abs(record.coulomb_c - [s.coulomb_c for s in samples]) <= tolerance)
    assert abs(record.undrained_c - old.device.coulomb_accumulator) <= tolerance
    tail = np.flatnonzero(np.isnan(record.delivered_s))
    assert tail.tolist() == list(range(len(samples) - len(buffer), len(samples)))
    assert (record.time_s[tail] // tick * tick).tolist() == [s.time_s for s in buffer]
    assert np.all(np.abs(record.coulomb_c[tail] - [s.coulomb_c for s in buffer]) <= tolerance)


def harvest_trace(kind: str, n: int, level: float, seed: int) -> HarvestTrace:
    rng = np.random.default_rng(seed)
    if kind == "flat":
        combined = np.full(n, level)
    elif kind == "blocks":  # hours of strong sun between dark spells
        combined = np.repeat(rng.choice([0.0, level, level * 1e-3], size=n // 60 + 1), 60)[:n]
    else:
        combined = rng.uniform(0.0, level, n)
    kinetic = rng.uniform(0.0, 1e-5, n) * (rng.random(n) < 0.3)
    return HarvestTrace(0, 60, combined, kinetic, combined)


def out_of_order(events) -> int:
    return sum(b.time_s < a.time_s for a, b in zip(events, events[1:]))


# -- cases ------------------------------------------------------------------------


def test_payload_scaled_upload_out_of_time_order():
    # ROADMAP 4a: a day's buffer makes the upload overrun its tick, and the
    # log goes out of time order; the new loop must keep that exactly.
    config = SystemConfig(payload_scaling=True, transmit_interval_s=86400, fix_interval_s=120)
    trace = harvest_trace("uniform", 3 * 1440, 2e-3, 5)
    old = assert_same_run(config, trace, 3 * 86400)
    assert out_of_order(old.events) >= 2


def test_depleting_dark_run_with_jitter():
    # Gates just above v_min let activities start and fail at the floor.
    gates = VoltageThresholds(hot_start=1.81, hot_ephemeris=1.82, warm_ephemeris=1.83, nbiot=1.81, cold_start=1.84)
    config = SystemConfig(
        capacitor=CapacitorSpec.from_capacitance(1.0), thresholds=gates, initial_voltage=2.3,
        task_jitter=True, random_seed=3,
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # gates below their safe bounds, on purpose
        old = assert_same_run(config, harvest_trace("blocks", 2 * 1440, 2e-4, 0), 2 * 86400)
    kinds = {e.kind for e in old.events}
    assert {"Depletion", "Recovery", "TaskFailed", "TransmitFailed", "TransmitSkipped", "FixSkipped"} <= kinds


def test_full_factor_tables():
    # A jittered run, with the same bits: each drawn fix segment and each
    # upload gets a table row of its own, with its drawn duration, used by
    # that one segment (the other rows the run adds are closing sleeps'). The
    # first fix is cold, with the backup domain lost.
    config = validate_config(SystemConfig(task_jitter=True, initial_voltage=3.0, initial_backup_valid=False))
    trace = harvest_trace("blocks", 1440, 1e-3, 4)
    old = assert_same_run(config, trace, 86400)
    sim = engine._Simulator(config)
    fixed = len(sim.table)
    sim._decide(trace, 1440)
    uses = np.bincount(np.concatenate([slots for slots, _ in sim.flushed]), minlength=len(sim.table)).tolist()
    drawn = [
        (engine._TASK_NAMES[row[0]], row[6], uses[slot])
        for slot, row in enumerate(sim.table[fixed:], fixed) if row[0] != engine._TASK_NAMES.index("Sleep")
    ]
    assert all(used == 1 for _, _, used in drawn)
    kinds = [e.kind for e in old.events]
    assert sorted({name for name, _, _ in drawn}) == ["ColdStart", "NbIot"]  # the tasks with a duration deviation
    assert len(drawn) == kinds.count("Transmit") + kinds.count("FixCold") > 24
    assert all(duration != TASKS[name].duration_s for name, duration, _ in drawn)


def test_drawn_run_past_32767_table_rows():
    # A jittered upload every 30 s tick on a strong constant harvest: each
    # tick adds a row for its upload and one for its closing sleep, so the
    # table passes 2^15 rows, and its later slots are booked with the frozen
    # loop's bits. Most uploads leave the clamp (those drawn light hold it),
    # and their closing sleeps cross v_max back into it.
    n, i_h = 16_500, 0.03
    config = validate_config(SystemConfig(
        base_tick_s=30, sense_interval_s=None, fix_interval_s=None, transmit_interval_s=30, task_jitter=True,
        initial_voltage=5.5,
    ))
    sim, result = recorded_run(config, HarvestTrace(0, 30, np.full(n, i_h), np.zeros(n), np.full(n, i_h)))
    assert len(sim.table) > 32767 and not speculated(sim).any()
    kinds = result.log.kind.tolist()
    assert kinds.count(EVENT_KINDS.index("Transmit")) == n and kinds.count(EVENT_KINDS.index("ClampStart")) > n / 2


def test_clamp_heavy_strong_harvest():
    config = SystemConfig(initial_voltage=5.5)
    old = assert_same_run(config, harvest_trace("uniform", 1500, 0.05, 2), 1500 * 60)
    assert sum(e.kind == "ClampStart" for e in old.events) > 10


def test_crossings_at_the_end_of_a_segment():
    # Start voltages whose v_max or v_min crossing lands just before or just
    # after the closing sleep ends, around the margin of the cheap test that
    # skips the crossing logarithm.
    config = validate_config(SystemConfig())
    r = equivalent_resistance(config.v_supply, compose_task_current("Sleep", config.capacitor.leakage_ma))
    grow = math.exp(60.0 / (r * config.capacitor.capacitance_f))
    offsets = [0.0] + [sign * 10.0**k for k in range(-17, -5) for sign in (1.0, -1.0)]
    cases = []
    for i_h in (1.2e-4, 2e-4, 1e-3):  # asymptote above v_max: the ceiling
        a = i_h * r
        cases += [(a + (5.5 - a) * grow * (1.0 + d), i_h) for d in offsets]
    for i_h in (0.0, 1e-5):  # asymptote below v_min: the floor
        a = i_h * r
        cases += [(a + (1.8 - a) * grow * (1.0 + d), i_h) for d in offsets]
    # One tick with nothing due: the engine runs it as the oracle's
    # execute_tick with no tasks, a closing sleep over the whole tick.
    quiet = replace(config, sense_interval_s=None, fix_interval_s=None, transmit_interval_s=None)
    crossed = 0
    for v0, i_h in cases:
        new, old = engine._Simulator(quiet), OracleSimulator(config)
        new.v = old.v = v0
        result = new.run(HarvestTrace(0, 60, np.array([i_h]), np.zeros(1), np.array([i_h])), 1)
        assert bits(result.voltages[1:]) == bits([old.execute_tick(0.0, [], i_h)])
        assert_same_log(result.log, old.events)
        led, booked = old.ledger, result.ledger
        assert bits([booked.harvested_in_j, booked.leakage_j, booked.discarded_at_clamp_j]) == bits(
            [led.harvested_in_j, led.leakage_j, led.discarded_at_clamp_j]
        )
        assert booked.consumed_by_task_j == led.consumed_by_task_j
        crossed += bool(old.events)
    assert 0 < crossed < len(cases)


# -- sparse schedules: the engine steps each run of activity-free ticks in one loop

# Sensing off, a fix every 30 minutes, one daily upload: most ticks only sleep.
SPARSE = dict(sense_interval_s=None, fix_interval_s=1800, transmit_interval_s=86400)


def scheduled_idle(time_s: float, config: SystemConfig) -> bool:
    """Whether the tick holding time_s has no activity due."""
    start = int(time_s // config.base_tick_s) * config.base_tick_s
    return not device.due_codes(start, 1, config)[0]


def test_idle_stretches_enter_and_leave_the_clamp():
    # A harvest whose asymptote jumps around v_max every tick: the clamp is
    # entered at fractional seconds inside idle ticks and left at their starts.
    config = validate_config(SystemConfig(initial_voltage=5.5, **SPARSE))
    old = assert_same_run(config, harvest_trace("uniform", 1440, 3e-4, 1), 86400)
    starts = [e.time_s for e in old.events if e.kind == "ClampStart" and scheduled_idle(e.time_s, config)]
    ends = [e.time_s for e in old.events if e.kind == "ClampEnd" and scheduled_idle(e.time_s, config)]
    assert len(starts) > 10 and all(t % 60 for t in starts)
    assert len(ends) > 10


def test_busy_ticks_leave_the_clamp_in_a_fix_and_reenter_it_in_their_sleep(monkeypatch):
    # The winter-dense pattern: every tick busy, a harvest whose asymptote is
    # above v_max in sleep and below it in a fix. Each fix leaves the clamp as
    # it starts, after the Sense, and the closing sleep re-enters it at a
    # fractional second. The booking pass gives the frozen loop's bits, and
    # the same bits working a few segments at a time from a record moved
    # into arrays every three ticks.
    config = validate_config(SystemConfig(initial_voltage=5.5))
    trace = harvest_trace("uniform", 720, 2e-3, 3)
    old = assert_same_run(config, trace, 720 * 60)
    sense_s = TASKS["AdcRead"].duration_s
    ends = [e.time_s for e in old.events if e.kind == "ClampEnd" and e.time_s == e.time_s // 60 * 60 + sense_s]
    starts = [e.time_s for e in old.events if e.kind == "ClampStart" and e.time_s % 60]
    assert not any(scheduled_idle(t, config) for t in ends + starts)
    assert len(ends) > 10 and len(starts) > 10
    monkeypatch.setattr(engine, "_BOOKING_CHUNK", 3)
    assert_same_run(config, trace, 720 * 60)


# -- busy ticks: stepped by the speculative pass, or by the exact loop
# segment by segment


def recorded_run(config: SystemConfig, trace: HarvestTrace) -> tuple[engine._Simulator, engine.SimResult]:
    """Check a run against the frozen loop; return a simulator that ran it, and its result."""
    n = len(trace)
    assert_same_run(config, trace, n * config.base_tick_s)
    sim = engine._Simulator(validate_config(config))
    return sim, sim.run(trace, n)


def speculated(sim: engine._Simulator) -> np.ndarray:
    """Per tick of a run, whether the speculative pass stepped it (else the exact loop did)."""
    stepped = np.zeros(sim.counts.size, bool)
    for first, end, _ in sim.windows:
        stepped[first:end] = True
    return stepped


def exact_loop_only(monkeypatch) -> None:
    """Make every simulator take each tick's due codes as drawn, so that its exact loop steps every tick."""
    init = engine._Simulator.__init__

    def exact_only(sim, config):
        init(sim, config)
        sim.plain = [False] * 8

    monkeypatch.setattr(engine._Simulator, "__init__", exact_only)


def crossing_start(sim: engine._Simulator, chain: tuple[str, ...], i_h: float, fraction: float) -> float:
    """A start voltage for chain, under the harvest i_h, whose v_max crossing
    falls at fraction of the chain's last segment: that segment's crossing,
    and each earlier segment undone from there."""
    *earlier, last = (sim.loads[name] for name in chain)
    durations = [TASKS[name].duration_s for name in chain]
    a = i_h * last[1]
    v = a + (sim.v_max - a) * math.exp(fraction * durations[-1] / last[2])
    for load, duration in zip(reversed(earlier), reversed(durations[:-1])):
        a = i_h * load[1]
        v = a + (v - a) * math.exp(duration / load[2])
    return v


@pytest.mark.parametrize("exact", [True, False])
@pytest.mark.parametrize("fraction", [0.25, 0.5, 0.75])
@pytest.mark.parametrize(
    "activity, schedule",
    [
        ("Sense", dict(sense_interval_s=60, fix_interval_s=None, transmit_interval_s=None)),
        ("FixHot", dict(sense_interval_s=None, fix_interval_s=120, transmit_interval_s=None)),
    ],
)
def test_busy_tick_crosses_v_max_inside_an_activity(monkeypatch, activity, schedule, fraction, exact):
    # One tick whose v_max crossing falls inside the Sense, or inside the
    # last segment of a hot fix's chain, not in the closing sleep. The
    # speculative pass steps the tick and records the crossing: the segment
    # (the chain's last, by its slot) and the crossing time; the booking pass
    # books the partial and the pinned rest. With every due code taken as
    # drawn, the exact loop steps the tick instead: it decides the crossing
    # itself and records it the same way.
    if exact:
        exact_loop_only(monkeypatch)
    config = validate_config(SystemConfig(**schedule))
    i_h = 0.02
    chain = ACTIVITIES[activity].chain
    v0 = crossing_start(engine._Simulator(config), chain, i_h, fraction)
    one = HarvestTrace(0, 60, np.array([i_h]), np.zeros(1), np.array([i_h]))
    sim, _ = recorded_run(replace(config, initial_voltage=v0), one)
    assert sim.counts.tolist() == [len(chain) + 1]  # every segment recorded, either way
    segment, t_up = sim.crossings
    assert segment == len(chain) - 1 and 0.0 < t_up < TASKS[chain[-1]].duration_s
    assert sim.windows == ([] if exact else [(0, 1, False)])


@pytest.mark.parametrize(
    "below, current", [(0.0, None), (1e-12, None), (2e-12, None), (2e-12, 5.0)],
    ids=["0.0", "1e-12", "2e-12", "zero-length-crossing"],
)
def test_busy_tick_at_the_pinned_edge(below, current):
    # A tick that starts at or just below v_max, under a harvest that puts
    # the Sense's asymptote at v_max: the pinned test (a start at or above
    # v_max - 1e-12) decides whether the Sense holds v_max or decays toward
    # it, and the booking pass's replay must decide it the same way. Under a
    # 5 A harvest, the Sense from just below the pinned test crosses v_max at
    # once: a zero-length partial, booked as 0.0, then its pinned rest.
    config = validate_config(SystemConfig(fix_interval_s=None, transmit_interval_s=None))
    sim = engine._Simulator(config)
    r = sim.loads["AdcRead"][1]
    i_h = math.nextafter(sim.v_max / r, math.inf) if current is None else current
    assert i_h * r >= sim.v_max
    one = HarvestTrace(0, 60, np.array([i_h]), np.zeros(1), np.array([i_h]))
    sim, _ = recorded_run(replace(config, initial_voltage=sim.v_max - below), one)
    if current is not None:
        assert sim.crossings == [0, 0.0]


@pytest.mark.parametrize("exact", [False, True], ids=["pass", "exact"])
def test_plain_step_rounding_past_v_max_is_clamped(monkeypatch, exact):
    # An idle tick whose v_max crossing falls just past its 60 s sleep: the
    # margin test leaves it to the plain step, where a + (v - a) e rounds to
    # one ulp above v_max. Either stepper clamps it to v_max and records no
    # crossing; the next tick starts pinned, with its ClampStart at 60 s.
    if exact:
        exact_loop_only(monkeypatch)
    config = validate_config(SystemConfig(sense_interval_s=None, fix_interval_s=None, transmit_interval_s=None,
                                          initial_voltage=5.498309311794071))
    i_h = 0.00014485057143751563
    two = HarvestTrace(0, 60, np.full(2, i_h), np.zeros(2), np.full(2, i_h))
    sim, result = recorded_run(config, two)
    assert result.voltages.tolist() == [5.498309311794071, 5.5, 5.5]
    assert sim.crossings == []
    assert sim.windows == ([] if exact else [(0, 2, False)])
    assert result.log.kind.tolist() == [EVENT_KINDS.index("ClampStart")] and result.log.time_s.tolist() == [60.0]


@pytest.mark.parametrize("chunk", [3, engine._BOOKING_CHUNK])
def test_busy_ticks_near_the_floor_are_recorded(monkeypatch, chunk):
    # test_depleting_dark_run_with_jitter without the jitter (and on a trace
    # with every kind of failure), so that every tick may be speculated. The
    # speculative pass steps no powered segment that starts below the floor
    # just above v_min, and gives the tick of one that ends below it, which
    # may have reached v_min, to the exact loop: so no powered tick of the
    # pass starts or ends below the floor, and every TaskFailed and
    # TransmitFailed falls in a tick of the exact loop. The pass takes most
    # ticks all the same, in few windows. It calls
    # select_gps_mode at an infinite voltage once per ephemeris age; the exact
    # loop calls it at the tick's voltage once per fix it reaches. Also booked
    # three ticks at a time.
    monkeypatch.setattr(engine, "_BOOKING_CHUNK", chunk)
    gates = VoltageThresholds(hot_start=1.81, hot_ephemeris=1.82, warm_ephemeris=1.83, nbiot=1.81, cold_start=1.84)
    config = SystemConfig(capacitor=CapacitorSpec.from_capacitance(1.0), thresholds=gates, initial_voltage=2.3)
    trace = harvest_trace("blocks", 2 * 1440, 2e-4, 2)
    calls = []
    monkeypatch.setattr(engine, "select_gps_mode", lambda *args: calls.append(args) or device.select_gps_mode(*args))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # gates below their safe bounds, on purpose
        sim, result = recorded_run(config, trace)
        old = oracle_run(config, trace, 2 * 86400)
    kinds = [e.kind for e in old.events]
    assert {"Depletion", "Recovery", "TaskFailed", "TransmitFailed", "TransmitSkipped", "FixSkipped"} <= set(kinds)
    failed = {int(e.time_s // 60) for e in old.events if e.kind in ("TaskFailed", "TransmitFailed")}
    pass_ticks = speculated(sim)
    assert not pass_ticks[list(failed)].any()
    powered = result.power_on[:-1]
    near = np.minimum(result.voltages[:-1], result.voltages[1:]) < sim.floor
    assert near.any() and not (pass_ticks & powered & near).any()
    assert pass_ticks.sum() > 5 * (~pass_ticks).sum() and len(sim.windows) < len(trace) / 20
    fix_tasks = {task for spec in ACTIVITIES.values() if spec.activity == FIX for task in spec.chain}
    reached = [  # the tick of each fix that ran, was skipped or failed in its chain
        int(e.time_s // 60) for e in old.events
        if e.kind.startswith("Fix") or e.kind == "TaskFailed" and e.detail in fix_tasks
    ]
    speculations = [age for age, voltage, _ in calls if voltage == math.inf]
    assert len(calls) - len(speculations) == 2 * sum(not pass_ticks[i] for i in reached)  # two runs of the engine
    assert 0 < len(speculations) == 2 * len(set(speculations))


def test_busy_tick_that_recovers_and_fails_is_recorded_with_its_recovery():
    # A small capacitor on a weak flat harvest: the tick that recovers at
    # v_turn_on skips its fix, fails in its upload and is stepped by the
    # exact loop, which places its Recovery row before it steps the tick.
    config = SystemConfig(
        capacitor=CapacitorSpec(0.21875, 0.001953125), sense_interval_s=60, fix_interval_s=60,
        transmit_interval_s=600, initial_voltage=0.0,
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # thresholds below the small capacitor's safe bounds
        sim, result = recorded_run(config, harvest_trace("flat", 861, 1e-5, 0))
    kinds = result.log.kind.tolist()
    recovered = result.log.time_s[kinds.index(EVENT_KINDS.index("Recovery"))] // 60
    assert not speculated(sim)[int(recovered)] and EVENT_KINDS.index("TransmitFailed") in kinds


def test_busy_tick_skips_its_fix_and_its_upload():
    # Gates above the voltage: a tick due for a fix and an upload skips both,
    # between its Sense and its closing sleep. The first window is cut at the
    # first tick, at the fix's gate, and the pass is not tried again while no
    # tick starts at or above that gate: the exact loop steps every tick.
    gates = VoltageThresholds(hot_start=2.5, hot_ephemeris=2.5, warm_ephemeris=2.5, nbiot=2.5, cold_start=2.5)
    config = SystemConfig(thresholds=gates, initial_voltage=2.3)
    sim, result = recorded_run(config, harvest_trace("flat", 180, 1e-5, 0))
    log = result.log
    skips = {
        kind: set((log.time_s // 60)[log.kind == EVENT_KINDS.index(kind)].tolist())
        for kind in ("FixSkipped", "TransmitSkipped")
    }
    assert skips["TransmitSkipped"] == {0.0, 60.0, 120.0} <= skips["FixSkipped"]
    assert sim.windows == [(0, 0, True)] and sim.counts.size == 180


def test_busy_ticks_refresh_the_ephemeris():
    # An ephemeris ten minutes short of its refresh age: a fix every three
    # hours is FixHotEph, whose refresh the hot fixes after it read.
    config = SystemConfig(initial_ephemeris_age_s=10800 - 600)
    old = assert_same_run(config, harvest_trace("uniform", 1440, 1e-3, 6), 86400)
    kinds = [e.kind for e in old.events]
    assert kinds.count("FixHotEph") == 8 and kinds.count("FixHot") == 720 - 8


def test_busy_ticks_on_a_120_s_tick():
    config = SystemConfig(base_tick_s=120, sense_interval_s=120, fix_interval_s=240, initial_voltage=5.0)
    trace = replace(harvest_trace("uniform", 720, 2e-3, 7), resolution_s=120)
    old = assert_same_run(config, trace, 720 * 120)
    kinds = [e.kind for e in old.events]
    assert kinds.count("FixHot") > 300 and kinds.count("ClampStart") > 10 and kinds.count("Transmit") == 24


def test_crossing_free_busy_ticks_are_one_record_of_every_segment():
    # Every tick busy and none near v_min, v_max or a gate: the speculative
    # pass steps them all, in windows of doubling length that are never cut,
    # and records every segment's start voltage and slot, with no crossing;
    # the only table rows the run adds are its closing sleeps'. A tick has
    # its Sense and closing sleep, the segments of its fix's chain every
    # other tick, an upload every hour.
    config = SystemConfig(initial_voltage=4.0)
    sim, result = recorded_run(config, harvest_trace("flat", 720, 4e-5, 0))
    fixed = len(engine._Simulator(sim.config).table)
    assert sim.windows == [(0, 256, False), (256, 720, False)]
    segments = np.full(720, 2)  # the Sense and the closing sleep
    for t, kind in zip(result.log.time_s.tolist(), result.log.kind.tolist()):
        if kind:  # a fix or an upload: the segments of its chain
            segments[int(t // 60)] += len(ACTIVITIES[EVENT_KINDS[kind]].chain)
    assert sim.counts.tolist() == segments.tolist()
    assert sim.n_flushed == sim.counts.sum() and not sim.crossings
    assert len(sim.table) == fixed + len(sim.closing) - 1  # the whole-tick closing sleep's row is fixed


@pytest.mark.parametrize("level", [2e-3, 0.1])
def test_idle_stretch_depletes_coasts_and_recovers(level):
    # Eight dark hours drain a 1 F capacitor to v_min in a sleep-only tick;
    # the device coasts off until the sun brings it back at a tick boundary.
    # At 0.1 A an off tick crosses v_max on the way.
    config = SystemConfig(capacitor=CapacitorSpec.from_capacitance(1.0), initial_voltage=2.25, **SPARSE)
    n, dark = 1440, 490
    combined = np.concatenate([np.zeros(dark), np.full(n - dark, level)])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # gates below the 1 F safe bounds
        config = validate_config(config)
        old = assert_same_run(config, HarvestTrace(0, 60, combined, np.zeros(n), combined), n * 60)
    times = {kind: [e.time_s for e in old.events if e.kind == kind] for kind in ("Depletion", "Recovery", "ClampStart")}
    (depleted,), (recovered,) = times["Depletion"], times["Recovery"]
    assert scheduled_idle(depleted, config) and depleted % 60
    assert recovered > dark * 60 and recovered % 60 == 0
    assert times["ClampStart"][0] < recovered if level == 0.1 else times["ClampStart"][0] > recovered


def test_crossings_at_the_end_of_an_idle_stretch():
    # test_crossings_at_the_end_of_a_segment's start voltages, moved back
    # over the earlier ticks of a run with nothing scheduled, so that the
    # crossing lands around the end of the last tick of one long stretch.
    base = validate_config(SystemConfig(sense_interval_s=None, fix_interval_s=None, transmit_interval_s=None))
    r = equivalent_resistance(base.v_supply, compose_task_current("Sleep", base.capacitor.leakage_ma))
    x = 60.0 / (r * base.capacitor.capacitance_f)
    grow = math.exp(x)
    offsets = [0.0] + [sign * 10.0**k for k in range(-17, -5) for sign in (1.0, -1.0)]
    crossed = stretches = 0
    for bound, levels in ((5.5, (1.2e-4, 2e-4, 1e-3)), (1.8, (0.0, 1e-5))):
        for i_h in levels:
            a = i_h * r
            # Enough ticks to start powered (at v_turn_on or above), and at least five.
            n = max(5, math.ceil(math.log((2.2 - a) / (bound - a)) / x) + 2)
            stretches = max(stretches, n)
            for d in offsets:
                last = a + (bound - a) * grow * (1.0 + d)  # start voltage of the last tick
                config = replace(base, initial_voltage=min(a + (last - a) * grow ** (n - 1), 5.5))
                old = assert_same_run(config, harvest_trace("flat", n, i_h, 0), n * 60)
                crossed += any(e.kind in ("ClampStart", "Depletion") for e in old.events)
    assert 0 < crossed < 5 * len(offsets)
    assert stretches > 100  # the floor cases cross after a long stretch


def test_idle_ticks_are_not_stepped_one_by_one():
    # Two days shaped like the year-sparse benchmark, with v_max crossings in
    # idle ticks: the speculative pass steps every tick, idle or busy, in a
    # handful of windows, each idle tick one whole-tick Sleep segment; the
    # exact loop steps none of them one by one.
    config = validate_config(SystemConfig(**SPARSE))
    sim, result = recorded_run(config, harvest_trace("blocks", 2 * 1440, 2e-3, 1))
    kinds = result.log.kind.tolist()
    assert kinds.count(EVENT_KINDS.index("ClampStart")) > 0 and sim.crossings
    assert speculated(sim).all() and len(sim.windows) <= 5
    due = device.due_codes(0, 2 * 1440, config)
    assert (sim.counts[due == 0] == 1).all()


# -- the speculative pass's cuts


def test_window_cut_after_a_crossing_in_its_tick():
    # A 1 F capacitor under a harvest that lifts the Sense's asymptote above
    # v_max: the first tick's Sense crosses v_max, its cold fix drains the
    # capacitor below an upload gate set near v_max, and the window is cut
    # there. The crossing the pass recorded in that tick is dropped, and the
    # exact loop steps the tick again from its start and records the
    # crossing again, at the run's first segment.
    gates = VoltageThresholds(cold_start=5.0, nbiot=5.2)
    config = SystemConfig(
        capacitor=CapacitorSpec.from_capacitance(1.0), thresholds=gates, transmit_interval_s=60,
        initial_backup_valid=False,
    )
    i_h = 1e-3
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the default gates are below their 1 F safe bounds
        v0 = crossing_start(engine._Simulator(validate_config(config)), ACTIVITIES["Sense"].chain, i_h, 0.5)
        sim, result = recorded_run(replace(config, initial_voltage=v0), harvest_trace("flat", 3, i_h, 0))
    assert sim.windows[0] == (0, 0, True)
    segment, t_up = sim.crossings[:2]
    assert segment == 0 and 0.0 < t_up < TASKS["AdcRead"].duration_s
    kinds = [EVENT_KINDS[k] for k in result.log.kind.tolist()]
    assert kinds[:4] == ["ClampStart", "Sense", "ClampEnd", "FixCold"] and "TransmitSkipped" in kinds


def test_tick_ending_below_the_floor_goes_to_the_exact_loop():
    # A segment that ends below the floor, v_min (1 + 1e-6), may have
    # reached v_min: the pass gives its tick to the exact loop. With no
    # harvest, a sensing tick's plain step scales its start by its Sense's
    # exp(-x) and then its closing sleep's. From the lowest start whose tick
    # ends at or above the floor the pass steps the first tick; from one ulp
    # lower the exact loop does. Either way the second tick ends below it.
    gates = VoltageThresholds(v_turn_on=1.800001)  # under the floor, so that a start near it is powered
    config = validate_config(SystemConfig(thresholds=gates, fix_interval_s=None, transmit_interval_s=None))
    sim = engine._Simulator(config)
    ((_, _, sense, e_sense, _),) = sim.plans["Sense"][1]
    e_sleep = sim._closing(config.base_tick_s - sense)[0][3]

    def ends_at_floor(v: float) -> bool:
        return v * e_sense * e_sleep >= sim.floor

    v0 = sim.floor / (e_sense * e_sleep)
    while not ends_at_floor(v0):
        v0 = math.nextafter(v0, math.inf)
    while ends_at_floor(math.nextafter(v0, -math.inf)):
        v0 = math.nextafter(v0, -math.inf)
    trace = harvest_trace("flat", 2, 0.0, 0)
    for start, stepped in ((math.nextafter(v0, -math.inf), False), (v0, True)):
        sim, _ = recorded_run(replace(config, initial_voltage=start), trace)
        assert speculated(sim).tolist() == [stepped, False]


def test_busy_ticks_straddle_2_20_and_2_21_s():
    # A busy tick's closing sleep runs from its activities' end, their
    # durations summed from the tick's start, to the tick's end. Where the
    # partial sums run across a power of two they round in two binades, so the
    # closing sleep differs from that of a tick of the same type just before.
    # Every fix is cold here (36 s, the ephemeris limits set to seconds), so
    # those of the ticks that start 16 s before 2^20 s and 32 s before 2^21 s
    # run across it. The speculative pass steps both, bit for bit.
    tick = 240
    config = SystemConfig(
        base_tick_s=tick, sense_interval_s=tick, fix_interval_s=tick, transmit_interval_s=None, initial_voltage=4.0,
        ephemeris_refresh_age_s=1, ephemeris_hot_limit_s=2, ephemeris_warm_limit_s=3,
    )
    sim, result = recorded_run(config, replace(harvest_trace("uniform", 8739, 3e-3, 0), resolution_s=tick))
    straddling = [2**20 // tick, 2**21 // tick]
    assert [2**k - i * tick for k, i in zip((20, 21), straddling)] == [16, 32]
    assert speculated(sim)[straddling].all()
    cold = result.log.time_s[result.log.kind == EVENT_KINDS.index("FixCold")].tolist()
    ends = {int(t // tick): t for t in cold}  # each cold fix's end, by its tick
    assert len(cold) == 8738 and ends[straddling[0]] > 2**20 and ends[straddling[1]] > 2**21


@st.composite
def cut_cases(draw):
    """(config, trace): a run with its gates drawn near its own voltages, so that
    the speculative pass is cut by each of its reasons, or steps a v_max crossing at the margin of the
    cheap test, or uploads whose durations sum across a power of two (2^10 s at tick 17, 2^14 s at
    tick 273), where the closing sleep's partial sums change binade."""
    case = draw(st.sampled_from(["gates", "fallback", "uploads", "floor", "margin", "straddle"]))
    tick, n = 60, draw(st.integers(274, 480) if case == "straddle" else st.integers(30, 480))
    v0 = 4.5 if case == "straddle" else draw(st.floats(1.81, 1.9) if case == "floor" else st.floats(1.85, 2.6))
    near = st.floats(-0.2, 0.2).map(lambda d: round(min(max(v0 + d, 1.8), 5.0), 4))
    low = st.floats(1.8, 1.82)  # out of the way
    gates = {name: draw(low if case == "straddle" else near) for name in ("hot_start", "warm_ephemeris", "cold_start")}
    gates["hot_ephemeris"] = draw(st.floats(0.0, 0.2).map(lambda d: v0 + d) if case == "fallback" else near)
    gates["nbiot"] = draw(low if case == "straddle" else near)
    if case in ("fallback", "uploads"):  # FixHotEph speculated and FixHot run below its gate; uploads skipped
        gates.update(hot_start=draw(low), warm_ephemeris=draw(low), cold_start=draw(low))
    config = SystemConfig(
        capacitor=CapacitorSpec.from_capacitance(draw(st.sampled_from([1.0, 2.5]))),
        thresholds=VoltageThresholds(v_min=1.8, v_turn_on=1.95 if case == "floor" else 2.2, **gates),
        base_tick_s=tick, sense_interval_s=tick, fix_interval_s=tick * draw(st.sampled_from([1, 2, 10])),
        transmit_interval_s=tick * (1 if case == "straddle" else draw(st.sampled_from([10, 60]))), initial_voltage=v0,
        initial_ephemeris_age_s=10800 - 60 * draw(st.integers(0, 10)) if case == "fallback" else draw(
            st.sampled_from([0, 12000, 100000])),
    )
    level = draw(st.sampled_from([3e-3, 5e-3] if case == "straddle" else [0.0, 1e-5, 5e-5, 2e-4, 1e-3]))
    trace = replace(harvest_trace(draw(st.sampled_from(["flat", "blocks", "uniform"])), n, level, draw(
        st.integers(0, 2**16))), resolution_s=tick)
    if case == "margin":  # the first tick's v_max crossing at the end of its Sense, give or take
        i_h = 0.02
        trace = HarvestTrace(0, tick, np.full(n, i_h), np.zeros(n), np.full(n, i_h))
        fraction = draw(st.sampled_from([1.0 - 1e-6, 1.0 - 1e-12, 1.0, 1.0 + 1e-12, 1.0 + 1e-6]))
        sense = ACTIVITIES["Sense"].chain
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # gates below their safe bounds, on purpose
            v_up = crossing_start(engine._Simulator(validate_config(config)), sense, i_h, fraction)
        config = replace(config, initial_voltage=min(v_up, config.capacitor.v_max))
    return config, trace


def cut_reason(sim: engine._Simulator, result: engine.SimResult, tick: int) -> str:
    """Why the speculative pass was cut at tick, from what the exact loop found there."""
    base = sim.config.base_tick_s
    kinds = {EVENT_KINDS[k] for k, t in zip(result.log.kind.tolist(), result.log.time_s.tolist()) if t // base == tick}
    if "Recovery" in kinds:
        return "Recovery"
    if min(result.voltages[tick : tick + 2]) < sim.floor:
        return "below the floor"
    for kind in ("FixSkipped", "TransmitSkipped", "TaskFailed", "TransmitFailed", "FixHot"):
        if kind in kinds:
            return kind if kind != "FixHot" else "FixHotEph fell back to FixHot"
    return "gate"


@settings(max_examples=100, deadline=None)
@given(cut_cases())
def test_cut_paths_match_the_frozen_loop(case):
    config, trace = case
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # gates below their safe bounds, on purpose
        sim, result = recorded_run(config, trace)
        for _, end, cut in sim.windows:
            if cut:
                event(cut_reason(sim, result, end))
    if sim.crossings:
        event("v_max crossing in the pass")
    if config.transmit_interval_s == config.base_tick_s and speculated(sim)[[17, 273]].all():
        event("the pass steps uploads that straddle 2^10 s and 2^14 s")


@settings(max_examples=30, deadline=None)
@given(
    capacitor=st.one_of(
        st.sampled_from([1.0, 2.5, 5.0]).map(CapacitorSpec.from_capacitance),
        st.builds(CapacitorSpec, st.floats(0.2, 10.0), st.floats(0.001, 0.1)),
    ),
    tick=st.sampled_from([60, 120]),
    sense=st.sampled_from([1, 2, None]),
    fix=st.sampled_from([1, 2, 10, 30, None]),
    transmit=st.sampled_from([10, 60, 1440, None]),
    jitter=st.booleans(),
    payload=st.booleans(),
    initial_voltage=st.one_of(st.floats(0.0, 5.5), st.sampled_from([0.0, 1.8, 2.19, 5.5 - 2e-12, 5.5 - 1e-12, 5.5])),
    initial_age=st.sampled_from([0, 12000, 100000, 200000]),
    trace_kind=st.sampled_from(["flat", "blocks", "uniform"]),
    level=st.sampled_from([0.0, 1e-5, 2e-4, 1e-3, 5e-3, 0.05]),
    n_ticks=st.integers(1, 1600),
    seed=st.integers(0, 2**16),
)
def test_random_configs_and_traces(
    capacitor, tick, sense, fix, transmit, jitter, payload, initial_voltage, initial_age,
    trace_kind, level, n_ticks, seed,
):
    config = SystemConfig(  # intervals are drawn in ticks; None disables
        capacitor=capacitor, base_tick_s=tick, sense_interval_s=sense and sense * tick,
        fix_interval_s=fix and fix * tick, transmit_interval_s=transmit and transmit * tick,
        task_jitter=jitter, payload_scaling=payload,
        initial_voltage=min(initial_voltage, capacitor.v_max), initial_ephemeris_age_s=initial_age,
        random_seed=seed,
    )
    trace = replace(harvest_trace(trace_kind, n_ticks, level, seed), resolution_s=tick)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # thresholds below the safe bound of small capacitors
        assert_same_run(config, trace, n_ticks * tick)


events_strategy = st.lists(
    st.builds(
        SimEvent,
        st.floats(0.0, 3.5 * SECONDS_PER_DAY),
        st.sampled_from(["Sense", "FixHot", "FixHotEph", "FixWarmEph", "FixCold", "FixSkipped", "Transmit",
                         "TransmitSkipped", "TransmitFailed", "TaskFailed", "Depletion", "Recovery", "ClampEnd"]),
        st.one_of(st.floats(0.0, 5.5), st.sampled_from([0.0, -0.0])),
        st.one_of(st.floats(0.0, 5.5), st.sampled_from([0.0, -0.0])),
        st.sampled_from(["", "low-voltage", "samples=3"]),
    ),
    max_size=40,
)


@settings(max_examples=60, deadline=None)
@given(
    events=events_strategy,
    run_length=st.sampled_from([1000, SECONDS_PER_DAY, 3 * SECONDS_PER_DAY + 7200]),
    voltages=st.one_of(st.none(), st.lists(st.floats(0.0, 5.5), max_size=5).map(np.array)),
)
def test_metrics_of_hand_built_logs(events, run_length, voltages):
    new = compute_metrics(log_of(events), run_length, voltages=voltages)
    old = oracle_compute_metrics(events, run_length, voltages=voltages)
    assert repr(new.to_dict()) == repr(old.to_dict())
