"""Simulation loop: per-tick task execution over a harvest trace.

Each tick executes the due activities as consecutive constant-load segments
of the closed-form capacitor solution, then sleeps for the remainder. Floor
(v_min) and ceiling (v_max) crossings are located analytically inside
segments, so depletion times, clamp windows, and the energy ledger are exact
rather than discretized to the tick.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass, field

import numpy as np

from . import device as dev
from .capacitor import equivalent_resistance, integrate_segment
from .device import DeviceState, GpsMode, Power, due_tasks, select_gps_mode
from .energy_model import TASKS, SystemConfig, compose_task_current, validate_config
from .harvest import HarvestTrace, TraceError, csv_field, current_text, format_floats, write_csv

SECONDS_PER_DAY = 86400

# Event kinds, fixed vocabulary.
FIX_EVENT_KIND = {
    GpsMode.HOT: "FixHot",
    GpsMode.HOT_EPHEMERIS: "FixHotEph",
    GpsMode.WARM_EPHEMERIS: "FixWarmEph",
    GpsMode.COLD: "FixCold",
}
FIX_EVENT_KINDS = frozenset(FIX_EVENT_KIND.values())

TIMESERIES_HEADER = ["t_s", "voltage_v", "i_solar_a", "i_kinetic_a", "i_combined_a", "power_state", "event"]


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
        out = {k: getattr(self, k) for k in (
            "hot_fixes", "hot_ephemeris", "warm_ephemeris", "cold_starts", "total_fixes",
            "skipped_fixes", "failed_tasks", "fixes_per_day_mean", "fixes_per_day_std",
            "transmissions", "skipped_transmissions", "failed_transmissions",
            "depletion_count", "total_off_s", "longest_data_gap_s", "min_voltage",
        )}
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
    events: list[SimEvent]
    metrics: SimMetrics
    ledger: EnergyLedger
    device: DeviceState  # end-of-run device state (buffer, accumulator, gps)


class _Simulator:
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
        metrics = compute_metrics(
            self.events, duration, voltages=voltages, total_off_s=self.total_off_s
        )
        return SimResult(
            cfg, harvest, duration, times, voltages, power_on, self.events, metrics, self.ledger, state
        )


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
    available = len(harvest) * harvest.resolution_s
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


def integrate_tick(
    voltage: float,
    tasks: list[str],
    harvest_current_a: float,
    config: SystemConfig,
    state: DeviceState | None = None,
    tick_start_s: float = 0.0,
) -> tuple[float, list[SimEvent]]:
    """Run a single tick in isolation: given activities, then sleep.

    Convenience wrapper over the same machinery run_simulation uses; builds a
    fresh powered-on device when no state is passed. Returns the end-of-tick
    voltage and the intra-tick events.
    """
    config = validate_config(config)
    sim = _Simulator(config)
    if state is not None:
        sim.state = state
    sim.v = voltage
    if sim.state.power is Power.ON:
        v_end = sim.execute_tick(tick_start_s, tasks, harvest_current_a)
    else:
        v_end = sim.execute_off_tick(tick_start_s, harvest_current_a)
    return v_end, sim.events


def compute_metrics(
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


def export_timeseries(result: SimResult, path: str) -> None:
    """Write the run as CSV: one row per tick boundary plus one per event.

    Rows are in time order; on equal times the tick row comes first and
    events keep log order. Event rows repeat the harvest currents of their
    containing tick; the power_state column tracks depletion/recovery flips
    through the log.
    """
    harvest = result.harvest
    events = result.events
    n = len(result.times_s) - 1
    tick_t = result.times_s
    event_t = np.array([e.time_s for e in events], dtype=float)
    row_t = np.concatenate([tick_t, event_t])
    order = np.argsort(row_t, kind="stable")
    voltage = np.concatenate([result.voltages, [e.voltage_after for e in events]])
    # Trace step of each row, clamped to the run: the final tick row, and any
    # event at or past the end, repeat the last step's currents.
    steps = np.maximum(np.minimum(row_t // harvest.resolution_s, n - 1), 0).astype(np.intp)

    # The "power_state,event" fields come from a table: "Off," and "On," for
    # tick rows, then an Off/On pair for each distinct (kind, detail) of the log.
    labels: dict[tuple[str, str], int] = {}
    label = [labels.setdefault((e.kind, e.detail), len(labels)) for e in events]
    tails = ["Off,", "On,"]
    sets_power = []  # per label: 0 for Depletion, 1 for Recovery, None otherwise
    for kind, detail in labels:
        text = csv_field(f"{kind}:{detail}" if detail else kind)
        tails += [f"Off,{text}", f"On,{text}"]
        sets_power.append({"Depletion": 0, "Recovery": 1}.get(kind))
    codes = np.where(result.power_on, 1, 0).tolist()
    power = codes[0]
    for code in label:  # in log order, not time order
        if sets_power[code] is not None:
            power = sets_power[code]
        codes.append(2 + 2 * code + power)
    codes = np.array(codes)
    tail_text = np.array(tails, dtype=object)

    def rows(start: int, stop: int) -> Iterable[tuple[str, str, str, str]]:
        idx = order[start:stop]
        tick = idx <= n
        time_text = np.empty(idx.size, dtype=object)  # tick times are whole seconds
        time_text[tick] = np.array(["%d.00000" % t for t in tick_t[idx[tick]].tolist()], dtype=object)
        time_text[~tick] = np.array(format_floats(event_t[idx[~tick] - (n + 1)], "%.5f"), dtype=object)
        step = steps[idx]
        first = int(step.min())
        step_text = np.array(current_text(harvest, first, int(step.max()) + 1), dtype=object)
        return zip(
            time_text.tolist(), format_floats(voltage[idx], "%.6f"),
            step_text[step - first].tolist(), tail_text[codes[idx]].tolist(),
        )

    write_csv(path, TIMESERIES_HEADER, len(order), rows)
