"""Simulation loop: per-tick task execution over a harvest trace.

Each tick executes the due activities as consecutive constant-load segments
of the closed-form capacitor solution, then sleeps for the remainder. Floor
(v_min) and ceiling (v_max) crossings are located analytically inside
segments, so depletion times, clamp windows, and the energy ledger are exact
rather than discretized to the tick.

A run is a decide loop and a booking pass. The loop carries the voltage and
the device state and takes every gate and crossing decision. It hands each
stretch of powered ticks with plain schedules, and each stretch of unpowered
ticks, to a speculative pass: a window of ticks whose types follow from the
schedule and the ephemeris age alone (every fix and upload runs), built with
numpy as flat per-segment arrays from fixed rows per type, each busy tick's
closing sleep summed as the exact loop sums it, and stepped in one tight loop
that stops at the first segment that fails its threshold (a gate, a start
or an end too near v_min, v_turn_on while unpowered). The tick it stops at,
and every tick the pass cannot decide, go to the exact loop, which steps
them segment by segment and decides every crossing itself, the one place a
v_min crossing is decided; after a depletion, the rest of the tick is its
closing sleep on the off load. Every segment has a slot in a per-run table
of (load, fixed duration, exponentials): a drawn duration or load, a v_min
crossing's partial and a depletion coast each get a new row. Both paths
write one record: each segment's slot and start voltage, each tick's segment
count, and the segment and time of each v_max crossing. The booking pass
(_book) is the one place that computes a ledger term: it expands that record
into pieces (a segment is one, a v_max crossing two: its partial, then its
pinned rest from v_max), books every piece by one rule with numpy, in the
order of stepping segment by segment, and builds the event log and the
tick-boundary voltages, so the bits are those of stepping segment by segment.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_left, bisect_right
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field, fields

import numpy as np

from . import device as dev
from .capacitor import crossing_time, decay_factors, equivalent_resistance, segment_energy
from .capacitor import integrate_segment  # noqa: F401 -- perfbench/tracer.py counts calls through this name
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

# Relative margin M of the cheap test that rules a crossing out before its
# logarithm is taken. It passes only where the logarithm's ratio exceeds
# M exp(x), so the crossing time exceeds the duration by ~1e-9 tau, far above
# the ~1e-15 relative rounding of either side, for x below ~1e6. For x past
# ~700, exp(-x) is 0 and the test never passes.
_CROSSING_MARGIN = 1.0 + 1e-9

# Segments per chunk of the booking pass, which works a run of whole ticks
# at a time: a chunk's segment arrays are its working set, so the pass's
# memory does not grow with the run. Also the segments the exact loop keeps
# its record of in lists before it moves them into arrays.
_BOOKING_CHUNK = 8192

# Ticks in a window of the speculative pass: _WINDOW_FIRST at first and after
# a cut, then doubling up to _WINDOW_MAX; not under _WINDOW_MIN short of the
# run's end. A window's set-up costs about what the exact loop takes for ten
# ticks, or what building ~150 more ticks of a window costs.
_WINDOW_MIN, _WINDOW_FIRST, _WINDOW_MAX = 16, 256, 4096

# What a busy tick runs for each due code: its bits in run order, then 0 for
# the closing sleep.
_RUNS = tuple(tuple(bit for bit in (SENSE, FIX, TRANSMIT) if code & bit) + (0,) for code in range(8))
_TASK_NAMES = tuple(TASKS)  # a task's index in the booking pass is its place here


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

    The device state is what the scheduler decides from: whether it is
    powered, the tick start of the last ephemeris refresh (the ephemeris age
    is the tick start minus it; None once the backup domain has lost power),
    and the number of fixes buffered since the last successful upload. v is
    the voltage at the start of a run.

    run() is the decide loop (_decide) and then the booking pass (_book),
    which reads the record the loop leaves: each segment's slot and start
    voltage, each tick's segment count, the v_max crossings and the rows
    placed whole.
    """

    def __init__(self, config: SystemConfig):
        self.config = config
        self.rng: np.random.Generator | None = None  # built at the first jittered draw
        self.details: dict[str, int] = {"": 0}
        self.powered = config.initial_voltage >= config.thresholds.v_turn_on
        # An unpowered start means the backup domain never held state.
        backed = self.powered and config.initial_backup_valid
        self.ephemeris_t = -config.initial_ephemeris_age_s if backed else None
        self.buffered = 0
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
        # The decide loop's record of a run, written alike by its two paths:
        # each segment's start voltage and slot (its row of table) in run
        # order, in lists and then in arrays, and each tick's segment count.
        self.vs: list[float] = []
        self.slots: list[int] = []
        self.flushed: list[tuple[np.ndarray, np.ndarray]] = []  # (slots, vs) moved into arrays
        self.n_flushed = 0  # segments moved
        self.counts = np.zeros(0, np.int32)
        # The segment and the time from its start of each v_max crossing, one
        # after the other.
        self.crossings: list[float] = []
        # (tick, position, time, kind, v_before, v_after, detail) of each row
        # placed whole, after position segments of its tick.
        self.marks: list[tuple] = []
        # (first tick, end tick, cut) of each window of the speculative pass.
        self.windows: list[tuple[int, int, bool]] = []
        # Slot rows: task index, R, tau, leak and keep shares, v_max^2 / R,
        # duration, its three factors, the event kind the segment ends (-1:
        # none), and the segments before it in that activity's chain.
        self.table: list[tuple] = []
        tick = float(config.base_tick_s)
        sleep = self.loads["Sleep"]
        self.closing = {tick: (self._slot(sleep, tick),)}  # closing sleep duration -> its plan
        self.off = self._slot(self.loads["TurnedOff"], tick)[0]  # an unpowered tick's slot
        # Per logged activity: its event code, the plan of its chain (each
        # segment's (slot, R, duration, exp(-x), load)), and the duration
        # deviations if any is drawn.
        self.plans = {}
        for kind, spec in ACTIVITIES.items():
            code = EVENT_KINDS.index(kind)
            emit = -1 if code == _TRANSMIT else code  # an upload's row carries its sample count
            plan = []
            for position, name in enumerate(spec.chain):
                load, task = self.loads[name], TASKS[name]
                last = position == len(spec.chain) - 1
                plan.append(self._slot(load, task.duration_s, emit if last else -1, position))
            stds = tuple(TASKS[name].duration_std_s for name in spec.chain)
            self.plans[kind] = (code, tuple(plan), stds if any(stds) else None)
        # Per due code, whether the speculative pass may step its ticks: none
        # of their activities draws a duration or a load.
        fix_drawn = config.task_jitter and any(
            self.plans[kind][2] for kind, spec in ACTIVITIES.items() if spec.activity == FIX
        )
        upload_drawn = config.task_jitter or config.payload_scaling
        self.plain = [not (code & FIX and fix_drawn or code & TRANSMIT and upload_drawn) for code in range(8)]
        # The lowest start voltage of a segment the speculative pass steps.
        # The exact loop decides a v_min crossing only where a + b e <=
        # a + (v_min - a) M <= v_min M (a >= 0), and the pass steps a + b e
        # alike, so a segment that may cross ends below the floor, whose 1e-6
        # of v_min is far above the rounding and M's 1e-9.
        self.floor = floor = self.v_min * (1.0 + 1e-6)
        # The speculative pass's tick types: a powered tick's due code OR the
        # place of its fix's kind among the fix kinds, shifted left 3 bits. Per
        # type, fixed rows of slot, R, exp(-x) and the lowest start voltage
        # (the floor, or a fix's or an upload's gate where it is higher): its
        # activities' segments, then a whole-tick sleep, which an idle tick
        # sleeps and a busy tick replaces by its own closing sleep.
        # Its activity durations go in a column, padded with 0.0.
        self.fix_kinds = [kind for kind, spec in ACTIVITIES.items() if spec.activity == FIX]
        self.kind_of_age: dict[int | None, int] = {}
        thresholds = config.thresholds
        gates = {kind: getattr(thresholds, spec.gate) if spec.gate else -math.inf for kind, spec in ACTIVITIES.items()}
        counts, rows, durations = [], [], []
        for typ in range(8 * len(self.fix_kinds)):
            code, fix = typ & 7, self.fix_kinds[typ >> 3]
            kinds = [{SENSE: "Sense", FIX: fix, TRANSMIT: "Transmit"}[bit] for bit in _RUNS[code][:-1]]
            plan = [
                (segment, max(gates[kind] if position == 0 else -math.inf, floor))
                for kind in kinds for position, segment in enumerate(self.plans[kind][1])
            ] + [(self.closing[tick][0], floor)]
            counts.append(len(plan))
            rows += [(slot, r, e, low) for (slot, r, _, e, _), low in plan]
            durations.append([duration for (_, _, duration, _, _), _ in plan[:-1]])
        width = max(map(len, durations))
        self.type_durations = np.array([row + [0.0] * (width - len(row)) for row in durations]).T.copy()
        self.type_counts = np.array(counts)
        slot, r, e, low = zip(*rows)
        self.type_rows = (np.cumsum(counts) - counts, np.array(slot), np.array(r), np.array(e), np.array(low))

    def _load(self, task: str, current_ma: float) -> tuple:
        """Per-run constants of a constant-current load: task, R,
        tau = R C, the leakage share of its consumption and the rest, and
        v_max^2 / R (its draw while pinned).
        """
        cfg = self.config
        r = equivalent_resistance(cfg.v_supply, current_ma)
        tau = r * self.c
        leak = min(1.0, cfg.capacitor.leakage_ma / current_ma)
        return task, r, tau, leak, 1.0 - leak, self.v_max * self.v_max / r

    def _slot(self, load: tuple, duration: float, emit: int = -1, span: int = 0) -> tuple:
        """A new table row for a load over a fixed duration, as a segment of
        a plan: (slot, R, duration, exp(-x), load)."""
        task, r, tau, leak, keep, pinned_w = load
        e, em1, em2 = decay_factors(duration, tau)
        self.table.append((_TASK_NAMES.index(task), r, tau, leak, keep, pinned_w, duration, e, em1, em2, emit, span))
        return len(self.table) - 1, r, duration, e, load

    def _closing(self, duration: float) -> tuple:
        """The plan of a closing sleep duration, on a slot of its own."""
        plan = self.closing.get(duration)
        if plan is None:
            plan = self.closing[duration] = (self._slot(self.loads["Sleep"], duration),)
        return plan

    def _detail(self, text: str) -> int:
        return self.details.setdefault(text, len(self.details))

    def _mark(
        self, i: int, position: int, t: float, kind: int, v_before: float, v_after: float, detail: str = ""
    ) -> None:
        """Place a whole row in tick i, after its first position segments."""
        self.marks.append((i, position, t, kind, v_before, v_after, self._detail(detail)))

    def _draw(self, mean: float, std: float) -> float:
        """Per-event jittered value, truncated at three sigma; mean when off."""
        if std == 0.0 or not self.config.task_jitter:
            return mean
        if self.rng is None:  # here, so that jitter-free runs never import numpy.random
            self.rng = np.random.default_rng(self.config.random_seed)
        value = float(self.rng.normal(mean, std))
        return min(max(value, mean - 3.0 * std, 1e-9), mean + 3.0 * std)

    def _upload(self, samples: int) -> tuple:
        """An upload's plan when its current or duration is drawn, or its
        duration scaled by its payload: a slot of its own, none when it takes
        no time."""
        cfg = self.config
        task = self.upload
        spec = TASKS[task]
        load = self.loads[task]
        if cfg.task_jitter:
            base_ma = self._draw(spec.base_ma, spec.base_std_ma)
            load = self._load(task, compose_task_current(task, cfg.capacitor.leakage_ma, base_ma))
        duration = self._draw(spec.duration_s, spec.duration_std_s)
        if cfg.payload_scaling:
            duration *= dev.payload_bytes(samples) / dev.REFERENCE_PAYLOAD_BYTES
        return (self._slot(load, duration),) if duration > 0.0 else ()

    def _flush(self) -> None:
        """Move the exact loop's record so far into arrays, so that its lists stay short."""
        vs, slots = self.vs, self.slots
        if vs:
            self.flushed.append((np.fromiter(slots, np.int32, len(slots)), np.fromiter(vs, float, len(vs))))
            self.n_flushed += len(vs)
            vs.clear()
            slots.clear()

    # -- whole run ----------------------------------------------------------

    def run(self, harvest: HarvestTrace, n_ticks: int) -> SimResult:
        v_initial = self.v
        power_on = self._decide(harvest, n_ticks)
        log, ledger, voltages = self._book(harvest.combined_a[:n_ticks], v_initial)
        tick = self.config.base_tick_s
        duration = n_ticks * tick
        metrics = compute_metrics(log, duration, voltages=voltages, power_on_at_start=bool(power_on[0]))
        times = np.arange(n_ticks + 1, dtype=np.int64) * tick
        return SimResult(self.config, harvest, duration, times, voltages, power_on, log, metrics, ledger)

    def _decide(self, harvest: HarvestTrace, n_ticks: int) -> np.ndarray:
        """The decide loop over n_ticks ticks: the power state at each tick
        boundary, and the record of the run for _book.

        Each stretch of ticks it can, it hands to the speculative pass
        (_speculate) a window at a time. The rest it steps itself, the exact
        loop, segment by segment with every gate and crossing decision: the
        tick a window was cut at, each tick whose fix or upload draws a
        duration or a load, and the ticks after a cut until one starts above
        the threshold that cut it, so that a run near its gates does not pay
        a window's set-up per tick. A v_min crossing ends its segment and
        leaves the tick only its closing entry: a sleep on the off load.
        """
        cfg = self.config
        tick = cfg.base_tick_s
        v_turn_on = cfg.thresholds.v_turn_on
        v_max, v_min, v_pinned, margin = self.v_max, self.v_min, self.v_pinned, _CROSSING_MARGIN
        jitter = cfg.task_jitter
        drawn_upload = jitter or cfg.payload_scaling
        upload_gate, floor, off = self.upload_gate, self.floor, self.loads["TurnedOff"]

        codes = dev.due_codes(0, n_ticks, cfg)
        mixed = [*np.flatnonzero(~np.array(self.plain)[codes]).tolist(), n_ticks]  # ticks the pass never steps
        combined = harvest.combined_a[:n_ticks]
        v = self.v
        self.counts = counts = np.zeros(n_ticks, np.int32)
        powered, ephemeris_t, buffered = self.powered, self.ephemeris_t, self.buffered
        vs, vs_append, slots_append, crossings = self.vs, self.vs.append, self.slots.append, self.crossings
        mark, flush, closing, speculate = self._mark, self._flush, self._closing, self._speculate
        select = select_gps_mode  # looked up per run, so that a wrapper on the module's name sees each call
        plans, runs, closings = self.plans, _RUNS, self.closing
        sense, upload = plans["Sense"][1], plans["Transmit"][1]
        hold, span, resume = 0, _WINDOW_FIRST, -math.inf

        i = 0
        while i < n_ticks:
            if i >= hold and (v >= resume or not powered):
                stop = mixed[bisect_left(mixed, i)] if powered else n_ticks
                room = stop - i >= min(_WINDOW_MIN, n_ticks - i)
                if v >= floor and room if powered else v < v_turn_on:
                    flush()
                    end = min(stop, i + span)
                    i, v, ephemeris_t, buffered, resume = speculate(
                        combined, codes, i, end, v, powered, ephemeris_t, buffered
                    )
                    hold = i + (i < end)  # the tick a window is cut at goes to the exact loop
                    span = _WINDOW_FIRST if i < end else min(2 * span, _WINDOW_MAX)
                    continue
            if len(vs) >= _BOOKING_CHUNK:
                flush()
            i_h = combined.item(i)
            t_start = i * tick
            first = len(vs)
            if not powered:  # an unpowered tick the pass stopped at, as it starts at v_turn_on or above
                powered = True
                mark(i, 0, float(t_start), _RECOVERY, v, v)
            bits, j = runs[codes.item(i)], 0
            tick_end = t_start + tick
            t = float(t_start)
            while True:
                bit = bits[j]
                j += 1
                if not bit:  # the closing sleep; after a depletion, the coast on the off load
                    duration = tick_end - t
                    if not duration > 0.0:
                        break
                    plan = (closings.get(duration) or closing(duration)) if powered else (self._slot(off, duration),)
                elif bit == SENSE:
                    plan = sense
                elif bit == FIX:
                    kind = select(None if ephemeris_t is None else t_start - ephemeris_t, v, cfg)
                    if kind is None:
                        mark(i, len(vs) - first, t, _FIX_SKIPPED, v, v, "low-voltage")
                        continue
                    event, plan, stds = plans[kind]
                    if jitter and stds:  # draw every duration before the first segment runs
                        plan = tuple(
                            self._slot(load, self._draw(duration, std), *self.table[slot][10:]) if std
                            else (slot, r, duration, e, load)
                            for (slot, r, duration, e, load), std in zip(plan, stds)
                        )
                else:
                    samples = buffered
                    if v < upload_gate:
                        mark(i, len(vs) - first, t, _TRANSMIT_SKIPPED, v, v, "low-voltage")
                        continue
                    plan = self._upload(samples) if drawn_upload else upload
                v_before = v
                for slot, r, duration, e, load in plan:
                    a = i_h * r  # asymptote
                    vs_append(v)
                    if v >= v_pinned and a >= v_max:
                        v = v_max
                    else:
                        be = (v - a) * e
                        # A crossing time (crossing_time) takes a logarithm, skipped
                        # where the unclamped end voltage a + b e stays clear of the
                        # bound: b e < (v_max - a) M or b e > (v_min - a) M puts the
                        # crossing past the duration.
                        if (
                            a > v_max and v < v_max and not be < (v_max - a) * margin
                            and (t_up := crossing_time(v, a, load[2], v_max)) <= duration
                        ):
                            crossings += (self.n_flushed + len(vs) - 1, t_up)
                            v = v_max
                        elif (
                            a < v_min and v > v_min and not be > (v_min - a) * margin
                            and (t_dn := crossing_time(v, a, load[2], v_min)) <= duration
                        ):
                            # Depleted: the segment ends at the crossing, on a slot of
                            # that length, and only the closing entry is left to run.
                            slots_append(self._slot(load, t_dn)[0])
                            t += t_dn
                            v = v_min
                            position = len(vs) - first
                            if bit == TRANSMIT:
                                mark(i, position, t, _TRANSMIT_FAILED, v, v, f"samples={samples}")
                            elif bit:
                                mark(i, position, t, _TASK_FAILED, v, v, load[0])
                            mark(i, position, t, _DEPLETION, v, v)
                            powered = False
                            ephemeris_t = None  # the backup domain is lost; flash keeps the buffer
                            j = -1  # every run ends with its closing entry
                            break
                        else:
                            v = a + be
                            if v > v_max:
                                v = v_max
                    slots_append(slot)
                    t += duration
                else:  # the plan ran to its end
                    if not bit:  # the closing entry ends the tick
                        break
                    if bit == FIX:
                        if event != _FIX_HOT:  # every other fix leaves a fresh ephemeris
                            ephemeris_t = t_start
                        buffered += 1
                    elif bit == TRANSMIT:
                        buffered = 0
                        mark(i, len(vs) - first, t, _TRANSMIT, v_before, v, f"samples={samples}")
            counts[i] = len(vs) - first
            i += 1

        # The power state at each tick boundary: off from the one after a
        # Depletion's tick, on from a Recovery's.
        at, state = [0], [self.powered]
        for tick_of_row, _, _, kind, *_ in self.marks:
            if kind == _DEPLETION or kind == _RECOVERY:
                at.append(tick_of_row + (kind == _DEPLETION))
                state.append(kind == _RECOVERY)
        power_on = np.repeat(np.array(state), np.diff([*at, n_ticks + 1]))
        self.v, self.powered, self.ephemeris_t, self.buffered = v, powered, ephemeris_t, buffered
        flush()
        return power_on

    def _speculate(
        self, combined: np.ndarray, codes: np.ndarray, i0: int, i1: int, v: float, powered: bool,
        ephemeris_t: int | None, buffered: int,
    ) -> tuple[int, float, int | None, int, float]:
        """The speculative pass over ticks i0..i1-1, all powered with plain
        due codes or all unpowered, from voltage v.

        Every fix and upload is taken to run, each fix of the kind its
        ephemeris age picks (select_gps_mode at an infinite voltage, once per
        age). The window's segments (a = i_h R, exp(-x), the lowest start
        voltage) are built with numpy from each tick's type's fixed rows, a
        busy tick's closing sleep worked out from its own start, and stepped
        in one flat loop with the exact loop's pinned, plain and v_max
        crossing cases in its order (it has no v_min test), up to the first
        start voltage that fails its threshold: the floor at a powered
        segment's, the kind's gate at a fix's, the upload gate at an upload's,
        v_turn_on at an unpowered tick's start. Where a powered window stops
        or ends below the floor, the pass backs off its last segment, which
        may have crossed v_min. The window is cut at the tick it stopped at,
        and the ticks before it are recorded as the exact loop records them.
        Returns the first tick not stepped, the voltage then, the ephemeris
        and buffer state and the threshold that cut the window (-inf if none).
        """
        tick = self.config.base_tick_s
        m = i1 - i0
        if powered:
            code = codes[i0:i1]
            at_fix = np.flatnonzero(code & FIX)
            fix_starts = ((i0 + at_fix) * tick).tolist()
            kinds, state = [], ephemeris_t
            memo, hot = self.kind_of_age, self.fix_kinds.index("FixHot")
            for t in fix_starts:
                age = None if state is None else t - state
                kind = memo.get(age)
                if kind is None:
                    kind = memo[age] = self.fix_kinds.index(select_gps_mode(age, math.inf, self.config))
                if kind != hot:  # every other fix leaves a fresh ephemeris
                    state = t
                kinds.append(kind)
            kinds = np.array(kinds, np.int64)
            types = code.copy()
            types[at_fix] |= kinds << 3
            # A busy tick's closing sleep lasts from its activities' end, their
            # durations summed from its start a column at a time as the exact
            # loop sums them, to the tick's end; none if that is not positive.
            busy = np.flatnonzero(code)
            start = (i0 + busy) * tick
            ends = start.astype(float)
            busy_types = types[busy]
            for column in self.type_durations:
                ends += column[busy_types]
            closing = (start + tick) - ends
            left = np.unique(closing)
            plans = [self._closing(d)[0] if d > 0.0 else (-1, 0.0, 0.0, 0.0) for d in left.tolist()]
            which = np.searchsorted(left, closing)
            closing_slot, closing_e = (np.array([plan[k] for plan in plans])[which] for k in (0, 3))
            closed = closing_slot >= 0
            counts = self.type_counts[types]
            counts[busy[~closed]] -= 1
            stops = np.cumsum(counts)
            firsts = stops - counts
            type_firsts, *columns = self.type_rows
            row = np.repeat(type_firsts[types] - firsts, counts) + np.arange(stops[-1])
            slot, r, e, lows = (column[row] for column in columns)
            last = stops[busy[closed]] - 1  # the closing sleep's row
            slot[last], e[last] = closing_slot[closed], closing_e[closed]
            i_h = np.repeat(combined[i0:i1], counts)
            top = itertools.repeat(math.inf)
            steps = zip((i_h * r).tolist(), e.tolist(), lows.tolist(), top)
        else:  # every tick one TurnedOff segment
            counts, firsts, slot = np.ones(m, np.int64), np.arange(m), np.full(m, self.off)
            row = self.table[self.off]
            lows, top = itertools.repeat(-math.inf), itertools.repeat(self.config.thresholds.v_turn_on)
            steps = zip((combined[i0:i1] * row[1]).tolist(), itertools.repeat(row[7]), lows, top)

        v_max, v_pinned, margin = self.v_max, self.v_pinned, _CROSSING_MARGIN
        vs: list[float] = []
        append = vs.append
        crossings, base = self.crossings, self.n_flushed
        for a, e, low, high in steps:
            if v < low or v >= high:
                break
            append(v)
            if a >= v_max:
                if v >= v_pinned:
                    v = v_max
                    continue
                be = (v - a) * e
                if a > v_max and v < v_max and not be < (v_max - a) * margin:
                    k = len(vs) - 1
                    row = self.table[slot.item(k)]
                    t_up = crossing_time(v, a, row[2], v_max)
                    if t_up <= row[6]:
                        crossings += (base + k, t_up)
                        v = v_max
                        continue
                v = a + be
                if v > v_max:
                    v = v_max
            else:
                v = a + (v - a) * e
                if v > v_max:
                    v = v_max

        stepped = len(vs) - (powered and v < self.floor)  # back off a segment that may cross v_min
        end = int(np.searchsorted(firsts, stepped, "right")) - 1 if stepped < slot.size else m
        kept = firsts.item(end) if end < m else stepped
        threshold = lows.item(stepped) if powered and stepped < slot.size else -math.inf
        if kept < len(vs):
            v = vs[kept]
        self.windows.append((i0, i0 + end, i0 + end < i1))
        while crossings and crossings[-2] >= base + kept:  # those of the tick the window was cut at
            del crossings[-2:]
        starts = np.fromiter(vs, float, kept)
        self.flushed.append((slot[:kept].astype(np.int32), starts))
        self.n_flushed += kept
        self.counts[i0 : i0 + end] = counts[:end]
        if powered:
            fixes = at_fix.tolist()
            done = bisect_left(fixes, end)  # the fixes before the window's end
            if done < len(fixes):
                refreshes = np.flatnonzero(kinds[:done] != hot)
                state = fix_starts[refreshes[-1]] if refreshes.size else ephemeris_t
            sent = 0
            uploads = np.flatnonzero(code[:end] & TRANSMIT)
            for j, t in zip(uploads.tolist(), ends[np.searchsorted(busy, uploads)].tolist()):
                n, first = self.type_counts.item(types.item(j)) - 1, firsts.item(j)  # the upload ends the activities
                through = bisect_right(fixes, j)  # the fixes buffered by this upload
                after = vs[first + n] if first + n < kept else v
                self._mark(i0 + j, n, t, _TRANSMIT, vs[first + n - 1], after, f"samples={buffered + through - sent}")
                buffered, sent = 0, through
            buffered += done - sent
            ephemeris_t = state
        return i0 + end, v, ephemeris_t, buffered, threshold

    def _book(self, combined: np.ndarray, v_initial: float) -> tuple[EventLog, EnergyLedger, np.ndarray]:
        """The event log, the ledger and the voltage at each tick boundary of
        a run, from the decide loop's record.

        The one place that computes a ledger term. Works through the run in
        chunks of whole ticks that hold about _BOOKING_CHUNK segments, each
        expanded into pieces: a segment is one piece, a v_max crossing two,
        its partial (t_up long, exponentials from decay_factors) and then its
        pinned rest from v_max. Each piece is booked by one rule: by
        segment_energy on arrays, or at v_max where the pinned test holds.
        Every sum adds its terms in run order from 0.0, and start times are
        summed along each tick from its start, as the loop did. The rows come
        from the pieces (a clamp row where the pinned test changes, an
        activity row where its chain's last segment ends) and the loop's whole
        rows, put in log order by a stable sort on (piece, sub-position).
        """
        tick = self.config.base_tick_s
        n_ticks = combined.size
        v_max, v_pinned = self.v_max, self.v_pinned
        table = np.array(self.table, dtype=float).T.copy()  # a column a row
        task_of, emit_of, span_of = table[(0, 10, 11), :].astype(np.intp)
        r_of, tau_of, leak_of, keep_of, pinned_w_of, duration_of, _, em1_of, em2_of = table[1:10]
        slots = np.concatenate([part for part, _ in self.flushed])
        vs = np.concatenate([*(part for _, part in self.flushed), [self.v]])  # then the run's end voltage
        self.flushed.clear()
        firsts = np.zeros(n_ticks + 1, np.int64)  # each tick's first segment, then the end
        np.cumsum(self.counts, out=firsts[1:])
        crossing_at, crossing_t = np.fromiter(self.crossings, float, len(self.crossings)).reshape(-1, 2).T
        marks = self.marks
        mark_columns = [
            np.array(column, dtype=dtype)
            for column, dtype in zip(zip(*marks) if marks else ((),) * 7, (int, int, float, int, float, float, int))
        ]
        mark_tick, mark_position = mark_columns[:2]
        # A whole row goes before the first piece of the segment it is placed ahead of.
        mark_segment = firsts[mark_tick] + mark_position
        mark_key = (mark_segment + np.searchsorted(crossing_at, mark_segment)) * 3
        harvested = leakage = discarded = 0.0
        consumed: dict[int, float] = {}  # task index -> sum, in first-use order
        clamp = False
        chunks = []
        chunk = max(1, _BOOKING_CHUNK * n_ticks // max(1, slots.size))  # ticks
        with np.errstate(all="ignore"):  # as Python's float arithmetic, which overflows to inf silently
            for c0 in range(0, n_ticks, chunk):
                c1 = min(c0 + chunk, n_ticks)
                k0, k1 = int(firsts[c0]), int(firsts[c1])
                count = self.counts[c0:c1]
                tick_of = np.repeat(np.arange(c0, c1), count)
                slot = slots[k0:k1].astype(np.intp)
                length = duration_of[slot]

                # Start times, summed along each tick from its start.
                position = np.arange(k1 - k0) - np.repeat(firsts[c0:c1] - k0, count)
                by_position = np.argsort(position.astype(np.int8), kind="stable")
                position_ends = np.cumsum(np.bincount(position)).tolist()
                start = np.empty(k1 - k0)
                first = by_position[: position_ends[0]]
                start[first] = (tick_of[first] * tick).astype(float)
                for begin, end in zip(position_ends, position_ends[1:]):
                    at_position = by_position[begin:end]
                    start[at_position] = start[at_position - 1] + length[at_position - 1]

                # The pieces, on their segments' slots: a v_max crossing's partial
                # is t_up long, and its pinned rest starts then, from v_max.
                x0, x1 = np.searchsorted(crossing_at, (k0, k1)).tolist()
                at = crossing_at[x0:x1].astype(np.intp) - k0
                t_up = crossing_t[x0:x1]
                of = np.repeat(np.arange(k1 - k0), np.bincount(at, minlength=k1 - k0) + 1)  # each piece's segment
                rest = at + np.arange(1, at.size + 1)  # each crossing's rest, after its partial
                piece_slot = slot[of]
                i_h, v0, t0, duration = combined[tick_of[of]], vs[k0:k1][of], start[of], length[of]
                v0[rest], t0[rest] = v_max, start[at] + t_up
                duration[rest], duration[rest - 1] = length[at] - t_up, t_up
                r, tau, pinned_w = r_of[piece_slot], tau_of[piece_slot], pinned_w_of[piece_slot]
                em1, em2 = em1_of[piece_slot], em2_of[piece_slot]
                factors = itertools.chain.from_iterable(map(decay_factors, t_up.tolist(), tau[rest].tolist()))
                _, em1[rest - 1], em2[rest - 1] = np.fromiter(factors, float, 3 * at.size).reshape(-1, 3).T

                a = i_h * r
                pinned = (v0 >= v_pinned) & (a >= v_max)
                harvested_t, consumed_t = segment_energy(i_h, r, tau, a, v0 - a, duration, em1, em2)
                harvested_t = np.where(pinned, i_h * v_max * duration, harvested_t)
                consumed_t = np.where(pinned, pinned_w * duration, consumed_t)
                leakage_t = consumed_t * leak_of[piece_slot]
                task_t = consumed_t * keep_of[piece_slot]
                discarded_t = np.where(pinned, harvested_t - consumed_t, 0.0)
                harvested = _running_sum(harvested, harvested_t)
                leakage = _running_sum(leakage, leakage_t)
                discarded = _running_sum(discarded, discarded_t)
                # Each task's terms in run order, by a stable sort on the task.
                task = task_of[piece_slot]
                by_task = np.argsort(task.astype(np.int8), kind="stable")
                task_t = task_t[by_task]
                task_ends = np.cumsum(np.bincount(task, minlength=len(_TASK_NAMES))).tolist()
                sums, first_use = {}, []
                for index, (begin, end) in enumerate(zip([0, *task_ends], task_ends)):
                    if begin < end:
                        sums[index] = _running_sum(consumed.get(index, 0.0), task_t[begin:end])
                        if index not in consumed:
                            first_use.append((by_task[begin], index))
                consumed.update((index, 0.0) for _, index in sorted(first_use))
                consumed.update(sums)

                before_state = np.append(clamp, pinned[:-1])
                clamp = bool(pinned[-1]) if pinned.size else clamp
                clamp_ends = np.flatnonzero(before_state & ~pinned)
                clamp_starts = np.flatnonzero(pinned & ~before_state)
                emit = emit_of[slot]
                emits = np.flatnonzero(emit >= 0)
                lasts = emits + np.searchsorted(at, emits, "right")  # their segments' last pieces
                m0, m1 = np.searchsorted(mark_tick, (c0, c1)).tolist()
                # (key, time, kind, v_before, v_after, detail) by source; a key is
                # the piece's place in the run times 3 plus a sub-position: 0 for
                # a whole row, 1 for a clamp row at a piece's start and 2 for an
                # activity row at the end of its last segment's last piece.
                base = k0 + x0
                sources = (
                    ((base + clamp_ends) * 3 + 1, t0[clamp_ends], _CLAMP_END, v0[clamp_ends], v0[clamp_ends], 0),
                    ((base + clamp_starts) * 3 + 1, t0[clamp_starts], _CLAMP_START, v_max, v_max, 0),
                    ((base + lasts) * 3 + 2, start[emits] + length[emits], emit[emits],
                     vs[k0 + emits - span_of[slot[emits]]], vs[k0 + emits + 1], 0),
                    (mark_key[m0:m1], *[column[m0:m1] for column in mark_columns[2:]]),
                )
                sizes = [len(s[0]) for s in sources]
                rows = [
                    np.concatenate([x if isinstance(x, np.ndarray) else np.full(n, x) for x, n in zip(xs, sizes)])
                    for xs in zip(*sources)
                ]
                order = np.argsort(rows[0], kind="stable")
                chunks.append([column[order] for column in rows[1:]])

        columns = []
        for j in range(5):  # a column at a time, each chunk's part freed as it is copied
            columns.append(np.concatenate([chunk[j] for chunk in chunks]))
            for chunk in chunks:
                chunk[j] = None
        log = EventLog(*columns, tuple(self.details))
        ledger = EnergyLedger(
            harvested, {_TASK_NAMES[index]: value for index, value in consumed.items()}, leakage, discarded,
            0.5 * self.c * (self.v**2 - v_initial**2),
        )
        return log, ledger, vs[firsts]


def _running_sum(total: float, terms: np.ndarray) -> float:
    """total + terms[0] + terms[1] + ..., added one at a time in order."""
    return float(np.add.accumulate(np.concatenate(([total], terms)))[-1])


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
