"""Simulation loop: per-tick task execution over a harvest trace.

Each tick executes the due activities as consecutive constant-load segments
of the closed-form capacitor solution, then sleeps for the remainder. Floor
(v_min) and ceiling (v_max) crossings are located analytically inside
segments, so depletion times, clamp windows, and the energy ledger are exact
rather than discretized to the tick.

A run is a decide loop and a booking pass. The loop carries the voltage and
the device state and takes every gate and crossing decision. A powered busy
tick whose activities draw nothing, and whose start voltage keeps every
segment clear of v_min, is stepped with arithmetic only and recorded as one
entry: which activities ran, the fix kind and the closing sleep's slot in a
per-run table of (load, fixed duration, exponentials), plus the time of each
v_max crossing in it. Every other busy tick is recorded segment by segment:
each segment's start voltage and slot, with the rare segments (crossing
partials, depletion coasts, drawn durations and loads) sent through _step,
which records the ledger terms it computes. So is an entry whose closing
sleep gets no slot, its earlier segments stepped again from the tick's
start. Each stretch of activity-free ticks, found once from the schedule, is
stepped by _idle, which records only the tick boundary voltages; a tick whose
margin test leaves a crossing possible, or an off tick that starts at
v_turn_on, is handed back to the loop. The booking pass (_book) rebuilds the
segments with numpy, replaying an entry's start voltages from its tick's
with the loop's operations in the loop's order, books each with _step's
arithmetic in _step's order, and builds the event log, so the
bits are those of stepping segment by segment.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_left
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field, fields

import numpy as np

from . import device as dev
from .capacitor import decay_factors, equivalent_resistance, integrate_segment, segment_energy, time_to_voltage
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

# Distinct closing sleep durations that get a table slot of their own. The
# closing sleeps of a run without jitter took 37 values over 20 days and 49
# over a year (how the activities' end times round depends on the tick's
# start time). A duration past the limit is stepped by _step, as with
# jitter, and its tick recorded segment by segment.
_CLOSING_LIMIT = 256

# Relative margin M of the cheap test that rules a crossing out before its
# logarithm is taken. It passes only where the logarithm's ratio exceeds
# M exp(x), so the crossing time exceeds the duration by ~1e-9 tau, far above
# the ~1e-15 relative rounding of either side, for x below ~1e6. For x past
# ~700, exp(-x) is 0 and the test never passes.
_CROSSING_MARGIN = 1.0 + 1e-9

# Segments per chunk of the booking pass, which works a run of whole ticks
# at a time: a chunk's segment arrays are its working set, so the pass's
# memory does not grow with the run. Also the ticks the decide loop keeps
# its record of in lists before it moves them into arrays.
_BOOKING_CHUNK = 8192

# What a busy tick runs for each due code: its bits in run order, then 0 for
# the closing sleep.
_RUNS = tuple(tuple(bit for bit in (SENSE, FIX, TRANSMIT) if code & bit) + (0,) for code in range(8))
# A busy tick's type says what ran in it, in the bits of each activity's
# field: Sense 1, a fix (its place among the fix kinds plus one) in bits 1-3,
# an upload 16.
_TYPE_FIELD = {SENSE: 0b00001, FIX: 0b01110, TRANSMIT: 0b10000}
# The fields of _step's record of a segment: the terms it adds to the
# harvested, leakage, task and discarded sums, then those of the pinned rest
# after a v_max crossing (NaN when there is none).
_RECORD = (
    "segment", "advance", "pinned", "clamp_start_s", "depleted",
    "harvested", "leakage", "task", "discarded", "rest_harvested", "rest_leakage", "rest_task", "rest_discarded",
)
_NO_TERMS = (math.nan,) * 4
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
    which reads the record the loop leaves: the segments it stepped, _step's
    records and the rows placed whole.
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
        # The decide loop's record of a run. A busy tick is one entry: the
        # tick, shifted left 16 bits, OR its type (what ran, in the bits of
        # _TYPE_FIELD) and, in bits 5-15, its closing sleep's slot plus one
        # (0: none).
        self.entries: list[int] = []
        # The tick, the slot and the time from the segment's start of each
        # v_max crossing inside an entry's tick, one after the other.
        self.crossings: list[float] = []
        # A tick recorded segment by segment puts ~tick (that is, -1 - tick)
        # in slots, then each segment's start voltage in vs and its row of
        # table in slots.
        self.vs: list[float] = []
        self.slots: list[int] = []
        self.flushed: list[tuple[np.ndarray, ...]] = []  # (vs, slots, entries) moved into arrays
        self.n_flushed = 0  # segments of vs moved
        # Once booked: the ticks of the entries, and the ticks recorded
        # segment by segment.
        self.entered: np.ndarray | None = None
        self.stepped: np.ndarray | None = None
        self.records: list[float] = []  # _step's record of each segment it steps, _RECORD's fields in turn
        # (tick, position, time, kind, v_before, v_after, detail) of each row
        # placed whole, after position segments of its tick.
        self.marks: list[tuple] = []
        # Slot rows: task index, R, tau, leak and keep shares, v_max^2 / R,
        # duration, its three factors, the event kind the segment ends (-1:
        # none), and the segments before it in that activity's chain.
        self.table: list[tuple] = []
        tick = float(config.base_tick_s)
        sleep, off = self.loads["Sleep"], self.loads["TurnedOff"]
        whole = {True: self._slot(sleep, tick), False: self._slot(off, tick)}
        self.whole = {powered: slot for powered, (slot, _) in whole.items()}
        # Closing sleep duration -> its plan, as a plan of an activity, and its
        # bits in a tick's type.
        self.closing = {tick: self._closing_plan(whole[True], tick)}
        # Per power state, what _idle steps a whole tick with: R, exp(-x), the
        # floor the asymptote must be below for a v_min check (none when
        # unpowered), and the start voltage that ends the stretch (v_turn_on
        # when unpowered).
        self.stretches = {
            True: (sleep[1], whole[True][1], self.v_min, math.inf),
            False: (off[1], whole[False][1], -math.inf, config.thresholds.v_turn_on),
        }
        # Per logged activity: its event code, the (slot, R, duration, exp(-x),
        # load) of each segment of its chain, the duration deviations if any
        # is drawn, and its bits in a tick's type.
        self.plans = {}
        fixes = 0
        for kind, spec in ACTIVITIES.items():
            fixes += spec.activity == FIX
            code = EVENT_KINDS.index(kind)
            emit = -1 if code == _TRANSMIT else code  # an upload's row carries its sample count
            plan = []
            for position, name in enumerate(spec.chain):
                load, task = self.loads[name], TASKS[name]
                last = position == len(spec.chain) - 1
                slot, e = self._slot(load, task.duration_s, emit if last else -1, position)
                plan.append((slot, load[1], task.duration_s, e, load))
            stds = tuple(TASKS[name].duration_std_s for name in spec.chain)
            bits = fixes << 1 if spec.activity == FIX else _TYPE_FIELD[spec.activity]
            self.plans[kind] = (code, tuple(plan), stds if any(stds) else None, bits)
        self.upload_slot = self.plans["Transmit"][1][0][0]
        # Per tick type: the plans of its segments in run order, how many
        # there are, and their slots padded with room for the closing sleep.
        self.steps = [
            tuple(
                step for kind, (_, plan, _, bits) in self.plans.items()
                if typ & _TYPE_FIELD[ACTIVITIES[kind].activity] == bits for step in plan
            )
            for typ in range(32)
        ]
        self.lengths = [len(steps) for steps in self.steps]
        width = max(self.lengths) + 1
        self.chains = np.array(
            [[slot for slot, *_ in steps] + [0] * (width - len(steps)) for steps in self.steps], np.intp
        )
        # Per due code, whether its ticks may be entries: none of their
        # activities draws a duration or a load.
        fix_drawn = config.task_jitter and any(
            self.plans[kind][2] for kind, spec in ACTIVITIES.items() if spec.activity == FIX
        )
        upload_drawn = config.task_jitter or config.payload_scaling
        self.plain = [not (code & FIX and fix_drawn or code & TRANSMIT and upload_drawn) for code in range(8)]
        # Per due code, the start voltage above which no segment of the tick
        # comes near v_min, so that it may be an entry, which has no v_min
        # test; a tick that starts at or below it is recorded. With
        # the harvest >= 0 a segment keeps at least exp(-x) of its start
        # voltage, so the tick keeps exp(-X) of it, X the largest sum of x
        # (duration / tau) its activities and closing sleep can take. The
        # 1e-6 of v_min is far above the rounding and the margin test's 1e-9.
        most = {
            bit: max(
                sum(duration / load[2] for _, _, duration, _, load in plan)
                for kind, (_, plan, _, _) in self.plans.items() if ACTIVITIES[kind].activity == bit
            )
            for bit in (SENSE, FIX, TRANSMIT)
        }
        self.clear = [
            self.v_min * (1.0 + 1e-6) * math.exp(tick / sleep[2] + sum(most[bit] for bit in _RUNS[code][:-1]))
            for code in range(8)
        ]

    def _load(self, task: str, current_ma: float) -> tuple:
        """Per-run constants of a constant-current load, in _step's order:
        task, R, tau = R C, the leakage share of its consumption and the
        rest, and v_max^2 / R (its draw while pinned).
        """
        cfg = self.config
        r = equivalent_resistance(cfg.v_supply, current_ma)
        tau = r * self.c
        leak = min(1.0, cfg.capacitor.leakage_ma / current_ma)
        return task, r, tau, leak, 1.0 - leak, self.v_max * self.v_max / r

    def _slot(self, load: tuple, duration: float, emit: int = -1, span: int = 0) -> tuple[int, float]:
        """A new table row for a load over a fixed duration; its index and exp(-x)."""
        task, r, tau, leak, keep, pinned_w = load
        e, em1, em2 = decay_factors(duration, tau)
        row = (_TASK_NAMES.index(task), r, tau, leak, keep, pinned_w, duration, e, em1, em2, emit, span)
        self.table.append(row)
        return len(self.table) - 1, e

    def _closing_plan(self, hit: tuple[int, float | None], duration: float) -> tuple[tuple, int]:
        """A closing sleep's plan and type bits, from its slot and exp(-x)."""
        slot, e = hit
        sleep = self.loads["Sleep"]
        if e is None:
            return ((slot, sleep[1], duration, e, sleep),), 0
        assert slot + 1 < 1 << 11, "a closing sleep's slot must fit bits 5-15 of an entry"
        return ((slot, sleep[1], duration, e, sleep),), (slot + 1) << 5

    def _closing(self, duration: float) -> tuple[tuple, int]:
        """The plan of a closing sleep duration not seen yet, with a slot of
        its own while the table has room; else on the whole-tick Sleep slot
        with no factor and no type bits, so that _step steps it and the tick
        is recorded segment by segment."""
        if len(self.closing) >= _CLOSING_LIMIT:
            return self._closing_plan((self.whole[True], None), duration)
        self.closing[duration] = hit = self._closing_plan(self._slot(self.loads["Sleep"], duration), duration)
        return hit

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
        duration scaled by its payload: no factor, so that _step steps it."""
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
        return ((self.upload_slot, load[1], duration, None, load),)

    def _step(
        self, slot: int, load: tuple, duration: float, i_h: float, check_floor: bool, t0: float, v0: float
    ) -> tuple[float, float, bool]:
        """Step one segment from (t0, v0) and record it with its ledger terms.

        Returns the end time and voltage and whether the device depleted:
        then the segment stops at the v_min crossing, and the caller decides
        what happens next. The terms are those the segment adds to the
        harvested, leakage, task and discarded sums, in the order it adds
        them, from capacitor.segment_energy.
        """
        if duration <= 0.0:
            return t0, v0, False
        task, r, tau, leak, keep, pinned_w = load
        v_max = self.v_max
        a = i_h * r  # asymptote
        pinned = v0 >= self.v_pinned and a >= v_max
        up = math.nan
        advance = duration
        depleted = False
        v = v_max
        if pinned:
            harvested = i_h * v_max * duration
            consumed = pinned_w * duration
            terms = (harvested, consumed * leak, consumed * keep, harvested - consumed, *_NO_TERMS)
        else:
            e, em1, em2 = decay_factors(duration, tau)
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
                rest = duration - t_up
                pinned_in = i_h * v_max * rest
                pinned_out = pinned_w * rest
                terms = (
                    harvested, consumed * leak, consumed * keep, 0.0,
                    pinned_in, pinned_out * leak, pinned_out * keep, pinned_in - pinned_out,
                )
                up = t0 + t_up
            elif (
                check_floor and a < self.v_min and v0 > self.v_min
                and not b * e > (self.v_min - a) * _CROSSING_MARGIN
                and (t_dn := time_to_voltage(v0, i_h, r, self.c, self.v_min)) <= duration
            ):
                _, harvested, consumed = integrate_segment(v0, i_h, r, self.c, t_dn)
                terms = (harvested, consumed * leak, consumed * keep, 0.0, *_NO_TERMS)
                advance = t_dn
                depleted = True
                v = self.v_min
            else:
                harvested, consumed = segment_energy(i_h, r, tau, a, b, duration, em1, em2)
                terms = (harvested, consumed * leak, consumed * keep, 0.0, *_NO_TERMS)
                v_end = a + b * e
                v = v_max if v_end > v_max else v_end
        self.records.extend((self.n_flushed + len(self.vs), advance, pinned, up, depleted, *terms))
        self.vs.append(v0)
        self.slots.append(slot)
        return t0 + advance, v, depleted

    def _deplete(
        self, i: int, position: int, i_h: float, tick_end: float, failure: int | None, detail: str, t: float,
        v: float,
    ) -> float:
        """Shut down at a v_min crossing in tick i, after its first position
        segments, and coast on leakage to tick end."""
        if failure is not None:
            self._mark(i, position, t, failure, v, v, detail)
        self._mark(i, position, t, _DEPLETION, v, v)
        return self._step(self.whole[False], self.loads["TurnedOff"], tick_end - t, i_h, False, t, v)[1]

    def _idle(
        self, start: int, stop: int, v: float, powered: bool, combined: list[float], voltages: list[float]
    ) -> tuple[int, float]:
        """Step ticks start..stop-1 from voltage v as whole-tick Sleep
        (powered) or TurnedOff (unpowered) segments; return the first tick
        not stepped and the voltage then.

        Each tick is _step's plain case, pinned or without a crossing, with
        _step's operations in _step's order. The stretch stops at a tick whose
        margin test leaves a v_max crossing possible, or a v_min crossing when
        powered, and, when unpowered, at a tick that starts at or above
        v_turn_on. Appends each tick's end voltage, from which alone (and the
        power state) the booking pass books the stretch.
        """
        r, e, floor, v_on = self.stretches[powered]
        v_max, v_min, v_pinned = self.v_max, self.v_min, self.v_pinned
        append = voltages.append
        margin = _CROSSING_MARGIN
        for i in range(start, stop):
            if v >= v_on:
                break
            a = combined[i] * r
            if v >= v_pinned and a >= v_max:
                v = v_max
            else:
                be = (v - a) * e
                if (
                    a > v_max and v < v_max and not be < (v_max - a) * margin
                    or a < floor and v > v_min and not be > (v_min - a) * margin
                ):
                    break
                v = a + be
                if v > v_max:
                    v = v_max
            append(v)
        else:
            i = stop
        return i, v

    def _flush(self) -> None:
        """Move the record so far into arrays, so that its lists stay short."""
        vs, slots, entries = self.vs, self.slots, self.entries
        self.flushed.append((
            np.fromiter(vs, float, len(vs)), np.fromiter(slots, np.int32, len(slots)),
            np.fromiter(entries, np.int64, len(entries)),
        ))
        self.n_flushed += len(vs)
        vs.clear()
        slots.clear()
        entries.clear()

    # -- whole run ----------------------------------------------------------

    def run(self, harvest: HarvestTrace, n_ticks: int) -> SimResult:
        v_initial = self.v
        voltages, power_on = self._decide(harvest, n_ticks)
        log, ledger = self._book(harvest.combined_a[:n_ticks], voltages, power_on, v_initial)
        tick = self.config.base_tick_s
        duration = n_ticks * tick
        metrics = compute_metrics(log, duration, voltages=voltages, power_on_at_start=bool(power_on[0]))
        times = np.arange(n_ticks + 1, dtype=np.int64) * tick
        return SimResult(self.config, harvest, duration, times, voltages, power_on, log, metrics, ledger)

    def _decide(self, harvest: HarvestTrace, n_ticks: int) -> tuple[np.ndarray, np.ndarray]:
        """The decide loop over n_ticks ticks: the voltage and power state at
        each tick boundary, and the record of the run for _book.

        One activity loop steps every busy tick; only the loop over an
        activity's segments differs between the tick's two records. A powered
        tick that draws nothing and starts above clear[code] is an entry: its
        segments are stepped with arithmetic only (_step's pinned and plain
        cases and its v_max crossing test) and nothing is recorded per
        segment. Any other busy tick is recorded segment by segment. So is an
        entry whose closing sleep gets no slot: its earlier segments are
        stepped again from the tick's start, from its type's plans, which no
        v_min crossing can reach.
        """
        cfg = self.config
        tick = cfg.base_tick_s
        v_turn_on = cfg.thresholds.v_turn_on
        v_max, v_min, v_pinned, c = self.v_max, self.v_min, self.v_pinned, self.c
        margin = _CROSSING_MARGIN
        jitter = cfg.task_jitter
        drawn_upload = jitter or cfg.payload_scaling
        upload_gate = self.upload_gate
        plain, clear = self.plain, self.clear

        codes = dev.due_codes(0, n_ticks, cfg)
        busy = [*np.flatnonzero(codes).tolist(), n_ticks]  # ticks with an activity due, then the end
        due = codes.tolist()
        combined = harvest.combined_a[:n_ticks].tolist()
        v = self.v
        powered, ephemeris_t, buffered = self.powered, self.ephemeris_t, self.buffered
        voltages = [v]
        voltages_append = voltages.append
        vs, vs_append, slots_append = self.vs, self.vs.append, self.slots.append
        entries_append = self.entries.append
        crossings = self.crossings
        crossings_extend = crossings.extend
        step, idle, mark = self._step, self._idle, self._mark
        select = select_gps_mode  # looked up per run, so that a wrapper on the module's name sees each call
        plans, closing, runs, lengths, steps = self.plans, self.closing, _RUNS, self.lengths, self.steps
        _, sense, _, sense_bits = plans["Sense"]
        _, upload, _, upload_bits = plans["Transmit"]
        turned_off, off_slot = self.loads["TurnedOff"], self.whole[False]
        flush, flush_at = self._flush, _BOOKING_CHUNK

        i = 0
        while i < n_ticks:
            if not powered:
                i, v = idle(i, n_ticks, v, False, combined, voltages)
                if i == n_ticks:
                    break
                if v >= v_turn_on:
                    powered = True
                    mark(i, 0, float(i * tick), _RECOVERY, v, v)
            elif not due[i]:
                i, v = idle(i, busy[bisect_left(busy, i)], v, True, combined, voltages)
                if i == n_ticks:
                    break
            if i >= flush_at:
                flush()
                flush_at = i + _BOOKING_CHUNK
            i_h = combined[i]
            t_start = i * tick
            if not powered:  # a v_max crossing may fall inside this off tick
                slots_append(~i)
                _, v, _ = step(off_slot, turned_off, tick, i_h, False, float(t_start), v)
                voltages_append(v)
                i += 1
                continue
            code = due[i]
            record = not plain[code] or v <= clear[code]
            if record:
                slots_append(~i)
                first = len(vs)
            tick_end = t_start + tick
            t = float(t_start)
            typ = 0
            for bit in runs[code]:
                if not bit:  # the closing sleep
                    duration = tick_end - t
                    if not duration > 0.0:
                        break
                    plan, bits = closing.get(duration) or self._closing(duration)
                    if not (bits or record):  # no slot: recorded after all, from the tick's start
                        record = True
                        slots_append(~i)
                        first = len(vs)
                        while crossings and crossings[-3] == i:
                            del crossings[-3:]
                        plan = steps[typ] + plan
                        v, t = voltages[-1], float(t_start)
                elif bit == SENSE:
                    plan, bits = sense, sense_bits
                elif bit == FIX:
                    kind = select(None if ephemeris_t is None else t_start - ephemeris_t, v, cfg)
                    if kind is None:
                        at = len(vs) - first if record else lengths[typ]
                        mark(i, at, t, _FIX_SKIPPED, v, v, "low-voltage")
                        continue
                    event, plan, stds, bits = plans[kind]
                    if jitter and stds:  # draw every duration before the first segment runs
                        plan = tuple(
                            (slot, r, self._draw(duration, std), None if std else e, load)
                            for (slot, r, duration, e, load), std in zip(plan, stds)
                        )
                else:
                    samples = buffered
                    if v < upload_gate:
                        at = len(vs) - first if record else lengths[typ]
                        mark(i, at, t, _TRANSMIT_SKIPPED, v, v, "low-voltage")
                        continue
                    plan, bits = self._upload(samples) if drawn_upload else upload, upload_bits
                typ |= bits
                v_before = v
                if not record:
                    # _step's cases in _step's order, its tests split on the asymptote.
                    for slot, r, duration, e, _ in plan:
                        a = i_h * r
                        if a >= v_max:
                            if v >= v_pinned:
                                v = v_max
                            else:
                                be = (v - a) * e
                                if (
                                    a > v_max and v < v_max and not be < (v_max - a) * margin
                                    and (t_up := time_to_voltage(v, i_h, r, c, v_max)) <= duration
                                ):
                                    crossings_extend((i, slot, t_up))
                                    v = v_max
                                else:
                                    v = a + be
                                    if v > v_max:
                                        v = v_max
                        else:
                            v = a + (v - a) * e
                            if v > v_max:
                                v = v_max
                        t += duration
                else:
                    for slot, r, duration, e, load in plan:
                        a = i_h * r
                        if e is not None:  # _step's plain cases, as _idle steps them
                            if v >= v_pinned and a >= v_max:
                                vs_append(v)
                                slots_append(slot)
                                v = v_max
                                t += duration
                                continue
                            be = (v - a) * e
                            if not (
                                a > v_max and v < v_max and not be < (v_max - a) * margin
                                or a < v_min and v > v_min and not be > (v_min - a) * margin
                            ):
                                vs_append(v)
                                slots_append(slot)
                                v = a + be
                                if v > v_max:
                                    v = v_max
                                t += duration
                                continue
                        t, v, depleted = step(slot, load, duration, i_h, True, t, v)
                        if depleted:
                            if bit == TRANSMIT:
                                failure, text = _TRANSMIT_FAILED, f"samples={samples}"
                            else:
                                failure, text = (_TASK_FAILED, load[0]) if bit else (None, "")
                            v = self._deplete(i, len(vs) - first, i_h, tick_end, failure, text, t, v)
                            powered = False
                            ephemeris_t = None  # the backup domain is lost; flash keeps the buffer
                            break
                    if not powered:
                        break
                if bit == FIX:
                    if event != _FIX_HOT:  # every other fix leaves a fresh ephemeris
                        ephemeris_t = t_start
                    buffered += 1
                elif bit == TRANSMIT:
                    buffered = 0
                    at = len(vs) - first if record else lengths[typ]
                    mark(i, at, t, _TRANSMIT, v_before, v, f"samples={samples}")
            if not record:
                entries_append(i << 16 | typ)
            voltages_append(v)
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
        self._flush()
        return np.array(voltages), power_on

    def _book(
        self, combined: np.ndarray, voltages: np.ndarray, power_on: np.ndarray, v_initial: float
    ) -> tuple[EventLog, EnergyLedger]:
        """The event log and the ledger of a run, from the decide loop's record.

        Works through the run in chunks of whole ticks that hold about
        _BOOKING_CHUNK segments on average, an idle tick counting one. Each
        chunk's segments are put in run order: an idle tick's one, a recorded
        tick's as the loop recorded them, and an entry's from its type's
        chain and its closing sleep. An entry's start voltages are replayed
        from the tick's start voltage, one chain position at a time across
        the chunk's entries, with the loop's operations in the loop's order.
        Start times are summed along each tick as the loop summed them. Each
        segment is booked as _step books it, by segment_energy on arrays,
        except that a segment _step recorded brings its own terms, and a v_max
        crossing in an entry's tick books its partial and its pinned rest from
        the crossing time, as _step does; every ledger sum adds its terms in
        run order from 0.0, as the loop would have.
        The rows come from the segments (a clamp row where the pinned test
        changes or a crossing falls, an activity row where its chain's last
        segment ends) and from the loop's whole rows, and are put in log
        order by a stable sort on (position, sub-position).
        """
        tick = self.config.base_tick_s
        n_ticks = combined.size
        v_max, v_pinned = self.v_max, self.v_pinned
        table = np.array(self.table, dtype=float).T.copy()  # a column a row
        task_of, emit_of, span_of = table[(0, 10, 11), :].astype(np.intp)
        r_of, tau_of, leak_of, keep_of, pinned_w_of, duration_of, e_of, em1_of, em2_of = table[1:10]
        vs, slots, entries = (np.concatenate(parts) for parts in zip(*self.flushed))
        self.flushed.clear()
        announced = np.flatnonzero(slots < 0)
        self.stepped = stepped = ~slots[announced].astype(np.int64)  # each tick recorded
        firsts = np.append(announced - np.arange(announced.size), vs.size)  # and its first segment
        slots = np.delete(slots, announced)
        self.entered = entered = entries >> 16  # each entry's tick
        types = entries & 31
        closings = (entries >> 5 & 2047) - 1  # the closing sleep's slot, -1 for none
        lengths = np.array(self.lengths)[types]
        entry_counts = lengths + (closings >= 0)
        entry_firsts = np.append(0, np.cumsum(entry_counts))  # each entry's first segment
        crossings = np.fromiter(self.crossings, float, len(self.crossings))
        crossing_tick, crossing_slot, crossing_t = crossings.reshape(-1, 3).T
        crossing_tick, crossing_slot = crossing_tick.astype(np.int64), crossing_slot.astype(np.intp)
        records = np.fromiter(self.records, float, len(self.records)).reshape(-1, len(_RECORD))
        recorded_at = records[:, 0].astype(np.int64)
        marks = self.marks
        mark_columns = [
            np.array(column, dtype=dtype)
            for column, dtype in zip(zip(*marks) if marks else ((),) * 7, (int, int, float, int, float, float, int))
        ]
        mark_tick, mark_position = mark_columns[:2]
        harvested = leakage = discarded = 0.0
        consumed: dict[int, float] = {}  # task index -> sum, in first-use order
        clamp = False
        chunks = []
        segments = n_ticks - stepped.size - entered.size + vs.size + int(entry_firsts[-1])  # an idle tick counting one
        chunk = max(1, _BOOKING_CHUNK * n_ticks // segments)  # ticks
        with np.errstate(all="ignore"):  # as Python's float arithmetic, which overflows to inf silently
            for c0 in range(0, n_ticks, chunk):
                c1 = min(c0 + chunk, n_ticks)
                j0, j1 = np.searchsorted(stepped, (c0, c1)).tolist()
                f0, f1 = np.searchsorted(entered, (c0, c1)).tolist()
                k0, k1 = int(firsts[j0]), int(firsts[j1])
                # The chunk's segments in run order, by the source of each tick's:
                # 0 an idle tick's one, 1 a recorded tick's, 2 an entry's.
                count = np.ones(c1 - c0, np.int64)
                source = np.zeros(c1 - c0, np.int8)
                recorded = stepped[j0:j1] - c0
                count[recorded] = np.diff(firsts[j0 : j1 + 1])
                source[recorded] = 1
                ticks = entered[f0:f1]
                count[ticks - c0] = entry_counts[f0:f1]
                source[ticks - c0] = 2
                tick_of = np.repeat(np.arange(c0, c1), count)
                source_of = np.repeat(source, count)
                at_idle, at_loop, at_entry = (np.flatnonzero(source_of == s) for s in range(3))
                idle_ticks = tick_of[at_idle]
                slot = np.empty(tick_of.size, np.intp)
                slot[at_loop] = slots[k0:k1]
                slot[at_idle] = np.where(power_on[idle_ticks], self.whole[True], self.whole[False])
                v0 = np.empty(tick_of.size)
                v0[at_loop] = vs[k0:k1]
                v0[at_idle] = voltages[idle_ticks]
                # An entry's segments, a row each: its type's chain, then its
                # closing sleep; a v_max crossing is found by its slot.
                chain = self.chains[types[f0:f1]]
                closed = np.flatnonzero(closings[f0:f1] >= 0)
                chain[closed, lengths[f0:f1][closed]] = closings[f0:f1][closed]
                x0, x1 = np.searchsorted(crossing_tick, (c0, c1)).tolist()
                entry = np.searchsorted(ticks, crossing_tick[x0:x1])
                position = (chain[entry] == crossing_slot[x0:x1, None]).argmax(axis=1)
                # Their start voltages, a chain position at a time (a row of
                # these arrays) as the loop steps them: a + (v - a) e, clamped
                # (NaN stays, as in the loop), or v_max where pinned. A crossing's
                # segment ends at v_max, as a + (v - a) e does with a = v_max, e = 0.
                entry_a = combined[ticks] * r_of[chain.T]
                entry_e = e_of[chain.T]
                held = entry_a >= v_max
                entry_a[position, entry] = v_max
                entry_e[position, entry] = 0.0
                start = np.empty(entry_a.shape)
                start[0] = voltages[ticks]
                for p in range(1, int(entry_counts[f0:f1].max(initial=1))):
                    v, v_next = start[p - 1], start[p]
                    np.subtract(v, entry_a[p - 1], out=v_next)
                    v_next *= entry_e[p - 1]
                    v_next += entry_a[p - 1]
                    np.minimum(v_next, v_max, out=v_next)
                    np.putmask(v_next, (v >= v_pinned) & held[p - 1], v_max)
                filled = np.arange(chain.shape[1]) < entry_counts[f0:f1, None]
                slot[at_entry] = chain[filled]
                v0[at_entry] = start.T.copy()[filled]
                crossing_at = at_entry[entry_firsts[f0 + entry] - entry_firsts[f0] + position]
                v_end = np.append(v0[1:], voltages[c1])
                i_h = combined[tick_of]
                # Position in the run: the tick plus the segments of earlier busy ticks.
                from_loop = source_of != 0
                before = k0 + int(entry_firsts[f0])  # segments of busy ticks before the chunk
                key = (tick_of + before + np.cumsum(from_loop) - from_loop) * 4

                duration, r, tau, pinned_w = duration_of[slot], r_of[slot], tau_of[slot], pinned_w_of[slot]
                a = i_h * r
                pinned = (v0 >= v_pinned) & (a >= v_max)
                harvested_t, consumed_t = segment_energy(i_h, r, tau, a, v0 - a, duration, em1_of[slot], em2_of[slot])
                harvested_t = np.where(pinned, i_h * v_max * duration, harvested_t)
                consumed_t = np.where(pinned, pinned_w * duration, consumed_t)
                # An entry's v_max crossing: the partial as integrate_segment books
                # it, a zero-length one as 0.0.
                t_up = crossing_t[x0:x1]
                at = crossing_at
                factors = itertools.chain.from_iterable(map(decay_factors, t_up.tolist(), tau[at].tolist()))
                _, em1, em2 = np.fromiter(factors, float, 3 * at.size).reshape(-1, 3).T
                part = segment_energy(i_h[at], r[at], tau[at], a[at], v0[at] - a[at], t_up, em1, em2)
                harvested_t[at], consumed_t[at] = (np.where(t_up == 0.0, 0.0, terms) for terms in part)
                leak, keep = leak_of[slot], keep_of[slot]
                leakage_t = consumed_t * leak
                task_t = consumed_t * keep
                discarded_t = np.where(pinned, harvested_t - consumed_t, 0.0)
                task = task_of[slot]
                emit = emit_of[slot]
                advance = duration.copy()
                r0, r1 = np.searchsorted(recorded_at, (k0, k1)).tolist()
                record = records[r0:r1].T
                g = at_loop[recorded_at[r0:r1] - k0]
                advance[g] = record[1]
                pinned[g] = record[2] > 0.0
                harvested_t[g], leakage_t[g], task_t[g], discarded_t[g] = record[5:9]
                emit[g[record[4] > 0.0]] = -1
                crossed = ~np.isnan(record[3])
                # Each v_max crossing's pinned rest goes in after its partial.
                rest = duration[at] - t_up
                pinned_in, pinned_out = i_h[at] * v_max * rest, pinned_w[at] * rest
                second = ~np.isnan(record[9])
                after = np.concatenate([g[second], at])
                if after.size:
                    rests = np.concatenate([
                        record[9:13][:, second],
                        (pinned_in, pinned_out * leak[at], pinned_out * keep[at], pinned_in - pinned_out),
                    ], axis=1)
                    order = np.argsort(after)
                    harvested_t, leakage_t, task_t, discarded_t, task = _spliced(
                        (harvested_t, leakage_t, task_t, discarded_t, task), after[order],
                        (*rests[:, order], task[after[order]]),
                    )
                harvested = _running_sum(harvested, harvested_t)
                leakage = _running_sum(leakage, leakage_t)
                discarded = _running_sum(discarded, discarded_t)
                # Each task's terms in run order, by a stable sort on the task.
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

                # Start times, summed along each tick from its start.
                position = np.arange(tick_of.size) - np.repeat(np.cumsum(count) - count, count)
                by_position = np.argsort(position.astype(np.int8), kind="stable")
                position_ends = np.cumsum(np.bincount(position)).tolist()
                t0 = np.empty(tick_of.size)
                first = by_position[: position_ends[0]]
                t0[first] = (tick_of[first] * tick).astype(float)
                for begin, end in zip(position_ends, position_ends[1:]):
                    at_position = by_position[begin:end]
                    t0[at_position] = t0[at_position - 1] + advance[at_position - 1]

                up_at = np.concatenate([g[crossed], at])
                up_time = np.concatenate([record[3][crossed], t0[at] + t_up])
                state = pinned.copy()
                state[up_at] = True
                before_state = np.append(clamp, state[:-1])
                clamp = bool(state[-1]) if state.size else clamp
                clamp_ends = np.flatnonzero(before_state & ~pinned)
                clamp_starts = np.flatnonzero(pinned & ~before_state)
                emits = np.flatnonzero(emit >= 0)
                m0, m1 = np.searchsorted(mark_tick, (c0, c1)).tolist()
                marked = mark_tick[m0:m1]
                in_loop = np.where(source != 0, count, 0)
                mark_key = (marked + before + (np.cumsum(in_loop) - in_loop)[marked - c0] + mark_position[m0:m1]) * 4
                # (key, time, kind, v_before, v_after, detail) by source; a key's
                # sub-position is 0 for a whole row, 1 for a clamp row at a
                # segment's start, 2 for a crossing's ClampStart and 3 for an
                # activity row at its last segment's end.
                sources = (
                    (key[clamp_ends] + 1, t0[clamp_ends], _CLAMP_END, v0[clamp_ends], v0[clamp_ends], 0),
                    (key[clamp_starts] + 1, t0[clamp_starts], _CLAMP_START, v_max, v_max, 0),
                    (key[up_at] + 2, up_time, _CLAMP_START, v_max, v_max, 0),
                    (key[emits] + 3, t0[emits] + advance[emits], emit[emits], v0[emits - span_of[slot[emits]]],
                     v_end[emits], 0),
                    (mark_key, *[column[m0:m1] for column in mark_columns[2:]]),
                )
                rows = [np.concatenate([np.broadcast_to(s[j], s[0].shape) for s in sources]) for j in range(6)]
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
        return log, ledger


def _spliced(columns: tuple, after: np.ndarray, values: tuple) -> list[np.ndarray]:
    """Each column with its values put in after the positions in after (ascending)."""
    n = columns[0].size
    moved = np.arange(n) + np.cumsum(np.bincount(after + 1, minlength=n)[:n])
    added = after + np.arange(1, after.size + 1)
    spliced = []
    for column, value in zip(columns, values):
        out = np.empty(n + after.size, column.dtype)
        out[moved] = column
        out[added] = value
        spliced.append(out)
    return spliced


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
