"""Output checks. A run whose outputs fail a check is a failed operation.

Simulation outputs are deterministic, so each cell is checked three ways:
the ledger closes, the three output files agree with each other (event rows
in timeseries.csv against the counts in metrics.json), and, for seeds that
perfbench/reference.json records, the exact event counts per kind,
total_fixes, depletion_count and the timeseries.csv row count match the
values the seed commit produced.

Generated traces are checked against what the generator promises: the
sample count, no negative sample, zero irradiance at night, and each day's
kinetic energy equal to --daily-energy-j.
"""

from __future__ import annotations

import csv
import json
import math
from collections import Counter
from pathlib import Path

import numpy as np

CLOSURE_TOLERANCE_J = 1e-6
DAILY_ENERGY_TOLERANCE_J = 1e-9
REFERENCE_PATH = Path(__file__).with_name("reference.json")

EVENT_KINDS = (
    "Sense", "FixHot", "FixHotEph", "FixWarmEph", "FixCold", "FixSkipped",
    "Transmit", "TransmitSkipped", "TransmitFailed", "TaskFailed",
    "Depletion", "Recovery", "ClampStart", "ClampEnd",
)
FIX_KINDS = ("FixHot", "FixHotEph", "FixWarmEph", "FixCold")
REFERENCE_KEYS = ("rows", "events", "total_fixes", "depletion_count")
# metrics.json field -> the event kind it counts
METRIC_KINDS = {
    "hot_fixes": "FixHot", "hot_ephemeris": "FixHotEph", "warm_ephemeris": "FixWarmEph",
    "cold_starts": "FixCold", "skipped_fixes": "FixSkipped", "failed_tasks": "TaskFailed",
    "transmissions": "Transmit", "skipped_transmissions": "TransmitSkipped",
    "failed_transmissions": "TransmitFailed", "depletion_count": "Depletion",
}


def summarize_cell(cell: Path) -> dict:
    """Row count, events per kind and headline counts of one run's outputs."""
    events: Counter = Counter()
    rows = 0
    with open(cell / "timeseries.csv", newline="") as handle:
        reader = csv.reader(handle)
        next(reader)
        for row in reader:
            rows += 1
            if row[6]:
                events[row[6].split(":", 1)[0]] += 1
    metrics = json.loads((cell / "metrics.json").read_text())
    ledger = json.loads((cell / "ledger.json").read_text())
    return {
        "rows": rows,
        "events": dict(sorted(events.items())),
        "total_fixes": metrics["total_fixes"],
        "depletion_count": metrics["depletion_count"],
        "closure_error_j": ledger["closure_error_j"],
        "metrics": {key: metrics[key] for key in METRIC_KINDS},
    }


def reference_view(summary: dict) -> dict:
    """The part of a cell summary that reference.json records."""
    return {key: summary[key] for key in REFERENCE_KEYS}


def check_cell(name: str, summary: dict, ticks: int, reference: dict | None) -> list[str]:
    errors = []
    events = summary["events"]
    closure = summary["closure_error_j"]
    if not math.isfinite(closure) or abs(closure) > CLOSURE_TOLERANCE_J:
        errors.append(f"{name}: ledger closure error {closure!r} J exceeds {CLOSURE_TOLERANCE_J} J")
    unknown = sorted(set(events) - set(EVENT_KINDS))
    if unknown:
        errors.append(f"{name}: unknown event kinds {unknown}")
    expected_rows = ticks + 1 + sum(events.values())
    if summary["rows"] != expected_rows:
        errors.append(f"{name}: {summary['rows']} timeseries rows, expected {expected_rows} "
                      f"({ticks} ticks + 1 + {sum(events.values())} events)")
    fixes = sum(events.get(kind, 0) for kind in FIX_KINDS)
    if summary["total_fixes"] != fixes:
        errors.append(f"{name}: metrics total_fixes {summary['total_fixes']} != {fixes} fix events")
    for key, kind in METRIC_KINDS.items():
        if summary["metrics"][key] != events.get(kind, 0):
            errors.append(f"{name}: metrics {key} {summary['metrics'][key]} != {events.get(kind, 0)} {kind} events")
    if events.get("ClampStart", 0) - events.get("ClampEnd", 0) not in (0, 1):
        errors.append(f"{name}: unbalanced clamp windows {events.get('ClampStart', 0)}/{events.get('ClampEnd', 0)}")
    if reference is not None:
        for key in REFERENCE_KEYS:
            if summary[key] != reference[key]:
                errors.append(f"{name}: {key} {summary[key]} != reference {reference[key]}")
    return errors


def check_simulation(work: Path, cells: list[str], ticks_per_cell: int,
                     reference: dict | None) -> tuple[list[str], dict]:
    """Check every cell; returns (errors, per-cell summaries)."""
    errors = []
    summaries = {}
    for cell in cells:
        try:
            summary = summarize_cell(work / cell)
        except (OSError, ValueError, KeyError, IndexError, StopIteration) as exc:
            errors.append(f"{cell}: unreadable outputs: {exc!r}")
            continue
        summaries[cell] = summary
        expected = None if reference is None else reference.get(cell)
        if reference is not None and expected is None:
            errors.append(f"{cell}: missing from reference")
        errors += check_cell(cell, summary, ticks_per_cell, expected)
    return errors, summaries


def _quantum(values: np.ndarray) -> np.ndarray:
    """Largest rounding error of each value printed with 10 significant digits."""
    nonzero = values > 0
    out = np.zeros_like(values)
    out[nonzero] = 0.5 * 10.0 ** (np.floor(np.log10(values[nonzero])) - 9)
    return out


def check_generated(work: Path, gen: dict) -> list[str]:
    errors = []
    days = gen["days"]
    n = days * 1440
    try:
        sun = np.loadtxt(work / "sun.csv", delimiter=",", skiprows=1, ndmin=2)
        kin = np.loadtxt(work / "kin.csv", delimiter=",", skiprows=1, ndmin=2)
        sun_header = (work / "sun.csv").open().readline().strip()
        kin_header = (work / "kin.csv").open().readline().strip()
    except (OSError, ValueError) as exc:
        return [f"unreadable generated trace: {exc!r}"]
    if sun_header != "timestamp,irradiance_wm2":
        errors.append(f"sun.csv header {sun_header!r}")
    if kin_header != "t_s,solar_a,kinetic_a,combined_a":
        errors.append(f"kin.csv header {kin_header!r}")
    if sun.shape != (n, 2) or kin.shape != (n, 4):
        return errors + [f"sample counts {sun.shape} / {kin.shape}, expected {n} rows"]

    steps = np.arange(n)
    if not np.array_equal(sun[:, 0], gen["start_epoch"] + 60 * steps):
        errors.append("sun.csv timestamps are not consecutive minutes from the start epoch")
    wm2 = sun[:, 1]
    if wm2.min() < 0:
        errors.append(f"negative irradiance {wm2.min()}")
    minute = steps % 1440
    night = (minute < gen["sunrise_min"]) | (minute >= gen["sunset_min"])
    if np.any(wm2[night] != 0.0):
        errors.append(f"{int(np.count_nonzero(wm2[night]))} night samples with non-zero irradiance")
    if not np.all(wm2[~night].reshape(days, -1).max(axis=1) > 0):
        errors.append("a day without sunlight")

    if not np.array_equal(kin[:, 0], 60 * steps):
        errors.append("kin.csv t_s is not 60 s steps from 0")
    if np.any(kin[:, 1] != 0.0):
        errors.append("kin.csv solar column is not zero")
    kinetic = kin[:, 2]
    if kinetic.min() < 0:
        errors.append(f"negative kinetic current {kinetic.min()}")
    joules_per_amp = 60.0 * gen["v_supply"]
    daily = kinetic.reshape(days, -1).sum(axis=1) * joules_per_amp
    # The CSV keeps 10 significant digits: allow their rounding on top.
    tolerance = DAILY_ENERGY_TOLERANCE_J + _quantum(kinetic).reshape(days, -1).sum(axis=1) * joules_per_amp
    off = np.abs(daily - gen["daily_energy_j"]) > tolerance
    if off.any():
        day = int(np.argmax(off))
        errors.append(f"{int(off.sum())} day(s) miss the daily kinetic energy, e.g. day {day}: "
                      f"{daily[day]!r} J vs {gen['daily_energy_j']} J (tolerance {tolerance[day]:.3g} J)")
    combined = gen["efficiency"] * kinetic
    slack = _quantum(kin[:, 3]) + gen["efficiency"] * _quantum(kinetic) + 1e-15 * combined
    if np.any(np.abs(kin[:, 3] - combined) > slack):
        errors.append("kin.csv combined column is not efficiency x kinetic")
    return errors


def load_reference() -> dict:
    if REFERENCE_PATH.exists():
        return json.loads(REFERENCE_PATH.read_text())
    return {}
