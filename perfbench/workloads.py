"""The benchmark workloads: seeded inputs, the CLI commands run on them, and
what their outputs must satisfy.

Each workload is chosen to put the weight on different layers (see
perfbench/METRICS.md). Sizes are set so that one run of a workload takes two
to four seconds on a 2-CPU host, which leaves room for five to ten runs,
each with its calibration and set-up probe, and hence a steady median,
inside one 30 s benchmark measurement window.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import inputs

WINTER_DAYS = 20
SWEEP_DAYS = 5
SWEEP_CAPACITORS = (1.0, 2.5, 5.0)
SWEEP_INTERVALS_S = (60, 120, 600)
YEAR_DAYS = 90
GEN_DAYS = 180
TICKS_PER_DAY = inputs.MINUTES_PER_DAY

# Explicit defaults: the headline configuration, as a user would write it.
WINTER_CONFIG = """\
capacitor:
  capacitance_f: 2.5
intervals:
  sense_s: 60
  fix_s: 120
  transmit_s: 3600
  base_tick_s: 60
"""

# Sensing off, a fix every 30 min, one daily upload: cheap, sparse ticks.
YEAR_CONFIG = """\
intervals:
  sense_s: null
  fix_s: 1800
  transmit_s: 86400
"""

SWEEP_SPEC = f"""\
capacitors: {list(SWEEP_CAPACITORS)}
fix_intervals_s: {list(SWEEP_INTERVALS_S)}
trace: dark.csv
base:
  sim:
    initial_voltage: 2.5
"""


@dataclass
class Prepared:
    """One workload instance, generated into a work directory."""

    commands: list[list[str]]  # captrack CLI arguments, each run in a fresh process
    outputs: list[str]  # output paths, relative to the work directory
    work_units: int  # simulated ticks summed over cells, or generated samples
    setup: list[str]  # arguments of perfbench/probe.py
    cells: list[str] = field(default_factory=list)  # simulation output directories
    ticks_per_cell: int = 0
    loaded_samples: int = 0  # trace rows read per run by the CLI
    gen: dict = field(default_factory=dict)  # trace-gen parameters for the check


def _rng(workload: str, seed: int) -> np.random.Generator:
    salt = {"winter-dense": 1, "sweep-depleting": 2, "year-sparse": 3, "trace-gen": 4}[workload]
    return np.random.default_rng([salt, seed])


def _winter_dense(seed: int, work: Path) -> Prepared:
    rng = _rng("winter-dense", seed)
    solar = inputs.irradiance(WINTER_DAYS, rng, peak_wm2=300.0, cloud_amplitude=0.6) * inputs.SOLAR_A_PER_WM2
    kinetic = inputs.kinetic_current(WINTER_DAYS, rng, daily_energy_j=13.07)
    inputs.write_harvest_csv(str(work / "harvest.csv"), solar, kinetic)
    (work / "config.yaml").write_text(WINTER_CONFIG)
    ticks = WINTER_DAYS * TICKS_PER_DAY
    return Prepared(
        [["simulate", "--config", "config.yaml", "--trace", "harvest.csv", "--out", "out"]],
        ["out"], ticks, ["simulate", str(work / "config.yaml")],
        cells=["out"], ticks_per_cell=ticks, loaded_samples=ticks,
    )


def _sweep_depleting(seed: int, work: Path) -> Prepared:
    rng = _rng("sweep-depleting", seed)
    solar = inputs.irradiance(SWEEP_DAYS, rng, peak_wm2=15.0, cloud_amplitude=0.9) * inputs.SOLAR_A_PER_WM2
    kinetic = inputs.kinetic_current(SWEEP_DAYS, rng, daily_energy_j=1.5)
    inputs.write_harvest_csv(str(work / "dark.csv"), solar, kinetic)
    (work / "spec.yaml").write_text(SWEEP_SPEC)
    ticks = SWEEP_DAYS * TICKS_PER_DAY
    cells = [f"out/c{c:g}F_i{i}s" for c in SWEEP_CAPACITORS for i in SWEEP_INTERVALS_S]
    return Prepared(
        [["sweep", "--spec", "spec.yaml", "--out", "out"]],
        ["out"], ticks * len(cells), ["sweep", str(work / "spec.yaml")],
        cells=cells, ticks_per_cell=ticks, loaded_samples=ticks,
    )


def _year_sparse(seed: int, work: Path) -> Prepared:
    rng = _rng("year-sparse", seed)
    wm2 = inputs.irradiance(YEAR_DAYS, rng, peak_wm2=300.0, cloud_amplitude=0.5)
    inputs.write_irradiance_csv_iso(str(work / "sun.csv"), wm2, "2025-01-01T00:00:00")
    (work / "config.yaml").write_text(YEAR_CONFIG)
    ticks = YEAR_DAYS * TICKS_PER_DAY
    return Prepared(
        [["simulate", "--config", "config.yaml", "--trace", "sun.csv", "--out", "out"]],
        ["out"], ticks, ["simulate", str(work / "config.yaml")],
        cells=["out"], ticks_per_cell=ticks, loaded_samples=ticks,
    )


def _trace_gen(seed: int, work: Path) -> Prepared:
    rng = _rng("trace-gen", seed)
    gen = {
        "days": GEN_DAYS,
        "sunrise_min": 510,
        "sunset_min": 1005,
        "start_epoch": 1735689600,  # 2025-01-01T00:00:00Z
        "cloud_amplitude": round(float(rng.uniform(0.2, 0.6)), 3),
        "daily_energy_j": round(float(rng.uniform(8.0, 20.0)), 3),
        "v_supply": 3.3,
        "efficiency": 0.88,
        "solar_seed": int(rng.integers(1, 2**31)),
        "kinetic_seed": int(rng.integers(1, 2**31)),
    }
    solar = ["gen-solar", "--out", "sun.csv", "--days", str(GEN_DAYS), "--seed", str(gen["solar_seed"]),
             "--sunrise-min", str(gen["sunrise_min"]), "--sunset-min", str(gen["sunset_min"]),
             "--cloud-amplitude", str(gen["cloud_amplitude"]), "--start-epoch", str(gen["start_epoch"])]
    kinetic = ["gen-kinetic", "--out", "kin.csv", "--days", str(GEN_DAYS), "--seed", str(gen["kinetic_seed"]),
               "--daily-energy-j", str(gen["daily_energy_j"]), "--v-supply", str(gen["v_supply"]),
               "--efficiency", str(gen["efficiency"])]
    return Prepared(
        [solar, kinetic], ["sun.csv", "kin.csv"], 2 * GEN_DAYS * TICKS_PER_DAY,
        ["parse", *solar, "--", *kinetic], gen=gen,
    )


WORKLOADS = {
    "winter-dense": _winter_dense,
    "sweep-depleting": _sweep_depleting,
    "year-sparse": _year_sparse,
    "trace-gen": _trace_gen,
}


def prepare(name: str, seed: int, work: Path) -> Prepared:
    """Generate the workload's inputs for this seed into work."""
    return WORKLOADS[name](seed, work)
