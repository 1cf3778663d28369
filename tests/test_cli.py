"""Command-line interface: exit codes, outputs, determinism."""

import contextlib
import csv
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import captrack.cli as cli
import captrack.configfile as configfile
from captrack.cli import EXIT_CONFIG, EXIT_IO, EXIT_OK, EXIT_TRACE, main
from captrack.energy_model import SystemConfig, validate_config
from captrack.engine import run_simulation
from captrack.harvest import (
    ActivityProfile,
    HarvestTrace,
    SolarChain,
    SolarProfile,
    generate_kinetic_trace,
    generate_synthetic_irradiance,
    load_harvest_csv,
    load_irradiance_csv,
    save_harvest_csv,
    save_irradiance_csv,
)

SRC = str(Path(__file__).resolve().parents[1] / "src")


def test_gen_kinetic_writes_calibrated_trace(tmp_path, capsys):
    out = tmp_path / "kinetic.csv"
    assert main(["gen-kinetic", "--out", str(out), "--days", "2"]) == EXIT_OK
    trace = load_harvest_csv(str(out))
    assert len(trace) == 2 * 1440
    for day in range(2):
        chunk = trace.kinetic_a[day * 1440 : (day + 1) * 1440]
        assert float(chunk.sum()) * 60.0 * 3.3 == pytest.approx(13.07, rel=1e-9)
    assert trace.solar_a.max() == 0.0
    assert "13.07" in capsys.readouterr().out

    # Same seed, same bytes.
    again = tmp_path / "kinetic2.csv"
    assert main(["gen-kinetic", "--out", str(again), "--days", "2"]) == EXIT_OK
    assert again.read_bytes() == out.read_bytes()


def test_gen_kinetic_rejects_bad_weights(tmp_path, capsys):
    out = tmp_path / "k.csv"
    code = main(["gen-kinetic", "--out", str(out), "--weights", "0.5,0.5,0.5,0.5"])
    assert code == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err


def test_gen_solar_and_days_guard(tmp_path, capsys):
    out = tmp_path / "sun.csv"
    assert main(["gen-solar", "--out", str(out), "--days", "1"]) == EXIT_OK
    trace = load_irradiance_csv(str(out))
    assert trace.samples.size == 1440
    assert "insolation" in capsys.readouterr().out

    assert main(["gen-solar", "--out", str(out), "--days", "0"]) == EXIT_CONFIG


def test_gen_flags_write_the_bytes_of_the_profile_built_directly(tmp_path):
    # The benchmark's trace-gen flag set, then every kinetic flag at once.
    sun, kin, all_kin = tmp_path / "sun.csv", tmp_path / "kin.csv", tmp_path / "all_kin.csv"
    assert main(["gen-solar", "--out", str(sun), "--days", "2", "--seed", "1234567891", "--sunrise-min", "510",
                 "--sunset-min", "1005", "--cloud-amplitude", "0.437", "--start-epoch", "1735689600"]) == EXIT_OK
    assert main(["gen-kinetic", "--out", str(kin), "--days", "2", "--seed", "987654321",
                 "--daily-energy-j", "13.519", "--v-supply", "3.3", "--efficiency", "0.88"]) == EXIT_OK
    assert main(["gen-kinetic", "--out", str(all_kin), "--days", "2", "--seed", "7", "--daily-energy-j", "9",
                 "--period-starts-min", "240,600,960,1320", "--weights", "0.4,0.1,0.4,0.1",
                 "--duty", "0.6, 0.1, 0.6, 0.2", "--mean-bout-min", "12.5"]) == EXIT_OK

    def kinetic_bytes(profile, v_supply, efficiency):
        current = generate_kinetic_trace(2, profile, v_supply)
        save_harvest_csv(HarvestTrace.build(np.zeros_like(current), current, efficiency), str(tmp_path / "k.csv"))
        return (tmp_path / "k.csv").read_bytes()

    solar = SolarProfile(sunrise_min=510, sunset_min=1005, cloud_amplitude=0.437, seed=1234567891)
    save_irradiance_csv(generate_synthetic_irradiance(2, solar, 1735689600), str(tmp_path / "s.csv"))
    assert sun.read_bytes() == (tmp_path / "s.csv").read_bytes()
    assert kin.read_bytes() == kinetic_bytes(ActivityProfile(daily_energy_j=13.519, seed=987654321), 3.3, 0.88)
    profile = ActivityProfile((240, 600, 960, 1320), (0.4, 0.1, 0.4, 0.1), 9.0, 12.5, (0.6, 0.1, 0.6, 0.2), 7)
    assert all_kin.read_bytes() == kinetic_bytes(profile, 3.3, 0.88)


BAD_GEN_FLAGS = [
    # A ValueError traceback.
    ("gen-kinetic --efficiency 2", "gen-kinetic.efficiency: combiner efficiency must be in (0, 1], got 2.0"),
    ("gen-kinetic --efficiency nan", "gen-kinetic.efficiency: combiner efficiency must be in (0, 1], got nan"),
    # A ZeroDivisionError traceback.
    ("gen-solar --cloud-correlation-min 0", "gen-solar: cloud correlation must be > 0 minutes, got 0"),
    # Exit 0 with stamps that wrap negative from line 16, which simulate rejects (exit 3).
    ("gen-solar --start-epoch 9223372036854775000",
     "--start-epoch 9223372036854775000: stamps from it to 9223372036854861340 do not all fit in int64"),
    # An OverflowError traceback, after the file was opened.
    ("gen-solar --start-epoch 99999999999999999999", "--start-epoch 99999999999999999999: stamps from it to"),
    # Exit 3, "trace error".
    ("gen-kinetic --daily-energy-j nan", "gen-kinetic.daily_energy_j must be finite, got nan"),
    ("gen-kinetic --daily-energy-j inf", "gen-kinetic.daily_energy_j must be finite, got inf"),
    ("gen-kinetic --v-supply nan", "gen-kinetic.v_supply: v_supply must be positive and finite, got nan"),
    # Exit 0: a trace peaking at 23.1 mA, and days cut at midnight.
    ("gen-kinetic --mean-bout-min inf", "gen-kinetic.mean_bout_min must be finite, got inf"),
    ("gen-solar --sunset-min 2000", "gen-solar: need 0 <= sunrise < sunset <= 1440, got 510 / 2000"),
    ("gen-solar --sunrise-min -5", "gen-solar: need 0 <= sunrise < sunset <= 1440, got -5 / 1005"),
    # The rest of the profiles' ranges, and the flag text itself.
    ("gen-solar --sunrise-min 1005 --sunset-min 510", "got 1005 / 510"),
    ("gen-solar --cloud-amplitude 1.5", "gen-solar: cloud amplitude must be in [0, 1], got 1.5"),
    ("gen-solar --peak-wm2 -1", "gen-solar: peak must be >= 0, got -1.0"),
    ("gen-solar --cloud-correlation-min -5", "cloud correlation must be > 0 minutes, got -5.0"),
    ("gen-solar --seed -1", "gen-solar: seed must be >= 0, got -1"),
    ("gen-kinetic --seed -1", "gen-kinetic: seed must be >= 0, got -1"),
    ("gen-solar --sunrise-min nan", "gen-solar.sunrise_min must be finite, got nan"),
    ("gen-solar --sunset-min inf", "gen-solar.sunset_min must be finite, got inf"),
    ("gen-solar --sunrise-min 1.5", "gen-solar.sunrise_min must be a whole number, got 1.5"),
    ("gen-solar --peak-wm2 high", "gen-solar.peak_wm2 must be a number, got 'high'"),
    ("gen-solar --peak-wm2 1,2", "gen-solar.peak_wm2 must be a number, got [1, 2]"),
    ("gen-kinetic --period-starts-min 300,540.5,1020,1260",
     "gen-kinetic.period_starts_min[1] must be a whole number, got 540.5"),
    ("gen-kinetic --weights 0.5,0.5", "gen-kinetic.weights must be a list of four values"),
    ("gen-kinetic --duty 0.5,x,0.5,0.15", "gen-kinetic.duty[1] must be a number, got 'x'"),
    ("gen-kinetic --v-supply inf", "gen-kinetic.v_supply: v_supply must be positive and finite, got inf"),
    ("gen-kinetic --efficiency inf", "gen-kinetic.efficiency: combiner efficiency must be in (0, 1], got inf"),
    ("gen-kinetic --v-supply -3.3", "gen-kinetic.v_supply: v_supply must be positive and finite, got -3.3"),
    ("gen-kinetic --efficiency 0", "gen-kinetic.efficiency: combiner efficiency must be in (0, 1], got 0.0"),
    # Blamed --efficiency: the current E / (60 V) overflowed inside the combiner's check.
    ("gen-kinetic --v-supply 1e-320", "gen-kinetic.v_supply: non-finite kinetic current inf at index 50"),
    # Checks of the kinetic profile that no case above reaches.
    ("gen-kinetic --weights=-0.1,0.5,0.3,0.3", "gen-kinetic: weights must be >= 0, got (-0.1, 0.5, 0.3, 0.3)"),
    ("gen-kinetic --period-starts-min 0,1,2,1440",
     "gen-kinetic: period starts must be within a day, got (0, 1, 2, 1440)"),
    ("gen-kinetic --daily-energy-j -1", "gen-kinetic: daily energy must be >= 0, got -1.0"),
    ("gen-kinetic --mean-bout-min 0.5", "gen-kinetic: mean bout must be >= 1 minute, got 0.5"),
]


@pytest.mark.parametrize(("argv", "message"), BAD_GEN_FLAGS, ids=[argv for argv, _ in BAD_GEN_FLAGS])
def test_gen_rejects_bad_values(tmp_path, capsys, argv, message):
    out = tmp_path / "trace.csv"
    assert main([*argv.split(), "--out", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1
    assert message in err
    assert not out.exists()


def test_simulate_missing_trace(tmp_path, capsys):
    code = main(["simulate", "--trace", str(tmp_path / "nope.csv"), "--out", str(tmp_path / "out")])
    assert code == EXIT_TRACE
    assert "trace error" in capsys.readouterr().err


def test_simulate_builtin_day(tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["simulate", "--out", str(out), "--days", "1"]) == EXIT_OK
    for name in ("timeseries.csv", "metrics.json", "ledger.json", "samples.csv"):
        assert (out / name).exists()
    metrics = json.loads((out / "metrics.json").read_text())
    assert metrics["total_fixes"] == 720
    assert metrics["depletion_count"] == 0
    ledger = json.loads((out / "ledger.json").read_text())
    assert abs(ledger["closure_error_j"]) < 1e-6
    assert "720 fixes" in capsys.readouterr().out


def test_simulate_writes_samples_csv(tmp_path):
    out = tmp_path / "run"
    assert main(["simulate", "--out", str(out), "--days", "1"]) == EXIT_OK
    lines = (out / "samples.csv").read_bytes().split(b"\r\n")
    assert lines[0] == b"t_s,kind,coulomb_c,delivered_s"
    assert lines[-1] == b""
    rows = [line.decode().split(",") for line in lines[1:-1]]
    assert len(rows) == json.loads((out / "metrics.json").read_text())["total_fixes"] == 720
    # The first fix ends after the sense and the fix's three segments; the
    # upload in the same tick sends it 7.89 s later.
    assert lines[1] == b"1.00066,FixHot,0.000000000e+00,8.89066"
    for t_s, kind, coulomb_c, delivered_s in rows:
        assert re.fullmatch(r"\d+\.\d{5}", t_s) and kind.startswith("Fix")
        assert re.fullmatch(r"\d\.\d{9}e[+-]\d\d", coulomb_c)
        assert delivered_s == "" or float(delivered_s) >= float(t_s)
    # The last upload is at 23:00; the 29 fixes after it stay in the buffer.
    assert [row[3] == "" for row in rows] == [False] * 691 + [True] * 29


def test_simulate_with_irradiance_trace(tmp_path):
    sun = tmp_path / "sun.csv"
    assert main(["gen-solar", "--out", str(sun), "--days", "1"]) == EXIT_OK
    out = tmp_path / "run"
    assert main(["simulate", "--trace", str(sun), "--out", str(out)]) == EXIT_OK
    metrics = json.loads((out / "metrics.json").read_text())
    assert metrics["total_fixes"] > 0


@pytest.mark.parametrize(
    ("header", "row"),
    [("t_s,solar_a,kinetic_a,combined_a", "120,nan,0,nan"), ("timestamp,irradiance_wm2", "120,inf")],
)
def test_simulate_rejects_non_finite_trace(tmp_path, capsys, header, row):
    # Before, a NaN cell ran to completion and reported min_voltage NaN.
    first = "0,0,0,0" if header.startswith("t_s") else "0,0"
    trace = tmp_path / "trace.csv"
    trace.write_text(f"{header}\n{first}\n60,{first[2:]}\n{row}\n")
    out = tmp_path / "out"
    code = main(["simulate", "--trace", str(trace), "--out", str(out)])
    assert code == EXIT_TRACE
    assert "line 4: non-finite" in capsys.readouterr().err
    assert not (out / "metrics.json").exists()


def test_simulate_invalid_config(tmp_path, capsys):
    config = tmp_path / "config.yaml"
    config.write_text("intervals:\n  fix_s: 90\n")
    code = main(["simulate", "--config", str(config), "--out", str(tmp_path / "out")])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "config error" in err and "fix" in err


def test_simulate_blocked_output(tmp_path, capsys):
    blocker = tmp_path / "out"
    blocker.write_text("in the way")
    code = main(["simulate", "--out", str(blocker), "--days", "1"])
    assert code == EXIT_IO
    assert "i/o error" in capsys.readouterr().err


def test_sweep_grid(tmp_path, capsys):
    spec = tmp_path / "sweep.yaml"
    spec.write_text("capacitors: [2.5, 5.0]\nfix_intervals_s: [120, 300]\ngenerate: {days: 1}\n")
    out = tmp_path / "grid"
    assert main(["sweep", "--spec", str(spec), "--out", str(out)]) == EXIT_OK

    with open(out / "comparison.csv", newline="") as handle:
        rows = list(csv.DictReader(handle))
    assert len(rows) == 4
    assert {(r["capacitance_f"], r["fix_interval_s"]) for r in rows} == {
        ("2.5", "120"), ("2.5", "300"), ("5", "120"), ("5", "300"),
    }
    for row in rows:
        parts = sum(int(row[k]) for k in ("hot_fixes", "hot_ephemeris", "warm_ephemeris", "cold_starts"))
        assert parts == int(row["total_fixes"])
        cell = out / f"c{row['capacitance_f']}F_i{row['fix_interval_s']}s"
        assert (cell / "metrics.json").exists()
        assert (cell / "samples.csv").exists()
    # Denser schedule fixes more.
    by_cell = {(r["capacitance_f"], r["fix_interval_s"]): int(r["total_fixes"]) for r in rows}
    assert by_cell[("2.5", "120")] > by_cell[("2.5", "300")]
    assert "comparison table" in capsys.readouterr().out


def test_sweep_is_deterministic(tmp_path):
    spec = tmp_path / "sweep.yaml"
    spec.write_text("capacitors: [2.5]\nfix_intervals_s: [300]\ngenerate: {days: 1}\n")
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["sweep", "--spec", str(spec), "--out", str(a)]) == EXIT_OK
    assert main(["sweep", "--spec", str(spec), "--out", str(b)]) == EXIT_OK
    assert (a / "comparison.csv").read_bytes() == (b / "comparison.csv").read_bytes()
    cell = "c2.5F_i300s"
    assert (a / cell / "timeseries.csv").read_bytes() == (b / cell / "timeseries.csv").read_bytes()


def test_sweep_bad_spec(tmp_path, capsys):
    spec = tmp_path / "sweep.yaml"
    spec.write_text("capacitors: [2.5]\nfix_intervals_s: [90]\n")
    code = main(["sweep", "--spec", str(spec), "--out", str(tmp_path / "grid")])
    assert code == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err
    assert not (tmp_path / "grid").exists()  # nothing ran


@pytest.mark.parametrize("days", ["0", "-1"])
def test_simulate_rejects_days_below_one(tmp_path, capsys, days):
    out = tmp_path / "run"
    assert main(["simulate", "--out", str(out), "--days", days]) == EXIT_CONFIG
    assert "--days must be >= 1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("days", ["0", "-1"])
def test_simulate_with_trace_rejects_days_below_one(tmp_path, capsys, days):
    sun = tmp_path / "sun.csv"
    assert main(["gen-solar", "--out", str(sun), "--days", "1"]) == EXIT_OK
    out = tmp_path / "run"
    assert main(["simulate", "--trace", str(sun), "--out", str(out), "--days", days]) == EXIT_CONFIG
    assert "--days must be >= 1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("days", ["0", "-1"])
def test_sweep_rejects_days_below_one(tmp_path, capsys, days):
    spec = tmp_path / "sweep.yaml"
    spec.write_text("capacitors: [2.5]\nfix_intervals_s: [300]\ngenerate: {days: 1}\n")
    out = tmp_path / "grid"
    assert main(["sweep", "--spec", str(spec), "--out", str(out), "--days", days]) == EXIT_CONFIG
    assert "--days must be >= 1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--trace", "{tmp}/kin.csv", "--days", "3"],
        ["simulate", "--days", "3", "--trace", "{tmp}/sun.csv"],
        ["sweep", "--spec", "{tmp}/trace.yaml", "--days", "3"],
        ["sweep", "--spec", "{tmp}/generate.yaml", "--days", "3"],
    ],
    ids=["simulate_harvest", "simulate_irradiance", "sweep_trace", "sweep_generate"],
)
def test_days_past_the_trace_end_are_a_trace_error(tmp_path, capsys, argv):
    # The run was cut to the trace: exit 0 and "simulated 2 day(s)".
    assert main(["gen-kinetic", "--out", str(tmp_path / "kin.csv"), "--days", "2"]) == EXIT_OK
    assert main(["gen-solar", "--out", str(tmp_path / "sun.csv"), "--days", "2"]) == EXIT_OK
    (tmp_path / "trace.yaml").write_text(f"capacitors: [2.5, 5.0]\nfix_intervals_s: [120]\ntrace: {tmp_path}/kin.csv\n")
    (tmp_path / "generate.yaml").write_text("capacitors: [2.5]\nfix_intervals_s: [120]\ngenerate: {days: 2}\n")
    capsys.readouterr()
    out = tmp_path / "out"
    assert main([arg.format(tmp=tmp_path) for arg in argv] + ["--out", str(out)]) == EXIT_TRACE
    assert "trace covers 172800 s, shorter than requested 259200 s" in capsys.readouterr().err
    assert not out.exists()


def test_days_up_to_the_trace_end_run(tmp_path, capsys):
    kin = tmp_path / "kin.csv"
    assert main(["gen-kinetic", "--out", str(kin), "--days", "2"]) == EXIT_OK
    for days in ("1", "2"):
        assert main(["simulate", "--trace", str(kin), "--days", days, "--out", str(tmp_path / days)]) == EXIT_OK
        assert f"simulated {days} day(s)" in capsys.readouterr().out


def test_simulate_rejects_turn_on_at_or_above_v_max(tmp_path, capsys):
    # Exit 0 before, with 0 fixes: the device could never power on.
    config = tmp_path / "config.yaml"
    config.write_text("thresholds:\n  v_turn_on: 6.0\n")
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(config), "--out", str(out), "--days", "2"]) == EXIT_CONFIG
    assert "need v_turn_on < v_max, got 6.0 / 5.5" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    ("text", "given"),
    [
        ("intervals:\n  fix_s: 90.5\n", "90.5"),  # was truncated to 90, and the error named 90
        ("sim:\n  random_seed: 1.7\n", "1.7"),  # ran with seed 1
        ("intervals:\n  base_tick_s: 60.9\n", "60.9"),  # ran with 60 s ticks
    ],
    ids=["fix_s", "random_seed", "base_tick_s"],
)
def test_simulate_rejects_fractional_whole_number_fields(tmp_path, capsys, text, given):
    config = tmp_path / "config.yaml"
    config.write_text(text)
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(config), "--out", str(out), "--days", "1"]) == EXIT_CONFIG
    assert f"must be a whole number, got {given}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "text",
    [
        "sim:\n  initial_voltage: .nan\n",  # ran to the end with a NaN ledger
        "capacitor:\n  capacitance_f: .nan\n",  # ValueError traceback
        "capacitor:\n  capacitance_f: 2.5\n  leakage_ma: .inf\n",
        "thresholds:\n  cold_start: -.inf\n",
        "ephemeris:\n  hot_limit_s: .inf\n",
        "harvest:\n  combiner_efficiency: .nan\n",
        "intervals:\n  transmit_s: .inf\n",
    ],
    ids=["initial_voltage", "capacitance_f", "leakage_ma", "cold_start", "hot_limit_s", "combiner_efficiency",
         "transmit_s"],
)
def test_simulate_rejects_non_finite_config_numbers(tmp_path, capsys, text):
    config = tmp_path / "config.yaml"
    config.write_text(text)
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(config), "--out", str(out), "--days", "1"]) == EXIT_CONFIG
    assert "must be finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    ("text", "message"),
    [
        # Ran as 120 s and as 1 day.
        ("fix_intervals_s: [120.7]\n", "sweep.fix_intervals_s[0] must be a whole number, got 120.7"),
        ("fix_intervals_s: [120]\ngenerate: {days: 1.9}\n", "generate.days must be a whole number, got 1.9"),
        # Raised int() and float() tracebacks.
        ("fix_intervals_s: [120, abc]\n", "sweep.fix_intervals_s[1] must be a number, got 'abc'"),
        ("capacitors: [{capacitance_f: x, leakage_ma: 0.016}]\nfix_intervals_s: [120]\n",
         "sweep.capacitors[0].capacitance_f must be a number, got 'x'"),
        # Quoted numbers were accepted, unlike in a config file.
        ('capacitors: [{capacitance_f: "2.5", leakage_ma: "0.016"}]\nfix_intervals_s: [120]\n',
         "sweep.capacitors[0].capacitance_f must be a number, got '2.5'"),
        ("capacitors: [{capacitance_f: 2.5, leakage_ma: .nan}]\nfix_intervals_s: [120]\n",
         "sweep.capacitors[0].leakage_ma must be finite, got nan"),
        ("capacitors: [2.5, .inf]\nfix_intervals_s: [120]\n", "sweep.capacitors[1].capacitance_f must be finite"),
        # Raised tracebacks from the generators.
        ("fix_intervals_s: [120]\ngenerate: {days: 0}\n", "generate: days must be >= 1, got 0"),
        ("fix_intervals_s: [120]\ngenerate: {kinetic: {seed: -1}}\n", "generate.kinetic: seed must be >= 0, got -1"),
        ("fix_intervals_s: [120]\ngenerate: {solar: {sunrise_min: 1005, sunset_min: 510}}\n",
         "generate.solar: need 0 <= sunrise < sunset <= 1440, got 1005 / 510"),
        ("fix_intervals_s: [120]\ngenerate: {solar: {cloud_amplitude: 1.5}}\n",
         "generate.solar: cloud amplitude must be in [0, 1], got 1.5"),
        ("fix_intervals_s: [120]\ngenerate: {solar: {peak_wm2: -1}}\n", "generate.solar: peak must be >= 0, got -1.0"),
        ("fix_intervals_s: [120]\ngenerate: {solar: {cloud_correlation_min: 0}}\n",
         "generate.solar: cloud correlation must be > 0 minutes, got 0.0"),
        ("fix_intervals_s: [120]\ngenerate: {solar: {cloud_correlation_min: -5}}\n",
         "generate.solar: cloud correlation must be > 0 minutes, got -5.0"),
        # Raised numpy's "expected non-negative integer".
        ("fix_intervals_s: [120]\nbase: {sim: {random_seed: -3}}\n", "random_seed must be >= 0, got -3"),
        # Dropped without a word: the grid sets both in every cell.
        ("fix_intervals_s: [600]\nbase: {capacitor: {capacitance_f: 1.0}, sim: {initial_voltage: 3.0}}\n",
         "sweep.base.capacitor is set in every cell by sweep.capacitors"),
        ("fix_intervals_s: [600]\nbase: {intervals: {fix_s: 120, transmit_s: 7200}}\n",
         "sweep.base.intervals.fix_s is set in every cell by sweep.fix_intervals_s"),
        # Two cells wrote one directory and two identical comparison rows.
        ("fix_intervals_s: [120, 120]\n",
         "sweep.capacitors[0] x sweep.fix_intervals_s[0] and sweep.capacitors[0] x sweep.fix_intervals_s[1]"
         " both name cell c2.5F_i120s"),
        ("capacitors: [2.5, {capacitance_f: 2.5000001, leakage_ma: 0.016}]\nfix_intervals_s: [120]\n",
         "sweep.capacitors[0] x sweep.fix_intervals_s[0] and sweep.capacitors[1] x sweep.fix_intervals_s[0]"
         " both name cell c2.5F_i120s"),
    ],
    ids=["fractional_interval", "fractional_days", "text_interval", "text_capacitance", "quoted_numbers",
         "nan_leakage", "inf_size", "zero_days", "negative_kinetic_seed", "sunrise_after_sunset",
         "cloud_amplitude", "negative_peak", "zero_correlation", "negative_correlation", "negative_random_seed",
         "base_capacitor", "base_fix_interval", "repeated_interval", "same_named_capacitor"],
)
def test_sweep_rejects_malformed_entries(tmp_path, capsys, text, message):
    spec = tmp_path / "sweep.yaml"
    spec.write_text(text if text.startswith("capacitors") else "capacitors: [2.5]\n" + text)
    out = tmp_path / "grid"
    assert main(["sweep", "--spec", str(spec), "--out", str(out), "--days", "1"]) == EXIT_CONFIG
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--seed", "-1", "--days", "1"],
        ["simulate", "--config", "{tmp}/config.yaml", "--days", "1"],
        ["sweep", "--spec", "{tmp}/sweep.yaml", "--seed", "-1"],
    ],
    ids=["simulate", "config", "sweep"],
)
def test_negative_seed_is_a_config_error(tmp_path, capsys, argv):
    # numpy's default_rng raised "expected non-negative integer": a traceback.
    (tmp_path / "config.yaml").write_text("sim:\n  random_seed: -3\n")
    (tmp_path / "sweep.yaml").write_text("capacitors: [2.5]\nfix_intervals_s: [120]\ngenerate: {days: 1}\n")
    out = tmp_path / "out"
    assert main([arg.format(tmp=tmp_path) for arg in argv] + ["--out", str(out)]) == EXIT_CONFIG
    assert "random_seed must be >= 0, got -" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "text",
    ['"timestamp","irradiance_wm2"\n0,5\n60,6\n', '"t_s","solar_a","kinetic_a","combined_a"\n0,0,0,0\n60,0,0,0\n'],
    ids=["irradiance", "harvest"],
)
def test_simulate_reads_quoted_trace_header(tmp_path, text):
    # The header was split on commas with its quotes left on: exit 3, "unrecognized header".
    trace = tmp_path / "trace.csv"
    trace.write_text(text)
    out = tmp_path / "out"
    assert main(["simulate", "--trace", str(trace), "--out", str(out)]) == EXIT_OK
    assert json.loads((out / "metrics.json").read_text())["total_fixes"] >= 0


def test_simulate_applies_combiner_efficiency_to_harvest_trace(tmp_path):
    # A harvest file's combined_a used to be read as written, ignoring the
    # config's harvest.combiner_efficiency.
    solar = [0.0, 1.234567e-4, 3.3e-3, 2.0e-5, 7.77e-4, 0.0]
    kinetic = [2.5e-5, 0.0, 1.1e-6, 3.0e-5, 9.5e-6, 0.0]
    lines = ["t_s,solar_a,kinetic_a,combined_a"]
    lines += [f"{60 * i},{s!r},{k!r},{s + k!r}" for i, (s, k) in enumerate(zip(solar, kinetic))]
    trace = tmp_path / "trace.csv"
    trace.write_text("\n".join(lines) + "\n")
    config = tmp_path / "config.yaml"
    config.write_text("harvest:\n  combiner_efficiency: 0.5\n")
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(config), "--trace", str(trace), "--out", str(out)]) == EXIT_OK
    with open(out / "timeseries.csv", newline="") as handle:
        rows = list(csv.DictReader(handle))
    assert len(rows) > len(solar)
    for row in rows:
        step = min(int(float(row["t_s"]) // 60), len(solar) - 1)
        assert row["i_combined_a"] == "%.9e" % (0.5 * (solar[step] + kinetic[step]))
        assert row["i_solar_a"] == "%.9e" % solar[step]


def test_simulate_rejects_unknown_trace_header(tmp_path, capsys):
    trace = tmp_path / "trace.csv"
    trace.write_text("time,value\n0,5\n")
    assert main(["simulate", "--trace", str(trace), "--out", str(tmp_path / "out")]) == EXIT_TRACE
    assert "unrecognized header 'time,value'" in capsys.readouterr().err


@pytest.mark.parametrize(
    ("value", "shown"),
    [("[a.csv]", "['a.csv']"), ("987654", "987654"), ("true", "True"), ('""', "''")],
    ids=["list", "int", "bool", "empty"],
)
def test_sweep_trace_must_be_a_path(tmp_path, capsys, value, shown):
    # A list raised a TypeError traceback from open(); an int or a bool was
    # opened as a file descriptor.
    spec = tmp_path / "sweep.yaml"
    spec.write_text(f"capacitors: [2.5]\nfix_intervals_s: [120]\ntrace: {value}\n")
    out = tmp_path / "grid"
    assert main(["sweep", "--spec", str(spec), "--out", str(out)]) == EXIT_CONFIG
    assert f"sweep.trace must be a non-empty path, got {shown}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(("argv", "imported"), [
    (["gen-solar", "--days", "1", "--out", "sun.csv"], "False"),
    (["gen-kinetic", "--days", "1", "--out", "kin.csv"], "False"),
    (["simulate", "--config", "cfg.yaml", "--days", "1", "--out", "run"], "True"),
])
def test_only_commands_that_read_yaml_import_it(tmp_path, argv, imported):
    # The engine, the device model and json, too, are loaded only by the
    # command that simulates.
    (tmp_path / "cfg.yaml").write_text("intervals: {fix_s: 600}\n")
    probe = (
        "import sys; from captrack.cli import main; code = main(sys.argv[1:]); "
        "print(code, *(m in sys.modules for m in ('yaml', 'captrack.engine', 'captrack.energy_model', 'json')))"
    )
    run = subprocess.run(
        [sys.executable, "-c", probe, *argv], cwd=tmp_path, capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": SRC},
    )
    assert run.stdout.splitlines()[-1] == " ".join(["0", *[imported] * 4])


def test_bare_import_loads_nothing_until_a_name_is_used():
    probe = (
        "import sys, captrack\n"
        "def loaded(): return sorted(m for m in sys.modules if m.startswith('captrack.')), 'numpy' in sys.modules\n"
        "print(loaded())\n"
        "captrack.ConfigError\n"
        "print(loaded())\n"
        "captrack.SolarProfile\n"
        "print(loaded())\n"
    )
    run = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, timeout=120, env={**os.environ, "PYTHONPATH": SRC},
        check=True,
    )
    assert run.stdout.splitlines() == [
        "([], False)",
        "(['captrack.errors'], False)",
        "(['captrack.errors', 'captrack.harvest'], True)",
    ]


# A stand-in set on either module before the command binds its names is the
# one called: a lazy binding must not overwrite it, or a tracer that wraps
# these names would record nothing.
STAND_INS = """\
import sys
import captrack.cli as cli
import captrack.configfile as configfile
from captrack.energy_model import validate_config

calls = []

def stand_in(where):
    def validate(config):
        calls.append(where)
        return validate_config(config)
    return validate

cli.validate_config = stand_in("cli")
configfile.validate_config = stand_in("configfile")
code = cli.main(sys.argv[1:])
print(code, sorted(set(calls)), cli.validate_config.__qualname__, configfile.validate_config.__qualname__)
"""


@pytest.mark.parametrize(("argv", "called"), [
    (["simulate", "--config", "cfg.yaml", "--days", "1", "--out", "run"], "['configfile']"),
    (["simulate", "--days", "1", "--out", "run"], "['cli']"),
    (["sweep", "--spec", "sweep.yaml", "--out", "grid"], "['configfile']"),
])
def test_stand_ins_set_before_the_first_use_are_called(tmp_path, argv, called):
    (tmp_path / "cfg.yaml").write_text("intervals: {fix_s: 600}\n")
    (tmp_path / "sweep.yaml").write_text("capacitors: [2.5]\nfix_intervals_s: [120, 600]\ngenerate: {days: 1}\n")
    run = subprocess.run(
        [sys.executable, "-c", STAND_INS, *argv], cwd=tmp_path, capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": SRC}, check=True,
    )
    assert run.stdout.splitlines()[-1] == f"0 {called} stand_in.<locals>.validate stand_in.<locals>.validate"


def test_config_error_is_one_class_wherever_it_is_imported():
    import captrack
    import captrack.configfile
    import captrack.energy_model

    assert captrack.ConfigError is captrack.energy_model.ConfigError is captrack.configfile.ConfigError
    assert cli.ConfigError is captrack.ConfigError


UNREADABLE_TRACES = {  # text the decoder or csv.reader rejects: a traceback before
    "byte in a row": b"timestamp,irradiance_wm2\n0,1.0\n60,\xff1.0\n",
    "byte in the header": b"timestamp,irradiance_wm2\xff\n0,1.0\n",
    "cell over the field limit": b"t_s,solar_a,kinetic_a,combined_a\n0,0,0,0\n60,0,0,"
    + b"0" * (csv.field_size_limit() + 1) + b"\n",
}


@pytest.mark.parametrize("command", ["simulate", "sweep"])
@pytest.mark.parametrize("text", UNREADABLE_TRACES.values(), ids=UNREADABLE_TRACES)
def test_unreadable_trace_text_is_a_trace_error(tmp_path, capsys, command, text):
    trace = tmp_path / "trace.csv"
    trace.write_bytes(text)
    out = tmp_path / "out"
    if command == "simulate":
        argv = ["simulate", "--trace", str(trace), "--out", str(out)]
    else:
        spec = tmp_path / "sweep.yaml"
        spec.write_text(f"capacitors: [2.5]\nfix_intervals_s: [120]\ntrace: {trace}\n")
        argv = ["sweep", "--spec", str(spec), "--out", str(out)]
    assert main(argv) == EXIT_TRACE
    assert capsys.readouterr().err.startswith(f"trace error: {trace}: ")
    assert not out.exists()


@pytest.mark.parametrize("command", ["simulate", "sweep"])
def test_zero_tick_is_a_config_error(tmp_path, capsys, command):
    # The multiple-of-tick check divided by the tick: a ZeroDivisionError traceback, exit 1.
    (tmp_path / "config.yaml").write_text("intervals: {base_tick_s: 0}\n")
    (tmp_path / "sweep.yaml").write_text(
        "capacitors: [2.5]\nfix_intervals_s: [120]\nbase: {intervals: {base_tick_s: 0}}\ngenerate: {days: 1}\n"
    )
    out = tmp_path / "out"
    flag, name = ("--config", "config.yaml") if command == "simulate" else ("--spec", "sweep.yaml")
    assert main([command, flag, str(tmp_path / name), "--out", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1
    if command == "simulate":
        assert err.startswith("config error: base_tick_s must be >= 1, got 0")
    else:
        assert "base_tick_s must be >= 1, got 0" in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["simulate", "sweep"])
def test_builtin_generator_needs_a_60_s_tick(tmp_path, capsys, monkeypatch, command):
    # The generator makes a sample a minute: under a 120 s tick the run was a
    # trace error (exit 3) after the whole trace had been generated.
    (tmp_path / "config.yaml").write_text("intervals: {base_tick_s: 120, sense_s: 120}\n")
    (tmp_path / "sweep.yaml").write_text(
        "capacitors: [2.5]\nfix_intervals_s: [240]\nbase: {intervals: {base_tick_s: 120, sense_s: 120}}\n"
        "generate: {days: 1}\n"
    )
    monkeypatch.setattr(cli, "generate_synthetic_irradiance", None)  # a call would be a TypeError
    out = tmp_path / "out"
    flag, name = ("--config", "config.yaml") if command == "simulate" else ("--spec", "sweep.yaml")
    assert main([command, flag, str(tmp_path / name), "--out", str(out)]) == EXIT_CONFIG
    assert capsys.readouterr().err == (
        "config error: base_tick_s is 120 s, but the built-in generator makes 60 s samples; "
        "give a trace file on the 120 s tick\n"
    )
    assert not out.exists()


def test_irradiance_trace_follows_the_config_tick(tmp_path, monkeypatch):
    # The irradiance loader was called with its 60 s default: a 120 s file
    # under a 120 s tick was a trace error, exit 3.
    samples = generate_synthetic_irradiance(1, start_epoch_s=1735689600).samples[::2]
    trace = tmp_path / "sun120.csv"
    lines = ["timestamp,irradiance_wm2", *(f"{1735689600 + 120 * i},{x!r}" for i, x in enumerate(samples.tolist()))]
    trace.write_text("\n".join(lines) + "\n")
    config_file = tmp_path / "config.yaml"
    config_file.write_text("intervals: {base_tick_s: 120, sense_s: 120}\n")
    runs = []

    def kept(*args):
        runs.append(run_simulation(*args))
        return runs[-1]

    monkeypatch.setattr(cli, "run_simulation", kept)
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(config_file), "--trace", str(trace), "--out", str(out)]) == EXIT_OK
    (result,) = runs

    config = validate_config(SystemConfig(base_tick_s=120, sense_interval_s=120))
    solar = samples * SolarChain().current_factor
    harvest = HarvestTrace.build(solar, np.zeros_like(solar), config.combiner_efficiency, 1735689600, 120)
    expected = run_simulation(config, harvest)
    assert result.harvest.resolution_s == 120 and len(result.times_s) == 721
    assert result.harvest.combined_a.tobytes() == harvest.combined_a.tobytes()
    assert result.voltages.tobytes() == expected.voltages.tobytes()
    for name in ("time_s", "kind", "voltage_before", "voltage_after", "detail"):
        assert getattr(result.log, name).tobytes() == getattr(expected.log, name).tobytes()
    assert result.ledger == expected.ledger
    assert result.metrics == expected.metrics


BAD_CONFIGS = {  # config text -> what its error message must contain
    "capacitance": ("capacitor: {capacitance_f: 0, leakage_ma: 0.016}\n", "capacitance must be positive, got 0.0"),
    "leakage": ("capacitor: {capacitance_f: 2.5, leakage_ma: 0}\n", "leakage_ma must be positive, got 0.0"),
    "v_max": ("capacitor: {v_max: 0}\n", "v_max must be positive, got 0.0"),
    "v_supply": ("sim: {v_supply: 0}\n", "v_supply must be positive, got 0.0"),
    "negative_tick": ("intervals: {base_tick_s: -60}\n", "base_tick_s must be >= 1, got -60"),
    "initial_voltage": ("sim: {initial_voltage: -1}\n", "initial_voltage must be >= 0, got -1.0"),
    "interval": ("intervals: {fix_s: 0}\n", "fix_interval_s=0 must be positive (or None to disable)"),
    "refresh_after_hot": ("ephemeris: {refresh_age_s: 20000}\n", "need 0 < refresh_age < hot_limit, got 20000 / 14400"),
    "hot_after_warm": ("ephemeris: {hot_limit_s: 200000}\n", "need hot_limit < warm_limit, got 200000 / 172800"),
    "combiner_efficiency": ("harvest: {combiner_efficiency: 1.5}\n", "combiner_efficiency must be in (0, 1], got 1.5"),
    "ephemeris_age": ("sim: {initial_ephemeris_age_s: -1}\n", "initial_ephemeris_age_s must be >= 0, got -1"),
    "derived_cold_start": (
        "capacitor: {capacitance_f: 0.01, leakage_ma: 0.01}\n", "derived cold_start threshold 14.02 outside [v_min, v_max)"
    ),
    "subnormal_leakage": (
        "capacitor: {leakage_ma: 5.0e-324}\n", "R = v_supply / current or R C is zero, subnormal or infinite for TurnedOff"
    ),
    "subnormal_resistance": (
        "sim: {v_supply: 2.2e-308}\ncapacitor: {leakage_ma: 9223372036854775808}\n", "infinite for HotStart, WarmStart"
    ),
    "subnormal_time_constant": (
        "capacitor: {capacitance_f: 1.0e-20, leakage_ma: 0.016}\nsim: {v_supply: 1.0e-300}\n", "infinite for HotStart"
    ),
    "infinite_cold_bound": (
        "capacitor: {capacitance_f: 5.0e-324, leakage_ma: 0.016}\nsim: {v_supply: 1.0e+300}\n",
        "derived cold_start bound inf V is not finite",
    ),
    "squared_v_min_past_float_range": (
        "capacitor: {v_max: 1.0e+300}\nthresholds: {v_min: 1.0e+200, v_turn_on: 2.0e+200, hot_start: 1.0e+200, "
        "hot_ephemeris: 1.0e+200, warm_ephemeris: 1.0e+200, nbiot: 1.0e+200}\n",
        "derived cold_start bound inf V is not finite",
    ),
    "interval_past_int64": (  # a multiple of the tick, so only its size is wrong
        "intervals: {transmit_s: 9223372036854775860}\n", "transmit_interval_s=9223372036854775860 must be below 2^63 s"
    ),
    "unparseable_yaml": ("intervals: [\n", "unparseable config file {path}: "),
    "int_past_float_range": ("sim: {initial_voltage: 1" + "0" * 400 + "}\n", "sim.initial_voltage must be finite, got 1000"),
}


@pytest.mark.parametrize(("text", "message"), BAD_CONFIGS.values(), ids=BAD_CONFIGS)
def test_simulate_reports_each_config_error(tmp_path, capsys, text, message):
    config = tmp_path / "config.yaml"
    config.write_text(text)
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(config), "--out", str(out), "--days", "1"]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and message.format(path=config) in err
    assert not out.exists()


ZERO_DECAY_RUNS = {  # config text, trace file text (None: a 1-day gen-solar trace)
    "tiny_v_supply": ("sim: {v_supply: 1.0e-10}\n", None),
    "giga_second_tick": (
        "intervals: {base_tick_s: 1000000000, sense_s: null, fix_s: null, transmit_s: null}\n",
        "t_s,solar_a,kinetic_a,combined_a\n0,0,0,0\n1000000000,0,0,0\n",
    ),
}


@pytest.mark.parametrize(("config_text", "trace_text"), ZERO_DECAY_RUNS.values(), ids=ZERO_DECAY_RUNS)
def test_segments_that_decay_to_zero_run_and_close(tmp_path, capsys, config_text, trace_text):
    # Segments whose exp(-x) is 0: a 1e-10 V supply makes every load's tau
    # tiny, and a 1e9 s tick is long. Both ran into an OverflowError traceback
    # (exit 1) once, in a start-voltage bound the engine no longer has.
    trace = tmp_path / "trace.csv"
    if trace_text is None:
        assert main(["gen-solar", "--out", str(trace), "--days", "1"]) == EXIT_OK
    else:
        trace.write_text(trace_text)
    config = tmp_path / "config.yaml"
    config.write_text(config_text)
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(config), "--trace", str(trace), "--out", str(out)]) == EXIT_OK
    assert "Traceback" not in capsys.readouterr().err
    ledger = json.loads((out / "ledger.json").read_text())
    assert abs(ledger["closure_error_j"]) <= 1e-9 * ledger["harvested_in_j"]


# Extremes of each field's schema type, drawn 1-4 fields at a time.
EXTREMES = (0, 5e-324, 1e-300, 1e300, -1e300, 2**63 - 1, 2**63, 10**30, -1, None)
CONFIG_KEYS = tuple(
    (section, key) for section in configfile.CONFIG_SECTIONS for key in configfile.SECTIONS[section][1]
)


@settings(max_examples=300, deadline=None)
@given(st.dictionaries(st.sampled_from(CONFIG_KEYS), st.sampled_from(EXTREMES), min_size=1, max_size=4))
def test_extreme_configs_exit_with_a_code_and_a_finite_ledger(fields):
    # Each config runs or is rejected with its exit code, never a traceback.
    # A run's ledger closes relative to its own energy scale: what flowed
    # through it, and the most the capacitor stored. A 9.2e18 F capacitor
    # changes by less than one ulp a tick, so its delta_stored_j reads 0 and
    # its closure error is that resolution at a ~1e20 J scale.
    data = {}
    for (section, key), value in fields.items():
        data.setdefault(section, {})[key] = value
    with tempfile.TemporaryDirectory() as work:
        work = Path(work)
        (work / "config.yaml").write_text(json.dumps(data))  # JSON is YAML
        (work / "trace.csv").write_text("t_s,solar_a,kinetic_a,combined_a\n0,0.001,0.0005,0\n60,0.002,0,0\n")
        argv = ["simulate", "--config", str(work / "config.yaml"), "--trace", str(work / "trace.csv")]
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)  # safe-bound warnings
                code = main([*argv, "--out", str(work / "out")])
        assert code in (EXIT_OK, EXIT_CONFIG, EXIT_TRACE)
        if code == EXIT_OK:
            ledger = json.loads((work / "out" / "ledger.json").read_text())
            values = [*ledger.pop("consumed_by_task_j").values(), *ledger.values()]
            assert all(math.isfinite(value) for value in values), ledger
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)
                config = configfile.load_config(str(work / "config.yaml"))
            capacitor = config.capacitor
            peak = max(capacitor.v_max, config.initial_voltage)
            stored = 0.5 * capacitor.capacitance_f * peak * peak  # inf where it overflows, not an OverflowError
            scale = ledger["harvested_in_j"] + ledger["consumed_total_j"] + ledger["discarded_at_clamp_j"] + stored
            assert abs(ledger["closure_error_j"]) <= 1e-9 * scale, ledger


GEN_FLAGS = {
    command: (*extra, *(key.replace("_", "-") for key in configfile.GENERATOR_SECTIONS[section][1]))
    for command, section, extra in (
        ("gen-solar", "solar", ("start-epoch",)), ("gen-kinetic", "kinetic", ("v-supply", "efficiency")),
    )
}
GEN_DAYS = (0, -1, 1, 2, 10**12, 2**63 - 1, 2**63, 10**30)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(sorted(GEN_FLAGS)).flatmap(lambda command: st.tuples(
    st.just(command),
    st.dictionaries(
        st.sampled_from(GEN_FLAGS[command]), st.sampled_from([*EXTREMES[:-1], math.nan, math.inf]),
        min_size=1, max_size=3,
    ),
    st.sampled_from(GEN_DAYS),
)))
def test_extreme_generator_flags_exit_with_a_code_and_a_finite_trace(case):
    # Each flag set writes a trace of finite values or is rejected with exit 2
    # (argparse's own exit for a flag it types), never a traceback.
    command, flags, days = case
    with tempfile.TemporaryDirectory() as work:
        out = Path(work) / "trace.csv"
        argv = [command, f"--days={days}", *(f"--{flag}={value}" for flag, value in flags.items()), f"--out={out}"]
        stderr = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
        assert code in (EXIT_OK, EXIT_CONFIG) and "Traceback" not in stderr.getvalue(), stderr.getvalue()
        if code == EXIT_OK:
            assert np.isfinite(np.loadtxt(out, delimiter=",", skiprows=1)).all()
        else:
            assert not out.exists()


@pytest.mark.parametrize("days", [10**12, 2**63 - 1, 2**63, 10**30])
@pytest.mark.parametrize("command", ["gen-solar", "gen-kinetic", "simulate", "sweep"])
def test_days_the_generators_cannot_hold_are_a_config_error(tmp_path, capsys, command, days):
    # 10^12 days of minutes do not fit in memory, and the rest's seconds not in
    # int64. Each was a traceback (exit 1), or blamed --v-supply or --start-epoch.
    out = tmp_path / "out"
    if command == "sweep":
        spec = tmp_path / "sweep.yaml"
        spec.write_text(f"capacitors: [2.5]\nfix_intervals_s: [120]\ngenerate: {{days: {days}}}\n")
        argv, name = ["sweep", "--spec", str(spec)], "generate.days"
    else:
        argv, name = [command, "--days", str(days)], "--days"
    assert main([*argv, "--out", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {name} {days}: ") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("command", ["simulate", "sweep"])
def test_empty_trace_file_is_a_trace_error(tmp_path, capsys, command):
    trace = tmp_path / "trace.csv"
    trace.write_text("")
    out = tmp_path / "out"
    if command == "simulate":
        argv = ["simulate", "--trace", str(trace), "--out", str(out)]
    else:
        spec = tmp_path / "sweep.yaml"
        spec.write_text(f"capacitors: [2.5]\nfix_intervals_s: [120]\ntrace: {trace}\n")
        argv = ["sweep", "--spec", str(spec), "--out", str(out)]
    assert main(argv) == EXIT_TRACE
    assert capsys.readouterr().err == f"trace error: {trace}: empty file\n"
    assert not out.exists()
