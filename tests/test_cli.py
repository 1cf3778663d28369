"""Command-line interface: exit codes, outputs, determinism."""

import csv
import json

import pytest

from captrack.cli import EXIT_CONFIG, EXIT_IO, EXIT_OK, EXIT_TRACE, main
from captrack.harvest import load_harvest_csv, load_irradiance_csv


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


def test_simulate_missing_trace(tmp_path, capsys):
    code = main(["simulate", "--trace", str(tmp_path / "nope.csv"), "--out", str(tmp_path / "out")])
    assert code == EXIT_TRACE
    assert "trace error" in capsys.readouterr().err


def test_simulate_builtin_day(tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["simulate", "--out", str(out), "--days", "1"]) == EXIT_OK
    for name in ("timeseries.csv", "metrics.json", "ledger.json"):
        assert (out / name).exists()
    metrics = json.loads((out / "metrics.json").read_text())
    assert metrics["total_fixes"] == 720
    assert metrics["depletion_count"] == 0
    ledger = json.loads((out / "ledger.json").read_text())
    assert abs(ledger["closure_error_j"]) < 1e-6
    assert "720 fixes" in capsys.readouterr().out


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
    ],
    ids=["fractional_interval", "fractional_days", "text_interval", "text_capacitance", "quoted_numbers",
         "nan_leakage", "inf_size"],
)
def test_sweep_rejects_malformed_entries(tmp_path, capsys, text, message):
    spec = tmp_path / "sweep.yaml"
    spec.write_text(text if text.startswith("capacitors") else "capacitors: [2.5]\n" + text)
    out = tmp_path / "grid"
    assert main(["sweep", "--spec", str(spec), "--out", str(out), "--days", "1"]) == EXIT_CONFIG
    assert message in capsys.readouterr().err
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
