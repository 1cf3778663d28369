"""Sweep cells run in a fork pool over the usable CPUs: the same bytes and the
same errors as one after another, no process left behind, and each
safe-bound warning shown once per command."""

import contextlib
import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from captrack.cli import EXIT_CONFIG, EXIT_IO, EXIT_OK, EXIT_TRACE, main
from captrack.errors import ConfigError
from captrack.harvest import HarvestTrace, save_harvest_csv

SRC = str(Path(__file__).resolve().parents[1] / "src")

# Four cells of one dark day from 2.5 V: depletions, skips and recoveries.
SPEC = """\
capacitors: [1.0, 2.5]
fix_intervals_s: [120, 600]
generate:
  days: 1
  solar: {peak_wm2: 40.0}
base:
  sim: {initial_voltage: 2.5}
"""


@contextlib.contextmanager
def one_cpu():
    """Pin this process (and what it starts) to one CPU; restore on exit."""
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    try:
        yield
    finally:
        os.sched_setaffinity(0, cpus)


def tree(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def no_children_left() -> bool:
    return multiprocessing.active_children() == []


def test_sweep_bytes_do_not_depend_on_the_cpus(tmp_path, monkeypatch, capsys):
    (tmp_path / "sweep.yaml").write_text(SPEC)
    runs = {}
    for name, cpus in (("all", contextlib.nullcontext()), ("one", one_cpu())):
        (tmp_path / name).mkdir()
        monkeypatch.chdir(tmp_path / name)
        with cpus:
            assert main(["sweep", "--spec", "../sweep.yaml", "--out", "grid"]) == EXIT_OK
        runs[name] = (tree(tmp_path / name), capsys.readouterr().out)
        assert no_children_left()
    assert runs["all"] == runs["one"]
    files, stdout = runs["all"]
    assert len(files) == 4 * 4 + 1
    assert stdout.count(" depletions\n") == 4


def write_trace(path: Path) -> None:
    """One day of steady kinetic harvest at 60 s resolution."""
    n = 1440
    save_harvest_csv(HarvestTrace.build(np.zeros(n), np.full(n, 2e-4)), str(path))


def test_worker_trace_error_keeps_exit_code_and_text(tmp_path, capsys):
    write_trace(tmp_path / "kin.csv")
    spec = tmp_path / "sweep.yaml"
    spec.write_text(
        f"capacitors: [1.0, 2.5]\nfix_intervals_s: [120, 240]\ntrace: {tmp_path / 'kin.csv'}\n"
        "base:\n  intervals: {base_tick_s: 120, sense_s: 120}\n"
    )
    assert main(["sweep", "--spec", str(spec), "--out", str(tmp_path / "grid")]) == EXIT_TRACE
    err = capsys.readouterr().err
    assert err == "trace error: trace resolution 60 s != base tick 120 s\n"
    assert no_children_left()


def test_worker_config_error_keeps_its_list(tmp_path, capsys, monkeypatch):
    # The error crosses the pool pickled; rebuilt from its joined text, it
    # would read as one error per character.
    def refuse(config, trace, duration):
        raise ConfigError(["first cell refused", "for two reasons"])

    monkeypatch.setattr("captrack.cli.run_simulation", refuse)  # forked workers inherit it
    (tmp_path / "sweep.yaml").write_text(SPEC)
    assert main(["sweep", "--spec", str(tmp_path / "sweep.yaml"), "--out", str(tmp_path / "grid")]) == EXIT_CONFIG
    assert capsys.readouterr().err == "config error: first cell refused; for two reasons\n"
    assert no_children_left()


def test_worker_io_error_keeps_exit_code(tmp_path, capsys):
    (tmp_path / "sweep.yaml").write_text(SPEC)
    out = tmp_path / "grid"
    out.mkdir()
    (out / "c1F_i600s").write_text("in the way")  # the second cell's directory
    assert main(["sweep", "--spec", str(tmp_path / "sweep.yaml"), "--out", str(out)]) == EXIT_IO
    err = capsys.readouterr().err
    assert err.startswith("i/o error: ") and "c1F_i600s" in err and err.count("\n") == 1
    assert not (out / "comparison.csv").exists()
    assert no_children_left()


def cli(tmp_path: Path, *argv: str) -> subprocess.CompletedProcess:
    """The CLI in a fresh interpreter, with Python's default warning filters."""
    env = {**os.environ, "PYTHONPATH": SRC}
    env.pop("PYTHONWARNINGS", None)
    return subprocess.run(
        [sys.executable, "-m", "captrack.cli", *argv], cwd=tmp_path, env=env, capture_output=True, text=True,
        timeout=120,
    )


def warnings_in(stderr: str) -> list[str]:
    return [line.split("UserWarning: ", 1)[1] for line in stderr.splitlines() if "UserWarning: " in line]


def test_simulate_warns_once_per_threshold(tmp_path):
    (tmp_path / "low.yaml").write_text("thresholds: {nbiot: 1.81}\n")
    run = cli(tmp_path, "simulate", "--config", "low.yaml", "--days", "1", "--out", "run")
    assert run.returncode == EXIT_OK
    assert warnings_in(run.stderr) == ["threshold nbiot=1.810 V is below its safe bound 1.9165 V"]


def test_sweep_warns_once_per_threshold_whatever_the_workers(tmp_path):
    (tmp_path / "sweep.yaml").write_text(SPEC)
    shown = {}
    for name, cpus in (("all", contextlib.nullcontext()), ("one", one_cpu())):
        with cpus:
            run = cli(tmp_path, "sweep", "--spec", "sweep.yaml", "--out", name)
        assert run.returncode == EXIT_OK
        shown[name] = warnings_in(run.stderr)
    # The stock thresholds sit below three of the 1 F part's safe bounds.
    assert len(shown["all"]) == len(set(shown["all"])) == 3
    assert shown["all"] == shown["one"]


@pytest.mark.parametrize(("jitter", "imported"), [("false", "False"), ("true", "True")])
def test_jitter_free_run_never_imports_numpy_random(tmp_path, jitter, imported):
    write_trace(tmp_path / "kin.csv")
    (tmp_path / "cfg.yaml").write_text(f"sim: {{task_jitter: {jitter}}}\n")
    probe = (
        "import sys; from captrack.cli import main; "
        "code = main(sys.argv[1:]); print(code, 'numpy.random' in sys.modules)"
    )
    run = subprocess.run(
        [sys.executable, "-c", probe, "simulate", "--trace", "kin.csv", "--config", "cfg.yaml", "--out", "run"],
        cwd=tmp_path, env={**os.environ, "PYTHONPATH": SRC}, capture_output=True, text=True, timeout=120,
    )
    assert run.stdout.splitlines()[-1] == f"0 {imported}"
