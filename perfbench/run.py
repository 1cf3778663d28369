"""captrack benchmark: CLI workloads timed end to end, outputs checked, and a
separate traced run split by layer.

Run from the repository root:

    python3 perfbench/run.py --workload winter-dense --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --self-test
    python3 perfbench/run.py --record-reference 0-39,104729

Each workload run executes the workload's captrack commands one after the
other, each in a fresh interpreter (`python3 -m captrack.cli ...`) with
PYTHONPATH pointing at this checkout's src/. Runs repeat until --seconds is
used up (at least three with --trace 0). Every untraced run comes after a
fixed calibration task (perfbench/calib.py) and a set-up probe
(perfbench/probe.py), each in a fresh interpreter. The end-to-end times
are the invocation's mean run and probe times, scaled to the reference host
by its mean calibration time, so that the host getting faster or slower
for minutes at a time does not show as a change of captrack. Per-layer
times are medians over traced runs. With --trace 0 the last line of standard output carries the
end-to-end metrics; with --trace 1 it carries the per-layer metrics of
traced runs (perfbench/tracer.py), the raw host times and the tracing
overhead against untraced runs made in the same invocation. Metric names,
units and directions are those of BENCHMARK.json; perfbench/METRICS.md
says which layer metric should move which end-to-end metric on which
workload.

Every run's outputs are checked (perfbench/checks.py); a run that fails a
check counts as failed, not as fast. Working files go to .perfbench_work/
and are removed at exit; one JSON record per invocation, with the
environment, every run's timing and the traced spans, goes to
.perfbench_results/.
"""

from __future__ import annotations

import argparse
import contextlib
import copy
import hashlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checks
import workloads

HERE = Path(__file__).resolve().parent
MIN_REPS = 3
COMMAND_TIMEOUT_S = 60
# Median wall time of perfbench/calib.py in a fresh interpreter on the
# reference host: 2 CPUs, Intel Xeon, Python 3.11.7, numpy 2.4.6. End-to-end
# times are reported in seconds of that host.
CALIB_REF_S = 0.65
# Never used while the benchmark was written; re-check claims on it.
HELD_OUT_SEED = 104729
SIMULATION_WORKLOADS = ("winter-dense", "sweep-depleting", "year-sparse")


@dataclass
class Rep:
    """One run of a workload's commands."""

    traced: bool
    wall_s: float
    cpu_s: float  # user + system time of the run's processes
    peak_rss_mb: float  # largest resident set of the run's processes
    errors: list[str] = field(default_factory=list)
    digest: str = ""
    layers: dict = field(default_factory=dict)  # traced runs: per-layer metrics
    detail: dict = field(default_factory=dict)  # traced runs: spans, time and self time per span name


class Bench:
    """One workload generated into a work directory: runs it, checks its outputs, traces it."""

    def __init__(self, root: Path, workload: str, seed: int, work: Path):
        self.root = root
        self.work = work
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(root / "src"), os.environ.get("PYTHONPATH", "")) if p
        )
        self.prepared = workloads.prepare(workload, seed, work)
        self.reference = checks.load_reference().get(workload, {}).get(str(seed))
        self.first_digest: str | None = None
        self.calibrations: list[float] = []  # calibration wall times of untraced runs
        self.setup: list[float] = []  # set-up probe wall times of untraced runs
        self.checked: dict[str, tuple[list[str], dict]] = {}  # digest -> (errors, summaries)

    # -- child processes ------------------------------------------------------

    def _run(self, cmd: list[str]) -> tuple[subprocess.CompletedProcess, resource.struct_rusage]:
        """Run cmd in the work directory; returns its result and its own resource usage.

        Waits with os.wait4, which reports this child's usage alone, so that
        calibrations and probes do not count towards a workload's peak
        resident set. Kills the child after COMMAND_TIMEOUT_S and raises
        subprocess.TimeoutExpired.
        """
        with tempfile.TemporaryFile("w+", dir=self.work) as out, tempfile.TemporaryFile("w+", dir=self.work) as err:
            proc = subprocess.Popen(cmd, cwd=self.work, env=self.env, stdout=out, stderr=err, text=True)
            timed_out = threading.Event()
            watchdog = threading.Timer(COMMAND_TIMEOUT_S, lambda: (timed_out.set(), proc.kill()))
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                watchdog.cancel()
            proc.returncode = os.waitstatus_to_exitcode(status)
            if timed_out.is_set():
                raise subprocess.TimeoutExpired(cmd, COMMAND_TIMEOUT_S)
            out.seek(0)
            err.seek(0)
            return subprocess.CompletedProcess(cmd, proc.returncode, out.read(), err.read()), usage

    def probe(self) -> float:
        """Wall time of one fresh interpreter importing the CLI and loading the config."""
        start = time.perf_counter()
        proc, _ = self._run([sys.executable, str(HERE / "probe.py"), *self.prepared.setup])
        elapsed = time.perf_counter() - start
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-2000:]}")
        imported = Path(proc.stdout.strip().splitlines()[-1]).resolve()
        if (self.root / "src").resolve() not in imported.parents:
            raise RuntimeError(f"imported captrack from {imported}, not from this checkout's src/")
        return elapsed

    def calibrate(self) -> float:
        """Wall time of one fresh interpreter running the fixed calibration task."""
        start = time.perf_counter()
        proc, _ = self._run([sys.executable, str(HERE / "calib.py")])
        elapsed = time.perf_counter() - start
        if proc.returncode != 0:
            raise RuntimeError(f"calibration failed: {proc.stderr.strip()[-2000:]}")
        return elapsed

    def rep(self, traced: bool) -> Rep:
        for out in self.prepared.outputs:
            path = self.work / out
            if path.is_dir():
                shutil.rmtree(path)
            elif path.exists():
                path.unlink()
        errors = []
        cpu_s = 0.0
        rss_mb = 0.0
        start = time.perf_counter()
        for i, args in enumerate(self.prepared.commands):
            if traced:
                cmd = [sys.executable, str(HERE / "tracer.py"), str(self.work / f"spans{i}.json"), *args]
            else:
                cmd = [sys.executable, "-m", "captrack.cli", *args]
            try:
                proc, usage = self._run(cmd)
            except subprocess.TimeoutExpired:
                errors.append(f"`captrack {' '.join(args)}` ran longer than {COMMAND_TIMEOUT_S} s")
                break
            cpu_s += usage.ru_utime + usage.ru_stime
            rss_mb = max(rss_mb, usage.ru_maxrss / 1024.0)  # ru_maxrss is in KiB on Linux
            if proc.returncode != 0:
                errors.append(f"`captrack {' '.join(args)}` exited {proc.returncode}: {proc.stderr.strip()[-500:]}")
                break
        rep = Rep(traced, time.perf_counter() - start, cpu_s, rss_mb, errors)
        if not errors:
            self._check(rep)
        if traced and not rep.errors:
            self._trace_layers(rep)
        return rep

    # -- output checks --------------------------------------------------------

    def _check(self, rep: Rep) -> None:
        digest = hashlib.sha256()
        for out in self.prepared.outputs:
            path = self.work / out
            files = sorted(p for p in path.rglob("*") if p.is_file()) if path.is_dir() else [path]
            for f in files:
                digest.update(str(f.relative_to(self.work)).encode() + b"\0")
                digest.update(f.read_bytes())
        rep.digest = digest.hexdigest()
        if self.first_digest is None:
            self.first_digest = rep.digest
        elif rep.digest != self.first_digest:
            rep.errors.append("outputs differ from the first run of this invocation (not deterministic)")
        if rep.digest not in self.checked:
            p = self.prepared
            if p.cells:
                self.checked[rep.digest] = checks.check_simulation(self.work, p.cells, p.ticks_per_cell, self.reference)
            else:
                self.checked[rep.digest] = (checks.check_generated(self.work, p.gen), {})
        rep.errors += self.checked[rep.digest][0]

    # -- traced runs ----------------------------------------------------------

    def _trace_layers(self, rep: Rep) -> None:
        """Per-layer metrics of a traced run, from its spans and checked outputs."""
        total: dict[str, float] = {}
        self_time: dict[str, float] = {}
        counts: dict[str, int] = {}
        sweep_cells = 0
        spans_by_command = []
        for i, args in enumerate(self.prepared.commands):
            record = json.loads((self.work / f"spans{i}.json").read_text())
            spans = record["spans"]
            spans_by_command.append(spans)
            children: dict[int, list[tuple[float, float]]] = {}
            for name, start, end, parent in spans:
                children.setdefault(parent, []).append((start, end))
            for index, (name, start, end, parent) in enumerate(spans):
                total[name] = total.get(name, 0.0) + (end - start)
                covered = _union_length(children.get(index, []))
                self_time[name] = self_time.get(name, 0.0) + (end - start) - covered
            for name, n in record["counts"].items():
                counts[name] = counts.get(name, 0) + n
            if args[0] == "sweep":
                sweep_cells += record["counts"].get("engine.run", 0)

        summaries = self.checked[rep.digest][1].values()
        events = {kind: sum(s["events"].get(kind, 0) for s in summaries) for kind in checks.EVENT_KINDS}
        rows = sum(s["rows"] for s in summaries)
        ticks = rows - sum(events.values()) - len(summaries)
        t = total.get
        rep.layers = {
            "harvest.load_csv_s": t("harvest.load_csv", 0.0),
            "harvest.samples_per_s": _rate(self.prepared.loaded_samples, t("harvest.load_csv", 0.0)),
            "harvest.synth_solar_s": t("harvest.synth_solar", 0.0),
            "harvest.synth_kinetic_s": t("harvest.synth_kinetic", 0.0),
            "harvest.save_csv_s": t("harvest.save_csv", 0.0),
            "engine.run_s": t("engine.run", 0.0),
            "engine.self_s": self_time.get("engine.run", 0.0),
            "engine.ticks": ticks,
            "engine.us_per_tick": _rate(self_time.get("engine.run", 0.0) * 1e6, ticks),
            "engine.metrics_s": t("engine.metrics", 0.0),
            "engine.export_s": t("engine.export", 0.0),
            "engine.export_rows": rows,
            "engine.export_rows_per_s": _rate(rows, t("engine.export", 0.0)),
            "engine.events": sum(events.values()),
            **{f"engine.events.{kind}": n for kind, n in events.items()},
            "capacitor.integrate_segment_calls": counts.get("capacitor.integrate_segment", 0),
            "device.select_gps_mode_calls": counts.get("device.select_gps_mode", 0),
            "energy_model.validate_calls": counts.get("energy_model.validate", 0),
            "configfile.load_s": t("configfile.load", 0.0),
            "cli.self_s": self_time.get("cli.main", 0.0),
            "cli.sweep_cells": sweep_cells,
            "trace.wall_s": rep.wall_s,
        }
        rep.detail = {"total_s": total, "self_s": self_time, "counts": counts, "spans": spans_by_command}

    def measure(self, window: float, traced: bool, min_reps: int) -> list[Rep]:
        """Repeat runs until the next one would end after window seconds.

        Each untraced run comes after a calibration and a set-up probe, so
        that the three are sampled over the same stretch of time. Stops at
        the first failed run: its outputs are wrong, so timing further runs
        adds nothing.
        """
        reps: list[Rep] = []
        start = time.perf_counter()
        while True:
            if not traced:
                self.calibrations.append(self.calibrate())
                self.setup.append(self.probe())
            rep = self.rep(traced)
            reps.append(rep)
            elapsed = time.perf_counter() - start
            if rep.errors or (len(reps) >= min_reps and elapsed * (len(reps) + 1) / len(reps) > window):
                return reps


def _walls(reps: list[Rep]) -> list[float]:
    return [r.wall_s for r in reps if not r.errors]


def _union_length(intervals: list[tuple[float, float]]) -> float:
    covered = 0.0
    end_so_far = float("-inf")
    for start, end in sorted(intervals):
        start = max(start, end_so_far)
        if end > start:
            covered += end - start
            end_so_far = end
    return covered


def _rate(amount: float, seconds: float) -> float:
    return amount / seconds if seconds > 0 else 0.0


# -- environment record ------------------------------------------------------


def _git_head(root: Path) -> str:
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    text = head.read_text().strip()
    if not text.startswith("ref: "):
        return text
    ref = text[5:]
    ref_file = root / ".git" / ref
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return f"unknown ({ref})"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _src_digest(root: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def environment(root: Path, seed: int) -> dict:
    return {
        "commit": _git_head(root),
        "src_sha256": _src_digest(root),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "loadavg_at_start": list(os.getloadavg()),
        "seed": seed,
        "held_out_seed": HELD_OUT_SEED,
    }


# -- modes -------------------------------------------------------------------


def _declared_units(root: Path) -> dict[str, str]:
    spec = json.loads((root / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def benchmark(root: Path, workload: str, seed: int, seconds: float, trace: bool) -> int:
    env = environment(root, seed)
    units = _declared_units(root)
    work = root / ".perfbench_work" / f"{workload}-{seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        bench = Bench(root, workload, seed, work)
        if trace:
            start = time.perf_counter()
            plain = bench.measure(0.4 * seconds, traced=False, min_reps=2)
            traced = []
            if not plain[-1].errors:
                traced = bench.measure(seconds - (time.perf_counter() - start), traced=True, min_reps=2)
            reps = plain + traced
            good = [r for r in traced if not r.errors]
            metrics = {}
            if good:
                metrics = {name: statistics.median(r.layers[name] for r in good) for name in good[0].layers}
                metrics["host.wall_s"] = statistics.median(_walls(plain))
                metrics["host.calib_s"] = statistics.median(bench.calibrations)
                metrics["trace.overhead_s"] = metrics["trace.wall_s"] - metrics["host.wall_s"]
        else:
            reps = bench.measure(seconds, traced=False, min_reps=MIN_REPS)
            walls = _walls(reps)
            metrics = {}
            if walls:
                # Seconds of the reference host. Runs, probes and calibrations
                # alternate, so their totals cover the same stretch of time and
                # their ratio holds when the host changes speed in mid-window;
                # medians of the separate series could fall on either side of
                # the change.
                scale = CALIB_REF_S / statistics.mean(bench.calibrations)
                wall = statistics.mean(walls) * scale
                metrics = {
                    "wall_s": wall,
                    "ticks_per_s": bench.prepared.work_units / wall,
                    "peak_rss_mb": max(r.peak_rss_mb for r in reps if not r.errors),
                    "setup_s": statistics.mean(bench.setup) * scale,
                }
        failed = sum(1 for r in reps if r.errors)
        for r in reps:
            for error in r.errors:
                print(f"check failed: {error}", file=sys.stderr)
        if bench.reference is None and bench.prepared.cells:
            print(f"note: no recorded reference for seed {seed}; consistency checks only", file=sys.stderr)
        _write_record(root, workload, seed, trace, env, reps, metrics, bench)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()
    missing = set(metrics) - set(units)
    if missing:
        raise RuntimeError(f"metrics not declared in BENCHMARK.json: {sorted(missing)}")
    print("env " + json.dumps(env))
    result = {
        "correct": failed == 0 and bool(metrics),
        "attempted": len(reps),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def _write_record(root: Path, workload: str, seed: int, trace: bool, env: dict, reps: list[Rep],
                  metrics: dict, bench: Bench) -> None:
    out = root / ".perfbench_results"
    out.mkdir(exist_ok=True)
    record = {
        "workload": workload,
        "trace": int(trace),
        "env": env,
        "metrics": metrics,
        "calib_ref_s": CALIB_REF_S,
        "calibrations_s": bench.calibrations,
        "setup_probes_s": bench.setup,
        "outputs": {digest: summaries for digest, (_, summaries) in bench.checked.items()},
        "runs": [
            {"traced": r.traced, "wall_s": r.wall_s, "cpu_s": r.cpu_s, "peak_rss_mb": r.peak_rss_mb, "errors": r.errors, "digest": r.digest,
             **({"layers": r.layers, "detail": r.detail} if r.layers else {})}
            for r in reps
        ],
    }
    (out / f"{workload}-seed{seed}-trace{int(trace)}.json").write_text(json.dumps(record, indent=1) + "\n")


def _parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += list(range(int(lo), int(hi or lo) + 1))
    return seeds


def record_reference(root: Path, seeds: list[int]) -> int:
    """Run each simulation workload once per seed and store its exact counts."""
    reference = checks.load_reference()
    for seed in seeds:
        for workload in SIMULATION_WORKLOADS:
            work = root / ".perfbench_work" / f"reference-{workload}-{seed}"
            shutil.rmtree(work, ignore_errors=True)
            work.mkdir(parents=True)
            try:
                bench = Bench(root, workload, seed, work)
                bench.reference = None
                rep = bench.rep(traced=False)
                if rep.errors:
                    print("\n".join(rep.errors), file=sys.stderr)
                    return 1
                summaries = bench.checked[rep.digest][1]
                reference.setdefault(workload, {})[str(seed)] = {
                    cell: checks.reference_view(s) for cell, s in summaries.items()
                }
                print(f"{workload} seed {seed}: recorded {len(summaries)} cell(s)")
            finally:
                shutil.rmtree(work, ignore_errors=True)
    lines = ["{"]
    for i, (workload, by_seed) in enumerate(sorted(reference.items())):
        lines.append(f" {json.dumps(workload)}: {{")
        items = sorted(by_seed.items(), key=lambda kv: int(kv[0]))
        for j, (seed, cells) in enumerate(items):
            lines.append(f"  {json.dumps(seed)}: {json.dumps(cells, sort_keys=True)}{',' if j < len(items) - 1 else ''}")
        lines.append(" }" + ("," if i < len(reference) - 1 else ""))
    lines.append("}")
    checks.REFERENCE_PATH.write_text("\n".join(lines) + "\n")
    return 0


def self_test(root: Path) -> int:
    """The checks pass on correct outputs and fail on a deliberately wrong reference."""
    reference = checks.load_reference().get("winter-dense", {})
    if not reference:
        print("self-test: reference.json has no winter-dense entry", file=sys.stderr)
        return 1
    seed = min(int(s) for s in reference)
    work = root / ".perfbench_work" / f"self-test-{os.getpid()}"
    work.mkdir(parents=True)
    outcomes = []
    try:
        bench = Bench(root, "winter-dense", seed, work)
        rep = bench.rep(traced=False)
        outcomes.append(("winter-dense with the recorded reference passes", not rep.errors))
        good = reference[str(seed)]
        summaries = bench.checked[rep.digest][1]
        # (label, path inside the cell's reference, change)
        wrong = [
            ("one FixHot event more", ("events", "FixHot"), 1),
            ("an extra Recovery kind", ("events", "Recovery"), 1),
            ("total_fixes off by one", ("total_fixes",), -1),
            ("depletion_count off by one", ("depletion_count",), 1),
            ("row count off by one", ("rows",), 1),
        ]
        for label, keys, change in wrong:
            bad = copy.deepcopy(good)
            node = bad["out"]
            for key in keys[:-1]:
                node = node[key]
            node[keys[-1]] = node.get(keys[-1], 0) + change
            errors, _ = checks.check_simulation(work, bench.prepared.cells, bench.prepared.ticks_per_cell, bad)
            outcomes.append((f"winter-dense with {label} in the reference fails", bool(errors)))
        leaky = dict(summaries["out"], closure_error_j=2 * checks.CLOSURE_TOLERANCE_J)
        outcomes.append(("a ledger closure error of 2e-6 J fails",
                         bool(checks.check_cell("out", leaky, bench.prepared.ticks_per_cell, good["out"]))))
        shutil.rmtree(work)
        work.mkdir()

        gen = Bench(root, "trace-gen", seed, work)
        rep = gen.rep(traced=False)
        outcomes.append(("trace-gen outputs pass", not rep.errors))
        for label, change in (("a daily energy 1e-8 J off", {"daily_energy_j": gen.prepared.gen["daily_energy_j"] + 1e-8}),
                              ("a later sunrise", {"sunrise_min": gen.prepared.gen["sunrise_min"] + 30}),
                              ("a longer trace", {"days": gen.prepared.gen["days"] + 1})):
            errors = checks.check_generated(work, {**gen.prepared.gen, **change})
            outcomes.append((f"trace-gen expecting {label} fails", bool(errors)))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()
    for label, ok in outcomes:
        print(f"{'ok  ' if ok else 'FAIL'} {label}")
    return 0 if all(ok for _, ok in outcomes) else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true", help="show that a wrong reference fails the checks")
    parser.add_argument("--record-reference", metavar="SEEDS", help="e.g. 0-39,104729")
    args = parser.parse_args(argv)
    # Exit through SystemExit on SIGTERM, so that a running command is killed
    # and waited for, and the work directory removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    root = Path.cwd()
    if not (root / "src" / "captrack" / "cli.py").is_file():
        print(f"{root} has no src/captrack: run from the root of a captrack checkout", file=sys.stderr)
        return 2
    if args.self_test:
        return self_test(root)
    if args.record_reference:
        return record_reference(root, _parse_seeds(args.record_reference))
    if args.workload is None:
        parser.error("--workload is required")
    return benchmark(root, args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
