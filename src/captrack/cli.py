"""Command-line front end: runs, sweeps, and trace generation.

Commands:
    simulate     one run over a trace file or the built-in synthetic winter
    sweep        capacitor x fix-interval grid from a sweep spec file
    gen-solar    write a synthetic irradiance CSV
    gen-kinetic  write a synthetic kinetic harvest CSV

Exit codes: 0 success, 2 invalid configuration or flags, 3 invalid or
missing trace, 4 I/O failure while writing outputs.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import importlib
import os
import sys
from dataclasses import replace
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from .configfile import GENERATOR_SECTIONS, GeneratorSpec, build_section, cell_name, load_config, load_sweep_spec
from .errors import ConfigError
from .harvest import (
    DEFAULT_COMBINER_EFFICIENCY,
    DEFAULT_V_SUPPLY,
    HARVEST_HEADER,
    IRRADIANCE_HEADER,
    MINUTES_PER_DAY,
    SYNTHETIC_RESOLUTION_S,
    HarvestTrace,
    SolarChain,
    TextColumn,
    TraceError,
    generate_kinetic_trace,
    generate_synthetic_irradiance,
    load_harvest_csv,
    load_irradiance_csv,
    number_text,
    read_trace_header,
    save_harvest_csv,
    save_irradiance_csv,
    solar_current_from_irradiance,
    text_column,
    write_csv,
)

if TYPE_CHECKING:
    from .energy_model import SystemConfig, validate_config
    from .engine import EVENT_KINDS, SECONDS_PER_DAY, SimResult, export_timeseries, fix_record, run_simulation

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_TRACE = 3
EXIT_IO = 4

# comparison.csv: each column is a field of the cell's capacitor, config or
# metrics, written with its format spec.
COMPARISON_COLUMNS = (
    ("capacitance_f", "g"), ("leakage_ma", "g"), ("fix_interval_s", "d"),
    ("hot_fixes", "d"), ("hot_ephemeris", "d"), ("warm_ephemeris", "d"), ("cold_starts", "d"),
    ("total_fixes", "d"), ("fixes_per_day_mean", ".2f"), ("fixes_per_day_std", ".2f"),
    ("transmissions", "d"), ("skipped_transmissions", "d"), ("failed_transmissions", "d"),
    ("depletion_count", "d"), ("total_off_s", ".0f"), ("min_voltage", ".6f"),
)
SAMPLES_HEADER = ["t_s", "kind", "coulomb_c", "delivered_s"]
# The engine's and the config model's names that simulate and sweep use.
# They are bound here when first needed, so that the trace generators never
# load either; a name already set on this module (a stand-in a test or a
# tracer put there) is kept.
_ENGINE_NAMES = {
    "engine": ("EVENT_KINDS", "SECONDS_PER_DAY", "export_timeseries", "fix_record", "run_simulation"),
    "energy_model": ("SystemConfig", "validate_config"),
}
_ENGINE_MODULE = {name: module for module, names in _ENGINE_NAMES.items() for name in names}


def _bind_engine() -> None:
    for name, module in _ENGINE_MODULE.items():
        globals().setdefault(name, getattr(importlib.import_module(f".{module}", __package__), name))


def __getattr__(name: str):
    if name not in _ENGINE_MODULE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    _bind_engine()
    return globals()[name]


def _check_generator_tick(config: SystemConfig) -> None:
    """The built-in generator makes a sample a minute, which only a 60 s tick reads."""
    if config.base_tick_s != SYNTHETIC_RESOLUTION_S:
        raise ConfigError([
            f"base_tick_s is {config.base_tick_s} s, but the built-in generator makes "
            f"{SYNTHETIC_RESOLUTION_S} s samples; give a trace file on the {config.base_tick_s} s tick"
        ])


@contextlib.contextmanager
def _generating(days: int, name: str):
    """Around making a trace of days generated days: a day count whose
    seconds do not fit in int64, or whose samples do not fit in memory, is a
    config error that names its field, raised before any file is written."""
    seconds = days * MINUTES_PER_DAY * SYNTHETIC_RESOLUTION_S
    if seconds > np.iinfo(np.int64).max:
        raise ConfigError([f"{name} {days}: a clock of {seconds} s does not fit in int64"])
    try:
        yield
    except MemoryError as exc:
        raise ConfigError([f"{name} {days}: the generated samples do not fit in memory ({exc})"]) from exc


def _generate_trace(generator: GeneratorSpec, config: SystemConfig, name: str = "generate.days") -> HarvestTrace:
    with _generating(generator.days, name):
        irradiance = generate_synthetic_irradiance(generator.days, generator.solar)
        chain = SolarChain(v_supply=config.v_supply)
        solar = solar_current_from_irradiance(irradiance, chain)
        if generator.kinetic is not None:
            kinetic = generate_kinetic_trace(generator.days, generator.kinetic, config.v_supply)
        else:
            kinetic = np.zeros_like(solar)
    return HarvestTrace.build(solar, kinetic, config.combiner_efficiency, irradiance.start_epoch_s)


def _load_trace(path: str, config: SystemConfig) -> HarvestTrace:
    """Read either trace format, telling them apart by header.

    Either way the combined current is the config's combiner efficiency
    times the sum of the sources; a harvest file's combined_a is not used.
    Text the decoder or csv.reader rejects is a trace error naming the file.
    """
    try:
        header = read_trace_header(path)
        if header == HARVEST_HEADER:
            source = load_harvest_csv(path)
            solar, kinetic = source.solar_a, source.kinetic_a
        elif header == IRRADIANCE_HEADER:
            source = load_irradiance_csv(path, config.base_tick_s)
            solar = solar_current_from_irradiance(source, SolarChain(v_supply=config.v_supply))
            kinetic = np.zeros_like(solar)
        else:
            raise TraceError(f"{path}: unrecognized header {','.join(header)!r}")
    except (UnicodeError, csv.Error) as exc:
        raise TraceError(f"{path}: {exc}") from exc
    return HarvestTrace.build(solar, kinetic, config.combiner_efficiency, source.start_epoch_s, source.resolution_s)


def _write_samples(result: SimResult, path: str) -> None:
    """One row per fix: time, kind, Coulomb reading, upload time (blank if unsent)."""
    _bind_engine()
    record = fix_record(result)
    kinds = text_column(list(EVENT_KINDS))

    def rows(start: int, stop: int):
        delivered = record.delivered_s[start:stop]
        text, size = number_text(delivered, "%.5f")
        return [
            number_text(record.time_s[start:stop], "%.5f"), kinds.take(record.kind[start:stop]),
            number_text(record.coulomb_c[start:stop], "%.9e"), TextColumn(text, np.where(np.isnan(delivered), 0, size)),
        ]

    write_csv(path, SAMPLES_HEADER, record.kind.size, rows)


def _write_run_outputs(result: SimResult, out_dir: Path) -> None:
    import json  # here, not at the top: the generator commands write no JSON

    out_dir.mkdir(parents=True, exist_ok=True)
    export_timeseries(result, str(out_dir / "timeseries.csv"))
    (out_dir / "metrics.json").write_text(json.dumps(result.metrics.to_dict(), indent=2) + "\n")
    (out_dir / "ledger.json").write_text(json.dumps(result.ledger.to_dict(), indent=2) + "\n")
    _write_samples(result, str(out_dir / "samples.csv"))


def _print_run_summary(result: SimResult) -> None:
    m = result.metrics
    days = result.duration_s / SECONDS_PER_DAY
    print(f"simulated {days:g} day(s): {m.total_fixes} fixes "
          f"({m.hot_fixes} hot, {m.hot_ephemeris} hot+eph, {m.warm_ephemeris} warm+eph, {m.cold_starts} cold)")
    print(f"transmissions {m.transmissions} (skipped {m.skipped_transmissions}, failed {m.failed_transmissions}), "
          f"depletions {m.depletion_count}, off {m.total_off_s:.0f} s, min voltage {m.min_voltage:.3f} V")
    led = result.ledger
    print(f"energy: harvested {led.harvested_in_j:.2f} J, consumed {led.consumed_total_j:.2f} J, "
          f"discarded {led.discarded_at_clamp_j:.2f} J, stored delta {led.delta_stored_j:+.2f} J")


def _run_duration(days: int | None) -> int | None:
    """Run length for --days: None (the whole trace) when the flag is absent.
    run_simulation rejects a length the trace does not cover."""
    return None if days is None else days * SECONDS_PER_DAY


def _check_days(days: int | None) -> None:
    if days is not None and days < 1:
        raise ConfigError([f"--days must be >= 1, got {days}"])


def cmd_simulate(args: argparse.Namespace) -> int:
    _bind_engine()
    _check_days(args.days)
    config = load_config(args.config) if args.config else validate_config(SystemConfig())
    if args.seed is not None:
        config = replace(config, random_seed=args.seed)
    if args.trace:
        trace = _load_trace(args.trace, config)
    else:
        _check_generator_tick(config)
        generator = GeneratorSpec() if args.days is None else GeneratorSpec(days=args.days)
        trace = _generate_trace(generator, config, "--days")
    result = run_simulation(config, trace, _run_duration(args.days))
    _write_run_outputs(result, Path(args.out))
    _print_run_summary(result)
    print(f"outputs in {args.out}/: timeseries.csv metrics.json ledger.json samples.csv")
    return EXIT_OK


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the OS has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _run_cell(config: SystemConfig, trace: HarvestTrace, duration: int | None, out_dir: Path) -> tuple:
    """Run one sweep cell and write its files; return its comparison row,
    total fixes and depletions."""
    result = run_simulation(config, trace, duration)
    _write_run_outputs(result, out_dir / cell_name(config))
    m = result.metrics
    values = {**vars(config.capacitor), **vars(config), **vars(m)}
    return [format(values[name], spec) for name, spec in COMPARISON_COLUMNS], m.total_fixes, m.depletion_count


# Set only in a pool worker, by the pool initializer: the (trace, duration,
# out_dir) that every cell of the sweep shares. The worker is forked, so it
# inherits them copy-on-write and the trace is never pickled.
_shared: tuple = ()


def _share(*shared) -> None:
    global _shared
    _shared = shared


def _run_shared_cell(config: SystemConfig) -> tuple:
    return _run_cell(config, *_shared)


def cmd_sweep(args: argparse.Namespace) -> int:
    _bind_engine()  # before the pool forks, so that its workers inherit the engine
    _check_days(args.days)
    spec = load_sweep_spec(args.spec)
    if args.seed is not None:
        spec = replace(spec, base=replace(spec.base, random_seed=args.seed))
    configs = spec.combinations()  # validates every cell before any run
    if spec.trace_path is not None:
        trace = _load_trace(spec.trace_path, configs[0])
    else:
        _check_generator_tick(configs[0])  # the cells share the base's tick
        trace = _generate_trace(spec.generator, configs[0])
    duration = _run_duration(args.days)

    out_dir = Path(args.out)  # made by the first cell's outputs

    def report(results) -> list[list[str]]:
        rows = []
        for config, (row, total_fixes, depletions) in zip(configs, results):
            print(f"{cell_name(config)}: total {total_fixes} fixes, {depletions} depletions")
            rows.append(row)
        return rows

    # Cells are independent, so they run in a fork pool over the usable CPUs;
    # results come back in cell order, so every output is as a serial run's.
    import multiprocessing

    workers = min(_usable_cpus(), len(configs))
    if workers > 1 and "fork" in multiprocessing.get_all_start_methods():
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(
            workers, multiprocessing.get_context("fork"), initializer=_share, initargs=(trace, duration, out_dir)
        ) as pool:
            rows = report(pool.map(_run_shared_cell, configs))
    else:
        rows = report(_run_cell(config, trace, duration, out_dir) for config in configs)

    comparison = out_dir / "comparison.csv"
    with open(comparison, "w", newline="") as handle:
        handle.write(",".join(name for name, _ in COMPARISON_COLUMNS) + "\n")
        for row in rows:
            handle.write(",".join(row) + "\n")
    print(f"comparison table: {comparison}")
    return EXIT_OK


def _number(text: str):
    """A flag's text as an int, else a float, else as given (for the schema to reject)."""
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            pass
    return text


def _section_from_flags(args: argparse.Namespace, section: str):
    """The section's dataclass from its flags; a comma-separated flag is a list."""
    values = {}
    for key in GENERATOR_SECTIONS[section][1]:
        if getattr(args, key) is not None:
            parts = [_number(part) for part in getattr(args, key).split(",")]
            values[key] = parts if len(parts) > 1 else parts[0]
    return build_section(section, values, args.command)


def cmd_gen_solar(args: argparse.Namespace) -> int:
    _check_days(args.days)
    with _generating(args.days, "--days"):
        last = args.start_epoch + (args.days * MINUTES_PER_DAY - 1) * SYNTHETIC_RESOLUTION_S
        stamps = np.iinfo(np.int64)
        if args.start_epoch < stamps.min or last > stamps.max:
            raise ConfigError([f"--start-epoch {args.start_epoch}: stamps from it to {last} do not all fit in int64"])
        profile = _section_from_flags(args, "solar")
        trace = generate_synthetic_irradiance(args.days, profile, start_epoch_s=args.start_epoch)
    save_irradiance_csv(trace, args.out)

    chain = SolarChain()
    per_day = trace.samples.reshape(args.days, -1).sum(axis=1) * trace.resolution_s
    current = trace.samples * chain.current_factor
    print(f"wrote {args.out}: {args.days} day(s), {trace.samples.size} samples")
    print(f"daily insolation: mean {per_day.mean():.0f} J/m2, min {per_day.min():.0f}, max {per_day.max():.0f}")
    print(f"peak irradiance {trace.samples.max():.1f} W/m2 -> peak panel current {current.max()*1e3:.3f} mA")
    return EXIT_OK


def cmd_gen_kinetic(args: argparse.Namespace) -> int:
    _check_days(args.days)
    profile = _section_from_flags(args, "kinetic")
    with _generating(args.days, "--days"):
        try:  # --days is checked above and by _generating, so the supply is what can be wrong
            kinetic = generate_kinetic_trace(args.days, profile, args.v_supply)
        except ValueError as exc:
            raise ConfigError([f"{args.command}.v_supply: {exc}"]) from exc
    try:
        trace = HarvestTrace.build(np.zeros_like(kinetic), kinetic, args.efficiency)
    except ValueError as exc:
        raise ConfigError([f"{args.command}.efficiency: {exc}"]) from exc
    save_harvest_csv(trace, args.out)

    per_day = kinetic.reshape(args.days, -1).sum(axis=1) * 60.0 * args.v_supply
    print(f"wrote {args.out}: {args.days} day(s), {kinetic.size} samples")
    print(f"per-day harvested energy: {', '.join(f'{e:.2f}' for e in per_day)} J")
    print(f"peak kinetic current {kinetic.max()*1e6:.1f} uA "
          f"(combined column scaled by {args.efficiency:g})")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="captrack",
        description="Trace-driven energy simulator for a supercapacitor-powered wildlife tracker.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run one simulation")
    sim.add_argument("--config", help="YAML config file (defaults apply when omitted)")
    sim.add_argument("--trace", help="harvest or irradiance CSV (omitted: built-in synthetic winter)")
    sim.add_argument("--out", default="out", help="output directory (default: out)")
    sim.add_argument("--seed", type=int, help="override the config's random seed")
    sim.add_argument("--days", type=int, help="limit the run length in days")
    sim.set_defaults(func=cmd_simulate)

    swp = sub.add_parser("sweep", help="run a capacitor x fix-interval grid")
    swp.add_argument("--spec", required=True, help="YAML sweep spec file")
    swp.add_argument("--out", default="sweep_out", help="output directory (default: sweep_out)")
    swp.add_argument("--seed", type=int, help="override the base config's random seed")
    swp.add_argument("--days", type=int, help="limit each run's length in days")
    swp.set_defaults(func=cmd_sweep)

    sol = sub.add_parser("gen-solar", help="write a synthetic irradiance CSV")
    sol.add_argument("--out", default="irradiance.csv", help="output CSV path")
    sol.add_argument("--days", type=int, default=1)
    sol.add_argument("--start-epoch", type=int, default=0, help="epoch seconds of the first sample")
    sol.set_defaults(func=cmd_gen_solar)

    kin = sub.add_parser("gen-kinetic", help="write a synthetic kinetic harvest CSV")
    kin.add_argument("--out", default="kinetic.csv", help="output CSV path")
    kin.add_argument("--days", type=int, default=1)
    kin.add_argument("--v-supply", type=float, default=DEFAULT_V_SUPPLY)
    kin.add_argument("--efficiency", type=float, default=DEFAULT_COMBINER_EFFICIENCY, help="combiner efficiency for the combined column")
    kin.set_defaults(func=cmd_gen_kinetic)
    for gen, section in ((sol, "solar"), (kin, "kinetic")):
        for key in GENERATOR_SECTIONS[section][1]:
            gen.add_argument("--" + key.replace("_", "-"), dest=key, help=f"as generate.{section}.{key} in a sweep spec")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except TraceError as exc:
        print(f"trace error: {exc}", file=sys.stderr)
        return EXIT_TRACE
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
