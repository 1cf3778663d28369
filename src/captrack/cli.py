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
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .configfile import GeneratorSpec, load_config, load_sweep_spec
from .energy_model import DEFAULT_V_SUPPLY, ConfigError, SystemConfig, validate_config
from .engine import SECONDS_PER_DAY, SimResult, export_timeseries, run_simulation
from .harvest import (
    DEFAULT_COMBINER_EFFICIENCY,
    HARVEST_HEADER,
    IRRADIANCE_HEADER,
    ActivityProfile,
    HarvestTrace,
    SolarChain,
    SolarProfile,
    TraceError,
    generate_kinetic_trace,
    generate_synthetic_irradiance,
    load_harvest_csv,
    load_irradiance_csv,
    read_trace_header,
    save_harvest_csv,
    save_irradiance_csv,
    solar_current_from_irradiance,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_TRACE = 3
EXIT_IO = 4

COMPARISON_COLUMNS = [
    "capacitance_f", "leakage_ma", "fix_interval_s",
    "hot_fixes", "hot_ephemeris", "warm_ephemeris", "cold_starts", "total_fixes",
    "fixes_per_day_mean", "fixes_per_day_std",
    "transmissions", "skipped_transmissions", "failed_transmissions",
    "depletion_count", "total_off_s", "min_voltage",
]


def _generate_trace(generator: GeneratorSpec, config: SystemConfig) -> HarvestTrace:
    irradiance = generate_synthetic_irradiance(generator.days, generator.solar)
    chain = SolarChain(v_supply=config.v_supply)
    solar = solar_current_from_irradiance(irradiance, chain)
    if generator.kinetic is not None:
        kinetic = generate_kinetic_trace(generator.days, generator.kinetic, config.v_supply)
    else:
        kinetic = np.zeros_like(solar)
    return HarvestTrace.build(solar, kinetic, config.combiner_efficiency, irradiance.start_epoch_s)


def _load_trace(path: str, config: SystemConfig) -> HarvestTrace:
    """Read either trace format, telling them apart by header."""
    header = read_trace_header(path)
    if header == HARVEST_HEADER:
        return load_harvest_csv(path)
    if header == IRRADIANCE_HEADER:
        irradiance = load_irradiance_csv(path)
        chain = SolarChain(v_supply=config.v_supply)
        solar = solar_current_from_irradiance(irradiance, chain)
        kinetic = np.zeros_like(solar)
        return HarvestTrace.build(
            solar, kinetic, config.combiner_efficiency, irradiance.start_epoch_s, irradiance.resolution_s
        )
    raise TraceError(f"{path}: unrecognized header {','.join(header)!r}")


def _write_run_outputs(result: SimResult, out_dir: Path) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    export_timeseries(result, str(out_dir / "timeseries.csv"))
    (out_dir / "metrics.json").write_text(json.dumps(result.metrics.to_dict(), indent=2) + "\n")
    (out_dir / "ledger.json").write_text(json.dumps(result.ledger.to_dict(), indent=2) + "\n")


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


def _run_duration(days: int | None, trace: HarvestTrace) -> int | None:
    """Run length for --days: None (the whole trace) when the flag is absent."""
    if days is None:
        return None
    return min(days * SECONDS_PER_DAY, len(trace) * trace.resolution_s)


def _check_days(days: int | None) -> None:
    if days is not None and days < 1:
        raise ConfigError([f"--days must be >= 1, got {days}"])


def cmd_simulate(args: argparse.Namespace) -> int:
    _check_days(args.days)
    config = load_config(args.config) if args.config else validate_config(SystemConfig())
    if args.seed is not None:
        config = replace(config, random_seed=args.seed)
    if args.trace:
        trace = _load_trace(args.trace, config)
    else:
        trace = _generate_trace(GeneratorSpec() if args.days is None else GeneratorSpec(days=args.days), config)
    result = run_simulation(config, trace, _run_duration(args.days, trace))
    _write_run_outputs(result, Path(args.out))
    _print_run_summary(result)
    print(f"outputs in {args.out}/: timeseries.csv metrics.json ledger.json")
    return EXIT_OK


def cmd_sweep(args: argparse.Namespace) -> int:
    _check_days(args.days)
    spec = load_sweep_spec(args.spec)
    if args.seed is not None:
        spec = replace(spec, base=replace(spec.base, random_seed=args.seed))
    configs = spec.combinations()  # validates every cell before any run
    if spec.trace_path is not None:
        trace = _load_trace(spec.trace_path, configs[0])
    else:
        trace = _generate_trace(spec.generator, configs[0])
    duration = _run_duration(args.days, trace)

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    rows = []
    for config in configs:
        result = run_simulation(config, trace, duration)
        cell = f"c{config.capacitor.capacitance_f:g}F_i{config.fix_interval_s}s"
        _write_run_outputs(result, out_dir / cell)
        m = result.metrics
        rows.append([
            f"{config.capacitor.capacitance_f:g}", f"{config.capacitor.leakage_ma:g}",
            str(config.fix_interval_s),
            str(m.hot_fixes), str(m.hot_ephemeris), str(m.warm_ephemeris), str(m.cold_starts),
            str(m.total_fixes), f"{m.fixes_per_day_mean:.2f}", f"{m.fixes_per_day_std:.2f}",
            str(m.transmissions), str(m.skipped_transmissions), str(m.failed_transmissions),
            str(m.depletion_count), f"{m.total_off_s:.0f}", f"{m.min_voltage:.6f}",
        ])
        print(f"{cell}: total {m.total_fixes} fixes, {m.depletion_count} depletions")

    comparison = out_dir / "comparison.csv"
    with open(comparison, "w", newline="") as handle:
        handle.write(",".join(COMPARISON_COLUMNS) + "\n")
        for row in rows:
            handle.write(",".join(row) + "\n")
    print(f"comparison table: {comparison}")
    return EXIT_OK


def cmd_gen_solar(args: argparse.Namespace) -> int:
    _check_days(args.days)
    try:
        profile = SolarProfile(
            sunrise_min=args.sunrise_min,
            sunset_min=args.sunset_min,
            peak_wm2=args.peak_wm2,
            cloud_amplitude=args.cloud_amplitude,
            cloud_correlation_min=args.cloud_correlation_min,
            seed=args.seed if args.seed is not None else SolarProfile().seed,
        )
        trace = generate_synthetic_irradiance(args.days, profile, start_epoch_s=args.start_epoch)
    except ValueError as exc:
        raise ConfigError([str(exc)]) from exc
    save_irradiance_csv(trace, args.out)

    chain = SolarChain()
    per_day = trace.samples.reshape(args.days, -1).sum(axis=1) * trace.resolution_s
    current = trace.samples * chain.current_factor
    print(f"wrote {args.out}: {args.days} day(s), {trace.samples.size} samples")
    print(f"daily insolation: mean {per_day.mean():.0f} J/m2, min {per_day.min():.0f}, max {per_day.max():.0f}")
    print(f"peak irradiance {trace.samples.max():.1f} W/m2 -> peak panel current {current.max()*1e3:.3f} mA")
    return EXIT_OK


def _quad(raw: str, cast, flag: str):
    parts = [p.strip() for p in raw.split(",")]
    if len(parts) != 4:
        raise ConfigError([f"{flag} needs four comma-separated values, got {raw!r}"])
    try:
        return tuple(cast(p) for p in parts)
    except ValueError as exc:
        raise ConfigError([f"{flag}: {exc}"]) from exc


def cmd_gen_kinetic(args: argparse.Namespace) -> int:
    _check_days(args.days)
    defaults = ActivityProfile()
    try:
        profile = ActivityProfile(
            period_starts_min=_quad(args.period_starts, int, "--period-starts") if args.period_starts else defaults.period_starts_min,
            weights=_quad(args.weights, float, "--weights") if args.weights else defaults.weights,
            daily_energy_j=args.daily_energy_j,
            mean_bout_min=args.mean_bout_min,
            duty=_quad(args.duty, float, "--duty") if args.duty else defaults.duty,
            seed=args.seed if args.seed is not None else defaults.seed,
        )
        kinetic = generate_kinetic_trace(args.days, profile, args.v_supply)
    except ValueError as exc:
        raise ConfigError([str(exc)]) from exc

    solar = np.zeros_like(kinetic)
    trace = HarvestTrace.build(solar, kinetic, args.efficiency)
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
    sol.add_argument("--seed", type=int, help="cloud process seed (default 42)")
    sol.add_argument("--sunrise-min", type=int, default=SolarProfile().sunrise_min, help="sunrise, minutes after midnight")
    sol.add_argument("--sunset-min", type=int, default=SolarProfile().sunset_min, help="sunset, minutes after midnight")
    sol.add_argument("--peak-wm2", type=float, default=SolarProfile().peak_wm2, help="clear-sky peak irradiance")
    sol.add_argument("--cloud-amplitude", type=float, default=SolarProfile().cloud_amplitude, help="0 = clear sky, up to 1")
    sol.add_argument("--cloud-correlation-min", type=float, default=SolarProfile().cloud_correlation_min)
    sol.add_argument("--start-epoch", type=int, default=0, help="epoch seconds of the first sample")
    sol.set_defaults(func=cmd_gen_solar)

    kin = sub.add_parser("gen-kinetic", help="write a synthetic kinetic harvest CSV")
    kin.add_argument("--out", default="kinetic.csv", help="output CSV path")
    kin.add_argument("--days", type=int, default=1)
    kin.add_argument("--seed", type=int, help="bout process seed (default 42)")
    kin.add_argument("--daily-energy-j", type=float, default=ActivityProfile().daily_energy_j)
    kin.add_argument("--weights", help="dawn,day,dusk,night energy weights (sum 1)")
    kin.add_argument("--period-starts", help="four period start minutes, e.g. 300,540,1020,1260")
    kin.add_argument("--duty", help="four activity duty fractions")
    kin.add_argument("--mean-bout-min", type=float, default=ActivityProfile().mean_bout_min)
    kin.add_argument("--v-supply", type=float, default=DEFAULT_V_SUPPLY)
    kin.add_argument("--efficiency", type=float, default=DEFAULT_COMBINER_EFFICIENCY, help="combiner efficiency for the combined column")
    kin.set_defaults(func=cmd_gen_kinetic)
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
