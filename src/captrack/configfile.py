"""Configuration and sweep-spec files.

Config files are YAML with one section per concern. Every key is optional:
a key left out keeps the default of the field it sets. Unknown keys are
errors so typos cannot silently revert a field to its default. SECTIONS
maps each key to its dataclass field, and the field's type decides which
values it takes: whole numbers for seconds, seeds, days and minutes, finite
numbers for the rest, booleans only as booleans.

    capacitor:
      capacitance_f, v_max: <number>
      leakage_ma: <number>      # omitted: paired by capacitance for stocked sizes
    thresholds:
      v_min, v_turn_on, hot_start, hot_ephemeris, warm_ephemeris, nbiot: <number>
      cold_start: <number>      # null: derived from the safe-energy bound
    intervals:
      sense_s, fix_s, transmit_s: <whole seconds>   # null disables an activity
      base_tick_s: <whole seconds>
    ephemeris:
      hot_limit_s, warm_limit_s, refresh_age_s: <whole seconds>
    harvest:
      combiner_efficiency: <number>
    sim:
      v_supply, initial_voltage: <number>
      initial_ephemeris_age_s, random_seed: <whole number>
      initial_backup_valid, task_jitter, payload_scaling: <boolean>

A sweep spec lists capacitors (stocked sizes, or capacitor sections) and
fix intervals to cross, a shared base config, and one trace source: a file
(trace) or generator parameters:

    generate:
      days: <whole number>
      solar, kinetic: <section>     # kinetic: false for solar only
    solar:
      sunrise_min, sunset_min, seed: <whole number>
      peak_wm2, cloud_amplitude, cloud_correlation_min: <number>
    kinetic:
      period_starts_min: <four whole numbers>
      weights, duty: <four numbers>
      daily_energy_j, mean_bout_min: <number>
      seed: <whole number>

gen-solar and gen-kinetic take the solar and kinetic keys as flags, with
hyphens and four values as a comma list: --weights 0.4,0.1,0.4,0.1.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field, fields, replace
from functools import cache
from typing import TYPE_CHECKING

from .errors import ConfigError
from .harvest import ActivityProfile, SolarProfile

if TYPE_CHECKING:
    from .energy_model import (
        LEAKAGE_BY_CAPACITANCE,
        CapacitorSpec,
        SystemConfig,
        VoltageThresholds,
        validate_config,
    )


@dataclass(frozen=True)
class GeneratorSpec:
    """Trace synthesis parameters for runs without a trace file."""

    days: int = 14
    solar: SolarProfile = field(default_factory=SolarProfile)
    kinetic: ActivityProfile | None = field(default_factory=ActivityProfile)  # None = solar only

    def __post_init__(self) -> None:
        if self.days < 1:
            raise ValueError(f"days must be >= 1, got {self.days}")


@dataclass(frozen=True)
class SweepSpec:
    """A capacitor x fix-interval grid over one shared trace and base config."""

    capacitors: tuple[CapacitorSpec, ...]
    fix_intervals_s: tuple[int, ...]
    base: SystemConfig
    trace_path: str | None = None
    generator: GeneratorSpec | None = None

    def combinations(self) -> list[SystemConfig]:
        """Validated config per grid cell; raises before any run on a bad cell
        or on two cells that would write one output directory."""
        _bind_config()
        configs = []
        errors = []
        entries: dict[str, str] = {}  # cell name -> the grid entry that took it first
        for i, cap in enumerate(self.capacitors):
            for j, interval in enumerate(self.fix_intervals_s):
                candidate = replace(self.base, capacitor=cap, fix_interval_s=interval)
                entry = f"sweep.capacitors[{i}] x sweep.fix_intervals_s[{j}]"
                name = cell_name(candidate)
                if name in entries:
                    errors.append(f"{entries[name]} and {entry} both name cell {name}")
                else:
                    entries[name] = entry
                try:
                    configs.append(validate_config(candidate))
                except ConfigError as exc:
                    errors.append(f"{cap.capacitance_f} F x {interval} s: {exc}")
        if errors:
            raise ConfigError(errors)
        return configs


def cell_name(config: SystemConfig) -> str:
    """A sweep cell's output directory name."""
    return f"c{config.capacitor.capacitance_f:g}F_i{config.fix_interval_s}s"


def _same(*names: str) -> dict[str, str]:
    return {name: name for name in names}


# Each YAML section: the dataclass whose fields its keys set, and per key the
# field. A sweep's generate section holds solar and kinetic sections for the
# GeneratorSpec fields of those names; the generator commands read only these.
GENERATOR_SECTIONS: dict[str, tuple[type, dict[str, str]]] = {
    "generate": (GeneratorSpec, _same("days", "solar", "kinetic")),
    "solar": (SolarProfile, _same(
        "sunrise_min", "sunset_min", "peak_wm2", "cloud_amplitude", "cloud_correlation_min", "seed",
    )),
    "kinetic": (ActivityProfile, _same(
        "period_starts_min", "weights", "daily_energy_j", "mean_bout_min", "duty", "seed",
    )),
}
CONFIG_SECTIONS = ("capacitor", "thresholds", "intervals", "ephemeris", "harvest", "sim")
# The config model's names. They are bound here on first config use, so that
# the generator commands never load energy_model; a name already set on this
# module (a stand-in a test or a tracer put there) is kept.
_CONFIG_NAMES = ("LEAKAGE_BY_CAPACITANCE", "CapacitorSpec", "SystemConfig", "VoltageThresholds", "validate_config")


def _bind_config() -> dict[str, tuple[type, dict[str, str]]]:
    """SECTIONS, every section's table, built with the config model on the first call.

    The config sections come first. The capacitor and thresholds sections
    fill the SystemConfig fields of those names.
    """
    if "SECTIONS" in globals():
        return SECTIONS
    from . import energy_model

    for name in _CONFIG_NAMES:
        globals().setdefault(name, getattr(energy_model, name))
    sections = globals()["SECTIONS"] = {
        "capacitor": (CapacitorSpec, _same("capacitance_f", "leakage_ma", "v_max")),
        "thresholds": (VoltageThresholds, _same(
            "v_min", "v_turn_on", "hot_start", "hot_ephemeris", "warm_ephemeris", "nbiot", "cold_start",
        )),
        "intervals": (SystemConfig, {
            "sense_s": "sense_interval_s", "fix_s": "fix_interval_s", "transmit_s": "transmit_interval_s",
            "base_tick_s": "base_tick_s",
        }),
        "ephemeris": (SystemConfig, {
            "hot_limit_s": "ephemeris_hot_limit_s", "warm_limit_s": "ephemeris_warm_limit_s",
            "refresh_age_s": "ephemeris_refresh_age_s",
        }),
        "harvest": (SystemConfig, _same("combiner_efficiency")),
        "sim": (SystemConfig, _same(
            "v_supply", "initial_voltage", "initial_ephemeris_age_s", "initial_backup_valid",
            "random_seed", "task_jitter", "payload_scaling",
        )),
        **GENERATOR_SECTIONS,
    }
    return sections


def __getattr__(name: str):
    if name != "SECTIONS" and name not in _CONFIG_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    _bind_config()
    return globals()[name]


def _section(name: str) -> tuple[type, dict[str, str]]:
    return GENERATOR_SECTIONS[name] if name in GENERATOR_SECTIONS else _bind_config()[name]


def _mapping(node, name: str) -> dict:
    if node is None:
        return {}
    if not isinstance(node, dict):
        raise ConfigError([f"section {name!r} must be a mapping"])
    return node


def _check_keys(section: dict, allowed, name: str) -> None:
    unknown = set(section).difference(allowed)
    if unknown:
        raise ConfigError([f"unknown key(s) in {name!r}: {sorted(map(str, unknown))}"])


def _number(value, where: str):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError([f"{where} must be a number, got {value!r}"])
    try:
        finite = math.isfinite(value)
    except OverflowError:  # an int past the float range
        finite = False
    if not finite:
        raise ConfigError([f"{where} must be finite, got {value!r}"])
    return value


def _float(value, where: str) -> float:
    return float(_number(value, where))


def _int(value, where: str) -> int:
    value = _number(value, where)
    if value != int(value):
        raise ConfigError([f"{where} must be a whole number, got {value!r}"])
    return int(value)


def _bool(value, where: str) -> bool:
    if not isinstance(value, bool):
        raise ConfigError([f"{where} must be a boolean, got {value!r}"])
    return value


def _optional(coerce):
    return lambda value, where: None if value is None else coerce(value, where)


def _four(coerce):
    def four(value, where: str) -> tuple:
        if not isinstance(value, (list, tuple)) or len(value) != 4:
            raise ConfigError([f"{where} must be a list of four values"])
        return tuple(coerce(item, f"{where}[{i}]") for i, item in enumerate(value))
    return four


# One coercion per field type, keyed by the type as annotated.
_COERCE = {
    "float": _float,
    "float | None": _optional(_float),
    "int": _int,
    "int | None": _optional(_int),
    "bool": _bool,
    "tuple[int, int, int, int]": _four(_int),
    "tuple[float, float, float, float]": _four(_float),
    "SolarProfile": lambda value, where: build_section("solar", value, where),
    "ActivityProfile | None": lambda value, where: None if value is False else build_section("kinetic", value, where),
}


def _values(section: str, data, name: str) -> dict:
    """The fields that a section's keys set, each value coerced by its field's type."""
    data = _mapping(data, name)
    cls, keys = _section(section)
    _check_keys(data, keys, name)
    types = {f.name: f.type for f in fields(cls)}
    return {keys[key]: _COERCE[types[keys[key]]](value, f"{name}.{key}") for key, value in data.items()}


def build_section(section: str, data, name: str):
    """The section's dataclass; fields whose keys are left out keep their defaults."""
    values = _values(section, data, name)
    try:
        return _section(section)[0](**values)
    except ValueError as exc:  # a profile's own range checks
        raise ConfigError([f"{name}: {exc}"]) from exc


def capacitor_from_dict(data, name: str = "capacitor") -> CapacitorSpec:
    """A capacitor section; a stocked size may leave out its leakage."""
    values = _values("capacitor", data, name)  # binds the config model
    capacitance = values.setdefault("capacitance_f", SystemConfig().capacitor.capacitance_f)
    if "leakage_ma" not in values:
        if capacitance not in LEAKAGE_BY_CAPACITANCE:
            raise ConfigError([
                f"{name}.leakage_ma required for non-stocked capacitance {capacitance} F; "
                f"stocked sizes: {sorted(LEAKAGE_BY_CAPACITANCE)}"
            ])
        values["leakage_ma"] = LEAKAGE_BY_CAPACITANCE[capacitance]
    return CapacitorSpec(**values)


def config_from_dict(data: dict) -> SystemConfig:
    """Build an unvalidated SystemConfig from a parsed config mapping."""
    sections = _bind_config()
    data = _mapping(data, "config")
    _check_keys(data, CONFIG_SECTIONS, "config")
    values = {}
    for section in CONFIG_SECTIONS:
        if sections[section][0] is SystemConfig:
            values.update(_values(section, data.get(section), section))
    return SystemConfig(
        capacitor=capacitor_from_dict(data.get("capacitor")),
        thresholds=build_section("thresholds", data.get("thresholds"), "thresholds"),
        **values,
    )


@cache
def _yaml_loader():
    """YAML 1.1 safe loading, with 1e-6 and 2.5e0 read as floats: YAML 1.1
    takes an exponent without a dot, or without a sign after the e, as text."""
    import yaml

    class Loader(yaml.SafeLoader):
        pass

    Loader.add_implicit_resolver(
        "tag:yaml.org,2002:float",
        re.compile(r"^[-+]?[0-9][0-9_]*(?:\.[0-9_]*)?[eE][-+]?[0-9]+$"),
        list("-+0123456789"),
    )
    return Loader


def _load_yaml(path: str, what: str) -> dict:
    import yaml  # here, not at the top: the generator commands read no YAML

    try:
        with open(path) as handle:
            data = yaml.load(handle, _yaml_loader())
    except OSError as exc:
        raise ConfigError([f"cannot read {what} {path}: {exc}"]) from exc
    except yaml.YAMLError as exc:
        raise ConfigError([f"unparseable {what} {path}: {exc}"]) from exc
    return {} if data is None else data


def load_config(path: str) -> SystemConfig:
    """Read and validate a YAML config file."""
    config = config_from_dict(_load_yaml(path, "config file"))  # binds validate_config
    return validate_config(config)


def load_sweep_spec(path: str) -> SweepSpec:
    """Read a sweep spec: capacitor list, interval list, base config, trace."""
    data = _mapping(_load_yaml(path, "sweep spec"), "sweep")
    _check_keys(data, {"capacitors", "fix_intervals_s", "base", "trace", "generate"}, "sweep")

    def entries(key: str) -> list:
        value = data.get(key)
        if not isinstance(value, list) or not value:
            raise ConfigError([f"sweep.{key} must be a non-empty list"])
        return value

    capacitors = tuple(  # a bare number is a stocked size
        capacitor_from_dict(entry if isinstance(entry, dict) else {"capacitance_f": entry}, f"sweep.capacitors[{i}]")
        for i, entry in enumerate(entries("capacitors"))
    )
    intervals = tuple(_int(value, f"sweep.fix_intervals_s[{i}]") for i, value in enumerate(entries("fix_intervals_s")))
    base = _mapping(data.get("base"), "sweep.base")
    overwritten = []  # the grid sets these in every cell, so a base value would be dropped
    if "capacitor" in base:
        overwritten.append("sweep.base.capacitor is set in every cell by sweep.capacitors")
    if "fix_s" in _mapping(base.get("intervals"), "sweep.base.intervals"):
        overwritten.append("sweep.base.intervals.fix_s is set in every cell by sweep.fix_intervals_s")
    if overwritten:
        raise ConfigError(overwritten)
    base = config_from_dict(base)

    trace_path = data.get("trace")
    if trace_path is not None and (not isinstance(trace_path, str) or not trace_path):
        raise ConfigError([f"sweep.trace must be a non-empty path, got {trace_path!r}"])
    generator = build_section("generate", data["generate"], "generate") if "generate" in data else None
    if trace_path is None and generator is None:
        generator = GeneratorSpec()
    if trace_path is not None and generator is not None:
        raise ConfigError(["sweep: give either trace or generate, not both"])

    return SweepSpec(capacitors, intervals, base, trace_path, generator)
