"""YAML config and sweep-spec parsing."""

import argparse
from collections import Counter
from dataclasses import fields, is_dataclass

import pytest
import yaml
from hypothesis import given
from hypothesis import strategies as st

from captrack.configfile import (
    CONFIG_SECTIONS,
    SECTIONS,
    GeneratorSpec,
    _load_yaml,
    build_section,
    config_from_dict,
    load_config,
    load_sweep_spec,
)
from captrack.cli import build_parser
from captrack.energy_model import CapacitorSpec, ConfigError, SystemConfig, VoltageThresholds
from captrack.harvest import ActivityProfile, SolarProfile


def test_empty_config_gives_defaults():
    cfg = config_from_dict({})
    assert cfg == SystemConfig()


def test_load_config_overrides(tmp_path):
    path = tmp_path / "config.yaml"
    path.write_text(
        """
capacitor:
  capacitance_f: 5.0
intervals:
  fix_s: 300
  transmit_s: null
sim:
  initial_voltage: 4.0
  task_jitter: true
"""
    )
    cfg = load_config(str(path))
    assert cfg.capacitor.capacitance_f == 5.0
    assert cfg.capacitor.leakage_ma == 0.030  # paired with the stocked size
    assert cfg.fix_interval_s == 300
    assert cfg.transmit_interval_s is None
    assert cfg.initial_voltage == 4.0
    assert cfg.task_jitter is True
    # Validation ran: cold threshold filled in for the 5 F build.
    assert cfg.thresholds.cold_start == pytest.approx(1.91)


def test_explicit_cold_threshold_kept(tmp_path):
    path = tmp_path / "config.yaml"
    path.write_text("thresholds:\n  cold_start: 2.5\n")
    assert load_config(str(path)).thresholds.cold_start == 2.5


@pytest.mark.parametrize(
    "text, value",
    [("1e-6", 1e-6), ("1E3", 1000.0), ("2.5e0", 2.5), ("-1.5e-2", -0.015), ("60", 60), ("2.5", 2.5),
     ("'1e-6'", "1e-6")],
)
def test_exponent_numbers_are_floats(tmp_path, text, value):
    # YAML 1.1 reads an exponent without a dot as text: capacitance_f: 1e-6
    # exited 2 with "must be a number, got '1e-6'".
    path = tmp_path / "config.yaml"
    path.write_text(f"value: {text}\n")
    loaded = _load_yaml(str(path), "config file")["value"]
    assert loaded == value and type(loaded) is type(value)


def test_exponent_numbers_load(tmp_path):
    path = tmp_path / "config.yaml"
    path.write_text("capacitor: {capacitance_f: 25e-1, leakage_ma: 1.6e-2}\nsim: {initial_voltage: 4e0}\n")
    cfg = load_config(str(path))
    assert (cfg.capacitor.capacitance_f, cfg.capacitor.leakage_ma, cfg.initial_voltage) == (2.5, 0.016, 4.0)


def test_unknown_keys_rejected():
    with pytest.raises(ConfigError, match="unknown key"):
        config_from_dict({"capacitor": {"capacitance": 2.5}})
    with pytest.raises(ConfigError, match="unknown key"):
        config_from_dict({"typo_section": {}})


def test_nonstocked_capacitance_needs_leakage():
    with pytest.raises(ConfigError, match="leakage_ma required"):
        config_from_dict({"capacitor": {"capacitance_f": 3.3}})
    cfg = config_from_dict({"capacitor": {"capacitance_f": 3.3, "leakage_ma": 0.02}})
    assert cfg.capacitor.leakage_ma == 0.02


def test_type_errors():
    with pytest.raises(ConfigError, match="must be a number"):
        config_from_dict({"sim": {"initial_voltage": "high"}})
    with pytest.raises(ConfigError, match="must be a boolean"):
        config_from_dict({"sim": {"task_jitter": "yes"}})
    with pytest.raises(ConfigError, match="must be a mapping"):
        config_from_dict({"capacitor": [1, 2]})


def test_invalid_config_fails_at_load(tmp_path):
    path = tmp_path / "config.yaml"
    path.write_text("intervals:\n  fix_s: 90\n")
    with pytest.raises(ConfigError, match="not a multiple of base tick"):
        load_config(str(path))


def test_missing_file():
    with pytest.raises(ConfigError, match="cannot read"):
        load_config("/nonexistent/config.yaml")


def test_profile_parsers():
    solar = build_section("solar", {"peak_wm2": 450, "cloud_amplitude": 0.2}, "solar")
    assert solar.peak_wm2 == 450.0
    assert solar.sunrise_min == 510
    with pytest.raises(ConfigError, match="unknown key"):
        build_section("solar", {"peak": 450}, "solar")

    activity = build_section("kinetic", {"daily_energy_j": 20.0}, "kinetic")
    assert activity.daily_energy_j == 20.0
    with pytest.raises(ConfigError, match="four values"):
        build_section("kinetic", {"weights": [0.5, 0.5]}, "kinetic")
    with pytest.raises(ConfigError, match="sum to 1"):
        build_section("kinetic", {"weights": [0.5, 0.5, 0.5, 0.5]}, "kinetic")


def test_generator_parser():
    spec = build_section("generate", {"days": 7}, "generate")
    assert spec.days == 7
    assert spec.kinetic is not None
    assert build_section("generate", {"kinetic": False}, "generate").kinetic is None


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_load_sweep_spec(tmp_path):
    path = tmp_path / "sweep.yaml"
    path.write_text(
        """
capacitors: [1.0, 2.5]
fix_intervals_s: [120, 300]
base:
  sim:
    initial_voltage: 5.0
generate:
  days: 3
"""
    )
    spec = load_sweep_spec(str(path))
    assert [c.capacitance_f for c in spec.capacitors] == [1.0, 2.5]
    assert [c.leakage_ma for c in spec.capacitors] == [0.010, 0.016]
    assert spec.fix_intervals_s == (120, 300)
    assert spec.base.initial_voltage == 5.0
    assert spec.trace_path is None
    assert spec.generator.days == 3
    configs = spec.combinations()
    assert len(configs) == 4
    assert {c.capacitor.capacitance_f for c in configs} == {1.0, 2.5}
    assert {c.fix_interval_s for c in configs} == {120, 300}


def test_sweep_explicit_capacitor_and_default_generator(tmp_path):
    path = tmp_path / "sweep.yaml"
    path.write_text(
        """
capacitors:
  - {capacitance_f: 3.0, leakage_ma: 0.02}
fix_intervals_s: [120]
"""
    )
    spec = load_sweep_spec(str(path))
    assert spec.capacitors[0].leakage_ma == 0.02
    assert spec.generator == GeneratorSpec()


def test_sweep_validation_errors(tmp_path):
    path = tmp_path / "bad.yaml"
    path.write_text("capacitors: []\nfix_intervals_s: [120]\n")
    with pytest.raises(ConfigError, match="non-empty list"):
        load_sweep_spec(str(path))

    path.write_text("capacitors: [9.9]\nfix_intervals_s: [120]\n")
    with pytest.raises(ConfigError, match=r"capacitors\[0\]"):
        load_sweep_spec(str(path))

    path.write_text("capacitors: [2.5]\nfix_intervals_s: [120]\ntrace: x.csv\ngenerate: {days: 2}\n")
    with pytest.raises(ConfigError, match="not both"):
        load_sweep_spec(str(path))


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_sweep_bad_cell_aborts_everything(tmp_path):
    # One off-grid interval poisons the whole grid before any cell runs.
    path = tmp_path / "sweep.yaml"
    path.write_text("capacitors: [1.0, 2.5]\nfix_intervals_s: [120, 90]\n")
    spec = load_sweep_spec(str(path))
    with pytest.raises(ConfigError) as info:
        spec.combinations()
    assert len(info.value.errors) == 2  # both capacitors report the 90 s cell


def test_sweep_capacitor_mapping_pairs_stocked_leakage(tmp_path):
    path = tmp_path / "sweep.yaml"
    path.write_text("capacitors: [{capacitance_f: 5.0}, {capacitance_f: 1.0, v_max: 5.0}]\nfix_intervals_s: [120]\n")
    spec = load_sweep_spec(str(path))
    assert spec.capacitors == (CapacitorSpec(5.0, 0.030), CapacitorSpec(1.0, 0.010, 5.0))


def test_whole_number_fields_take_integral_floats():
    cfg = config_from_dict({"intervals": {"fix_s": 300.0}, "sim": {"random_seed": 7.0}})
    assert (cfg.fix_interval_s, cfg.random_seed) == (300, 7)
    assert type(cfg.fix_interval_s) is int and type(cfg.random_seed) is int
    with pytest.raises(ConfigError, match="must be a number"):
        config_from_dict({"intervals": {"fix_s": True}})


SCHEMA_CLASSES = (SystemConfig, CapacitorSpec, VoltageThresholds, SolarProfile, ActivityProfile, GeneratorSpec)


def test_schema_reaches_every_field_once():
    # No config field may be silently ignored: each field of each dataclass
    # a file builds is set by exactly one YAML key.
    reached = Counter((cls, name) for cls, keys in SECTIONS.values() for name in keys.values())
    # The capacitor and thresholds sections are SystemConfig's fields of those names.
    reached.update((SystemConfig, section) for section in CONFIG_SECTIONS if SECTIONS[section][0] is not SystemConfig)
    assert set(reached) == {(cls, f.name) for cls in SCHEMA_CLASSES for f in fields(cls)}
    assert max(reached.values()) == 1

    # The generator commands take the same keys as flags: each profile field
    # is set by exactly one flag, spelled as its key with hyphens.
    commands = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)).choices
    for command, section in (("gen-solar", "solar"), ("gen-kinetic", "kinetic")):
        cls, keys = SECTIONS[section]
        flags = Counter()
        for action in commands[command]._actions:
            if action.dest in keys:
                assert action.option_strings == ["--" + action.dest.replace("_", "-")]
                flags[keys[action.dest]] += 1
        assert flags == Counter(f.name for f in fields(cls))


def written(obj, section: str) -> dict:
    """obj's fields as the keys of its section, as a YAML file holds them."""
    out = {}
    for key, name in SECTIONS[section][1].items():
        value = getattr(obj, name)
        out[key] = written(value, key) if is_dataclass(value) else list(value) if isinstance(value, tuple) else value
    return out


def config_sections(config: SystemConfig) -> dict:
    return {
        section: written(config if SECTIONS[section][0] is SystemConfig else getattr(config, section), section)
        for section in CONFIG_SECTIONS
    }


NUMBERS = {
    "float": st.floats(allow_nan=False, allow_infinity=False),
    "int": st.integers(-(2**63), 2**63),
    "bool": st.booleans(),
}
NUMBERS["float | None"] = st.none() | NUMBERS["float"]
NUMBERS["int | None"] = st.none() | NUMBERS["int"]


def dataclass_of(cls, **nested):
    return st.builds(cls, **{f.name: NUMBERS[f.type] for f in fields(cls) if f.name not in nested}, **nested)


@given(dataclass_of(
    SystemConfig, capacitor=dataclass_of(CapacitorSpec), thresholds=dataclass_of(VoltageThresholds)
))
def test_config_round_trips_through_its_sections(config):
    text = yaml.safe_dump(config_sections(config))
    assert config_from_dict(yaml.safe_load(text)) == config


def test_generator_round_trips_through_its_section():
    spec = GeneratorSpec(3, SolarProfile(seed=5, peak_wm2=450.5), ActivityProfile(weights=(0.25, 0.25, 0.25, 0.25)))
    assert build_section("generate", yaml.safe_load(yaml.safe_dump(written(spec, "generate"))), "generate") == spec
