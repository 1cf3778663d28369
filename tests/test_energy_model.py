"""Task current composition, energies, thresholds, config validation."""

import math
import pickle
import warnings

import numpy as np
import pytest

from captrack.energy_model import (
    GPS_BACKUP_MA,
    LEAKAGE_BY_CAPACITANCE,
    MCU_ACTIVE_BASE_MA,
    TASKS,
    CapacitorSpec,
    ConfigError,
    SystemConfig,
    VoltageThresholds,
    compose_task_current,
    safe_voltage_threshold,
    task_energy,
    validate_config,
)
from dataclasses import replace

# System-level currents at the 30 uA characterization leakage, as printed in
# the bench table, with the timed rows' durations and printed energies.
SYSTEM_ROWS = [
    # task, current mA, duration s (None = continuous), energy mJ
    ("HotStart", 7.621, 1.0, 25.15),
    ("WarmStart", 7.621, 4.0, 100.6),
    ("EphemerisDownload", 7.621, 30.0, 754.5),
    ("ColdStart", 8.121, 36.118, 967.9),
    ("GpsI2cWrite", 2.121, 0.00038, 0.00266),
    ("Sleep", 0.05865, None, None),
    ("NbIot", 20.799, 7.89, 541.5),
    ("AdcRead", 0.369, 0.00005, 0.000061),
    ("I2cReadCoulomb", 0.149, 0.00023, 0.000113),
    ("TurnedOff", 0.030, None, None),
]


def test_system_currents_reproduce_printed_values():
    for task, printed_ma, _, _ in SYSTEM_ROWS:
        assert compose_task_current(task, 0.030) == pytest.approx(printed_ma, abs=1e-9)


def test_system_energies_match_within_rounding():
    for task, current_ma, duration, printed_mj in SYSTEM_ROWS:
        if duration is None:
            continue
        assert task_energy(current_ma, duration, 3.3) == pytest.approx(printed_mj, abs=0.05)


def test_recomposition_with_smaller_capacitor_leakage():
    # 2.5 F pairs with 16 uA; the NB-IoT stack shrinks accordingly.
    assert compose_task_current("NbIot", 0.016) == pytest.approx(20.785, abs=1e-9)


def test_compose_rejects_unknown_task_and_bad_leakage():
    with pytest.raises(KeyError):
        compose_task_current("Nonsense", 0.030)
    with pytest.raises(ValueError):
        compose_task_current("Sleep", 0.0)
    with pytest.raises(ValueError):
        compose_task_current("Sleep", -0.01)


def test_compose_monotone_in_leakage():
    rng = np.random.default_rng(7)
    names = list(TASKS)
    for _ in range(200):
        task = names[rng.integers(len(names))]
        small, big = sorted(rng.uniform(0.001, 0.1, size=2))
        delta = compose_task_current(task, big) - compose_task_current(task, small)
        assert delta == pytest.approx(big - small, rel=1e-12)


def test_task_energy_examples_and_bilinearity():
    assert task_energy(7.621, 1.0, 3.3) == pytest.approx(25.15, abs=0.05)
    assert task_energy(20.799, 7.89, 3.3) == pytest.approx(541.5, abs=0.05)
    assert task_energy(123.0, 0.0, 3.3) == 0.0
    rng = np.random.default_rng(8)
    for _ in range(100):
        i, d = rng.uniform(0.01, 30.0, size=2)
        a, b = rng.uniform(0.5, 3.0, size=2)
        assert task_energy(a * i, d, 3.3) == pytest.approx(a * task_energy(i, d, 3.3), rel=1e-12)
        assert task_energy(i, b * d, 3.3) == pytest.approx(b * task_energy(i, d, 3.3), rel=1e-12)


def test_safe_threshold_values():
    assert safe_voltage_threshold(0.0, 2.5, 1.8) == 1.8
    assert safe_voltage_threshold(967.9, 2.5, 1.8) == pytest.approx(2.0036, abs=5e-4)
    assert safe_voltage_threshold(541.5, 2.5, 1.8) == pytest.approx(1.9166, abs=5e-4)


def test_safe_threshold_against_discharge_oracle():
    # Drain the task energy from the threshold voltage in many small equal
    # energy steps; the terminal voltage must land on v_min.
    energy_mj, cap, v_min = 967.9, 2.5, 1.8
    v = safe_voltage_threshold(energy_mj, cap, v_min)
    steps = 200_000
    de = energy_mj / 1000.0 / steps
    for _ in range(steps):
        v = math.sqrt(v * v - 2.0 * de / cap)
    assert v == pytest.approx(v_min, abs=1e-9)


def test_safe_threshold_monotonicity():
    rng = np.random.default_rng(9)
    for _ in range(200):
        e = rng.uniform(0.0, 2000.0)
        c = rng.uniform(0.5, 10.0)
        assert safe_voltage_threshold(e + 1.0, c, 1.8) > safe_voltage_threshold(e, c, 1.8)
        assert safe_voltage_threshold(e + 1.0, c + 1.0, 1.8) < safe_voltage_threshold(e + 1.0, c, 1.8)


def test_component_table_contents():
    # Nine measured task draws, and the three always-on draws beside them.
    by_label = {spec.label: spec for spec in TASKS.values() if spec.label}
    assert len(by_label) == 9
    assert (GPS_BACKUP_MA, MCU_ACTIVE_BASE_MA, LEAKAGE_BY_CAPACITANCE[5.0]) == (0.028, 0.091, 0.030)
    assert by_label["GPS hot start"].base_ma == 7.5
    assert by_label["GPS hot start"].duration_s == 1.0
    assert by_label["MCU Sleep (standby)"].base_ma == 0.00065
    assert by_label["MCU Sleep (standby)"].duration_s is None
    nbiot = by_label["NB-IoT"]
    assert (nbiot.base_ma, nbiot.duration_s) == (20.65, 7.89)
    assert (nbiot.base_std_ma, nbiot.duration_std_s) == (2.78, 1.66)
    cold = by_label["GPS cold start"]
    assert cold.duration_s == 36.118
    assert cold.duration_std_s == 1.96


def test_capacitor_pairings():
    assert LEAKAGE_BY_CAPACITANCE == {1.0: 0.010, 2.5: 0.016, 5.0: 0.030}
    spec = CapacitorSpec.from_capacitance(2.5)
    assert (spec.capacitance_f, spec.leakage_ma, spec.v_max) == (2.5, 0.016, 5.5)
    with pytest.raises(ValueError):
        CapacitorSpec.from_capacitance(3.3)


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_default_config_is_valid_and_derives_cold_threshold():
    cfg = validate_config(SystemConfig())
    assert cfg.thresholds.cold_start == pytest.approx(2.01)
    # Derived cold thresholds for the other stocked sizes; the 1 F case
    # also warns that the stock thresholds sit below its safe bounds.
    for cap_f, expected in ((1.0, 2.28), (5.0, 1.91)):
        cfg = validate_config(replace(SystemConfig(), capacitor=CapacitorSpec.from_capacitance(cap_f)))
        assert cfg.thresholds.cold_start == pytest.approx(expected)


def test_validate_rejects_off_grid_interval():
    bad = replace(SystemConfig(), fix_interval_s=90)
    with pytest.raises(ConfigError, match="not a multiple of base tick"):
        validate_config(bad)


def test_validate_rejects_excess_initial_voltage():
    bad = replace(SystemConfig(), initial_voltage=6.0)
    with pytest.raises(ConfigError, match="exceeds v_max 5.5"):
        validate_config(bad)


def test_validate_rejects_inverted_hysteresis():
    bad = replace(SystemConfig(), thresholds=VoltageThresholds(v_min=2.3, v_turn_on=2.2))
    with pytest.raises(ConfigError, match="v_min < v_turn_on"):
        validate_config(bad)


@pytest.mark.parametrize("v_turn_on", [5.5, 6.0])
def test_validate_rejects_turn_on_at_or_above_v_max(v_turn_on):
    # A device that can never reach its turn-on voltage never runs.
    bad = replace(SystemConfig(), thresholds=VoltageThresholds(v_turn_on=v_turn_on))
    with pytest.raises(ConfigError, match=f"need v_turn_on < v_max, got {v_turn_on} / 5.5"):
        validate_config(bad)


def test_validate_collects_multiple_errors():
    bad = replace(SystemConfig(), fix_interval_s=90, initial_voltage=6.0)
    with pytest.raises(ConfigError) as info:
        validate_config(bad)
    assert len(info.value.errors) == 2


def test_config_error_survives_pickling():
    # A sweep worker's exception reaches the parent pickled.
    errors = ["capacitance must be positive", "v_min above v_max"]
    copy = pickle.loads(pickle.dumps(ConfigError(errors)))
    assert type(copy) is ConfigError
    assert copy.errors == errors
    assert str(copy) == "capacitance must be positive; v_min above v_max"


def test_validate_rejects_tick_smaller_than_task_stack():
    bad = replace(SystemConfig(), base_tick_s=30, sense_interval_s=60, fix_interval_s=120)
    with pytest.raises(ConfigError, match="task stack"):
        validate_config(bad)


def test_validate_allows_disabled_intervals():
    cfg = replace(SystemConfig(), sense_interval_s=None, fix_interval_s=None, transmit_interval_s=None)
    validated = validate_config(cfg)
    assert validated.fix_interval_s is None


def test_validate_warns_on_aggressive_threshold():
    cfg = replace(SystemConfig(), thresholds=VoltageThresholds(cold_start=1.85))
    with pytest.warns(UserWarning, match="below its safe bound"):
        validate_config(cfg)


def test_derived_cold_threshold_is_not_warned_about():
    # With a tiny supply the cold chain's safe bound is 1.800000000006507 V,
    # which rounds up (less 1e-9) to 1.80 V, just below it. The config left the
    # threshold to be derived, so neither its validation nor a second one of
    # the validated config (as run_simulation does) warns.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        validated = validate_config(SystemConfig(v_supply=1e-10))
        assert validated.thresholds.cold_start == 1.8
        assert validate_config(validated) == validated
