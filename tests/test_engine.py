"""Simulation loop: tick execution, crossings, ledger, metrics, export."""

import csv
import math
from dataclasses import replace

import numpy as np
import pytest

from captrack.capacitor import equivalent_resistance
from captrack.device import FIX, SENSE, TRANSMIT
from captrack.energy_model import CapacitorSpec, SystemConfig, VoltageThresholds
from captrack.engine import (
    EVENT_KINDS,
    TIMESERIES_HEADER,
    EventLog,
    compute_metrics,
    export_timeseries,
    fix_record,
    run_simulation,
)
from captrack.harvest import (
    HarvestTrace,
    SolarChain,
    TraceError,
    generate_kinetic_trace,
    generate_synthetic_irradiance,
)

# Reference build used by the worked examples: 2.5 F with the conservative
# 30 uA leakage figure.
REF = replace(SystemConfig(), capacitor=CapacitorSpec(2.5, 0.030))
SLEEP_TAU = 2.5 * equivalent_resistance(3.3, 0.05865)


def flat_trace(ticks, combined_a, kinetic_a=0.0):
    return HarvestTrace(
        0, 60,
        np.full(ticks, combined_a), np.full(ticks, kinetic_a), np.full(ticks, combined_a),
    )


def one_tick(voltage, activities, combined_a, config):
    """A one-tick run from voltage with only the given activities due: its end
    voltage and log. A start below 2.2 V runs powered, its turn-on threshold
    lowered to just above v_min."""
    due = {SENSE: "sense_interval_s", FIX: "fix_interval_s", TRANSMIT: "transmit_interval_s"}
    intervals = {field: config.base_tick_s if activity in activities else None for activity, field in due.items()}
    thresholds = config.thresholds
    if voltage < thresholds.v_turn_on:
        thresholds = replace(thresholds, v_turn_on=1.805)
    config = replace(config, initial_voltage=voltage, thresholds=thresholds, **intervals)
    result = run_simulation(config, flat_trace(1, combined_a))
    return float(result.voltages[-1]), result.log


def winter_trace(days):
    solar = generate_synthetic_irradiance(days).samples * SolarChain().current_factor
    kinetic = generate_kinetic_trace(days)
    return HarvestTrace.build(solar, kinetic)


def kinds(log):
    return [EVENT_KINDS[k] for k in log.kind.tolist()]


def details(log):
    return [log.details[d] for d in log.detail.tolist()]


def hand_log(rows):
    """An EventLog from (time, kind name, v_before, v_after) rows."""
    return EventLog.from_rows([(t, EVENT_KINDS.index(kind), before, after, 0) for t, kind, before, after in rows])


def test_sense_that_depletes_logs_the_failed_task():
    # A start 1e-9 V above v_min: the ADC read crosses v_min after ~12.9 us
    # (2.5 F x 1e-9 V over the read's 0.355 mA scaled to 1.8 V of 3.3 V).
    v0 = 1.8 + 1e-9
    config = replace(
        SystemConfig(), initial_voltage=v0, thresholds=VoltageThresholds(v_turn_on=v0),
        sense_interval_s=60, fix_interval_s=None, transmit_interval_s=None,
    )
    result = run_simulation(config, flat_trace(1, 0.0))
    assert kinds(result.log) == ["TaskFailed", "Depletion"]
    assert details(result.log) == ["AdcRead", ""]
    assert result.log.time_s[0] == result.log.time_s[1] == pytest.approx(12.9e-6, rel=1e-2)
    assert result.log.voltage_after[0] == 1.8
    assert result.power_on.tolist() == [True, False]


def test_sleep_only_tick():
    v, log = one_tick(3.0, [], 0.0, REF)
    assert v == pytest.approx(2.99872, abs=1e-5)
    assert len(log) == 0


def test_transmit_tick():
    # 7.89 s burst at 20.799 mA, then sleep out the minute.
    v, log = one_tick(2.01, [TRANSMIT], 0.0, REF)
    assert v == pytest.approx(1.9696835, abs=1e-6)
    assert kinds(log) == ["Transmit"]
    assert log.time_s[0] == pytest.approx(7.89)
    assert details(log) == ["samples=0"]
    assert log.voltage_before[0] == pytest.approx(2.01)


def test_transmit_gate_skips_below_threshold():
    v, log = one_tick(1.99, [TRANSMIT], 0.0, REF)
    assert kinds(log) == ["TransmitSkipped"]
    assert details(log) == ["low-voltage"]
    # Only the sleep draw happened.
    assert v == pytest.approx(1.99 * math.exp(-60.0 / SLEEP_TAU), abs=1e-6)
    # A fix refused at its gate carries the same detail.
    _, log = one_tick(1.85, [FIX], 0.0, REF)
    assert kinds(log) == ["FixSkipped"]
    assert details(log) == ["low-voltage"]


def test_transmit_failure_mid_burst():
    # A threshold below the worst-case transmit droop lets the burst start
    # and then hit the floor partway through.
    cfg = replace(REF, thresholds=replace(VoltageThresholds(), nbiot=1.81))
    with pytest.warns(UserWarning, match="below its safe bound"):
        v, log = one_tick(1.81, [TRANSMIT], 0.0, cfg)
    assert kinds(log) == ["TransmitFailed", "Depletion"]
    fail_t, depletion_t = log.time_s.tolist()
    assert fail_t == pytest.approx(2.1975, abs=1e-3)
    assert fail_t == depletion_t
    r = equivalent_resistance(3.3, 20.799)
    assert fail_t == pytest.approx(2.5 * r * math.log(1.81 / 1.8), abs=1e-9)
    assert v < 1.8  # leakage coast continues below the floor while off


@pytest.mark.parametrize(("capacitance", "voltage", "current", "kinds_logged"), [
    (1.0, 5.412731162237595, 0.04541987935252668, ["ClampStart", "Transmit"]),
    (1.0, 1.850468712897585, 0.005095035179555174, ["TransmitFailed", "Depletion"]),
    (2.5, 5.444104975980202, 0.052176940229824956, ["ClampStart", "Transmit"]),
    (2.5, 1.8080406369005353, 0.008814780427726166, ["TransmitFailed", "Depletion"]),
], ids=["1F-v_max", "1F-v_min", "2.5F-v_max", "2.5F-v_min"])
def test_crossing_margin_keeps_crossings_inside_the_segment(capacitance, voltage, current, kinds_logged):
    # The upload's unclamped end voltage lands within rounding of v_max or
    # v_min, and time_to_voltage puts the crossing a few ulps before the
    # 7.89 s burst ends. _CROSSING_MARGIN keeps the cheap test from ruling
    # it out; without it (M = 1) each logs a plain Transmit at 7.89 s first.
    cfg = replace(SystemConfig(), capacitor=CapacitorSpec.from_capacitance(capacitance),
                  thresholds=replace(VoltageThresholds(), nbiot=1.801))
    with pytest.warns(UserWarning, match="below its safe bound"):
        _, log = one_tick(voltage, [TRANSMIT], current, cfg)
    assert kinds(log) == kinds_logged
    assert log.time_s[0] < 7.89


def test_one_tick_fix_kind_follows_start_state():
    # The ephemeris and backup domain at the start come from the config.
    _, log = one_tick(3.0, [FIX], 0.0, replace(SystemConfig(), initial_backup_valid=False))
    assert kinds(log) == ["FixCold"]
    _, log = one_tick(3.0, [FIX], 0.0, replace(SystemConfig(), initial_ephemeris_age_s=14400))
    assert kinds(log) == ["FixHotEph"]


def test_sense_and_fix_tick_events():
    v, log = one_tick(3.0, [SENSE, FIX], 0.0, REF)
    assert kinds(log) == ["Sense", "FixHot"]
    sense_t, fix_t = log.time_s.tolist()
    assert sense_t == pytest.approx(5e-05)
    # Hot fix: 1.0 s start + 0.38 ms write + 0.23 ms counter read.
    assert fix_t == pytest.approx(5e-05 + 1.0 + 0.00038 + 0.00023, abs=1e-6)
    assert log.voltage_before[1] < 3.0  # measured after the sense draw
    assert v < log.voltage_after[1]  # sleep keeps discharging


def test_depletion_time_is_analytic():
    # With every activity disabled the device only leaks; the crossing at
    # 1.8 V must land where the closed form puts it, not on a tick boundary.
    cfg = replace(
        REF, sense_interval_s=None, fix_interval_s=None, transmit_interval_s=None, initial_voltage=2.3
    )
    result = run_simulation(cfg, flat_trace(600, 0.0))
    log = result.log
    depletions = np.flatnonzero(log.kind == EVENT_KINDS.index("Depletion"))
    assert len(depletions) == 1
    expected = SLEEP_TAU * math.log(2.3 / 1.8)
    assert log.time_s[depletions[0]] == pytest.approx(expected, abs=1e-6)
    assert log.voltage_before[depletions[0]] == pytest.approx(1.8, abs=1e-12)
    assert result.metrics.depletion_count == 1
    assert result.metrics.total_off_s == pytest.approx(600 * 60 - expected)
    # No harvest: stays off, keeps sagging on leakage.
    assert not result.power_on[-1]
    assert result.metrics.min_voltage < 1.8


def test_recovery_and_cold_fix_after_powered_off_start():
    # Starting below v_turn_on means Off; strong harvest charges through the
    # hysteresis band and the first fix after recovery is cold.
    cfg = replace(SystemConfig(), initial_voltage=2.0)
    result = run_simulation(cfg, flat_trace(30, 0.01))
    names = kinds(result.log)
    assert names[0] == "Recovery"
    assert result.log.time_s[0] == 60.0
    first_fix = next(i for i, kind in enumerate(names) if kind.startswith("Fix"))
    assert names[first_fix] == "FixCold"
    assert result.log.time_s[first_fix] == pytest.approx(120 + 36.118, abs=0.01)
    assert result.metrics.total_off_s == 60.0
    assert result.metrics.cold_starts == 1
    # Later fixes run hot once the ephemeris is fresh.
    assert result.metrics.hot_fixes > 0


def test_starts_depleted_stays_dark():
    cfg = replace(SystemConfig(), initial_voltage=1.8)
    result = run_simulation(cfg, flat_trace(60, 0.0))
    assert result.metrics.total_fixes == 0
    assert len(result.log) == 0
    assert result.metrics.total_off_s == 3600.0
    assert not result.power_on.any()
    assert result.voltages[-1] < 1.8


def test_clamp_crossing_and_discard():
    v, log = one_tick(5.4, [], 0.01, SystemConfig())
    assert v == 5.5
    assert kinds(log) == ["ClampStart"]
    assert 0.0 < log.time_s[0] < 60.0

    cfg = replace(
        SystemConfig(), initial_voltage=5.4,
        sense_interval_s=None, fix_interval_s=None, transmit_interval_s=None,
    )
    result = run_simulation(cfg, flat_trace(10, 0.01))
    assert result.ledger.discarded_at_clamp_j > 0.0
    assert abs(result.ledger.closure_error_j) < 1e-9
    assert float(result.voltages.max()) == 5.5


def test_ledger_closure_on_winter_run():
    trace = winter_trace(2)
    result = run_simulation(SystemConfig(), trace)
    led = result.ledger
    scale = max(led.harvested_in_j, led.consumed_total_j)
    assert abs(led.closure_error_j) < 1e-9 * scale
    assert led.leakage_j > 0.0
    assert set(led.consumed_by_task_j) >= {"Sleep", "AdcRead", "HotStart", "NbIot"}
    # Stored-energy change matches the voltage endpoints.
    c = result.config.capacitor.capacitance_f
    assert led.delta_stored_j == pytest.approx(
        0.5 * c * (result.voltages[-1] ** 2 - result.voltages[0] ** 2)
    )


def test_event_log_time_ordered():
    result = run_simulation(SystemConfig(), winter_trace(1))
    assert np.all(np.diff(result.log.time_s) >= 0.0)
    assert result.metrics.total_fixes == 720
    assert result.metrics.transmissions == 24


def test_coulomb_closure_without_transmissions():
    # Transmit disabled so no sample is delivered: the recorded charge plus
    # the charge counted after the last fix must equal the kinetic charge.
    trace = winter_trace(1)
    cfg = replace(SystemConfig(), transmit_interval_s=None)
    result = run_simulation(cfg, trace)
    record = fix_record(result)
    charge_in = float(trace.kinetic_a.sum()) * 60.0
    assert float(record.coulomb_c.sum()) + record.undrained_c == pytest.approx(charge_in, rel=1e-9)
    assert record.time_s.size == result.metrics.total_fixes
    assert np.isnan(record.delivered_s).all()


def test_determinism_with_jitter():
    trace = winter_trace(1)
    cfg = replace(SystemConfig(), task_jitter=True)
    a = run_simulation(cfg, trace)
    b = run_simulation(cfg, trace)
    assert np.array_equal(a.voltages, b.voltages)
    for column in ("time_s", "kind", "voltage_before", "voltage_after", "detail"):
        assert np.array_equal(getattr(a.log, column), getattr(b.log, column))
    assert a.log.details == b.log.details
    c = run_simulation(replace(cfg, random_seed=7), trace)
    assert not np.array_equal(a.voltages, c.voltages)


def test_trace_validation_errors():
    cfg = SystemConfig()
    with pytest.raises(TraceError, match="resolution"):
        run_simulation(cfg, HarvestTrace(0, 30, np.zeros(10), np.zeros(10), np.zeros(10)))
    with pytest.raises(TraceError, match="shorter than requested"):
        run_simulation(cfg, flat_trace(10, 0.0), duration_s=3600)
    with pytest.raises(TraceError, match="multiple of base tick"):
        run_simulation(cfg, flat_trace(10, 0.0), duration_s=90)
    with pytest.raises(TraceError, match="positive"):
        run_simulation(cfg, flat_trace(10, 0.0), duration_s=0)


def make_fix(t):
    return (float(t), "FixHot", 3.0, 3.0)


def test_metrics_per_day_statistics():
    events = [make_fix(d * 86400 + i * 120) for d in range(3) for i in range(720)]
    m = compute_metrics(hand_log(events), 3 * 86400)
    assert m.total_fixes == 2160
    assert m.fixes_per_day_mean == 720.0
    assert m.fixes_per_day_std == 0.0
    assert len(m.per_day) == 3
    assert all(d.total == 720 for d in m.per_day)

    # 719/721 alternating: population deviation 1.
    events = [make_fix(i * 120) for i in range(719)]
    events += [make_fix(86400 + i * 110) for i in range(721)]
    m = compute_metrics(hand_log(sorted(events)), 2 * 86400)
    assert m.fixes_per_day_mean == 720.0
    assert m.fixes_per_day_std == 1.0


def test_metrics_empty_log():
    m = compute_metrics(hand_log([]), 86400)
    assert m.total_fixes == 0
    assert m.fixes_per_day_mean == 0.0
    assert m.longest_data_gap_s == 0.0
    assert m.min_voltage == 0.0


def test_metrics_longest_gap():
    events = [make_fix(100), make_fix(200)]
    m = compute_metrics(hand_log(events), 1000)
    assert m.longest_data_gap_s == 800.0
    # A log with activity but no fixes gaps the whole run.
    m = compute_metrics(hand_log([(10.0, "Sense", 3.0, 3.0)]), 1000)
    assert m.longest_data_gap_s == 1000.0


def test_metrics_partial_day_excluded():
    events = [make_fix(i * 120) for i in range(720)] + [make_fix(86400 + 60)]
    m = compute_metrics(hand_log(events), 86400 + 7200)
    assert m.total_fixes == 721  # totals still count everything
    assert len(m.per_day) == 1  # stats only over the complete day
    assert m.fixes_per_day_mean == 720.0


def test_export_timeseries(tmp_path):
    cfg = replace(
        REF, sense_interval_s=None, fix_interval_s=None, transmit_interval_s=None, initial_voltage=2.3
    )
    result = run_simulation(cfg, flat_trace(600, 0.0))
    path = tmp_path / "run.csv"
    export_timeseries(result, str(path))
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == TIMESERIES_HEADER
    body = rows[1:]
    assert len(body) == 601 + len(result.log)
    times = [float(r[0]) for r in body]
    assert times == sorted(times)
    assert any(r[6] == "Depletion" for r in body)
    for r in body:
        voltage, state = float(r[1]), r[5]
        assert voltage <= 5.5
        if voltage < 1.8 - 1e-9:
            assert state == "Off"  # floor violations only while powered down


def test_export_timeseries_event_labels(tmp_path):
    result = run_simulation(SystemConfig(), winter_trace(1))
    path = tmp_path / "day.csv"
    export_timeseries(result, str(path))
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    labels = [r[6] for r in rows[1:] if r[6]]
    assert any(label.startswith("Transmit:samples=") for label in labels)
    assert "FixHot" in labels
