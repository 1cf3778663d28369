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
    SimEvent,
    TIMESERIES_HEADER,
    compute_metrics,
    export_timeseries,
    integrate_tick,
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


def winter_trace(days):
    solar = generate_synthetic_irradiance(days).samples * SolarChain().current_factor
    kinetic = generate_kinetic_trace(days)
    return HarvestTrace.build(solar, kinetic)


def test_sleep_only_tick():
    v, events = integrate_tick(3.0, [], 0.0, REF)
    assert v == pytest.approx(2.99872, abs=1e-5)
    assert events == []


def test_transmit_tick():
    # 7.89 s burst at 20.799 mA, then sleep out the minute.
    v, events = integrate_tick(2.01, [TRANSMIT], 0.0, REF)
    assert v == pytest.approx(1.9696835, abs=1e-6)
    assert [e.kind for e in events] == ["Transmit"]
    assert events[0].time_s == pytest.approx(7.89)
    assert events[0].detail == "samples=0"
    assert events[0].voltage_before == pytest.approx(2.01)


def test_transmit_gate_skips_below_threshold():
    v, events = integrate_tick(1.99, [TRANSMIT], 0.0, REF)
    assert [e.kind for e in events] == ["TransmitSkipped"]
    assert events[0].detail == "low-voltage"
    # Only the sleep draw happened.
    assert v == pytest.approx(1.99 * math.exp(-60.0 / SLEEP_TAU), abs=1e-6)


def test_transmit_failure_mid_burst():
    # A threshold below the worst-case transmit droop lets the burst start
    # and then hit the floor partway through.
    cfg = replace(REF, thresholds=replace(VoltageThresholds(), nbiot=1.81))
    with pytest.warns(UserWarning, match="below its safe bound"):
        v, events = integrate_tick(1.81, [TRANSMIT], 0.0, cfg)
    assert [e.kind for e in events] == ["TransmitFailed", "Depletion"]
    fail, depletion = events
    assert fail.time_s == pytest.approx(2.1975, abs=1e-3)
    assert fail.time_s == depletion.time_s
    r = equivalent_resistance(3.3, 20.799)
    assert fail.time_s == pytest.approx(2.5 * r * math.log(1.81 / 1.8), abs=1e-9)
    assert v < 1.8  # leakage coast continues below the floor while off


def test_sense_and_fix_tick_events():
    v, events = integrate_tick(3.0, [SENSE, FIX], 0.0, REF)
    assert [e.kind for e in events] == ["Sense", "FixHot"]
    sense, fix = events
    assert sense.time_s == pytest.approx(5e-05)
    # Hot fix: 1.0 s start + 0.38 ms write + 0.23 ms counter read.
    assert fix.time_s == pytest.approx(5e-05 + 1.0 + 0.00038 + 0.00023, abs=1e-6)
    assert fix.voltage_before < 3.0  # measured after the sense draw
    assert v < fix.voltage_after  # sleep keeps discharging


def test_depletion_time_is_analytic():
    # With every activity disabled the device only leaks; the crossing at
    # 1.8 V must land where the closed form puts it, not on a tick boundary.
    cfg = replace(
        REF, sense_interval_s=None, fix_interval_s=None, transmit_interval_s=None, initial_voltage=2.3
    )
    result = run_simulation(cfg, flat_trace(600, 0.0))
    depletions = [e for e in result.events if e.kind == "Depletion"]
    assert len(depletions) == 1
    expected = SLEEP_TAU * math.log(2.3 / 1.8)
    assert depletions[0].time_s == pytest.approx(expected, abs=1e-6)
    assert depletions[0].voltage_before == pytest.approx(1.8, abs=1e-12)
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
    kinds = [e.kind for e in result.events]
    assert kinds[0] == "Recovery"
    assert result.events[0].time_s == 60.0
    first_fix = next(e for e in result.events if e.kind.startswith("Fix"))
    assert first_fix.kind == "FixCold"
    assert first_fix.time_s == pytest.approx(120 + 36.118, abs=0.01)
    assert result.metrics.total_off_s == 60.0
    assert result.metrics.cold_starts == 1
    # Later fixes run hot once the ephemeris is fresh.
    assert result.metrics.hot_fixes > 0


def test_starts_depleted_stays_dark():
    cfg = replace(SystemConfig(), initial_voltage=1.8)
    result = run_simulation(cfg, flat_trace(60, 0.0))
    assert result.metrics.total_fixes == 0
    assert result.events == []
    assert result.metrics.total_off_s == 3600.0
    assert not result.power_on.any()
    assert result.voltages[-1] < 1.8


def test_clamp_crossing_and_discard():
    v, events = integrate_tick(5.4, [], 0.01, SystemConfig())
    assert v == 5.5
    assert [e.kind for e in events] == ["ClampStart"]
    assert 0.0 < events[0].time_s < 60.0

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
    times = [e.time_s for e in result.events]
    assert all(a <= b for a, b in zip(times, times[1:]))
    assert result.metrics.total_fixes == 720
    assert result.metrics.transmissions == 24


def test_coulomb_closure_without_transmissions():
    # Transmit disabled so the buffer keeps every sample: buffered charge
    # plus the unread accumulator must equal the integrated kinetic charge.
    trace = winter_trace(1)
    cfg = replace(SystemConfig(), transmit_interval_s=None)
    result = run_simulation(cfg, trace)
    charge_in = float(trace.kinetic_a.sum()) * 60.0
    buffered = sum(s.coulomb_c for s in result.device.buffer)
    assert buffered + result.device.coulomb_accumulator == pytest.approx(charge_in, rel=1e-9)
    assert len(result.device.buffer) == result.metrics.total_fixes


def test_determinism_with_jitter():
    trace = winter_trace(1)
    cfg = replace(SystemConfig(), task_jitter=True)
    a = run_simulation(cfg, trace)
    b = run_simulation(cfg, trace)
    assert np.array_equal(a.voltages, b.voltages)
    assert a.events == b.events
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
    return SimEvent(float(t), "FixHot", 3.0, 3.0)


def test_metrics_per_day_statistics():
    events = [make_fix(d * 86400 + i * 120) for d in range(3) for i in range(720)]
    m = compute_metrics(events, 3 * 86400)
    assert m.total_fixes == 2160
    assert m.fixes_per_day_mean == 720.0
    assert m.fixes_per_day_std == 0.0
    assert len(m.per_day) == 3
    assert all(d.total == 720 for d in m.per_day)

    # 719/721 alternating: population deviation 1.
    events = [make_fix(i * 120) for i in range(719)]
    events += [make_fix(86400 + i * 110) for i in range(721)]
    m = compute_metrics(sorted(events, key=lambda e: e.time_s), 2 * 86400)
    assert m.fixes_per_day_mean == 720.0
    assert m.fixes_per_day_std == 1.0


def test_metrics_empty_log():
    m = compute_metrics([], 86400)
    assert m.total_fixes == 0
    assert m.fixes_per_day_mean == 0.0
    assert m.longest_data_gap_s == 0.0
    assert m.min_voltage == 0.0


def test_metrics_longest_gap():
    events = [make_fix(100), make_fix(200)]
    m = compute_metrics(events, 1000)
    assert m.longest_data_gap_s == 800.0
    # A log with activity but no fixes gaps the whole run.
    m = compute_metrics([SimEvent(10.0, "Sense", 3.0, 3.0)], 1000)
    assert m.longest_data_gap_s == 1000.0


def test_metrics_reject_unknown_event_kind():
    with pytest.raises(ValueError, match="unknown event kind 'Fix'"):
        compute_metrics([make_fix(0), SimEvent(60.0, "Fix", 3.0, 3.0)], 1000)


def test_metrics_partial_day_excluded():
    events = [make_fix(i * 120) for i in range(720)] + [make_fix(86400 + 60)]
    m = compute_metrics(events, 86400 + 7200)
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
    assert len(body) == 601 + len(result.events)
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
