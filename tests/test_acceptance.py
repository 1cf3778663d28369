"""End-to-end acceptance checks, one per headline capability.

Each test prints a PASS/FAIL line (run with -s to see them live). The
scenarios pin the printed bench table, the closed-form recurrence, both
harvest calibrations, the schedule under abundance, depletion and recovery
timing, ledger closure, interval monotonicity, the winter voltage shape, the
payload model, the paper's claim that two harvesters beat either one, and
its claim that the harvested current is a motion proxy.
"""

import math
import warnings
from contextlib import contextmanager
from dataclasses import replace

import numpy as np
import pytest

from captrack.capacitor import equivalent_resistance, integrate_segment
from captrack.device import SAMPLE_BYTES, payload_bytes
from captrack.energy_model import CapacitorSpec, SystemConfig, compose_task_current, task_energy
from captrack.engine import EVENT_KINDS, fix_record, run_simulation
from captrack.harvest import (
    ActivityProfile,
    HarvestTrace,
    IrradianceTrace,
    SolarChain,
    generate_kinetic_trace,
    generate_synthetic_irradiance,
    solar_current_from_irradiance,
)

MINUTES = 1440


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number}: FAIL - {description}")
        raise
    print(f"ACCEPTANCE {number}: PASS - {description}")


@pytest.fixture(scope="module")
def winter14():
    solar = generate_synthetic_irradiance(14).samples * SolarChain().current_factor
    kinetic = generate_kinetic_trace(14)
    return HarvestTrace.build(solar, kinetic)


@pytest.fixture(scope="module")
def winter_result(winter14):
    return run_simulation(SystemConfig(), winter14)


def test_acceptance_01_bench_table():
    rows = [
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
    with criterion(1, "task currents at 30 uA leakage match the printed table"):
        for task, printed_ma, duration, printed_mj in rows:
            assert compose_task_current(task, 0.030) == pytest.approx(printed_ma, abs=1e-9)
            if duration is not None:
                assert task_energy(printed_ma, duration, 3.3) == pytest.approx(printed_mj, abs=0.05)


def test_acceptance_02_voltage_recurrence():
    cap = CapacitorSpec(2.5, 0.030)

    def step(v0, i_h, r, dt):  # end voltage, capped at v_max as the engine caps it
        return min(integrate_segment(v0, i_h, r, cap.capacitance_f, dt)[0], cap.v_max)

    with criterion(2, "closed-form voltage step: semigroup, fixed point, ODE oracle"):
        rng = np.random.default_rng(2)
        for _ in range(1000):
            v0 = float(rng.uniform(0.5, 5.4))
            i_h = float(rng.uniform(0.0, 0.002))
            r = float(rng.uniform(100.0, 100000.0))
            dt = float(rng.uniform(0.001, 3600.0))
            if i_h * r > cap.v_max:
                continue
            whole = step(v0, i_h, r, dt)
            half = step(v0, i_h, r, dt / 2.0)
            twice = step(half, i_h, r, dt / 2.0)
            assert twice == pytest.approx(whole, rel=1e-12)

        for dt in (1.0, 60.0, 86400.0):
            v = step(2.5, 0.0025, 1000.0, dt)
            assert v == pytest.approx(2.5, rel=1e-12)

        for v0, i_h, r in ((3.0, 0.0, 56265.98), (2.2, 0.001, 2000.0), (5.0, 0.0005, 158.66)):
            v_closed = step(v0, i_h, r, 60.0)
            v = v0
            for _ in range(60000):
                v += 1e-3 * (i_h - v / r) / 2.5
            assert v_closed == pytest.approx(v, abs=1e-5)


def test_acceptance_03_solar_chain():
    with criterion(3, "solar conversion factors and linearity"):
        chain = SolarChain()
        assert chain.power_factor == pytest.approx(0.000148, abs=1e-9)
        assert chain.current_factor == pytest.approx(0.000038121, abs=1e-9)
        rng = np.random.default_rng(3)
        values = rng.uniform(0.0, 1000.0, size=100)
        current = solar_current_from_irradiance(IrradianceTrace(0, 60, values), chain)
        assert current == pytest.approx(values * chain.current_factor, rel=1e-12)
        tripled = solar_current_from_irradiance(IrradianceTrace(0, 60, 3.0 * values), chain)
        assert tripled == pytest.approx(3.0 * current, rel=1e-12)


def test_acceptance_04_kinetic_calibration():
    with criterion(4, "kinetic days integrate to 13.07 J with exact period shares"):
        rng = np.random.default_rng(4)
        for _ in range(100):
            weights = tuple(rng.dirichlet(np.ones(4)))
            profile = ActivityProfile(weights=weights, seed=int(rng.integers(1 << 31)))
            current = generate_kinetic_trace(1, profile)
            assert float(current.sum()) * 60.0 * 3.3 == pytest.approx(13.07, rel=1e-9)
            labels = np.array([profile.period_of_minute(m) for m in range(MINUTES)])
            for p, weight in enumerate(weights):
                share = float(current[labels == p].sum()) * 60.0 * 3.3 / 13.07
                assert abs(share - weight) <= 0.01


def test_acceptance_05_schedule_under_abundance():
    with criterion(5, "pinned voltage day: 720 fixes, 7 refreshes, 24 uploads"):
        trace = HarvestTrace(0, 60, np.full(MINUTES, 0.05), np.zeros(MINUTES), np.full(MINUTES, 0.05))
        result = run_simulation(SystemConfig(), trace)
        m = result.metrics
        assert m.total_fixes == 720
        assert m.hot_ephemeris == 7
        assert m.warm_ephemeris == 0
        assert m.cold_starts == 0
        assert m.transmissions == 24
        assert m.total_fixes == m.hot_fixes + m.hot_ephemeris + m.warm_ephemeris + m.cold_starts
        for day in m.per_day:
            assert day.total == day.hot + day.hot_ephemeris + day.warm_ephemeris + day.cold


def test_acceptance_06_depletion_and_recovery():
    cap = CapacitorSpec(2.5, 0.030)
    with criterion(6, "depletion lands on the closed form; recovery refixes cold"):
        # Leakage-only decay from full: the crossing must sit within a minute
        # of the analytic RC answer.
        quiet = replace(
            SystemConfig(), capacitor=cap,
            sense_interval_s=None, fix_interval_s=None, transmit_interval_s=None,
        )
        ticks = 2700
        zeros = np.zeros(ticks)
        result = run_simulation(quiet, HarvestTrace(0, 60, zeros, zeros, zeros))
        log = result.log
        depletions = log.time_s[log.kind == EVENT_KINDS.index("Depletion")]
        assert len(depletions) == 1
        tau = cap.capacitance_f * equivalent_resistance(3.3, 0.05865)
        analytic = tau * math.log(5.5 / 1.8)
        assert analytic == pytest.approx(157115.0, abs=60.0)
        assert depletions[0] == pytest.approx(analytic, abs=60.0)

        # Full schedule, dark start then strong harvest: Depletion/Recovery
        # alternate and the first fix after power returns is a cold start.
        combined = np.concatenate([np.zeros(1320), np.full(480, 0.01)])
        trace = HarvestTrace(0, 60, combined, np.zeros(1800), combined)
        result = run_simulation(replace(SystemConfig(), capacitor=cap), trace)
        events = list(zip(result.log.time_s.tolist(), [EVENT_KINDS[k] for k in result.log.kind.tolist()]))
        flips = [(t, kind) for t, kind in events if kind in ("Depletion", "Recovery")]
        assert [kind for _, kind in flips[:2]] == ["Depletion", "Recovery"]
        for (_, a), (_, b) in zip(flips, flips[1:]):
            assert (a, b) in (("Depletion", "Recovery"), ("Recovery", "Depletion"))
        recovery_t = next(t for t, kind in flips if kind == "Recovery")
        first_fix = next(
            kind for t, kind in events
            if t > recovery_t and kind in ("FixHot", "FixHotEph", "FixWarmEph", "FixCold")
        )
        assert first_fix == "FixCold"


def test_acceptance_07_ledger_closure(winter_result):
    with criterion(7, "energy ledger closes on the 14-day winter run"):
        led = winter_result.ledger
        assert led.harvested_in_j > 0.0
        assert abs(led.closure_error_j) <= 0.005 * led.harvested_in_j


def test_acceptance_08_interval_monotonicity(winter14, winter_result):
    with criterion(8, "longer fix intervals: less energy consumed, higher floor"):
        results = {120: winter_result}
        for interval in (60, 300):
            cfg = replace(SystemConfig(), fix_interval_s=interval)
            results[interval] = run_simulation(cfg, winter14)
        consumed = [results[i].ledger.consumed_total_j for i in (60, 120, 300)]
        floors = [results[i].metrics.min_voltage for i in (60, 120, 300)]
        assert consumed[0] >= consumed[1] >= consumed[2]
        assert floors[0] <= floors[1] <= floors[2]
        assert consumed[0] > consumed[2]  # strictly fewer joules at 5 min


def test_acceptance_09_winter_voltage_shape(winter14, winter_result):
    with criterion(9, "winter voltage: daily full charge, strict night decay, bounded"):
        v = winter_result.voltages
        assert float(v.max()) <= 5.5
        assert winter_result.metrics.depletion_count == 0
        assert winter_result.metrics.min_voltage >= 1.8  # never below floor while on
        for day in range(14):
            day_v = v[day * MINUTES : (day + 1) * MINUTES + 1]
            assert float(day_v.max()) == pytest.approx(5.5), f"day {day} never reached full charge"
        # Any tick with negligible harvest must strictly discharge.
        quiet = winter14.combined_a <= 20e-6
        dv = np.diff(v)
        assert np.all(dv[quiet] < 0.0)


def test_acceptance_10_payload_model():
    with criterion(10, "16-byte samples and buffer conservation across skips"):
        assert payload_bytes(30) == 480
        assert payload_bytes(1) == 16
        assert SAMPLE_BYTES == 16

        # Uploads gated above the resting voltage: every fix stays buffered.
        from captrack.energy_model import VoltageThresholds

        cfg = replace(
            SystemConfig(),
            capacitor=CapacitorSpec(2.5, 0.030),
            thresholds=replace(VoltageThresholds(), nbiot=2.5),
            initial_voltage=2.3,
        )
        ticks = 120
        zeros = np.zeros(ticks)
        result = run_simulation(cfg, HarvestTrace(0, 60, zeros, zeros, zeros))
        m = result.metrics
        assert m.transmissions == 0
        assert m.skipped_transmissions == 2  # hourly attempts, both refused
        assert m.total_fixes > 0
        record = fix_record(result)
        undelivered = int(np.isnan(record.delivered_s).sum())
        assert undelivered == record.time_s.size == m.total_fixes
        assert payload_bytes(undelivered) == 16 * m.total_fixes


@pytest.fixture(scope="module")
def source_runs(winter14):
    """The 14-day winter on each capacitor and each harvest source, keyed (capacitance, source)."""
    zeros = np.zeros_like(winter14.solar_a)
    sources = {
        "combined": winter14,
        "solar": HarvestTrace.build(winter14.solar_a, zeros),
        "kinetic": HarvestTrace.build(zeros, winter14.kinetic_a),
    }
    runs = {}
    for capacitance in (1.0, 2.5, 5.0):
        config = replace(SystemConfig(), capacitor=CapacitorSpec.from_capacitance(capacitance))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # the stock thresholds sit below the 1 F safe bounds
            for name, trace in sources.items():
                runs[capacitance, name] = run_simulation(config, trace)
    return runs


def test_acceptance_11_two_sources_beat_one(source_runs):
    with criterion(11, "combined harvest beats solar-only and kinetic-only; 2.5 F is energy-neutral"):
        for capacitance in (1.0, 2.5, 5.0):
            m = {name: source_runs[capacitance, name].metrics for name in ("combined", "solar", "kinetic")}
            for single in ("solar", "kinetic"):
                assert m["combined"].total_fixes >= m[single].total_fixes
                assert m["combined"].depletion_count <= m[single].depletion_count
                assert m["combined"].total_off_s <= m[single].total_off_s
                assert m["combined"].longest_data_gap_s <= m[single].longest_data_gap_s
            if capacitance == 2.5:
                assert m["combined"].depletion_count == 0
                assert len(m["combined"].per_day) == 14
                for day in m["combined"].per_day:
                    assert (day.total, day.transmissions) == (720, 24)
            print(f"  {capacitance:g} F fixes/depletions: " + ", ".join(
                f"{name} {r.total_fixes}/{r.depletion_count}" for name, r in m.items()
            ))


def motion_proxy(result):
    """Correlation and L1 error (relative to the truth) of the hourly charge read at fixes
    against the trace's true hourly kinetic charge. A fix's reading is credited to its hour."""
    record = fix_record(result)
    kinetic = result.harvest.kinetic_a
    hours = kinetic.size // 60
    read = np.bincount((record.time_s // 3600).astype(np.intp), weights=record.coulomb_c, minlength=hours)[:hours]
    true = (kinetic[: hours * 60] * 60.0).reshape(hours, 60).sum(axis=1)
    return float(np.corrcoef(read, true)[0, 1]), float(np.abs(read - true).sum() / true.sum())


def test_acceptance_12_motion_proxy(source_runs):
    with criterion(12, "charge read at fixes tracks hourly kinetic activity; both sources track it best"):
        for capacitance in (1.0, 2.5, 5.0):
            combined = motion_proxy(source_runs[capacitance, "combined"])
            kinetic = motion_proxy(source_runs[capacitance, "kinetic"])
            assert combined[0] >= kinetic[0]
            assert combined[1] <= kinetic[1]
            if capacitance == 2.5:
                assert combined[0] >= 0.99
            print(f"  {capacitance:g} F correlation/L1: combined {combined[0]:.3f}/{combined[1]:.3f}, "
                  f"kinetic {kinetic[0]:.3f}/{kinetic[1]:.3f}")
