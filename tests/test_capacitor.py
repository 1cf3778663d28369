"""Closed-form voltage dynamics against a fine-step ODE oracle."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from captrack.capacitor import (
    decay_factors, equivalent_resistance, integrate_segment, segment_energy, time_to_voltage,
)
from captrack.energy_model import TASKS, CapacitorSpec, compose_task_current

CAP = CapacitorSpec(2.5, 0.030)
C = CAP.capacitance_f
SLEEP_R = equivalent_resistance(3.3, 0.05865)


def step(v0: float, i_h: float, r: float, dt: float) -> float:
    """End voltage of one segment, capped at v_max as the engine caps it."""
    return min(integrate_segment(v0, i_h, r, C, dt)[0], CAP.v_max)


def clamp_crossing(v0: float, i_h: float, r: float) -> float | None:
    return time_to_voltage(v0, i_h, r, C, CAP.v_max)


def euler_oracle(v: float, i_h: float, r: float, c: float, dt: float, h: float = 1e-3) -> float:
    """Explicit fine-step integration of C dV/dt = I_H - V/R."""
    steps = int(round(dt / h))
    for _ in range(steps):
        v = v + h * (i_h - v / r) / c
    return v


def test_equivalent_resistance_values():
    assert SLEEP_R == pytest.approx(56265.98, abs=0.01)
    assert equivalent_resistance(3.3, 20.799) == pytest.approx(158.66, abs=0.01)
    assert equivalent_resistance(3.3, 3.3) == 1000.0
    with pytest.raises(ValueError):
        equivalent_resistance(3.3, 0.0)


def test_step_zero_duration_is_identity():
    assert integrate_segment(3.0, 0.0, SLEEP_R, C, 0.0) == (3.0, 0.0, 0.0)
    assert clamp_crossing(3.0, 0.0, SLEEP_R) is None


def test_step_fixed_point():
    # V equal to I_H R_eq is stationary for any duration.
    for dt in (0.1, 60.0, 86400.0):
        assert step(2.5, 0.0025, 1000.0, dt) == pytest.approx(2.5, rel=1e-15)


def test_step_sleep_decay_example():
    v = step(3.0, 0.0, SLEEP_R, 60.0)
    assert v == pytest.approx(2.99872, abs=1e-5)
    assert clamp_crossing(3.0, 0.0, SLEEP_R) is None
    assert abs(v - euler_oracle(3.0, 0.0, SLEEP_R, 2.5, 60.0)) < 1e-5


def test_step_agrees_with_euler_oracle():
    rng = np.random.default_rng(21)
    for _ in range(6):
        v0 = rng.uniform(1.8, 5.4)
        i_h = rng.uniform(0.0, 0.01)
        r = rng.uniform(150.0, 60000.0)
        v = step(v0, i_h, r, 60.0)
        if v < CAP.v_max:  # oracle has no clamp
            assert v == pytest.approx(euler_oracle(v0, i_h, r, 2.5, 60.0), abs=1e-5)


def test_step_semigroup_property():
    rng = np.random.default_rng(22)
    for _ in range(1000):
        v0 = rng.uniform(0.5, 5.4)
        i_h = rng.uniform(0.0, 0.002)
        r = rng.uniform(100.0, 100000.0)
        dt = rng.uniform(0.001, 3600.0)
        if i_h * r > CAP.v_max:  # avoid the clamp, this is about the recurrence
            continue
        whole = step(v0, i_h, r, dt)
        half = step(v0, i_h, r, dt / 2.0)
        twice = step(half, i_h, r, dt / 2.0)
        assert twice == pytest.approx(whole, rel=1e-12)


def test_step_monotone_in_state_harvest_and_resistance():
    rng = np.random.default_rng(23)
    for _ in range(200):
        v0 = rng.uniform(1.0, 5.0)
        i_h = rng.uniform(0.0, 0.001)
        r = rng.uniform(200.0, 50000.0)
        dt = rng.uniform(1.0, 600.0)
        base = step(v0, i_h, r, dt)
        up_v = step(v0 + 0.05, i_h, r, dt)
        up_i = step(v0, i_h + 1e-4, r, dt)
        assert up_v > base
        assert up_i > base
        if i_h == 0.0 or i_h * r < v0:  # discharging: more resistance, less droop
            up_r = step(v0, i_h, r * 1.5, dt)
            assert up_r >= base


def test_step_reports_clamp_crossing():
    # Strong harvest from below v_max: result clamped, crossing strictly inside.
    v = step(5.0, 0.05, 1000.0, 60.0)
    crossing = clamp_crossing(5.0, 0.05, 1000.0)
    assert v == CAP.v_max
    assert crossing is not None and 0.0 < crossing < 60.0
    # Starting pinned: crossing time zero.
    assert (step(5.5, 0.05, 1000.0, 60.0), clamp_crossing(5.5, 0.05, 1000.0)) == (5.5, 0.0)


def test_time_to_voltage_discharge_example():
    t = time_to_voltage(2.2, 0.0, SLEEP_R, C, 1.8)
    assert t == pytest.approx(28227.0, abs=1.0)
    # Bisection cross-check on the segment solution.
    lo, hi = 0.0, 100000.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if step(2.2, 0.0, SLEEP_R, mid) > 1.8:
            lo = mid
        else:
            hi = mid
    assert t == pytest.approx(0.5 * (lo + hi), abs=1e-6)


def test_time_to_voltage_edge_cases():
    assert time_to_voltage(3.0, 0.0, SLEEP_R, C, 3.0) == 0.0
    assert time_to_voltage(2.0, 0.0, SLEEP_R, C, 2.5) is None
    # Target beyond the asymptote is unreachable.
    assert time_to_voltage(2.0, 0.003, 1000.0, C, 3.5) is None
    assert time_to_voltage(2.0, 0.003, 1000.0, C, 3.0) is None  # asymptote itself
    with pytest.raises(ValueError):
        time_to_voltage(2.0, 0.0, SLEEP_R, C, 0.0)
    with pytest.raises(ValueError):
        time_to_voltage(2.0, 0.0, 0.0, C, 1.8)


def test_time_to_voltage_round_trip():
    rng = np.random.default_rng(24)
    for _ in range(300):
        v0 = rng.uniform(1.0, 5.4)
        i_h = rng.uniform(0.0, 0.002)
        r = rng.uniform(200.0, 80000.0)
        asymptote = i_h * r
        if abs(asymptote - v0) < 1e-6:
            continue
        target = v0 + rng.uniform(0.05, 0.95) * (asymptote - v0)
        if target <= 0 or target >= CAP.v_max:  # clamp would interfere
            continue
        t = time_to_voltage(v0, i_h, r, C, target)
        assert t is not None and t >= 0.0
        landed = step(v0, i_h, r, t)
        assert landed == pytest.approx(target, abs=1e-9)


def test_stored_energy_values():
    # Half C V squared is what a load draws from V down to empty.
    def stored(v: float) -> float:
        return integrate_segment(v, 0.0, SLEEP_R, C, 1e3 * SLEEP_R * C)[2]

    assert stored(5.5) == pytest.approx(37.8125)
    assert stored(0.0) == 0.0
    assert stored(1.8) == pytest.approx(4.05)


def test_integrate_segment_energy_identity():
    # harvested - consumed must equal the stored-energy change exactly;
    # the three quantities are computed by independent closed forms.
    rng = np.random.default_rng(25)
    for _ in range(500):
        v0 = rng.uniform(0.5, 5.4)
        i_h = rng.uniform(0.0, 0.01)
        r = rng.uniform(150.0, 100000.0)
        c = rng.uniform(0.5, 6.0)
        dt = rng.uniform(1e-4, 3600.0)
        v_end, harvested, consumed = integrate_segment(v0, i_h, r, c, dt)
        delta = 0.5 * c * (v_end**2 - v0**2)
        scale = max(abs(harvested), abs(consumed), 1e-12)
        assert (harvested - consumed - delta) == pytest.approx(0.0, abs=1e-9 * scale + 1e-15)


def test_integrate_segment_matches_riemann_sum():
    v0, i_h, r, c, dt = 3.2, 0.004, 2000.0, 2.5, 120.0
    v_end, harvested, consumed = integrate_segment(v0, i_h, r, c, dt)
    n = 200000
    h = dt / n
    v = v0
    num_v = 0.0
    num_v2 = 0.0
    for _ in range(n):
        num_v += v * h
        num_v2 += v * v * h
        v = v + h * (i_h - v / r) / c
    assert v_end == pytest.approx(v, abs=1e-6)
    assert harvested == pytest.approx(i_h * num_v, rel=1e-4)
    assert consumed == pytest.approx(num_v2 / r, rel=1e-4)



@st.composite
def segment_rows(draw):
    """segment_energy's arguments for one segment: a task load, 0.2-10 F, and a
    duration from 1 ns to past x = 700."""
    r = equivalent_resistance(3.3, compose_task_current(draw(st.sampled_from(sorted(TASKS))), CAP.leakage_ma))
    tau = r * draw(st.floats(0.2, 10.0))
    duration = 10.0 ** draw(st.floats(-9.0, math.log10(800.0 * tau)))
    i_h = draw(st.floats(0.0, 0.05))
    a = i_h * r
    _, em1, em2 = decay_factors(duration, tau)
    return i_h, r, tau, a, draw(st.floats(0.0, 5.5)) - a, duration, em1, em2


@settings(max_examples=60, deadline=None)
@given(st.lists(segment_rows(), min_size=1, max_size=16))
def test_segment_energy_on_arrays_matches_float_calls(rows):
    # The booking pass calls segment_energy on whole arrays of segments; each
    # element must have the bits of the float call the per-segment step makes.
    floats = np.array([segment_energy(*row) for row in rows])
    arrays = np.array(segment_energy(*(np.array(column) for column in zip(*rows)))).T
    assert arrays.tobytes() == floats.tobytes()
