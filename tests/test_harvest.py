"""Harvest sources: solar chain, synthetic generators, combiner, CSV i/o."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from captrack.harvest import (
    MINUTES_PER_DAY,
    ActivityProfile,
    HarvestTrace,
    IrradianceTrace,
    SolarChain,
    SolarProfile,
    TraceError,
    combine_sources,
    generate_kinetic_trace,
    generate_synthetic_irradiance,
    load_harvest_csv,
    load_irradiance_csv,
    save_harvest_csv,
    save_irradiance_csv,
    solar_current_from_irradiance,
)

MINUTES = 1440


def test_solar_chain_factors():
    chain = SolarChain()
    assert chain.power_factor == pytest.approx(0.000148, abs=1e-9)
    assert chain.current_factor == pytest.approx(0.000038121, abs=1e-9)


def test_solar_current_examples_and_linearity():
    chain = SolarChain()
    trace = IrradianceTrace(0, 60, np.array([1000.0, 500.0, 0.0]))
    current = solar_current_from_irradiance(trace, chain)
    assert current[0] == pytest.approx(0.038121, abs=5e-7)
    assert current[1] == pytest.approx(0.0190605, abs=5e-7)
    assert current[2] == 0.0
    # Linearity in irradiance.
    rng = np.random.default_rng(31)
    values = rng.uniform(0.0, 1200.0, size=50)
    single = solar_current_from_irradiance(IrradianceTrace(0, 60, values), chain)
    doubled = solar_current_from_irradiance(IrradianceTrace(0, 60, 2.0 * values), chain)
    assert doubled == pytest.approx(2.0 * single, rel=1e-12)


def test_negative_irradiance_rejected():
    with pytest.raises(TraceError, match="index 1"):
        IrradianceTrace(0, 60, np.array([5.0, -1.0, 3.0]))


def test_synthetic_irradiance_shape():
    trace = generate_synthetic_irradiance(2)
    assert trace.resolution_s == 60
    assert trace.samples.size == 2 * MINUTES
    # Dark at 03:00, dark again after sunset.
    assert trace.samples[180] == 0.0
    assert trace.samples[1010] == 0.0
    # Day 2 repeats day 1 under a clear sky.
    assert trace.samples[MINUTES:] == pytest.approx(trace.samples[:MINUTES])


def test_synthetic_irradiance_peak_on_grid():
    # With an even sunrise-sunset span the half-sine peak lands on a minute.
    profile = SolarProfile(sunrise_min=480, sunset_min=960)
    trace = generate_synthetic_irradiance(1, profile)
    assert trace.samples[720] == pytest.approx(300.0)
    assert float(trace.samples.max()) == pytest.approx(300.0)
    assert trace.samples[479] == 0.0
    assert trace.samples[480] == 0.0  # sine is zero exactly at sunrise
    assert trace.samples[481] > 0.0


def test_winter_day_insolation_golden():
    trace = generate_synthetic_irradiance(1)
    insolation = float(trace.samples.sum()) * 60.0
    assert insolation == pytest.approx(5672263.1318268925, rel=1e-12)


def test_cloudy_sky_bounded_by_clear_sky():
    profile = SolarProfile(cloud_amplitude=0.35)
    cloudy = generate_synthetic_irradiance(3, profile).samples
    clear = generate_synthetic_irradiance(3).samples
    assert np.all(cloudy <= clear + 1e-12)
    assert np.all(cloudy >= (1.0 - 0.35) * clear - 1e-12)
    # Golden first-day insolation for the seeded cloudy sky.
    insolation = float(cloudy[:MINUTES].sum()) * 60.0
    assert insolation == pytest.approx(5277437.753258079, rel=1e-12)


def test_synthetic_irradiance_deterministic():
    profile = SolarProfile(cloud_amplitude=0.5, seed=7)
    a = generate_synthetic_irradiance(2, profile).samples
    b = generate_synthetic_irradiance(2, profile).samples
    c = generate_synthetic_irradiance(2, SolarProfile(cloud_amplitude=0.5, seed=8)).samples
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_synthetic_irradiance_validation():
    with pytest.raises(ValueError, match="days"):
        generate_synthetic_irradiance(0)
    with pytest.raises(ValueError, match="sunrise"):
        generate_synthetic_irradiance(1, SolarProfile(sunrise_min=1005, sunset_min=510))
    with pytest.raises(ValueError, match="amplitude"):
        generate_synthetic_irradiance(1, SolarProfile(cloud_amplitude=1.5))


def test_kinetic_daily_energy_closure():
    days = 3
    current = generate_kinetic_trace(days)
    assert current.size == days * MINUTES
    assert np.all(current >= 0.0)
    for day in range(days):
        chunk = current[day * MINUTES : (day + 1) * MINUTES]
        energy = float(chunk.sum()) * 60.0 * 3.3
        assert energy == pytest.approx(13.07, rel=1e-9)


def test_kinetic_period_shares_exact():
    profile = ActivityProfile()
    current = generate_kinetic_trace(2, profile)
    labels = np.array([profile.period_of_minute(m % MINUTES) for m in range(current.size)])
    for day in range(2):
        sl = slice(day * MINUTES, (day + 1) * MINUTES)
        for p, weight in enumerate(profile.weights):
            mask = labels[sl] == p
            energy = float(current[sl][mask].sum()) * 60.0 * 3.3
            assert energy == pytest.approx(weight * 13.07, rel=1e-9)
            # Even spread: all active minutes of a period carry the same current.
            nonzero = current[sl][mask][current[sl][mask] > 0]
            if nonzero.size:
                assert float(nonzero.max()) == pytest.approx(float(nonzero.min()), rel=1e-12)


def test_kinetic_uniform_profile():
    profile = ActivityProfile(
        period_starts_min=(0, 360, 720, 1080),
        weights=(0.25, 0.25, 0.25, 0.25),
        duty=(1.0, 1.0, 1.0, 1.0),
    )
    current = generate_kinetic_trace(1, profile)
    # Every quarter-day carries 13.07 / 4 J regardless of bout placement.
    for p in range(4):
        chunk = current[p * 360 : (p + 1) * 360]
        assert float(chunk.sum()) * 60.0 * 3.3 == pytest.approx(13.07 / 4.0, rel=1e-9)


def test_kinetic_zero_energy_and_determinism():
    assert np.all(generate_kinetic_trace(1, ActivityProfile(daily_energy_j=0.0)) == 0.0)
    a = generate_kinetic_trace(2)
    b = generate_kinetic_trace(2)
    c = generate_kinetic_trace(2, ActivityProfile(seed=9))
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_activity_profile_validation():
    with pytest.raises(ValueError, match="sum to 1"):
        ActivityProfile(weights=(0.5, 0.5, 0.5, 0.5))
    with pytest.raises(ValueError, match="increasing"):
        ActivityProfile(period_starts_min=(540, 300, 1020, 1260))
    with pytest.raises(ValueError, match="duty"):
        ActivityProfile(duty=(0.5, 0.0, 0.5, 0.15))


def test_combine_sources():
    combined = combine_sources(np.array([0.01, 0.0]), np.array([0.002, 0.0]), 0.88)
    assert combined[0] == pytest.approx(0.01056)
    assert combined[1] == 0.0
    with pytest.raises(TraceError, match="mismatch"):
        combine_sources(np.zeros(3), np.zeros(4), 0.88)
    with pytest.raises(ValueError, match="efficiency"):
        combine_sources(np.zeros(3), np.zeros(3), 0.0)


def test_harvest_trace_build_and_checks():
    trace = HarvestTrace.build(np.array([0.01]), np.array([0.002]))
    assert trace.combined_a[0] == pytest.approx(0.01056)
    assert trace.duration_s == 60
    with pytest.raises(TraceError, match="lengths differ"):
        HarvestTrace(0, 60, np.zeros(2), np.zeros(3), np.zeros(2))
    with pytest.raises(TraceError, match="negative kinetic"):
        HarvestTrace(0, 60, np.zeros(2), np.array([0.0, -1e-6]), np.zeros(2))


def test_load_irradiance_epoch_and_iso(tmp_path):
    path = tmp_path / "epoch.csv"
    path.write_text("timestamp,irradiance_wm2\n0,100.0\n60,150.5\n")
    trace = load_irradiance_csv(str(path))
    assert trace.start_epoch_s == 0
    assert trace.samples == pytest.approx([100.0, 150.5])
    assert trace.gaps_filled == 0

    path = tmp_path / "iso.csv"
    path.write_text(
        "timestamp,irradiance_wm2\n"
        "2026-01-05T00:00:00Z,10\n"
        "2026-01-05T00:01:00Z,20\n"
        "2026-01-05T00:02:00+00:00,30\n"
    )
    trace = load_irradiance_csv(str(path))
    assert trace.start_epoch_s == 1767571200
    assert trace.samples == pytest.approx([10.0, 20.0, 30.0])


def test_load_irradiance_errors(tmp_path):
    cases = [
        ("timestamp,irradiance_wm2\n0,5\n60,-2\n", "line 3: negative"),
        ("timestamp,irradiance_wm2\n60,5\n0,6\n", "not increasing"),
        ("timestamp,irradiance_wm2\n0,5\n90,6\n", "off the 60 s grid"),
        ("timestamp,irradiance_wm2\n0,abc\n", "unparseable irradiance"),
        ("timestamp,irradiance_wm2\n", "no data rows"),
        ("time,value\n0,5\n", "expected header"),
    ]
    for i, (content, message) in enumerate(cases):
        path = tmp_path / f"bad{i}.csv"
        path.write_text(content)
        with pytest.raises(TraceError, match=message):
            load_irradiance_csv(str(path))


def test_load_irradiance_gap_fill(tmp_path):
    path = tmp_path / "gap.csv"
    path.write_text("timestamp,irradiance_wm2\n0,5\n60,7\n240,9\n")
    trace = load_irradiance_csv(str(path))
    # Two missing minutes held at the last value before the gap.
    assert trace.samples == pytest.approx([5.0, 7.0, 7.0, 7.0, 9.0])
    assert trace.gaps_filled == 1

    path = tmp_path / "toowide.csv"
    path.write_text("timestamp,irradiance_wm2\n0,5\n420,9\n")
    with pytest.raises(TraceError, match="gap of 6 steps"):
        load_irradiance_csv(str(path))


def test_irradiance_roundtrip(tmp_path):
    original = generate_synthetic_irradiance(1, start_epoch_s=86400)
    path = tmp_path / "trace.csv"
    save_irradiance_csv(original, str(path))
    loaded = load_irradiance_csv(str(path))
    assert loaded.start_epoch_s == 86400
    assert loaded.samples == pytest.approx(original.samples, abs=1e-6)


def test_harvest_csv_roundtrip(tmp_path):
    solar = generate_synthetic_irradiance(1).samples * SolarChain().current_factor
    kinetic = generate_kinetic_trace(1)
    original = HarvestTrace.build(solar, kinetic)
    path = tmp_path / "harvest.csv"
    save_harvest_csv(original, str(path))
    loaded = load_harvest_csv(str(path))
    assert loaded.resolution_s == 60
    assert loaded.solar_a == pytest.approx(original.solar_a, rel=1e-8, abs=1e-15)
    assert loaded.kinetic_a == pytest.approx(original.kinetic_a, rel=1e-8, abs=1e-15)
    assert loaded.combined_a == pytest.approx(original.combined_a, rel=1e-8, abs=1e-15)


def test_load_harvest_errors(tmp_path):
    path = tmp_path / "header.csv"
    path.write_text("t_s,solar\n0,1\n")
    with pytest.raises(TraceError, match="expected header"):
        load_harvest_csv(str(path))

    path = tmp_path / "spacing.csv"
    path.write_text("t_s,solar_a,kinetic_a,combined_a\n0,0,0,0\n60,0,0,0\n180,0,0,0\n")
    with pytest.raises(TraceError, match="uniformly spaced"):
        load_harvest_csv(str(path))


# -- kinetic synthesis against the per-minute loop it replaced -----------------


def oracle_generate_kinetic_trace(days, profile=ActivityProfile(), v_supply=3.3):
    """The earlier body of generate_kinetic_trace, verbatim."""
    if days < 1:
        raise ValueError(f"days must be >= 1, got {days}")
    if v_supply <= 0:
        raise ValueError(f"v_supply must be positive, got {v_supply}")

    n = days * MINUTES_PER_DAY
    if profile.daily_energy_j == 0.0:
        return np.zeros(n)

    rng = np.random.default_rng(profile.seed)
    labels = np.array([profile.period_of_minute(m % MINUTES_PER_DAY) for m in range(n)])

    # Bout chain: stay-active prob fixes the mean bout length; activation prob
    # fixes the duty cycle of each period.
    p_stay = 1.0 - 1.0 / profile.mean_bout_min
    active = np.zeros(n, dtype=bool)
    is_active = bool(rng.random() < profile.duty[labels[0]])
    for i in range(n):
        duty = profile.duty[labels[i]]
        if is_active:
            is_active = bool(rng.random() < p_stay)
        else:
            p_activate = min(1.0, duty / (profile.mean_bout_min * max(1.0 - duty, 1e-9)))
            is_active = bool(rng.random() < p_activate)
        active[i] = is_active

    current = np.zeros(n)
    for day in range(days):
        sl = slice(day * MINUTES_PER_DAY, (day + 1) * MINUTES_PER_DAY)
        day_labels = labels[sl]
        day_active = active[sl].copy()
        for p in range(4):
            weight = profile.weights[p]
            in_period = day_labels == p
            if weight == 0.0 or not in_period.any():
                continue
            chosen = in_period & day_active
            if not chosen.any():
                indices = np.flatnonzero(in_period)
                chosen = np.zeros_like(in_period)
                chosen[rng.choice(indices)] = True
            energy_per_minute = profile.daily_energy_j * weight / int(chosen.sum())
            current[sl][chosen] = energy_per_minute / (60.0 * v_supply)
    return current


@st.composite
def activity_profiles(draw):
    starts = draw(st.lists(st.integers(0, MINUTES_PER_DAY - 1), min_size=4, max_size=4, unique=True).map(sorted))
    raw = draw(st.lists(st.sampled_from([0.0, 0.0, 1.0, 2.0, 3.5]), min_size=4, max_size=4).filter(any))
    weights = [w / sum(raw) for w in raw]
    weights[-1] = 1.0 - sum(weights[:-1])  # sums to 1 within the profile's 1e-12
    # Tiny duties leave periods without an active minute, which forces one.
    duty = draw(st.lists(st.sampled_from([1.0, 0.5, 0.15, 1e-4, 1e-7]), min_size=4, max_size=4))
    return ActivityProfile(
        period_starts_min=tuple(starts), weights=tuple(weights),
        daily_energy_j=draw(st.sampled_from([0.0, 13.07, 1.5])),
        mean_bout_min=draw(st.sampled_from([1.0, 2.5, 20.0, 200.0])),
        duty=tuple(duty), seed=draw(st.integers(0, 2**32 - 1)),
    )


@settings(max_examples=60, deadline=None)
@given(profile=activity_profiles(), days=st.integers(1, 4), v_supply=st.sampled_from([3.3, 1.8]))
def test_kinetic_trace_matches_minute_loop(profile, days, v_supply):
    new = generate_kinetic_trace(days, profile, v_supply)
    old = oracle_generate_kinetic_trace(days, profile, v_supply)
    assert new.view(np.int64).tolist() == old.view(np.int64).tolist()


def test_kinetic_trace_matches_minute_loop_on_defaults():
    for seed in (1, 7, 42):
        profile = ActivityProfile(seed=seed)
        new = generate_kinetic_trace(30, profile)
        assert new.view(np.int64).tolist() == oracle_generate_kinetic_trace(30, profile).view(np.int64).tolist()


# -- solar synthesis against the per-step AR(1) loop it replaced ------------------


def oracle_generate_synthetic_irradiance(days, profile=SolarProfile(), start_epoch_s=0):
    """The earlier body of generate_synthetic_irradiance, verbatim."""
    if days < 1:
        raise ValueError(f"days must be >= 1, got {days}")

    n = days * MINUTES_PER_DAY
    minute = np.arange(n) % MINUTES_PER_DAY
    span = profile.sunset_min - profile.sunrise_min
    phase = (minute - profile.sunrise_min) / span
    clear = np.where(
        (phase >= 0.0) & (phase < 1.0), profile.peak_wm2 * np.sin(np.pi * np.clip(phase, 0.0, 1.0)), 0.0
    )

    # AR(1) sky state mapped into [1 - amplitude, 1]; amplitude 0 = clear sky.
    rng = np.random.default_rng(profile.seed)
    rho = math.exp(-1.0 / profile.cloud_correlation_min)
    shocks = rng.standard_normal(n)
    state = np.empty(n)
    s = 0.0
    for i in range(n):
        s = rho * s + math.sqrt(1.0 - rho * rho) * shocks[i]
        state[i] = s
    attenuation = 1.0 - profile.cloud_amplitude * 0.5 * (1.0 + np.tanh(state))

    return IrradianceTrace(start_epoch_s, 60, clear * attenuation)


def same_irradiance(new, old):
    assert (new.start_epoch_s, new.resolution_s) == (old.start_epoch_s, old.resolution_s)
    assert new.samples.view(np.int64).tolist() == old.samples.view(np.int64).tolist()


def test_solar_trace_matches_step_loop_on_defaults():
    same_irradiance(generate_synthetic_irradiance(30), oracle_generate_synthetic_irradiance(30))
    for seed in (1, 7, 42):
        profile = SolarProfile(cloud_amplitude=0.5, seed=seed)
        same_irradiance(generate_synthetic_irradiance(30, profile), oracle_generate_synthetic_irradiance(30, profile))


@st.composite
def solar_profiles(draw):
    sunrise = draw(st.integers(0, MINUTES_PER_DAY - 1))
    return SolarProfile(
        sunrise_min=sunrise, sunset_min=draw(st.integers(sunrise + 1, MINUTES_PER_DAY)),
        peak_wm2=draw(st.sampled_from([0.0, 300.0, 1234.5])),
        cloud_amplitude=draw(st.floats(0.0, 1.0)),
        cloud_correlation_min=draw(st.one_of(st.sampled_from([1.0, 120.0]), st.floats(1e-3, 1e4))),
        seed=draw(st.integers(0, 2**32 - 1)),
    )


@settings(max_examples=40, deadline=None)
@given(profile=solar_profiles(), days=st.integers(1, 3), start=st.integers(0, 2_000_000_000))
def test_solar_trace_matches_step_loop(profile, days, start):
    same_irradiance(
        generate_synthetic_irradiance(days, profile, start), oracle_generate_synthetic_irradiance(days, profile, start)
    )


# -- non-finite input --------------------------------------------------------------


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_traces_reject_non_finite_values(bad):
    with pytest.raises(TraceError, match=r"non-finite solar current -?(nan|inf) at index 0"):
        HarvestTrace.build([bad, 1.0], [0.0, 0.0])
    with pytest.raises(TraceError, match=r"non-finite kinetic current -?(nan|inf) at index 1"):
        HarvestTrace(0, 60, np.zeros(2), np.array([0.0, bad]), np.zeros(2))
    with pytest.raises(TraceError, match=r"non-finite irradiance -?(nan|inf) at index 2"):
        IrradianceTrace(0, 60, np.array([1.0, 2.0, bad]))


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "NaN", "Infinity"])
def test_csv_loaders_reject_non_finite_cells(tmp_path, cell):
    path = tmp_path / "sun.csv"
    path.write_text(f"timestamp,irradiance_wm2\n0,5\n60,{cell}\n")
    with pytest.raises(TraceError, match="line 3: non-finite irradiance"):
        load_irradiance_csv(str(path))

    path = tmp_path / "harvest.csv"
    for row in (f"60,{cell},0,0", f"60,0,0,{cell}", f"{cell},0,0,0"):
        path.write_text(f"t_s,solar_a,kinetic_a,combined_a\n0,0,0,0\n\n{row}\n")
        with pytest.raises(TraceError, match="line 4: non-finite value"):
            load_harvest_csv(str(path))
