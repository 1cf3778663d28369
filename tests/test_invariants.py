"""Invariants of whole runs over random configs and traces.

For every drawn (config, trace): the energy ledger closes, every boundary
and event voltage lies in [0, v_max], the event log is in time order, every
activity ends within the worst-case task stack that validation checks
against the tick, and a repeat run gives the same bits. The fix record
accounts for every coulomb of kinetic charge and every sample the uploads
sent. Payload scaling stays
off: an upload that outlasts its tick still puts the log out of time order
(ROADMAP item 1, 4a).
"""

import warnings

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from captrack.energy_model import CapacitorSpec, SystemConfig, _worst_case_stack_s
from captrack.engine import EVENT_KINDS, SimResult, fix_record, run_simulation
from captrack.harvest import (
    ActivityProfile,
    HarvestTrace,
    SolarChain,
    SolarProfile,
    generate_kinetic_trace,
    generate_synthetic_irradiance,
)

TICK_S = 60
TICKS_PER_DAY = 1440
LOG_COLUMNS = ("time_s", "kind", "voltage_before", "voltage_after", "detail")
FIX_CODES = [EVENT_KINDS.index(kind) for kind in ("FixHot", "FixHotEph", "FixWarmEph", "FixCold")]
ACTIVITY_CODES = [EVENT_KINDS.index("Sense"), *FIX_CODES, EVENT_KINDS.index("Transmit")]


def interval(most_ticks: int):
    """A disabled interval (None) or a whole number of ticks."""
    return st.one_of(st.none(), st.integers(1, most_ticks).map(lambda k: k * TICK_S))


@st.composite
def configs(draw) -> SystemConfig:
    capacitor = CapacitorSpec.from_capacitance(draw(st.sampled_from([1.0, 2.5, 5.0])))
    initial_voltage = draw(st.one_of(st.floats(0.0, capacitor.v_max), st.sampled_from([0.0, 1.8, 2.2])))
    return SystemConfig(
        capacitor=capacitor,
        sense_interval_s=draw(interval(5)),
        fix_interval_s=draw(interval(30)),
        transmit_interval_s=draw(interval(TICKS_PER_DAY)),
        initial_voltage=min(initial_voltage, capacitor.v_max),
        initial_ephemeris_age_s=draw(st.sampled_from([0, 12000, 100000, 200000])),
        task_jitter=draw(st.booleans()),
        random_seed=draw(st.integers(0, 2**16)),
    )


@st.composite
def traces(draw, efficiency: float) -> HarvestTrace:
    """One or two days: the synthetic generators, or hourly blocks of levels
    from dark to strong enough to pin the capacitor at v_max."""
    days = draw(st.integers(1, 2))
    seed = draw(st.integers(0, 2**16))
    if draw(st.booleans()):
        sky = SolarProfile(
            peak_wm2=draw(st.floats(0.0, 1000.0)), cloud_amplitude=draw(st.floats(0.0, 1.0)), seed=seed
        )
        solar = generate_synthetic_irradiance(days, sky).samples * SolarChain().current_factor
        kinetic = generate_kinetic_trace(days, ActivityProfile(daily_energy_j=draw(st.floats(0.0, 40.0)), seed=seed))
    else:
        rng = np.random.default_rng(seed)
        levels = np.array([0.0, 1e-5, 1e-4, 5e-4, 2e-3, 0.02])
        solar = np.repeat(rng.choice(levels, size=days * 24), 60)
        kinetic = rng.uniform(0.0, 1e-4, days * TICKS_PER_DAY) * (rng.random(days * TICKS_PER_DAY) < 0.3)
    return HarvestTrace.build(solar, kinetic, efficiency)


def run(config: SystemConfig, trace: HarvestTrace) -> SimResult:
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # default thresholds sit below the 1 F safe bounds
        return run_simulation(config, trace)


def bits(values: np.ndarray) -> bytes:
    return np.ascontiguousarray(values).tobytes()


@settings(max_examples=50, deadline=None)
@given(data=st.data(), config=configs())
def test_run_invariants(data, config):
    trace = data.draw(traces(config.combiner_efficiency))
    result = run(config, trace)
    log = result.log
    v_max = config.capacitor.v_max

    assert abs(result.ledger.closure_error_j) <= 1e-6
    for voltages in (result.voltages, log.voltage_before, log.voltage_after):
        assert np.all((voltages >= 0.0) & (voltages <= v_max))
    assert np.all(np.diff(log.time_s) >= 0.0)
    # Success events are stamped at the end of their activity.
    ends = log.time_s[np.isin(log.kind, ACTIVITY_CODES)]
    assert np.all(ends % TICK_S <= _worst_case_stack_s(result.config) + 1e-9)

    again = run(config, trace)
    for name in ("times_s", "voltages", "power_on"):
        assert bits(getattr(again, name)) == bits(getattr(result, name))
    for name in LOG_COLUMNS:
        assert bits(getattr(again.log, name)) == bits(getattr(log, name))
    assert again.log.details == log.details
    # repr tells -0.0 from 0.0 and shows every bit of a float.
    assert repr(again.metrics.to_dict()) == repr(result.metrics.to_dict())
    assert repr(again.ledger.to_dict()) == repr(result.ledger.to_dict())


@settings(max_examples=50, deadline=None)
@given(data=st.data(), config=configs())
def test_fix_record_invariants(data, config):
    trace = data.draw(traces(config.combiner_efficiency))
    result = run(config, trace)
    log = result.log
    record = fix_record(result)

    charge = float(trace.kinetic_a.sum()) * TICK_S
    assert abs(float(record.coulomb_c.sum()) + record.undrained_c - charge) <= 1e-12 * charge

    delivered = ~np.isnan(record.delivered_s)
    uploads = np.flatnonzero(log.kind == EVENT_KINDS.index("Transmit"))
    sent = [int(log.details[d].removeprefix("samples=")) for d in log.detail[uploads].tolist()]
    assert int(delivered.sum()) == sum(sent)
    assert np.all(record.delivered_s[delivered] >= record.time_s[delivered])
    fixes = np.flatnonzero(np.isin(log.kind, FIX_CODES))
    last_upload = uploads[-1] if uploads.size else -1
    assert np.array_equal(~delivered, fixes > last_upload)
