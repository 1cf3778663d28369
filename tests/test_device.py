"""Scheduling and GPS mode selection rules."""

import numpy as np
import pytest

from captrack.device import (
    FIX,
    SENSE,
    TRANSMIT,
    DataSample,
    DeviceState,
    GpsContext,
    GpsMode,
    Power,
    due_schedule,
    on_depletion,
    on_fix_success,
    on_recovery,
    payload_bytes,
    read_coulomb,
    select_gps_mode,
)
from captrack.energy_model import SystemConfig, validate_config

CONFIG = validate_config(SystemConfig())
THRESHOLDS = CONFIG.thresholds


def fresh_context(age_s):
    return GpsContext(ephemeris_age_s=age_s, backup_valid=True)


def test_mode_selection_examples():
    assert select_gps_mode(fresh_context(7200), 2.5, THRESHOLDS, CONFIG) is GpsMode.HOT
    assert select_gps_mode(fresh_context(18000), 2.5, THRESHOLDS, CONFIG) is GpsMode.WARM_EPHEMERIS
    assert select_gps_mode(fresh_context(7200), 1.85, THRESHOLDS, CONFIG) is None
    assert select_gps_mode(GpsContext(None, False), 2.5, THRESHOLDS, CONFIG) is GpsMode.COLD


def test_mode_selection_boundaries():
    # Hot limit is inclusive, warm limit is inclusive, beyond warm is cold.
    assert select_gps_mode(fresh_context(14400), 2.5, THRESHOLDS, CONFIG) is GpsMode.HOT_EPHEMERIS
    assert select_gps_mode(fresh_context(14401), 2.5, THRESHOLDS, CONFIG) is GpsMode.WARM_EPHEMERIS
    assert select_gps_mode(fresh_context(172800), 2.5, THRESHOLDS, CONFIG) is GpsMode.WARM_EPHEMERIS
    assert select_gps_mode(fresh_context(172801), 2.5, THRESHOLDS, CONFIG) is GpsMode.COLD


def test_mode_selection_refresh_upgrade():
    # Past the refresh age a hot fix takes the download variant when voltage
    # allows, otherwise falls back to a plain hot start.
    assert select_gps_mode(fresh_context(10800), 2.5, THRESHOLDS, CONFIG) is GpsMode.HOT_EPHEMERIS
    assert select_gps_mode(fresh_context(10799), 2.5, THRESHOLDS, CONFIG) is GpsMode.HOT
    assert select_gps_mode(fresh_context(10800), 1.95, THRESHOLDS, CONFIG) is GpsMode.HOT
    assert select_gps_mode(fresh_context(10800), 1.85, THRESHOLDS, CONFIG) is None


def test_mode_selection_cold_gate():
    # Cold threshold for the default 2.5 F capacitor derives to 2.01 V.
    assert select_gps_mode(GpsContext(None, False), 2.01, THRESHOLDS, CONFIG) is GpsMode.COLD
    assert select_gps_mode(GpsContext(None, False), 2.009, THRESHOLDS, CONFIG) is None


def test_mode_selection_is_total():
    # Every (age, voltage) pair yields either a mode or a skip (None), and a
    # fresher ephemeris at the same voltage never picks a colder mode.
    rank = {GpsMode.HOT: 0, GpsMode.HOT_EPHEMERIS: 1, GpsMode.WARM_EPHEMERIS: 2, GpsMode.COLD: 3, None: 4}
    rng = np.random.default_rng(41)
    for _ in range(500):
        age = int(rng.integers(0, 300000))
        voltage = float(rng.uniform(1.8, 5.5))
        mode = select_gps_mode(fresh_context(age), voltage, THRESHOLDS, CONFIG)
        assert mode is None or isinstance(mode, GpsMode)
        stale = select_gps_mode(fresh_context(age + 200000), voltage, THRESHOLDS, CONFIG)
        if mode is not None and stale is not None:
            assert rank[stale] >= rank[mode] or stale is GpsMode.COLD


def test_due_tasks_order_and_phases():
    schedule = due_schedule(0, 61, CONFIG)
    assert schedule[0] == (SENSE, FIX, TRANSMIT)
    assert schedule[1] == (SENSE,)
    assert schedule[2] == (SENSE, FIX)
    assert schedule[60] == (SENSE, FIX, TRANSMIT)
    # A schedule that starts later keeps the phases of the clock.
    assert due_schedule(3540, 3, CONFIG) == [(SENSE,), (SENSE, FIX, TRANSMIT), (SENSE,)]


def test_due_tasks_disabled_interval():
    from dataclasses import replace

    cfg = validate_config(replace(SystemConfig(), transmit_interval_s=None))
    assert due_schedule(0, 1, cfg) == [(SENSE, FIX)]
    cfg = validate_config(replace(SystemConfig(), sense_interval_s=None, fix_interval_s=None))
    assert due_schedule(0, 2, cfg) == [(TRANSMIT,), ()]


def test_fix_success_age_bookkeeping():
    state = DeviceState.initial(CONFIG, power_on=True)
    state.gps.ephemeris_age_s = 5000
    state.clock = 120
    on_fix_success(state, GpsMode.HOT, 0.25)
    # Plain hot start keeps the old ephemeris running.
    assert state.gps.ephemeris_age_s == 5000
    assert state.buffer == [DataSample(120, 0.25)]

    for mode in (GpsMode.HOT_EPHEMERIS, GpsMode.WARM_EPHEMERIS, GpsMode.COLD):
        state.gps.ephemeris_age_s = 99999
        on_fix_success(state, mode, 0.0)
        assert state.gps.ephemeris_age_s == 0

    # A cold fix after backup loss restores the domain.
    state.gps.invalidate()
    assert state.gps.ephemeris_age_s is None
    on_fix_success(state, GpsMode.COLD, 0.0)
    assert state.gps.backup_valid and state.gps.ephemeris_age_s == 0


def test_context_advance_and_invalidate():
    gps = fresh_context(100)
    gps.advance(60)
    assert gps.ephemeris_age_s == 160
    gps.invalidate()
    gps.advance(60)
    assert gps.ephemeris_age_s is None
    assert GpsContext(12345, backup_valid=False).ephemeris_age_s is None


def test_read_coulomb_drains():
    state = DeviceState.initial(CONFIG, power_on=True)
    state.coulomb_accumulator = 0.125
    assert read_coulomb(state) == 0.125
    assert read_coulomb(state) == 0.0


def test_payload_sizes():
    assert payload_bytes(30) == 480
    assert payload_bytes(0) == 0
    assert payload_bytes(12) == 192
    with pytest.raises(ValueError):
        payload_bytes(-1)


def test_depletion_and_recovery():
    state = DeviceState.initial(CONFIG, power_on=True)
    state.buffer.append(DataSample(0, 0.0))
    on_depletion(state)
    assert state.power is Power.OFF
    assert not state.gps.backup_valid
    assert len(state.buffer) == 1  # flash survives the power loss
    on_recovery(state)
    assert state.power is Power.ON
    assert state.gps.ephemeris_age_s is None  # still needs a cold fix


def test_initial_state():
    powered = DeviceState.initial(CONFIG, power_on=True)
    assert powered.power is Power.ON
    assert powered.gps.ephemeris_age_s == 0 and powered.gps.backup_valid
    unpowered = DeviceState.initial(CONFIG, power_on=False)
    assert unpowered.power is Power.OFF
    assert unpowered.gps.ephemeris_age_s is None and not unpowered.gps.backup_valid
