"""Scheduling, GPS mode selection and the device state the engine carries."""

import warnings
from dataclasses import replace

import numpy as np
import pytest

from captrack.device import (
    FIX,
    SENSE,
    TRANSMIT,
    due_codes,
    payload_bytes,
    select_gps_mode,
)
from captrack.energy_model import ACTIVITIES, TASKS, CapacitorSpec, SystemConfig, VoltageThresholds, validate_config
from captrack.engine import EVENT_KINDS, fix_record, run_simulation
from captrack.harvest import HarvestTrace

CONFIG = validate_config(SystemConfig())


def fix_kinds(**overrides):
    """Fix kinds of a run with one fix per tick under a strong, steady harvest."""
    settings = {"sense_interval_s": None, "fix_interval_s": 60, "transmit_interval_s": None, "initial_voltage": 5.0}
    config = replace(SystemConfig(), **{**settings, **overrides})
    level = np.full(400, 5e-3)
    result = run_simulation(config, HarvestTrace(0, 60, level, level, level))
    return [EVENT_KINDS[k] for k in fix_record(result).kind.tolist()]


def test_mode_selection_examples():
    assert select_gps_mode(7200, 2.5, CONFIG) == "FixHot"
    assert select_gps_mode(18000, 2.5, CONFIG) == "FixWarmEph"
    assert select_gps_mode(7200, 1.85, CONFIG) is None
    assert select_gps_mode(None, 2.5, CONFIG) == "FixCold"


def test_mode_selection_boundaries():
    # Hot limit is inclusive, warm limit is inclusive, beyond warm is cold.
    assert select_gps_mode(14400, 2.5, CONFIG) == "FixHotEph"
    assert select_gps_mode(14401, 2.5, CONFIG) == "FixWarmEph"
    assert select_gps_mode(172800, 2.5, CONFIG) == "FixWarmEph"
    assert select_gps_mode(172801, 2.5, CONFIG) == "FixCold"


def test_mode_selection_refresh_upgrade():
    # Past the refresh age a hot fix takes the download variant when voltage
    # allows, otherwise falls back to a plain hot start.
    assert select_gps_mode(10800, 2.5, CONFIG) == "FixHotEph"
    assert select_gps_mode(10799, 2.5, CONFIG) == "FixHot"
    assert select_gps_mode(10800, 1.95, CONFIG) == "FixHot"
    assert select_gps_mode(10800, 1.85, CONFIG) is None


def test_mode_selection_cold_gate():
    # Cold threshold for the default 2.5 F capacitor derives to 2.01 V.
    assert select_gps_mode(None, 2.01, CONFIG) == "FixCold"
    assert select_gps_mode(None, 2.009, CONFIG) is None


def test_mode_selection_is_total():
    # Every (age, voltage) pair yields either a mode or a skip (None), and a
    # fresher ephemeris at the same voltage never picks a colder mode.
    rank = {"FixHot": 0, "FixHotEph": 1, "FixWarmEph": 2, "FixCold": 3, None: 4}
    rng = np.random.default_rng(41)
    for _ in range(500):
        age = int(rng.integers(0, 300000))
        voltage = float(rng.uniform(1.8, 5.5))
        mode = select_gps_mode(age, voltage, CONFIG)
        assert mode in rank
        stale = select_gps_mode(age + 200000, voltage, CONFIG)
        if mode is not None and stale is not None:
            assert rank[stale] >= rank[mode] or stale == "FixCold"


def test_fix_gates_are_read_from_the_activity_table(monkeypatch):
    # select_gps_mode read each threshold by name: a gate changed in
    # ACTIVITIES went unseen.
    assert select_gps_mode(10800, 2.05, CONFIG) == "FixHotEph"
    monkeypatch.setitem(ACTIVITIES, "FixHotEph", replace(ACTIVITIES["FixHotEph"], gate="warm_ephemeris"))
    assert select_gps_mode(10800, 2.05, CONFIG) == "FixHot"
    assert select_gps_mode(10800, 2.1, CONFIG) == "FixHotEph"


def test_upload_gate_is_read_from_the_activity_table(monkeypatch):
    # The engine gated uploads on thresholds.nbiot by name; here the table
    # moves the gate to hot_start (1.9 V), below a 3 V start.
    monkeypatch.setitem(ACTIVITIES, "Transmit", replace(ACTIVITIES["Transmit"], gate="hot_start"))
    config = replace(
        SystemConfig(), thresholds=VoltageThresholds(nbiot=4.0), initial_voltage=3.0,
        sense_interval_s=None, fix_interval_s=None,
    )
    level = np.zeros(1)
    result = run_simulation(config, HarvestTrace(0, 60, level, level, level))
    assert [EVENT_KINDS[k] for k in result.log.kind.tolist()] == ["Transmit"]


def test_upload_task_is_read_from_the_activity_table(monkeypatch):
    # The engine ran TASKS["NbIot"] for every upload, whatever the chain said.
    monkeypatch.setitem(ACTIVITIES, "Transmit", replace(ACTIVITIES["Transmit"], chain=("AdcRead",)))
    config = replace(SystemConfig(), initial_voltage=3.0, sense_interval_s=None, fix_interval_s=None)
    level = np.zeros(1)
    result = run_simulation(config, HarvestTrace(0, 60, level, level, level))
    assert [EVENT_KINDS[k] for k in result.log.kind.tolist()] == ["Transmit"]
    assert result.log.time_s[0] == TASKS["AdcRead"].duration_s
    assert sorted(result.ledger.consumed_by_task_j) == ["AdcRead", "Sleep"]
    # The upload is one task: a longer chain is refused, not cut short.
    monkeypatch.setitem(ACTIVITIES, "Transmit", replace(ACTIVITIES["Transmit"], chain=("NbIot", "AdcRead")))
    with pytest.raises(ValueError, match="too many values to unpack"):
        run_simulation(config, HarvestTrace(0, 60, level, level, level))


def due_schedule(clock0, n_ticks, config):
    """The activity tuple due in each tick."""
    return [tuple(b for b in (SENSE, FIX, TRANSMIT) if c & b) for c in due_codes(clock0, n_ticks, config).tolist()]


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
    # A download or a fresh acquisition restarts the ephemeris age at its
    # fix's tick; a plain hot fix leaves it running, so the next download
    # comes 3 h after the last restart.
    hot = ["FixHot"] * 179
    assert fix_kinds(initial_backup_valid=False)[:362] == ["FixCold", *hot, "FixHotEph", *hot, "FixHotEph", "FixHot"]
    assert fix_kinds(initial_ephemeris_age_s=20000)[:181] == ["FixWarmEph", *hot, "FixHotEph"]
    assert fix_kinds(initial_ephemeris_age_s=10790)[:182] == ["FixHot", "FixHotEph", *hot, "FixHotEph"]


def test_payload_sizes():
    assert payload_bytes(30) == 480
    assert payload_bytes(0) == 0
    assert payload_bytes(12) == 192
    with pytest.raises(ValueError):
        payload_bytes(-1)


def test_depletion_and_recovery():
    # A fix buffered before a power loss survives it in flash: the first
    # successful upload after recovery sends it and counts it. The lost
    # backup domain makes the first fix after recovery cold.
    gates = VoltageThresholds(v_turn_on=1.85, hot_start=1.82, nbiot=1.81)
    config = SystemConfig(
        capacitor=CapacitorSpec.from_capacitance(1.0), thresholds=gates, sense_interval_s=None,
        fix_interval_s=600, transmit_interval_s=1800, initial_voltage=1.86,
    )
    level = np.full(60, 5e-3)
    level[0] = 0.0  # the first upload drains the capacitor to the floor
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # gates below their safe bounds, on purpose
        result = run_simulation(config, HarvestTrace(0, 60, level, level, level))
    log = result.log
    names = [EVENT_KINDS[k] for k in log.kind.tolist()]
    assert names[:4] == ["FixHot", "TransmitFailed", "Depletion", "Recovery"]
    upload = names.index("Transmit")
    assert log.details[log.detail[upload]] == "samples=4"
    record = fix_record(result)
    assert [EVENT_KINDS[k] for k in record.kind[:4].tolist()] == ["FixHot", "FixCold", "FixHot", "FixHot"]
    assert record.time_s[0] < log.time_s[names.index("Depletion")]
    assert record.delivered_s[:4].tolist() == [log.time_s[upload]] * 4


def test_initial_state():
    # A powered start keeps the configured ephemeris age; a start without a
    # valid backup domain, or below v_turn_on, needs a cold fix.
    assert fix_kinds(initial_ephemeris_age_s=0)[0] == "FixHot"
    assert fix_kinds(initial_backup_valid=False)[0] == "FixCold"
    assert fix_kinds(initial_voltage=2.1)[0] == "FixCold"
