"""Byte identity of the CSV writers against the per-row csv.writer loops they replaced.

The three oracle functions below are the earlier bodies of
engine.export_timeseries, harvest.save_harvest_csv and
harvest.save_irradiance_csv, kept verbatim, except that the timeseries
oracle reads the log's rows through events_of. Every case writes the same
data through both and compares the files byte for byte. The samples.csv
oracle is the earlier cli._write_samples, verbatim, with the two helpers it
called.
"""

import csv
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from captrack import harvest
from captrack.cli import SAMPLES_HEADER, _write_samples
from captrack.energy_model import CapacitorSpec, SystemConfig
from captrack.engine import EVENT_KINDS, TIMESERIES_HEADER, EventLog, export_timeseries, fix_record, run_simulation
from captrack.harvest import (
    HARVEST_HEADER,
    IRRADIANCE_HEADER,
    ActivityProfile,
    HarvestTrace,
    IrradianceTrace,
    SolarChain,
    SolarProfile,
    generate_kinetic_trace,
    generate_synthetic_irradiance,
    save_harvest_csv,
    save_irradiance_csv,
)


class Event(NamedTuple):
    """One event log row, with its kind and detail as text."""

    time_s: float
    kind: str
    voltage_before: float
    voltage_after: float
    detail: str = ""


def events_of(log: EventLog) -> list[Event]:
    return [
        Event(t, EVENT_KINDS[k], before, after, log.details[d])
        for t, k, before, after, d in zip(
            log.time_s.tolist(), log.kind.tolist(), log.voltage_before.tolist(),
            log.voltage_after.tolist(), log.detail.tolist(),
        )
    ]


def log_of(events: list[Event]) -> EventLog:
    details = {"": 0}
    rows = [
        (e.time_s, EVENT_KINDS.index(e.kind), e.voltage_before, e.voltage_after,
         details.setdefault(e.detail, len(details)))
        for e in events
    ]
    return EventLog.from_rows(rows, details)


# -- oracles: the replaced writers, verbatim ----------------------------------


def oracle_export_timeseries(result, path: str) -> None:
    harvest = result.harvest
    n = len(result.times_s) - 1
    rows: list[tuple[float, int, list[str]]] = []

    def currents_at(t: float) -> tuple[float, float, float]:
        i = max(0, min(int(t // harvest.resolution_s), n - 1))
        return float(harvest.solar_a[i]), float(harvest.kinetic_a[i]), float(harvest.combined_a[i])

    for i in range(n + 1):
        t = float(result.times_s[i])
        solar, kinetic, combined = currents_at(t if i < n else t - 1.0)
        state = "On" if result.power_on[i] else "Off"
        rows.append(
            (t, 0, [f"{t:.5f}", f"{result.voltages[i]:.6f}", f"{solar:.9e}", f"{kinetic:.9e}",
                    f"{combined:.9e}", state, ""])
        )

    power = "On" if result.power_on[0] else "Off"
    for seq, e in enumerate(events_of(result.log)):
        if e.kind == "Depletion":
            power = "Off"
        elif e.kind == "Recovery":
            power = "On"
        solar, kinetic, combined = currents_at(e.time_s)
        label = f"{e.kind}:{e.detail}" if e.detail else e.kind
        rows.append(
            (e.time_s, 1, [f"{e.time_s:.5f}", f"{e.voltage_after:.6f}", f"{solar:.9e}",
                           f"{kinetic:.9e}", f"{combined:.9e}", power, label])
        )

    rows.sort(key=lambda r: (r[0], r[1]))
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(TIMESERIES_HEADER)
        for _, _, fields in rows:
            writer.writerow(fields)


def oracle_save_irradiance_csv(trace, path: str) -> None:
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(IRRADIANCE_HEADER)
        for i, value in enumerate(trace.samples):
            writer.writerow([trace.start_epoch_s + i * trace.resolution_s, f"{value:.6f}"])


def oracle_save_harvest_csv(trace, path: str) -> None:
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(HARVEST_HEADER)
        for i in range(len(trace)):
            writer.writerow(
                [
                    i * trace.resolution_s,
                    f"{trace.solar_a[i]:.9e}",
                    f"{trace.kinetic_a[i]:.9e}",
                    f"{trace.combined_a[i]:.9e}",
                ]
            )


def format_floats(values: np.ndarray, spec: str) -> list[str]:
    """spec % value for each value, formatting each distinct value once.

    Values are told apart by their bit pattern, not compared as floats, so
    -0.0 is not merged into 0.0 and keeps its sign.
    """
    bits = np.asarray(values, dtype=np.float64).view(np.int64)
    distinct, inverse = np.unique(bits, return_inverse=True)
    text = np.array([spec % v for v in distinct.view(np.float64).tolist()], dtype=object)
    return text[inverse].tolist()


def write_csv(path, header, n_rows, rows) -> None:
    """Write a header line and n_rows rows, each line ending in \\r\\n.

    rows(start, stop) returns the fields of rows start..stop-1 as finished
    CSV text. It is called once per chunk of CSV_CHUNK_ROWS rows, so only one
    chunk of text is held at a time.
    """
    with open(path, "w", newline="") as handle:
        handle.write(",".join(map(harvest.csv_field, header)) + "\r\n")
        for start in range(0, n_rows, harvest.CSV_CHUNK_ROWS):
            handle.write("\r\n".join(map(",".join, rows(start, min(start + harvest.CSV_CHUNK_ROWS, n_rows)))))
            handle.write("\r\n")


def oracle_write_samples(result, path: str) -> None:
    """One row per fix: time, kind, Coulomb reading, upload time (blank if unsent)."""
    record = fix_record(result)
    kinds = np.array(EVENT_KINDS, dtype=object)[record.kind]

    def rows(start: int, stop: int):
        delivered = format_floats(record.delivered_s[start:stop], "%.5f")
        return zip(
            format_floats(record.time_s[start:stop], "%.5f"), kinds[start:stop].tolist(),
            format_floats(record.coulomb_c[start:stop], "%.9e"), ["" if d == "nan" else d for d in delivered],
        )

    write_csv(path, SAMPLES_HEADER, kinds.size, rows)


# -- helpers --------------------------------------------------------------------


def assert_same_bytes(tmp_path, write, oracle, obj) -> bytes:
    new, old = tmp_path / "new.csv", tmp_path / "old.csv"
    write(obj, str(new))
    oracle(obj, str(old))
    data = new.read_bytes()
    assert data == old.read_bytes()
    return data


def winter_trace(days: int, peak_wm2: float = 300.0, daily_energy_j: float = 13.07) -> HarvestTrace:
    irradiance = generate_synthetic_irradiance(days, SolarProfile(peak_wm2=peak_wm2, cloud_amplitude=0.5))
    solar = irradiance.samples * SolarChain().current_factor
    kinetic = generate_kinetic_trace(days, ActivityProfile(daily_energy_j=daily_energy_j))
    return HarvestTrace.build(solar, kinetic)


def out_of_order(log: EventLog) -> int:
    return int(np.count_nonzero(np.diff(log.time_s) < 0.0))


# -- cases ------------------------------------------------------------------------


def test_two_day_default_run(tmp_path):
    result = run_simulation(SystemConfig(), winter_trace(2))
    data = assert_same_bytes(tmp_path, export_timeseries, oracle_export_timeseries, result)
    assert data.count(b"\r\n") == 1 + len(result.times_s) + len(result.log)
    assert b"ClampStart" in data


def test_depleting_run_flips_power_state(tmp_path):
    config = SystemConfig(capacitor=CapacitorSpec.from_capacitance(1.0), initial_voltage=2.5)
    result = run_simulation(config, winter_trace(2, peak_wm2=15.0, daily_energy_j=1.5))
    kinds = {EVENT_KINDS[k] for k in result.log.kind.tolist()}
    assert {"Depletion", "Recovery"} <= kinds
    data = assert_same_bytes(tmp_path, export_timeseries, oracle_export_timeseries, result)
    assert b",Off,Depletion\r\n" in data and b",On,Recovery\r\n" in data


def test_payload_scaled_uploads_out_of_time_order(tmp_path):
    # Payload-scaled uploads overrun their tick (ROADMAP 4a), so the log holds
    # events out of time order; the rows must still sort exactly as before.
    # When that defect is fixed, test_hand_built_log_ties_and_quoting keeps
    # covering out-of-order logs.
    config = SystemConfig(payload_scaling=True, transmit_interval_s=86400, fix_interval_s=120)
    result = run_simulation(config, winter_trace(3))
    assert out_of_order(result.log) == 2
    assert_same_bytes(tmp_path, export_timeseries, oracle_export_timeseries, result)


def test_negative_zero_and_repeated_values(tmp_path):
    solar = np.array([0.0, -0.0, 1e-4, 1e-4, -0.0, 2.5e-3, 1e-4, 0.0] * 30)
    kinetic = np.array([-0.0, 3e-5, 3e-5, 0.0] * 60)
    trace = HarvestTrace(0, 60, solar, kinetic, 0.88 * (solar + kinetic))
    data = assert_same_bytes(tmp_path, save_harvest_csv, oracle_save_harvest_csv, trace)
    assert b"-0.000000000e+00" in data
    result = run_simulation(SystemConfig(initial_voltage=3.0), trace)
    data = assert_same_bytes(tmp_path, export_timeseries, oracle_export_timeseries, result)
    assert b"-0.000000000e+00" in data

    irradiance = IrradianceTrace(0, 60, np.array([0.0, -0.0, 12.5, 12.5, -0.0]))
    data = assert_same_bytes(tmp_path, save_irradiance_csv, oracle_save_irradiance_csv, irradiance)
    assert b"-0.000000" in data


def test_trace_longer_than_run(tmp_path):
    trace = winter_trace(2)
    result = run_simulation(SystemConfig(), trace, 86400 + 3600)
    assert len(result.times_s) - 1 < len(trace)
    assert_same_bytes(tmp_path, export_timeseries, oracle_export_timeseries, result)
    assert_same_bytes(tmp_path, save_harvest_csv, oracle_save_harvest_csv, trace)


def test_irradiance_with_start_epoch(tmp_path):
    trace = generate_synthetic_irradiance(2, start_epoch_s=1_700_000_040)
    data = assert_same_bytes(tmp_path, save_irradiance_csv, oracle_save_irradiance_csv, trace)
    assert data.startswith(b"timestamp,irradiance_wm2\r\n1700000040,0.000000\r\n")


def test_writers_span_several_chunks(tmp_path, monkeypatch):
    monkeypatch.setattr(harvest, "CSV_CHUNK_ROWS", 97)
    trace = winter_trace(1)
    assert not trace.solar_a[:2 * 97 + 1].any()  # a run of night zeros crosses two chunk boundaries
    config = SystemConfig(capacitor=CapacitorSpec.from_capacitance(1.0), initial_voltage=2.5)
    for result in (run_simulation(SystemConfig(), trace), run_simulation(config, trace)):
        assert len(result.times_s) + len(result.log) > 10 * 97
        assert_same_bytes(tmp_path, export_timeseries, oracle_export_timeseries, result)
    assert_same_bytes(tmp_path, save_harvest_csv, oracle_save_harvest_csv, trace)
    irradiance = IrradianceTrace(86400, 60, trace.solar_a * 1e4)
    assert_same_bytes(tmp_path, save_irradiance_csv, oracle_save_irradiance_csv, irradiance)


def test_trace_writers_with_a_float_resolution(tmp_path):
    # Times are written as str() of start + i x resolution, so a resolution
    # given as a float prints as one.
    trace = winter_trace(1)
    trace.resolution_s = 60.0
    data = assert_same_bytes(tmp_path, save_harvest_csv, oracle_save_harvest_csv, trace)
    assert data.startswith(b"t_s,solar_a,kinetic_a,combined_a\r\n0.0,")
    irradiance = IrradianceTrace(-120, 30.0, trace.solar_a[:100] * 1e4)
    assert_same_bytes(tmp_path, save_irradiance_csv, oracle_save_irradiance_csv, irradiance)


@pytest.mark.parametrize("powered_at_start", [True, False])
def test_hand_built_log_ties_and_quoting(tmp_path, powered_at_start):
    # Events tie with tick rows and with each other, run out of time order,
    # fall outside the trace, and carry details that csv.writer must quote.
    # Events before the first Depletion/Recovery take the power state of the
    # first tick row.
    result = run_simulation(SystemConfig(), winter_trace(1), 600)
    result.power_on[0] = powered_at_start
    result.log = log_of([
        Event(120.0, "Sense", 5.0, 4.9),
        Event(120.0, "FixSkipped", 4.9, 4.9, "low-voltage"),
        Event(60.5, "Transmit", 4.9, -0.0, 'samples=3,"late"'),
        Event(0.0, "Depletion", 1.8, 1.8),
        Event(300.25, "TaskFailed", 1.8, 1.8, "line\nbreak"),
        Event(300.25, "Recovery", 2.2, 2.2),
        Event(600.0, "ClampEnd", 5.5, 5.5, "cr\rhere"),
        Event(9000.0, "ClampStart", 5.5, 5.5),
    ])
    data = assert_same_bytes(tmp_path, export_timeseries, oracle_export_timeseries, result)
    assert b'"Transmit:samples=3,""late"""' in data


def test_samples_default_run(tmp_path):
    result = run_simulation(SystemConfig(), winter_trace(2))
    data = assert_same_bytes(tmp_path, _write_samples, oracle_write_samples, result)
    assert data.count(b"\r\n") == 1 + result.metrics.total_fixes


def test_samples_depleting_run_keeps_undelivered_fixes_blank(tmp_path):
    config = SystemConfig(capacitor=CapacitorSpec.from_capacitance(1.0), initial_voltage=2.5)
    result = run_simulation(config, winter_trace(2, peak_wm2=15.0, daily_energy_j=1.5))
    assert result.metrics.depletion_count > 0
    record = fix_record(result)
    assert np.isnan(record.delivered_s).any() and not np.isnan(record.delivered_s).all()
    data = assert_same_bytes(tmp_path, _write_samples, oracle_write_samples, result)
    assert data.endswith(b",\r\n")  # the last fixes were never sent


def test_samples_without_fixes_or_uploads(tmp_path):
    trace = winter_trace(1)
    data = assert_same_bytes(tmp_path, _write_samples, oracle_write_samples, run_simulation(
        SystemConfig(fix_interval_s=None), trace
    ))
    assert data == ",".join(SAMPLES_HEADER).encode() + b"\r\n"
    result = run_simulation(SystemConfig(transmit_interval_s=None), trace)
    assert np.isnan(fix_record(result).delivered_s).all()
    assert_same_bytes(tmp_path, _write_samples, oracle_write_samples, result)


def test_samples_payload_scaled_run(tmp_path):
    config = SystemConfig(payload_scaling=True, transmit_interval_s=86400, fix_interval_s=120)
    result = run_simulation(config, winter_trace(3))
    assert_same_bytes(tmp_path, _write_samples, oracle_write_samples, result)


def test_samples_span_several_chunks(tmp_path, monkeypatch):
    monkeypatch.setattr(harvest, "CSV_CHUNK_ROWS", 97)
    config = SystemConfig(capacitor=CapacitorSpec.from_capacitance(1.0), initial_voltage=2.5, fix_interval_s=60)
    result = run_simulation(config, winter_trace(2, peak_wm2=60.0, daily_energy_j=3.0))
    assert result.metrics.total_fixes > 10 * 97
    assert_same_bytes(tmp_path, _write_samples, oracle_write_samples, result)


def test_event_labels_keep_every_byte(tmp_path):
    # A detail is any text: NUL bytes (one at the end, too), non-ASCII text,
    # and labels longer or shorter than every number must come out as
    # csv.writer writes them.
    result = run_simulation(SystemConfig(), winter_trace(1), 1200)
    result.log = log_of([
        Event(60.0, "Sense", 4.0, 4.0, "nul\x00inside"),
        Event(60.0, "TaskFailed", 4.0, 4.0, "ends in nul\x00"),
        Event(120.5, "FixSkipped", 4.0, -0.0, "h\u00e9t\u00e9, \u00fcber-long detail " * 4),
        Event(300.0, "Transmit", 4.0, 12.5),
        Event(900.0, "Depletion", 1.8, 1.8, "\x00"),
    ])
    data = assert_same_bytes(tmp_path, export_timeseries, oracle_export_timeseries, result)
    assert b",On,TaskFailed:ends in nul\x00\r\n" in data and b",Off,Depletion:\x00\r\n" in data


# -- property ---------------------------------------------------------------------

finite = st.floats(min_value=0.0, max_value=0.05, allow_subnormal=True)
currents = st.one_of(finite, st.sampled_from([0.0, -0.0, 1e-4, 2.5e-3]))
details = st.text(alphabet=st.sampled_from(list('ab,"\r\n =')), max_size=6)
event_kinds = st.sampled_from(["Sense", "FixHot", "Transmit", "Depletion", "Recovery", "ClampStart"])


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    data=st.data(),
    n_steps=st.integers(min_value=1, max_value=90),
    capacitance=st.sampled_from([1.0, 2.5, 5.0]),
    fix_s=st.sampled_from([60, 120, 600, None]),
    initial_voltage=st.floats(min_value=0.0, max_value=5.5),
    start_epoch=st.integers(min_value=0, max_value=2_000_000_000),
)
def test_random_traces_and_configs(
    tmp_path, monkeypatch, data, n_steps, capacitance, fix_s, initial_voltage, start_epoch
):
    monkeypatch.setattr(harvest, "CSV_CHUNK_ROWS", data.draw(st.sampled_from([7, 1_000_000])))
    solar = np.array(data.draw(st.lists(currents, min_size=n_steps, max_size=n_steps)))
    kinetic = np.array(data.draw(st.lists(currents, min_size=n_steps, max_size=n_steps)))
    trace = HarvestTrace.build(solar, kinetic, start_epoch_s=start_epoch)
    config = SystemConfig(
        capacitor=CapacitorSpec.from_capacitance(capacitance), fix_interval_s=fix_s, initial_voltage=initial_voltage
    )
    ticks = data.draw(st.integers(min_value=1, max_value=n_steps))
    result = run_simulation(config, trace, ticks * 60)
    assert_same_bytes(tmp_path, export_timeseries, oracle_export_timeseries, result)
    assert_same_bytes(tmp_path, save_harvest_csv, oracle_save_harvest_csv, trace)
    irradiance = IrradianceTrace(start_epoch, 60, solar * 1e4)
    assert_same_bytes(tmp_path, save_irradiance_csv, oracle_save_irradiance_csv, irradiance)

    # The same run with a hand-made log: arbitrary times, kinds and details.
    times = st.one_of(st.integers(min_value=0, max_value=ticks * 60 + 120).map(float), st.floats(0.0, ticks * 60.0 + 120))
    result.log = log_of([
        Event(t, kind, v, v, detail)
        for t, kind, v, detail in data.draw(st.lists(st.tuples(times, event_kinds, finite, details), max_size=12))
    ])
    assert_same_bytes(tmp_path, export_timeseries, oracle_export_timeseries, result)
