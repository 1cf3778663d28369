"""Bit identity of the chunked trace loaders against the per-row loaders they replaced.

oracle_parse_timestamp, oracle_load_irradiance_csv and oracle_load_harvest_csv
below are the earlier bodies of harvest._parse_timestamp,
harvest.load_irradiance_csv and harvest.load_harvest_csv, kept verbatim apart
from their names. Every case loads one file through both and compares the
arrays by their bytes, the scalars by value and type, and a failure by its
exception type and message.
"""

import csv
import math
import warnings
from datetime import datetime, timedelta, timezone
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from captrack import harvest
from captrack.harvest import (
    HARVEST_HEADER,
    IRRADIANCE_HEADER,
    HarvestTrace,
    IrradianceTrace,
    TraceError,
    load_harvest_csv,
    load_irradiance_csv,
)

# -- the per-row loaders, verbatim ---------------------------------------------


def oracle_parse_timestamp(raw: str, line: int) -> int:
    raw = raw.strip()
    try:
        return int(raw)
    except ValueError:
        pass
    try:
        stamp = datetime.fromisoformat(raw.replace("Z", "+00:00"))
    except ValueError as exc:
        raise TraceError(f"line {line}: unparseable timestamp {raw!r}") from exc
    if stamp.tzinfo is None:
        stamp = stamp.replace(tzinfo=timezone.utc)
    return int(stamp.timestamp())


def oracle_load_irradiance_csv(path: str, resolution_s: int = 60, max_gap_steps: int = 5) -> IrradianceTrace:
    """Read "timestamp,irradiance_wm2" rows into a trace.

    Timestamps may be epoch seconds or ISO-8601, strictly increasing on the
    declared resolution grid. Gaps of up to max_gap_steps missing rows are
    filled by holding the previous value (counted in gaps_filled); anything
    larger is an error.
    """
    try:
        handle = open(path, newline="")
    except OSError as exc:
        raise TraceError(f"cannot open {path}: {exc}") from exc
    with handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise TraceError(f"{path}: empty file") from None
        if [h.strip().lower() for h in header] != IRRADIANCE_HEADER:
            raise TraceError(f"{path}: expected header {','.join(IRRADIANCE_HEADER)!r}, got {','.join(header)!r}")

        samples: list[float] = []
        gaps = 0
        start = None
        previous = None
        for line, row in enumerate(reader, start=2):
            if not row or all(not cell.strip() for cell in row):
                continue
            if len(row) != 2:
                raise TraceError(f"line {line}: expected 2 fields, got {len(row)}")
            stamp = oracle_parse_timestamp(row[0], line)
            try:
                value = float(row[1])
            except ValueError:
                raise TraceError(f"line {line}: unparseable irradiance {row[1]!r}") from None
            if not 0.0 <= value < math.inf:  # false for NaN too
                if math.isfinite(value):
                    raise TraceError(f"line {line}: negative irradiance {value}")
                raise TraceError(f"line {line}: non-finite irradiance {row[1]!r}")
            if start is None:
                start = stamp
            elif stamp <= previous:
                raise TraceError(f"line {line}: timestamp not increasing ({stamp} after {previous})")
            else:
                spacing = stamp - previous
                if spacing % resolution_s != 0:
                    raise TraceError(f"line {line}: spacing {spacing} s off the {resolution_s} s grid")
                missing = spacing // resolution_s - 1
                if missing > max_gap_steps:
                    raise TraceError(f"line {line}: gap of {missing} steps exceeds limit {max_gap_steps}")
                if missing:
                    samples.extend([samples[-1]] * missing)
                    gaps += 1
            samples.append(value)
            previous = stamp
        if start is None:
            raise TraceError(f"{path}: no data rows")
    return IrradianceTrace(start, resolution_s, np.array(samples), gaps)



def oracle_load_harvest_csv(path: str) -> HarvestTrace:
    """Read a harvest CSV written by save_harvest_csv (or shaped like it)."""
    try:
        handle = open(path, newline="")
    except OSError as exc:
        raise TraceError(f"cannot open {path}: {exc}") from exc
    with handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise TraceError(f"{path}: empty file") from None
        if [h.strip().lower() for h in header] != HARVEST_HEADER:
            raise TraceError(f"{path}: expected header {','.join(HARVEST_HEADER)!r}, got {','.join(header)!r}")
        lines: list[int] = []
        columns: list[list[float]] = [[], [], [], []]
        for line, row in enumerate(reader, start=2):
            if not row or all(not cell.strip() for cell in row):
                continue
            if len(row) != 4:
                raise TraceError(f"line {line}: expected 4 fields, got {len(row)}")
            try:
                for k in range(4):
                    columns[k].append(float(row[k]))
            except ValueError:
                raise TraceError(f"line {line}: unparseable row {row!r}") from None
            lines.append(line)
    if not lines:
        raise TraceError(f"{path}: no data rows")
    table = np.array(columns)
    finite = np.isfinite(table).all(axis=0)
    if not finite.all():
        raise TraceError(f"line {lines[int(np.argmin(finite))]}: non-finite value")
    times = [int(t) for t in columns[0]]
    if len(times) == 1:
        resolution = 60
    else:
        spacings = {b - a for a, b in zip(times, times[1:])}
        if len(spacings) != 1 or min(spacings) <= 0:
            raise TraceError(f"{path}: time column not uniformly spaced")
        resolution = spacings.pop()
    return HarvestTrace(0, resolution, table[1], table[2], table[3])


# -- comparison ------------------------------------------------------------------


def outcome(load, path, *args):
    """What loading path gives: every field of the trace, or the exception."""
    try:
        trace = load(str(path), *args)
    except Exception as exc:  # noqa: BLE001 - compared, so both loaders must fail alike
        return type(exc), str(exc)
    return {
        name: (type(value), value.dtype.str, value.tobytes()) if isinstance(value, np.ndarray) else (type(value), value)
        for name, value in vars(trace).items()
    }


def same_as_oracle(path, kind, *args):
    """Load path with the loader and its oracle; return the loader's outcome after checking they agree."""
    load, oracle = {"irradiance": (load_irradiance_csv, oracle_load_irradiance_csv),
                    "harvest": (load_harvest_csv, oracle_load_harvest_csv)}[kind]
    got = outcome(load, path, *args)
    assert got == outcome(oracle, path, *args)
    return got


def render(rows, *, quote="none", newline="\n", final_newline=True):
    """CSV text of rows of cell text; a str row is written as it is."""
    lines = []
    for i, row in enumerate(rows):
        if isinstance(row, str):
            lines.append(row)
            continue
        cells = []
        for cell in row:
            if any(c in cell for c in ',"\r\n') or quote == "all" or (quote == "some" and i % 3 == 0):
                cell = '"' + cell.replace('"', '""') + '"'
            cells.append(cell)
        lines.append(",".join(cells))
    return newline.join(lines) + (newline if final_newline else "")


# -- generated files -------------------------------------------------------------

EPOCH = datetime(1970, 1, 1)
FIRST_DAY = -62135596800 + 86400  # 0001-01-02T00:00:00Z
LAST_DAY = 253402300799 - 86400  # 9999-12-30T23:59:59Z
CHUNK_ROWS = [1, 2, 3, 5, 8192]


def iso(stamp, hours=0):
    return (EPOCH + timedelta(seconds=stamp + 3600 * hours)).isoformat()


STAMP_FORMS = {
    "epoch": str,
    "z": lambda s: iso(s) + "Z",
    "utc": lambda s: iso(s) + "+00:00",
    "east": lambda s: iso(s, 2) + "+02:00",
    "west": lambda s: iso(s, -5) + "-05:00",
    "naive": iso,
    "fraction": lambda s: iso(s) + ".250000Z",
    "padded": lambda s: f" {iso(s)}Z ",
    "space": lambda s: iso(s).replace("T", " ") + "Z",
}
FLOAT_FORMS = [repr, "%.6f".__mod__, "%g".__mod__, "%.9e".__mod__, lambda v: f" {v!r} "]
BLANK_ROWS = ["", "  ", " , ", ",", ",,,", "\t"]
BAD_STAMPS = ["noon", "", "2025-13-01T00:00:00Z", "0000-01-01T00:00:00Z", "2025-02-29T00:00:00Z",
              "2025-01-01T00:00:60Z", "2025-01-01T00:00:00z", "1_000", "١٢٣", "2025-01-01T00:00:00+0Z"]
BAD_NUMBERS = ["x", "", "nan", "NaN", "inf", "-inf", "Infinity", "-2.5", "-0.0", "1_0", "1,5", 'say "1"']
IRRADIANCE_HEADERS = ["timestamp,irradiance_wm2", '"timestamp","irradiance_wm2"', " Timestamp , IRRADIANCE_WM2 ",
                      "time,value"]
HARVEST_HEADERS = ["t_s,solar_a,kinetic_a,combined_a", '"t_s","solar_a","kinetic_a","combined_a"',
                   "T_S, Solar_A ,kinetic_a,combined_a", "t_s,solar_a"]


@st.composite
def layout(draw, rows):
    """Blank rows, quoting, line ends and a final newline around rows of cells."""
    for index, blank in sorted(draw(st.lists(st.tuples(st.integers(0, len(rows)), st.sampled_from(BLANK_ROWS)),
                                             max_size=3)), reverse=True):
        rows.insert(index, blank)
    return render(rows, quote=draw(st.sampled_from(["none", "all", "some"])),
                  newline=draw(st.sampled_from(["\n", "\r\n"])), final_newline=draw(st.booleans()))


@st.composite
def irradiance_files(draw):
    """(text, resolution_s, max_gap_steps): a valid trace, then up to two faults."""
    resolution = draw(st.sampled_from([1, 60, 90]))
    max_gap = draw(st.sampled_from([0, 1, 5]))
    start = draw(st.one_of(st.sampled_from([0, 1735689600, FIRST_DAY, LAST_DAY - 10**5]),
                           st.integers(FIRST_DAY, LAST_DAY - 10**5)))
    forms = draw(st.lists(st.sampled_from(sorted(STAMP_FORMS)), min_size=1, max_size=3))
    big = draw(st.sampled_from([None] * 6 + [2**62 - 600, 2**63 - 600, -(2**63), 10**20]))
    if big is not None:  # beyond the ISO years: epoch seconds only
        start, forms = big, ["epoch"]
    steps = draw(st.lists(st.sampled_from([1, 1, 1, 1, 2, 3, 7]), min_size=1, max_size=24))
    stamps = [start + resolution * (sum(steps[:i]) - steps[0] + 1) for i in range(len(steps))]
    rows = [[STAMP_FORMS[draw(st.sampled_from(forms))](s), draw(st.sampled_from(FLOAT_FORMS))(
        draw(st.floats(0.0, 1500.0)))] for s in stamps]
    for index, fault in draw(st.lists(st.tuples(st.integers(0, len(rows) - 1), st.sampled_from(
            ["extra", "short", "stamp", "value", "repeat", "shift", "jump"])), max_size=2)):
        row = rows[index]
        if fault == "extra":
            row.append("1")
        elif fault == "short":
            del row[1:]
        elif fault == "stamp":
            row[0] = draw(st.sampled_from(BAD_STAMPS))
        elif fault == "value" and len(row) > 1:
            row[1] = draw(st.sampled_from(BAD_NUMBERS))
        elif fault == "repeat" and index:
            row[0] = rows[index - 1][0]
        elif fault == "shift":
            row[0] = str(stamps[index] + resolution // 2 + 1)
        elif fault == "jump":
            row[0] = str(stamps[index] + resolution * (max_gap + 2))
    header = draw(st.sampled_from(IRRADIANCE_HEADERS[:3] * 5 + IRRADIANCE_HEADERS[3:]))
    return header + "\n" + draw(layout(rows)), resolution, max_gap


@st.composite
def harvest_files(draw):
    """A harvest CSV: a valid trace, then up to two faults."""
    resolution = draw(st.sampled_from([60, 60, 1, 0.5, 120]))
    t0 = draw(st.sampled_from([0, 0, 60, -180, 1.5, -0.75, 1e19, 2.0**62, 2.0**63, 1e30]))
    time_form = draw(st.sampled_from([repr, "%.1f".__mod__, "%.3f".__mod__, "%g".__mod__, "%.0f".__mod__]))
    n = draw(st.integers(1, 24))
    current = st.floats(0.0, 1e-2).map(draw(st.sampled_from(FLOAT_FORMS)))
    rows = [[time_form(t0 + i * resolution), draw(current), draw(current), draw(current)] for i in range(n)]
    for index, fault in draw(st.lists(st.tuples(st.integers(0, n - 1), st.sampled_from(
            ["extra", "short", "cell", "time", "negative"])), max_size=2)):
        row = rows[index]
        if fault == "extra":
            row.append("0")
        elif fault == "short" and len(row) > 1:
            del row[draw(st.integers(1, len(row) - 1)):]
        elif fault == "cell":
            row[draw(st.integers(0, len(row) - 1))] = draw(st.sampled_from(BAD_NUMBERS))
        elif fault == "time":
            row[0] = draw(st.sampled_from(["7.25", "-7.25", "1e20", str(2**63), "-0.0"]))
        elif fault == "negative" and len(row) == 4:
            row[draw(st.integers(1, 3))] = "-1e-6"
    header = draw(st.sampled_from(HARVEST_HEADERS[:3] * 5 + HARVEST_HEADERS[3:]))
    return header + "\n" + draw(layout(rows))


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(irradiance_files(), st.sampled_from(CHUNK_ROWS))
def test_irradiance_loader_matches_per_row_oracle(tmp_path, case, chunk_rows):
    text, resolution, max_gap = case
    path = tmp_path / "sun.csv"
    path.write_bytes(text.encode())
    with mock.patch.object(harvest, "CSV_READ_ROWS", chunk_rows):
        same_as_oracle(path, "irradiance", resolution, max_gap)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(harvest_files(), st.sampled_from(CHUNK_ROWS))
def test_harvest_loader_matches_per_row_oracle(tmp_path, text, chunk_rows):
    path = tmp_path / "harvest.csv"
    path.write_bytes(text.encode())
    with mock.patch.object(harvest, "CSV_READ_ROWS", chunk_rows):
        same_as_oracle(path, "harvest")


# -- every error kind at the edges of a chunk -------------------------------------

IRRADIANCE_FAULTS = {
    "fields": lambda rows, i: rows[i].append("1"),
    "timestamp": lambda rows, i: rows[i].__setitem__(0, "2025-13-01T00:00:00Z"),
    "value": lambda rows, i: rows[i].__setitem__(1, "bright"),
    "negative": lambda rows, i: rows[i].__setitem__(1, "-3.5"),
    "non_finite": lambda rows, i: rows[i].__setitem__(1, "nan"),
    "not_increasing": lambda rows, i: rows[i].__setitem__(0, rows[i - 1][0] if i else "60"),
    "off_grid": lambda rows, i: rows[i].__setitem__(0, str(60 * i + 30)),
    "gap": lambda rows, i: rows[i].__setitem__(0, str(60 * i + 60 * 9)),
}
HARVEST_FAULTS = {
    "fields": lambda rows, i: rows[i].pop(),
    "unparseable": lambda rows, i: rows[i].__setitem__(2, "?"),
    "non_finite": lambda rows, i: rows[i].__setitem__(3, "inf"),
    "negative": lambda rows, i: rows[i].__setitem__(1, "-1e-6"),
    "spacing": lambda rows, i: rows[i].__setitem__(0, str(60 * i + 1)),
}
CHUNK = 4
EDGES = [0, CHUNK - 1, CHUNK, 2 * CHUNK + 1]  # first row, both sides of a chunk boundary, last row


def irradiance_rows(n=2 * CHUNK + 2):
    stamps = range(1735689600, 1735689600 + 60 * n, 60)
    return [[STAMP_FORMS["z" if i % 2 else "epoch"](s), f"{i}.5"] for i, s in enumerate(stamps)]


def harvest_rows(n=2 * CHUNK + 2):
    return [[str(60 * i), "1e-3", "2e-4", f"{i}e-5"] for i in range(n)]


@pytest.mark.parametrize("at", EDGES)
@pytest.mark.parametrize("fault", sorted(IRRADIANCE_FAULTS))
def test_irradiance_error_kinds_at_chunk_edges(tmp_path, monkeypatch, fault, at):
    monkeypatch.setattr(harvest, "CSV_READ_ROWS", CHUNK)
    rows = [[str(60 * i), f"{i}.5"] for i in range(2 * CHUNK + 2)]
    IRRADIANCE_FAULTS[fault](rows, at)
    path = tmp_path / "sun.csv"
    path.write_text(render([IRRADIANCE_HEADER, *rows]))
    kind, message = same_as_oracle(path, "irradiance")
    assert kind is TraceError
    # A fault in how the first row is spaced shows on the row after it.
    relational = fault in ("not_increasing", "off_grid", "gap")
    assert message.startswith(f"line {at + 2 + (relational and at == 0)}:")


@pytest.mark.parametrize("at", EDGES)
@pytest.mark.parametrize("fault", sorted(HARVEST_FAULTS))
def test_harvest_error_kinds_at_chunk_edges(tmp_path, monkeypatch, fault, at):
    monkeypatch.setattr(harvest, "CSV_READ_ROWS", CHUNK)
    rows = harvest_rows()
    HARVEST_FAULTS[fault](rows, at)
    path = tmp_path / "harvest.csv"
    path.write_text(render([HARVEST_HEADER, *rows]))
    kind, _ = same_as_oracle(path, "harvest")
    assert kind is TraceError


@pytest.mark.parametrize("chunk_rows", [3, CHUNK, 8192])
def test_first_error_in_file_order_wins(tmp_path, monkeypatch, chunk_rows):
    monkeypatch.setattr(harvest, "CSV_READ_ROWS", chunk_rows)
    rows = irradiance_rows()
    rows[7][1] = "-1"  # negative irradiance on line 9
    rows[5][0] = "soon"  # unparseable timestamp on line 7: first in the file
    path = tmp_path / "sun.csv"
    path.write_text(render([IRRADIANCE_HEADER, *rows]))
    assert same_as_oracle(path, "irradiance") == (TraceError, "line 7: unparseable timestamp 'soon'")

    # Within one row the timestamp is checked before the value.
    rows = irradiance_rows()
    rows[6] = ["soon", "-1"]
    path.write_text(render([IRRADIANCE_HEADER, *rows]))
    assert same_as_oracle(path, "irradiance") == (TraceError, "line 8: unparseable timestamp 'soon'")

    # A harvest file reports every parse error before any non-finite value, wherever it is.
    rows = harvest_rows()
    rows[1][1] = "nan"
    rows[8][2] = "?"
    path = tmp_path / "harvest.csv"
    path.write_text(render([HARVEST_HEADER, *rows]))
    assert same_as_oracle(path, "harvest") == (
        TraceError, "line 10: unparseable row ['480', '1e-3', '?', '8e-5']")


# -- valid files ----------------------------------------------------------------


@pytest.mark.parametrize("chunk_rows", [1, 3, 8192])
def test_mixed_stamp_forms_load_like_the_oracle(tmp_path, monkeypatch, chunk_rows):
    monkeypatch.setattr(harvest, "CSV_READ_ROWS", chunk_rows)
    forms = sorted(STAMP_FORMS)
    stamps = [1735689600 + 60 * i + 60 * (i >= 5) * 2 for i in range(3 * len(forms))]  # a two-step gap
    rows = [[STAMP_FORMS[forms[i % len(forms)]](s), f"{i * 7.25}"] for i, s in enumerate(stamps)]
    path = tmp_path / "sun.csv"
    path.write_bytes(render([IRRADIANCE_HEADER, "", *rows, " , "], quote="some", newline="\r\n",
                            final_newline=False).encode())
    trace = same_as_oracle(path, "irradiance")
    assert trace["start_epoch_s"] == (int, 1735689600)
    assert trace["gaps_filled"] == (int, 1)


@pytest.mark.parametrize(
    ("times", "resolution"),
    [
        (["0.5", "1.7", "2.9"], 1),  # int() truncates each time
        (["-120", "-60", "0"], 60),
        (["-1.5", "-0.5", "0.5"], None),  # truncated to -1, 0, 0: not uniform
        (["1e19", "1e19", "1e19"], None),
        (["1e20", "2e20", "3e20"], 100000000000000000000),  # beyond int64
        (["9.3e18", "9.4e18", "9.5e18"], 100000000000000000),  # beyond int64 from the second row
        (["7.5"], 60),
    ],
)
def test_harvest_time_column_read_as_int_reads_it(tmp_path, times, resolution):
    rows = [[t, "0", "1e-4", "1e-4"] for t in times]
    path = tmp_path / "harvest.csv"
    path.write_text(render([HARVEST_HEADER, *rows]))
    got = same_as_oracle(path, "harvest")
    if resolution is None:
        assert got == (TraceError, f"{path}: time column not uniformly spaced")
    else:
        assert got["resolution_s"] == (int, resolution)


def test_iso_trace_loads_without_warnings(tmp_path, monkeypatch):
    monkeypatch.setattr(harvest, "CSV_READ_ROWS", 64)
    stamps = range(1735689600, 1735689600 + 60 * 200, 60)
    forms = ["z", "z", "z", "utc", "east", "naive", "fraction"]
    rows = [[STAMP_FORMS[forms[i % len(forms)]](s), "1.0"] for i, s in enumerate(stamps)]
    path = tmp_path / "sun.csv"
    path.write_text(render([IRRADIANCE_HEADER, *rows]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        trace = load_irradiance_csv(str(path))
    assert trace.start_epoch_s == 1735689600
    assert trace.samples.size == 200


def test_non_positive_resolution_is_rejected_before_reading(tmp_path):
    path = tmp_path / "sun.csv"
    path.write_text("timestamp,irradiance_wm2\n0,1\n60,1\n")
    with pytest.raises(ZeroDivisionError):  # the per-row loader divided by it
        oracle_load_irradiance_csv(str(path), 0)
    for resolution in (0, -60):
        with pytest.raises(TraceError, match=f"resolution must be positive, got {resolution}"):
            load_irradiance_csv(str(path), resolution)


def test_reader_exception_is_raised_after_the_rows_before_it(tmp_path, monkeypatch):
    monkeypatch.setattr(harvest, "CSV_READ_ROWS", 8)
    monkeypatch.setattr(csv, "field_size_limit", csv.field_size_limit)
    limit = csv.field_size_limit(64)
    try:
        rows = irradiance_rows()
        path = tmp_path / "sun.csv"
        text = render([IRRADIANCE_HEADER, *rows]) + "0," + "9" * 100 + "\n"
        path.write_text(text)
        kind, message = same_as_oracle(path, "irradiance")
        assert kind is csv.Error
        rows[3][1] = "dark"
        path.write_text(render([IRRADIANCE_HEADER, *rows]) + "0," + "9" * 100 + "\n")
        assert same_as_oracle(path, "irradiance") == (TraceError, "line 5: unparseable irradiance 'dark'")
    finally:
        csv.field_size_limit(limit)


def test_undecodable_bytes_are_raised_after_the_rows_before_them(tmp_path, monkeypatch):
    monkeypatch.setattr(harvest, "CSV_READ_ROWS", 8)
    rows = [[str(60 * i), "1.0"] for i in range(2000)]  # well past the text decoder's first block
    path = tmp_path / "sun.csv"
    path.write_bytes(render([IRRADIANCE_HEADER, *rows]).encode() + b"\xff,1\n")
    kind, _ = same_as_oracle(path, "irradiance")
    assert kind is UnicodeDecodeError
    rows[3][1] = "dark"
    path.write_bytes(render([IRRADIANCE_HEADER, *rows]).encode() + b"\xff,1\n")
    assert same_as_oracle(path, "irradiance") == (TraceError, "line 5: unparseable irradiance 'dark'")
