"""Bit identity of the trace loaders against the per-row loaders they replaced.

oracle_parse_timestamp, oracle_load_irradiance_csv and oracle_load_harvest_csv
below are the earlier bodies of harvest._parse_timestamp,
harvest.load_irradiance_csv and harvest.load_harvest_csv, kept verbatim apart
from their names. Every case loads one file through the oracle and through
the loader twice: as it is, and with the one-pass reader (harvest._read_plain)
declining, so that the loader's per-row checker (over harvest._data_rows)
reads every file. It compares the arrays by their bytes, the scalars by value
and type, and a failure by its exception type and message. Plain files, which
the one-pass reader takes, are drawn on their own and must never reach the
row checker.

The per-row loaders truncated a stamp or a t_s to whole seconds. The loaders
now reject a nonzero fraction of a second, naming its line, and read a zero
fraction as its whole second, so the oracles run under that rule
(whole_second_irradiance, whole_second_harvest).
"""

import csv
import math
import os
import re
import threading
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


# -- the whole-second rule --------------------------------------------------------

verbatim_parse_timestamp = oracle_parse_timestamp


def whole_second_timestamp(raw: str, line: int) -> int:
    """oracle_parse_timestamp, with a decimal epoch stamp read, and an error for
    any nonzero digits after a "." or "," (the fraction of a second or of an
    offset's second)."""
    stripped = raw.strip()
    decimal = re.fullmatch(r"([-+]?[0-9]+)\.[0-9]+", stripped)
    seconds = int(decimal[1]) if decimal else verbatim_parse_timestamp(raw, line)
    if any(int(digits) for digits in re.findall(r"[.,]([0-9]+)", stripped)):
        raise TraceError(f"line {line}: timestamp {stripped!r} is not a whole second")
    return seconds


def whole_second_irradiance(path: str, *args) -> IrradianceTrace:
    with mock.patch.dict(globals(), oracle_parse_timestamp=whole_second_timestamp):
        return oracle_load_irradiance_csv(path, *args)


def whole_second_harvest(path: str) -> HarvestTrace:
    """oracle_load_harvest_csv, where the first t_s that is not a whole second
    is an error once every row has parsed: after the errors that name the
    header or a line (parse, then non-finite), before those of the columns
    (spacing, negative currents)."""
    try:
        trace, failure = oracle_load_harvest_csv(path), None
    except TraceError as exc:
        if str(exc).startswith("line ") or "expected header" in str(exc):
            raise
        trace, failure = None, exc
    with open(path, newline="") as handle:
        for line, row in enumerate(csv.reader(handle), start=1):
            t = float(row[0]) if line > 1 and "".join(row).strip() else 0.0
            if t != int(t):
                raise TraceError(f"line {line}: t_s {row[0].strip()!r} is not a whole second")
    if failure is not None:
        raise failure
    return trace


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


LOADERS = {"irradiance": (load_irradiance_csv, whole_second_irradiance),
           "harvest": (load_harvest_csv, whole_second_harvest)}


def same_as_oracle(path, kind, *args):
    """Load path with its oracle, the loader, and the loader's row checker alone;
    return the loader's outcome after checking all three agree."""
    load, oracle = LOADERS[kind]
    expected = outcome(oracle, path, *args)
    got = outcome(load, path, *args)
    assert got == expected
    with mock.patch.object(harvest, "_read_plain", return_value=None):
        assert outcome(load, path, *args) == expected
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


def iso(stamp, hours=0):
    return (EPOCH + timedelta(seconds=stamp + 3600 * hours)).isoformat()


STAMP_FORMS = {
    "epoch": str,
    "z": lambda s: iso(s) + "Z",
    "utc": lambda s: iso(s) + "+00:00",
    "east": lambda s: iso(s, 2) + "+02:00",
    "west": lambda s: iso(s, -5) + "-05:00",
    "naive": iso,
    "fraction": lambda s: iso(s) + ".000000Z",  # a zero fraction: the whole second
    "decimal": lambda s: f"{s}.0",
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
            ["extra", "short", "stamp", "value", "repeat", "shift", "jump", "fraction"])), max_size=2)):
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
        elif fault == "fraction":  # a fraction of a second past the row's stamp
            s = stamps[index]
            row[0] = draw(st.sampled_from([f"{s}.5", f"{s}.0000000001"] + (
                [] if big is not None else [iso(s) + ".9Z", iso(s) + ".0000001Z", iso(s) + ",5+00:00"])))
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
@given(irradiance_files())
def test_irradiance_loader_matches_per_row_oracle(tmp_path, case):
    text, resolution, max_gap = case
    path = tmp_path / "sun.csv"
    path.write_bytes(text.encode())
    same_as_oracle(path, "irradiance", resolution, max_gap)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(harvest_files())
def test_harvest_loader_matches_per_row_oracle(tmp_path, text):
    path = tmp_path / "harvest.csv"
    path.write_bytes(text.encode())
    same_as_oracle(path, "harvest")


# -- every error kind at the first row, the last row and two rows between ----------

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
EDGES = [0, CHUNK - 1, CHUNK, 2 * CHUNK + 1]  # the first row, two neighbours in the middle, the last row


def irradiance_rows(n=2 * CHUNK + 2):
    stamps = range(1735689600, 1735689600 + 60 * n, 60)
    return [[STAMP_FORMS["z" if i % 2 else "epoch"](s), f"{i}.5"] for i, s in enumerate(stamps)]


def harvest_rows(n=2 * CHUNK + 2):
    return [[str(60 * i), "1e-3", "2e-4", f"{i}e-5"] for i in range(n)]


@pytest.mark.parametrize("at", EDGES)
@pytest.mark.parametrize("fault", sorted(IRRADIANCE_FAULTS))
def test_irradiance_error_kinds_at_chunk_edges(tmp_path, fault, at):
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
def test_harvest_error_kinds_at_chunk_edges(tmp_path, fault, at):
    rows = harvest_rows()
    HARVEST_FAULTS[fault](rows, at)
    path = tmp_path / "harvest.csv"
    path.write_text(render([HARVEST_HEADER, *rows]))
    kind, _ = same_as_oracle(path, "harvest")
    assert kind is TraceError


def test_first_error_in_file_order_wins(tmp_path):
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

    # Of several non-finite rows, the first is reported.
    rows = harvest_rows()
    rows[2][3] = "inf"
    rows[6][1] = "nan"
    path.write_text(render([HARVEST_HEADER, *rows]))
    assert same_as_oracle(path, "harvest") == (TraceError, "line 4: non-finite value")


# -- valid files ----------------------------------------------------------------


def test_mixed_stamp_forms_load_like_the_oracle(tmp_path):
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
        (["0.0", "1.00", "2.000"], 1),  # a zero fraction is the whole second
        (["-120", "-60", "0"], 60),
        (["-1.0", "0", "2.0"], None),
        (["1e19", "1e19", "1e19"], None),
        (["1e20", "2e20", "3e20"], 100000000000000000000),  # beyond int64
        (["9.3e18", "9.4e18", "9.5e18"], 100000000000000000),  # beyond int64 from the second row
        (["7.0"], 60),
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


FRACTIONAL_TIMES = {  # the header, then times each a fraction of a second off the 60 s grid
    "iso": (IRRADIANCE_HEADER, ["2025-01-01T00:00:00.9Z", "2025-01-01T00:01:00.2Z", "2025-01-01T00:02:00.7+00:00"]),
    "t_s": (HARVEST_HEADER, ["0.9", "60.2", "120.7"]),
}


@pytest.mark.parametrize(("header", "times"), FRACTIONAL_TIMES.values(), ids=FRACTIONAL_TIMES)
def test_a_fraction_of_a_second_is_an_error_naming_its_line(tmp_path, header, times):
    # Each was cut to its whole second, and the three loaded as an even 60 s
    # trace. The first is an error now, and so is a later one after whole
    # seconds, which the one-pass reader declines so that the row checker
    # names its line.
    kind = "irradiance" if header == IRRADIANCE_HEADER else "harvest"
    cells = ["1.0"] if kind == "irradiance" else ["0", "1e-4", "1e-4"]
    word = "timestamp" if kind == "irradiance" else "t_s"
    path = tmp_path / "trace.csv"
    path.write_text(render([header, *([t, *cells] for t in times)]))
    assert same_as_oracle(path, kind) == (TraceError, f"line 2: {word} {times[0]!r} is not a whole second")
    whole = ["1735689600", "2025-01-01T00:01:00Z"] if kind == "irradiance" else ["0", "60"]
    path.write_text(render([header, *([t, *cells] for t in [*whole, times[2]])]))
    with mock.patch.object(harvest, "_data_rows", wraps=harvest._data_rows) as rows:
        assert same_as_oracle(path, kind) == (TraceError, f"line 4: {word} {times[2]!r} is not a whole second")
    assert rows.called


@pytest.mark.parametrize("stamp", ["1735689660.0", "1735689660.000", "2025-01-01T00:01:00.000Z",
                                   "2025-01-01T00:01:00,000000+00:00"])
def test_a_zero_fraction_is_the_whole_second(tmp_path, stamp):
    # 1735689600.0 was an unparseable stamp, while a fraction of .9 was cut.
    path, twin = tmp_path / "sun.csv", tmp_path / "twin.csv"
    path.write_text(render([IRRADIANCE_HEADER, ["1735689600", "1.0"], [stamp, "2.0"]]))
    twin.write_text(render([IRRADIANCE_HEADER, ["1735689600", "1.0"], ["1735689660", "2.0"]]))
    assert same_as_oracle(path, "irradiance") == same_as_oracle(twin, "irradiance")


def test_iso_trace_loads_without_warnings(tmp_path):
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


def test_undecodable_bytes_are_raised_after_the_rows_before_them(tmp_path):
    rows = [[str(60 * i), "1.0"] for i in range(2000)]  # well past the text decoder's first block
    path = tmp_path / "sun.csv"
    path.write_bytes(render([IRRADIANCE_HEADER, *rows]).encode() + b"\xff,1\n")
    kind, _ = same_as_oracle(path, "irradiance")
    assert kind is UnicodeDecodeError
    rows[3][1] = "dark"
    path.write_bytes(render([IRRADIANCE_HEADER, *rows]).encode() + b"\xff,1\n")
    assert same_as_oracle(path, "irradiance") == (TraceError, "line 5: unparseable irradiance 'dark'")


# -- the one-pass reader ----------------------------------------------------------

PLAIN_FLOAT_FORMS = ["%f".__mod__, "%e".__mod__, repr]


@st.composite
def plain_irradiance_files(draw):
    """(text, resolution_s, max_gap_steps): a valid file of unquoted rows, stamps
    all epoch seconds or all UTC text, each with a "Z" or "+00:00" suffix."""
    resolution = draw(st.sampled_from([1, 60, 90]))
    max_gap = draw(st.sampled_from([0, 1, 5]))
    form = draw(st.sampled_from(["epoch", "z", "utc", "z or utc"]))
    steps = draw(st.lists(st.integers(1, max_gap + 1), min_size=1, max_size=40))
    if form == "epoch":  # the first stamp, start - resolution * (steps[0] - 1), above -2**62
        lowest = -(2**62) + 1 + resolution * (steps[0] - 1)
        start = draw(st.one_of(st.integers(lowest, 2**62 - 10**6), st.integers(-(10**10), 10**10)))
    else:
        start = draw(st.one_of(st.sampled_from([0, 1735689600, FIRST_DAY, LAST_DAY - 10**5]),
                               st.integers(FIRST_DAY, LAST_DAY - 10**5)))
    stamps = [start + resolution * (sum(steps[:i]) - steps[0] + 1) for i in range(len(steps))]
    number = draw(st.sampled_from(PLAIN_FLOAT_FORMS))
    forms = ["z", "utc"] if form == "z or utc" else [form]
    rows = [[STAMP_FORMS[draw(st.sampled_from(forms))](s), number(draw(st.floats(0.0, 1500.0)))] for s in stamps]
    text = render([IRRADIANCE_HEADER, *rows], newline=draw(st.sampled_from(["\n", "\r\n"])),
                  final_newline=draw(st.booleans()))
    return text, resolution, max_gap


@st.composite
def plain_harvest_files(draw):
    """A valid harvest file of unquoted rows."""
    resolution = draw(st.sampled_from([1, 60, 120]))
    t0 = draw(st.sampled_from([0, 60, -180, 10**15]))
    time_form = draw(st.sampled_from([str, "%.1f".__mod__, lambda t: repr(float(t))]))
    number = draw(st.sampled_from(PLAIN_FLOAT_FORMS))
    current = st.floats(0.0, 1e-2).map(number)
    rows = [[time_form(t0 + i * resolution), draw(current), draw(current), draw(current)]
            for i in range(draw(st.integers(1, 40)))]
    return render([HARVEST_HEADER, *rows], newline=draw(st.sampled_from(["\n", "\r\n"])),
                  final_newline=draw(st.booleans()))


def same_as_oracle_in_one_pass(path, kind, *args):
    """Load a plain file without the row checker; check it matches the oracle and gives a trace."""
    load, oracle = LOADERS[kind]
    with mock.patch.object(harvest, "_data_rows", wraps=harvest._data_rows) as rows:
        got = outcome(load, path, *args)
    assert got == outcome(oracle, path, *args)
    assert isinstance(got, dict)
    assert not rows.called


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(plain_irradiance_files())
def test_plain_irradiance_files_load_in_one_pass(tmp_path, case):
    text, resolution, max_gap = case
    path = tmp_path / "sun.csv"
    path.write_bytes(text.encode())
    same_as_oracle_in_one_pass(path, "irradiance", resolution, max_gap)


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(plain_harvest_files())
def test_plain_harvest_files_load_in_one_pass(tmp_path, text):
    path = tmp_path / "harvest.csv"
    path.write_bytes(text.encode())
    same_as_oracle_in_one_pass(path, "harvest")


def test_one_pass_columns_are_contiguous(tmp_path):
    path = tmp_path / "harvest.csv"
    path.write_text(render([HARVEST_HEADER, *harvest_rows()]))
    trace = load_harvest_csv(str(path))
    assert all(column.flags.c_contiguous for column in (trace.solar_a, trace.kinetic_a, trace.combined_a))
    path = tmp_path / "sun.csv"
    path.write_text(render([IRRADIANCE_HEADER, *[[str(60 * i), "1.5"] for i in range(9)]]))
    assert load_irradiance_csv(str(path)).samples.flags.c_contiguous


def test_header_only_file_has_no_data_rows_and_no_warning(tmp_path):
    for kind, header in (("irradiance", IRRADIANCE_HEADER), ("harvest", HARVEST_HEADER)):
        path = tmp_path / f"{kind}.csv"
        for text in (",".join(header), ",".join(header) + "\n", ",".join(header) + "\n\n\n"):
            path.write_text(text)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert same_as_oracle(path, kind) == (TraceError, f"{path}: no data rows")
            with warnings.catch_warnings(record=True) as seen:
                warnings.simplefilter("always")
                assert outcome(LOADERS[kind][0], path) == (TraceError, f"{path}: no data rows")
            assert not seen


def test_loading_leaves_the_warning_filters_alone(tmp_path):
    # A "default" warning shows once per place. Changing the filters while
    # loading, even to put them back, would show it again.
    path = tmp_path / "sun.csv"
    path.write_text(render([IRRADIANCE_HEADER, *[[str(60 * i), "1.5"] for i in range(9)]]))
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("default")
        for _ in range(2):
            warnings.warn("shown once", UserWarning)
            load_irradiance_csv(str(path))
    assert len(seen) == 1


@pytest.mark.parametrize("stamp", [
    *BAD_STAMPS, "1900-02-29T00:00:00Z", "2000-02-29T00:00:00Z", "2024-02-29T12:34:56Z", "2024-04-31T00:00:00Z",
    "2025-00-10T00:00:00Z", "2025-01-00T00:00:00Z", "2025-01-01T24:00:00Z", "2025-01-01T00:60:00Z",
    "9999-12-31T23:59:59Z", "0001-01-01T00:00:00Z", "2025-01-01T00:00:00", "2025-1-01T00:00:00Z",
    "2025-01-01T00:00:00+00:00", "2024-02-29T12:34:56+00:00", "2025-02-29T00:00:00+00:00", "0001-01-01T00:00:00+00:00",
    "2025-01-01T00:00:00-00:00", "2025-01-01T00:00:00+0000", "2025-01-01T00:00:00+01:00", "2025-01-01T00:00:00+00:00Z",
])
def test_z_stamps_read_in_bulk_as_the_oracle_reads_them(tmp_path, stamp):
    # Each stamp alone in a file: valid ones of either UTC suffix load in one pass.
    path = tmp_path / "sun.csv"
    path.write_text(render([IRRADIANCE_HEADER, [stamp, "1.0"]]))
    same_as_oracle(path, "irradiance")
    # The bulk parser takes exactly the stamps of strict Z or +00:00 form that
    # the oracle reads, as the same second.
    try:
        expected = oracle_parse_timestamp(stamp, 2)
    except TraceError:
        expected = None
    strict = re.fullmatch(r"[0-9]{4}-[0-9]{2}-[0-9]{2}T[0-9]{2}:[0-9]{2}:[0-9]{2}(Z|\+00:00)", stamp) is not None
    iso, seconds = harvest._iso_utc_seconds(np.array([stamp.encode()], harvest._IRRADIANCE_ROWS["timestamp"]))
    assert bool(iso[0]) == (strict and expected is not None)
    if iso[0]:
        assert int(seconds[0]) == expected


DECLINED_ROWS = {  # (stamp form of the other rows, the row)
    "comment": ("epoch", "# measured at the den"),
    "hash stamp": ("epoch", "#120,1.0"),
    "whitespace": ("epoch", "   "),
    "stamp of 21 bytes": ("epoch", "000000000000000000120,1.0"),
    "stamp of 22 bytes": ("epoch", "0000000000000000000120,1.0"),
    "z stamp and a space": ("z", "1970-01-01T00:02:00Z ,1.0"),
    "z stamp and a letter": ("z", "1970-01-01T00:02:00Zx,1.0"),
    "z stamp among epoch": ("epoch", "1970-01-01T00:02:00Z,1.0"),
    "utc stamp and a letter": ("utc", "1970-01-01T00:02:00+00:00x,1.0"),
    "utc stamp and two letters": ("utc", "1970-01-01T00:02:00+00:00xy,1.0"),
    "utc stamp among epoch": ("epoch", "1970-01-01T00:02:00+00:00,1.0"),
    "offset stamp among utc": ("utc", "1970-01-01T01:02:00+01:00,1.0"),
    "underscore": ("epoch", "120,1_0"),
    "nul in the stamp": ("epoch", "120\0,1.0"),
    "nul in the z stamp": ("z", "1970-01-01T00:02:00Z\0,1.0"),
    "nul in the value": ("epoch", "120,1.0\0"),
    "quoted value": ("epoch", '120,"1.0"'),
}


@pytest.mark.parametrize(("form", "row"), DECLINED_ROWS.values(), ids=DECLINED_ROWS)
def test_one_row_the_one_pass_reader_declines(tmp_path, form, row):
    stamp = STAMP_FORMS[form]
    path = tmp_path / "sun.csv"
    path.write_text(render([IRRADIANCE_HEADER, [stamp(0), "1.0"], [stamp(60), "2.0"], row, [stamp(180), "3.0"]]))
    same_as_oracle(path, "irradiance")
    with mock.patch.object(harvest, "_data_rows", wraps=harvest._data_rows) as rows:
        outcome(load_irradiance_csv, path)
    assert rows.called


@pytest.mark.parametrize(("kind", "header"), [
    ("irradiance", '"timestamp\n",irradiance_wm2'), ("irradiance", 'timestamp,"\nirradiance_wm2"'),
    ("harvest", '"t_s\r\n",solar_a,kinetic_a,combined_a'),
])
def test_header_over_two_lines(tmp_path, kind, header):
    # csv.reader reads a quoted line break into the header row; the rows after it still load.
    rows = [["0", "1.0"], ["60", "2.0"]] if kind == "irradiance" else harvest_rows(3)
    path = tmp_path / f"{kind}.csv"
    path.write_text(header + "\n" + render(rows))
    assert isinstance(same_as_oracle(path, kind), dict)


@pytest.mark.parametrize("suffix", [".gz", ".bz2", ".xz", ".lzma"])
def test_plain_file_named_like_a_compressed_one(tmp_path, suffix):
    path = tmp_path / f"sun.csv{suffix}"
    path.write_text(render([IRRADIANCE_HEADER, *[[str(60 * i), "1.5"] for i in range(9)]]))
    assert isinstance(same_as_oracle(path, "irradiance"), dict)


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_named_pipe_is_read_once(tmp_path):
    text = render([IRRADIANCE_HEADER, *[[str(60 * i), "1.5"] for i in range(9)]])
    plain, pipe = tmp_path / "sun.csv", tmp_path / "pipe.csv"
    plain.write_text(text)
    os.mkfifo(pipe)
    got = []
    reader = threading.Thread(target=lambda: got.append(outcome(load_irradiance_csv, pipe)), daemon=True)
    reader.start()
    with open(pipe, "w") as handle:  # opens once the reader has
        handle.write(text)
    reader.join(timeout=10)
    stuck = reader.is_alive()
    if stuck:  # opening the pipe again waits for a writer: give it one that closes at once
        os.close(os.open(pipe, os.O_WRONLY | os.O_NONBLOCK))
        reader.join(timeout=10)
    assert not stuck
    assert got == [outcome(load_irradiance_csv, plain)]


def test_latin1_byte_is_the_decoder_error(tmp_path):
    path = tmp_path / "sun.csv"
    path.write_bytes(b"timestamp,irradiance_wm2\n0,1.0\n60,\xa01.0\n")
    kind, _ = same_as_oracle(path, "irradiance")
    assert kind is UnicodeDecodeError


def test_cell_over_the_field_limit_is_the_reader_error(tmp_path):
    rows = [["0", "1.0"], ["60", "0" * csv.field_size_limit() + "1"]]
    path = tmp_path / "sun.csv"
    path.write_text(render([IRRADIANCE_HEADER, *rows]))
    kind, message = same_as_oracle(path, "irradiance")
    assert kind is csv.Error
    assert "field larger than field limit" in message
    rows[1][1] = "0" * (csv.field_size_limit() - 1) + "1"  # at the limit: read
    path.write_text(render([IRRADIANCE_HEADER, *rows]))
    assert same_as_oracle(path, "irradiance")["samples"][2] == np.array([1.0, 1.0]).tobytes()


@pytest.mark.parametrize("first", [2**62 - 120, 2**62 - 60, -(2**62), -(2**62) - 60])
def test_stamps_at_the_exact_limit(tmp_path, first):
    path = tmp_path / "sun.csv"
    path.write_text(render([IRRADIANCE_HEADER, *[[str(first + 60 * i), "1.0"] for i in range(3)]]))
    got = same_as_oracle(path, "irradiance")
    assert got["start_epoch_s"] == (int, first)


def test_utc_stamps_load_in_one_pass(tmp_path):
    # A file of +00:00 stamps, as datetime.isoformat() writes an aware UTC
    # time, is parsed in one np.loadtxt pass, never by the row checker, and
    # gives the trace of its Z twin.
    rows = [(1735689600 + 60 * i, f"{i}.25") for i in range(50)]
    z_path, path = tmp_path / "z.csv", tmp_path / "utc.csv"
    z_path.write_text(render([IRRADIANCE_HEADER, *([STAMP_FORMS["z"](t), x] for t, x in rows)]))
    path.write_text(render([IRRADIANCE_HEADER, *([STAMP_FORMS["utc"](t), x] for t, x in rows)]))
    same_as_oracle_in_one_pass(path, "irradiance")
    assert same_as_oracle(path, "irradiance") == same_as_oracle(z_path, "irradiance")


def test_mixed_utc_stamps_load_in_one_pass(tmp_path):
    # Stamps alternating Z and +00:00, the first one Z, are parsed in one
    # np.loadtxt pass and give the trace of the Z twin.
    rows = [(1735689600 + 60 * i, f"{i}.25") for i in range(50)]
    z_path, path = tmp_path / "z.csv", tmp_path / "mixed.csv"
    z_path.write_text(render([IRRADIANCE_HEADER, *([STAMP_FORMS["z"](t), x] for t, x in rows)]))
    path.write_text(render([IRRADIANCE_HEADER, *([STAMP_FORMS["utc" if i % 2 else "z"](t), x]
                                                 for i, (t, x) in enumerate(rows))]))
    same_as_oracle_in_one_pass(path, "irradiance")
    assert same_as_oracle(path, "irradiance") == same_as_oracle(z_path, "irradiance")


SKIPPED_FORMS = {  # stamp forms the one-pass reader never takes
    **{form: STAMP_FORMS[form] for form in ("east", "naive", "fraction", "padded")},
    "padded epoch": lambda s: f" {s} ",
}


@pytest.mark.parametrize("form", SKIPPED_FORMS)
def test_first_stamp_of_another_form_skips_the_one_pass_reader(tmp_path, form):
    # np.loadtxt parsed a whole file of offset stamps, or of stamps with
    # blanks around, before the row checker read it again. The first stamp's
    # form now sends such a file to the row checker alone, which reads the
    # trace of its Z twin.
    rows = [(1735689600 + 60 * i, f"{i}.25") for i in range(50)]
    z_path, path = tmp_path / "z.csv", tmp_path / f"{form}.csv"
    z_path.write_text(render([IRRADIANCE_HEADER, *([STAMP_FORMS["z"](t), x] for t, x in rows)]))
    path.write_text(render([IRRADIANCE_HEADER, *([SKIPPED_FORMS[form](t), x] for t, x in rows)]))
    with mock.patch.object(np, "loadtxt", wraps=np.loadtxt) as loadtxt:
        got = same_as_oracle(path, "irradiance")
        assert not loadtxt.called
        expected = same_as_oracle(z_path, "irradiance")
        assert loadtxt.call_count == 1
    assert got == expected  # every form writes the same instants
