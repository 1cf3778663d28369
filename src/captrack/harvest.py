"""Harvested-current sources: solar conversion, kinetic synthesis, combining.

Solar input is an irradiance trace (measured CSV or synthetic); the conversion
chain is panel area x efficiency x incidence factor / supply voltage x PMIC
efficiency. Kinetic input is a synthesized wolf-activity pattern calibrated so
every simulated day delivers a fixed energy budget. Both feed a combiner with
its own efficiency factor.
"""

from __future__ import annotations

import csv
import math
from collections.abc import Callable, Iterable, Iterator
from contextlib import contextmanager
from dataclasses import dataclass
from datetime import datetime, timezone
from itertools import islice
from operator import itemgetter

import numpy as np

from .energy_model import DEFAULT_V_SUPPLY, SystemConfig

MINUTES_PER_DAY = 1440
DEFAULT_COMBINER_EFFICIENCY = SystemConfig.combiner_efficiency
CSV_CHUNK_ROWS = 8192  # rows per write(); a chunk holds ~400 bytes of text per row
# Rows per parsed block, ~200 bytes of Python objects each. At 8192 rows a
# 90-day load peaked 1.1 MB above the per-row loader; at 2048 it is below it.
CSV_READ_ROWS = 2048
_EXACT_LIMIT = 2**62  # integers below this in size subtract in int64 without overflow
_ISO_UTC = np.frombuffer(b"0000-00-00T00:00:00Z", dtype=np.uint8)
_ISO_SPAN = np.where(_ISO_UTC == ord("0"), 9, 0).astype(np.uint8)  # a "0" stands for any digit
_YEAR_ONE = np.datetime64("0001-01-01T00:00:00", "s")

IRRADIANCE_HEADER = ["timestamp", "irradiance_wm2"]
HARVEST_HEADER = ["t_s", "solar_a", "kinetic_a", "combined_a"]


class TraceError(ValueError):
    """Malformed or inconsistent trace data."""


def _check_finite(name: str, values: np.ndarray) -> None:
    finite = np.isfinite(values)
    if not finite.all():
        index = int(np.argmin(finite))
        raise TraceError(f"non-finite {name} {values[index]} at index {index}")


@dataclass
class IrradianceTrace:
    start_epoch_s: int
    resolution_s: int
    samples: np.ndarray  # W/m^2
    gaps_filled: int = 0  # hold-last repairs applied at load time

    def __post_init__(self) -> None:
        self.samples = np.asarray(self.samples, dtype=float)
        if self.resolution_s <= 0:
            raise TraceError(f"resolution must be positive, got {self.resolution_s}")
        _check_finite("irradiance", self.samples)
        if self.samples.size and float(self.samples.min()) < 0:
            index = int(np.argmin(self.samples))
            raise TraceError(f"negative irradiance {self.samples[index]} at index {index}")


@dataclass
class HarvestTrace:
    start_epoch_s: int
    resolution_s: int
    solar_a: np.ndarray
    kinetic_a: np.ndarray
    combined_a: np.ndarray

    def __post_init__(self) -> None:
        self.solar_a = np.asarray(self.solar_a, dtype=float)
        self.kinetic_a = np.asarray(self.kinetic_a, dtype=float)
        self.combined_a = np.asarray(self.combined_a, dtype=float)
        lengths = {self.solar_a.size, self.kinetic_a.size, self.combined_a.size}
        if len(lengths) != 1:
            raise TraceError(f"source series lengths differ: {sorted(lengths)}")
        for name, series in (("solar", self.solar_a), ("kinetic", self.kinetic_a), ("combined", self.combined_a)):
            _check_finite(f"{name} current", series)
            if series.size and float(series.min()) < 0:
                raise TraceError(f"negative {name} current in trace")

    def __len__(self) -> int:
        return int(self.combined_a.size)

    @property
    def duration_s(self) -> int:
        return len(self) * self.resolution_s

    @classmethod
    def build(
        cls,
        solar_a: np.ndarray,
        kinetic_a: np.ndarray,
        efficiency: float = DEFAULT_COMBINER_EFFICIENCY,
        start_epoch_s: int = 0,
        resolution_s: int = 60,
    ) -> "HarvestTrace":
        combined = combine_sources(solar_a, kinetic_a, efficiency)
        return cls(start_epoch_s, resolution_s, np.asarray(solar_a, float), np.asarray(kinetic_a, float), combined)


@dataclass(frozen=True)
class SolarChain:
    """Irradiance-to-current conversion factors of the solar path."""

    panel_area_m2: float = 0.0016  # 40 x 40 mm
    panel_efficiency: float = 0.185
    cosine_factor: float = 0.5  # static stand-in for angle of incidence
    pmic_efficiency: float = 0.85
    v_supply: float = DEFAULT_V_SUPPLY

    @property
    def power_factor(self) -> float:
        """W of panel output per W/m^2 of irradiance."""
        return self.panel_area_m2 * self.panel_efficiency * self.cosine_factor

    @property
    def current_factor(self) -> float:
        """A of harvest current per W/m^2 of irradiance, PMIC included."""
        return self.power_factor / self.v_supply * self.pmic_efficiency


@dataclass(frozen=True)
class SolarProfile:
    """Synthetic clear-sky day: half-sine between sunrise and sunset.

    The winter defaults (08:30 sunrise, 16:45 sunset, 300 W/m^2 peak) are a
    short-day stand-in, not measured values. cloud_amplitude > 0 modulates the
    sky with a seeded AR(1) attenuation in [1 - amplitude, 1].
    """

    sunrise_min: int = 510
    sunset_min: int = 1005
    peak_wm2: float = 300.0
    cloud_amplitude: float = 0.0
    cloud_correlation_min: float = 120.0
    seed: int = 42


@dataclass(frozen=True)
class ActivityProfile:
    """Daily movement pattern: four periods, energy weights, bout texture.

    The weights are assumptions (crepuscular animal: most activity at dawn and
    dusk); only their sum is constrained. Period starts are local minutes; the
    last period wraps past midnight.
    """

    period_starts_min: tuple[int, int, int, int] = (300, 540, 1020, 1260)  # dawn/day/dusk/night
    weights: tuple[float, float, float, float] = (0.35, 0.15, 0.35, 0.15)
    daily_energy_j: float = 13.07
    mean_bout_min: float = 20.0
    duty: tuple[float, float, float, float] = (0.5, 0.2, 0.5, 0.15)
    seed: int = 42

    def __post_init__(self) -> None:
        if len(self.period_starts_min) != 4 or len(self.weights) != 4 or len(self.duty) != 4:
            raise ValueError("profile needs exactly four periods")
        if any(w < 0 for w in self.weights):
            raise ValueError(f"weights must be >= 0, got {self.weights}")
        if abs(sum(self.weights) - 1.0) > 1e-12:
            raise ValueError(f"weights must sum to 1, got {sum(self.weights)}")
        starts = self.period_starts_min
        if sorted(starts) != list(starts) or len(set(starts)) != 4:
            raise ValueError(f"period starts must be strictly increasing, got {starts}")
        if not all(0 <= s < MINUTES_PER_DAY for s in starts):
            raise ValueError(f"period starts must be within a day, got {starts}")
        if self.daily_energy_j < 0:
            raise ValueError(f"daily energy must be >= 0, got {self.daily_energy_j}")
        if self.mean_bout_min < 1:
            raise ValueError(f"mean bout must be >= 1 minute, got {self.mean_bout_min}")
        if any(not 0 < d <= 1 for d in self.duty):
            raise ValueError(f"duty fractions must be in (0, 1], got {self.duty}")

    def period_of_minute(self, minute_of_day: int) -> int:
        """0..3 for the period containing this local minute."""
        starts = self.period_starts_min
        for p in range(3, -1, -1):
            if minute_of_day >= starts[p]:
                return p
        return 3  # before the first start: tail of the wrapped last period


def solar_current_from_irradiance(trace: IrradianceTrace, chain: SolarChain) -> np.ndarray:
    """Map each irradiance sample to harvest current through the chain."""
    samples = trace.samples
    if samples.size and float(samples.min()) < 0:
        index = int(np.argmin(samples))
        raise TraceError(f"negative irradiance {samples[index]} at index {index}")
    return samples * chain.current_factor


def generate_synthetic_irradiance(
    days: int, profile: SolarProfile = SolarProfile(), start_epoch_s: int = 0
) -> IrradianceTrace:
    """Per-minute synthetic irradiance: zero at night, attenuated half-sine by day."""
    if days < 1:
        raise ValueError(f"days must be >= 1, got {days}")
    if profile.sunrise_min >= profile.sunset_min:
        raise ValueError(f"sunrise {profile.sunrise_min} must precede sunset {profile.sunset_min}")
    if not 0.0 <= profile.cloud_amplitude <= 1.0:
        raise ValueError(f"cloud amplitude must be in [0, 1], got {profile.cloud_amplitude}")
    if profile.peak_wm2 < 0:
        raise ValueError(f"peak must be >= 0, got {profile.peak_wm2}")

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


def generate_kinetic_trace(
    days: int, profile: ActivityProfile = ActivityProfile(), v_supply: float = DEFAULT_V_SUPPLY
) -> np.ndarray:
    """Per-minute kinetic harvest current, amperes.

    A two-state Markov chain places activity bouts minute by minute; each
    (day, period) then gets exactly weight x daily_energy spread evenly over
    its active minutes, so daily closure and period shares are exact by
    construction. A period with positive weight but no active minute gets one
    forced minute.
    """
    if days < 1:
        raise ValueError(f"days must be >= 1, got {days}")
    if v_supply <= 0:
        raise ValueError(f"v_supply must be positive, got {v_supply}")

    n = days * MINUTES_PER_DAY
    if profile.daily_energy_j == 0.0:
        return np.zeros(n)

    rng = np.random.default_rng(profile.seed)
    # Period of each minute, as period_of_minute gives it: the last period
    # starting at or before the minute, and the wrapped last period before
    # the first start.
    day_labels = np.searchsorted(profile.period_starts_min, np.arange(MINUTES_PER_DAY), side="right") - 1
    day_labels[day_labels < 0] = 3
    labels = np.tile(day_labels.astype(np.int8), days)

    # Bout chain: stay-active prob fixes the mean bout length; activation prob
    # fixes the duty cycle of each period. One uniform starts the chain and
    # one decides each minute: an active minute stays active on its stay
    # draw, an idle one turns active on its activation draw.
    p_stay = 1.0 - 1.0 / profile.mean_bout_min
    p_activate = np.array([min(1.0, d / (profile.mean_bout_min * max(1.0 - d, 1e-9))) for d in profile.duty])
    uniforms = rng.random(n + 1)
    first = uniforms[0] < profile.duty[labels[0]]
    stay = uniforms[1:] < p_stay
    activate = (uniforms[1:].reshape(days, MINUTES_PER_DAY) < p_activate[day_labels]).reshape(n)
    del uniforms  # n floats, not needed next to the n-sized index arrays below
    # Where both draws agree the minute takes their value whatever came
    # before; where only activation holds it flips the chain; otherwise it
    # keeps the previous value. So each minute is the value at the last
    # agreeing minute (or the start), flipped once per flip since then.
    flips = np.logical_xor.accumulate(activate & ~stay)
    last = np.arange(n)
    last[stay != activate] = -1
    np.maximum.accumulate(last, out=last)
    known = last >= 0
    active = np.where(known, stay[last], first)
    active ^= flips ^ (known & flips[last])

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


def combine_sources(solar: np.ndarray, kinetic: np.ndarray, efficiency: float) -> np.ndarray:
    """Elementwise combiner output: efficiency x (solar + kinetic)."""
    solar = np.asarray(solar, dtype=float)
    kinetic = np.asarray(kinetic, dtype=float)
    if solar.shape != kinetic.shape:
        raise TraceError(f"source length mismatch: {solar.shape} vs {kinetic.shape}")
    if not 0.0 < efficiency <= 1.0:
        raise ValueError(f"combiner efficiency must be in (0, 1], got {efficiency}")
    return efficiency * (solar + kinetic)


def _parse_timestamp(raw: str, line: int) -> int:
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


@contextmanager
def _open_csv(path: str) -> Iterator[tuple[list[str], Iterator[list[str]]]]:
    """The header row of a trace CSV and a csv.reader over the rows after it."""
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
        yield header, reader


def _header_names(header: list[str]) -> list[str]:
    return [h.strip().lower() for h in header]


def _check_header(path: str, header: list[str], expected: list[str]) -> None:
    if _header_names(header) != expected:
        raise TraceError(f"{path}: expected header {','.join(expected)!r}, got {','.join(header)!r}")


def read_trace_header(path: str) -> list[str]:
    """A trace CSV's column names as the loaders read them: stripped and lower-cased."""
    with _open_csv(path) as (header, _):
        return _header_names(header)


class _Chunk:
    """Up to CSV_READ_ROWS data rows of a trace CSV, as columns of cell text.

    Checks run over whole columns. A failed check cuts the chunk at its first
    failing row and keeps that row's error, so the checks after it see only
    the rows before. Run in the order the checks apply to one row, they leave
    the error of the first failing row in file order.
    """

    def __init__(self, lines: np.ndarray, columns: list[list[str]], error: Exception | None) -> None:
        self.lines = lines  # line of each row in the file: the header is line 1, blank rows count
        self.columns = columns
        self.size = len(lines)  # rows before the first failure found so far
        self.error = error

    def cut(self, index: int, error: Exception) -> None:
        self.size = index
        self.error = error

    def fail(self, bad: np.ndarray, message: Callable[[int], str], offset: int = 0) -> None:
        """Cut at the first row flagged in bad, whose first entry is row offset."""
        hits = np.flatnonzero(bad[: max(self.size - offset, 0)])
        if hits.size:
            index = offset + int(hits[0])
            self.cut(index, TraceError(message(index)))

    def floats(self, column: int, message: Callable[[int], str]) -> np.ndarray:
        """A column parsed with float(), cut at the first cell float() rejects."""
        cells = self.columns[column][: self.size]
        try:
            return np.fromiter(map(float, cells), float, len(cells))
        except ValueError:
            parsed: list[float] = []
            try:
                parsed.extend(map(float, cells))  # keeps the cells before the rejected one
            except ValueError:
                self.cut(len(parsed), TraceError(message(len(parsed))))
            return np.array(parsed, dtype=float)

    def check(self) -> None:
        if self.error is not None:
            raise self.error


def _chunks(reader: Iterator[list[str]], n_fields: int) -> Iterator[_Chunk]:
    """The data rows CSV_READ_ROWS at a time, rows of blank cells dropped.

    A row with the wrong number of fields, or an exception from the reader,
    ends the rows read. It becomes the error of the last chunk, raised only
    if every row before it passes its checks.
    """
    line = 2
    error: Exception | None = None
    while error is None:
        rows: list[list[str]] = []
        try:
            rows.extend(islice(reader, CSV_READ_ROWS))  # keeps the rows read before an exception
        except (csv.Error, OSError, ValueError) as exc:  # raised again once the rows before it pass
            error = exc
        if not rows and error is None:
            return
        lines = np.arange(line, line + len(rows))
        line += len(rows)
        if set(map(len, rows)) != {n_fields} or not all(map(str.strip, map(itemgetter(0), rows))):
            keep = [i for i, row in enumerate(rows) if "".join(row).strip()]
            rows, lines = [rows[i] for i in keep], lines[keep]
            wrong = next((i for i, row in enumerate(rows) if len(row) != n_fields), None)
            if wrong is not None:
                error = TraceError(f"line {lines[wrong]}: expected {n_fields} fields, got {len(rows[wrong])}")
                rows, lines = rows[:wrong], lines[:wrong]
        columns = [list(map(itemgetter(j), rows)) for j in range(n_fields)]
        yield _Chunk(lines, columns, error)
        for column in columns:  # the caller is done with them: free the cells before reading more
            column.clear()


def _iso_utc_seconds(cells: list[str]) -> tuple[np.ndarray, np.ndarray]:
    """Indices and epoch seconds of the cells written "YYYY-MM-DDTHH:MM:SSZ".

    numpy parses them with the Z cut off, so it sees no time zone. A cell
    counts only if numpy's ISO printer gives back its text and its year is 1
    or later: that is a stamp _parse_timestamp reads as the same second.
    """
    nothing = np.empty(0, np.intp), np.empty(0, np.int64)
    try:
        text = np.array(cells, dtype="S")
    except UnicodeEncodeError:
        return nothing
    width = text.dtype.itemsize
    if width < _ISO_UTC.size:
        return nothing
    codes = text.view(np.uint8).reshape(len(cells), width)[:, : _ISO_UTC.size]
    shaped = (codes - _ISO_UTC <= _ISO_SPAN).all(axis=1)  # uint8: a byte below its template wraps high
    if width > _ISO_UTC.size:  # a longer cell can match in its first characters
        shaped &= np.fromiter(map(len, cells), np.intp, len(cells)) == _ISO_UTC.size
    picked = np.flatnonzero(shaped)
    clock = np.ascontiguousarray(codes[picked, :-1]).view(f"S{_ISO_UTC.size - 1}").ravel()
    try:
        seconds = clock.astype("datetime64[s]")
    except ValueError:  # a field out of range: these cells go to _parse_timestamp
        return nothing
    exact = (seconds >= _YEAR_ONE) & (seconds.astype(clock.dtype) == clock)
    return picked[exact], seconds[exact].astype(np.int64)


def _timestamps(chunk: _Chunk, previous: int | None) -> np.ndarray:
    """Epoch seconds of the first column, cut at the first cell _parse_timestamp rejects.

    Whole columns of epoch integers and cells in numpy's UTC form are parsed
    in bulk; every other cell goes through _parse_timestamp. Stamps that
    int64 arithmetic could overflow on stay Python ints.
    """
    cells = chunk.columns[0]
    try:
        stamps = np.fromiter(map(int, cells), np.int64, len(cells))
    except (ValueError, OverflowError):
        stamps = np.zeros(len(cells), np.int64)
        picked, seconds = _iso_utc_seconds(cells)
        stamps[picked] = seconds
        rest = np.ones(len(cells), bool)
        rest[picked] = False
        rest = np.flatnonzero(rest)
        exact: list[int] = []
        try:
            exact.extend(map(_parse_timestamp, [cells[i] for i in rest], chunk.lines[rest].tolist()))
        except TraceError as exc:
            chunk.cut(int(rest[len(exact)]), exc)
        rest = rest[: len(exact)]
        try:
            stamps[rest] = exact
        except OverflowError:
            stamps = stamps.astype(object)
            stamps[rest] = exact
    stamps = stamps[: chunk.size]
    if stamps.size and max(-int(stamps.min()), int(stamps.max()), abs(previous or 0)) >= _EXACT_LIMIT:
        stamps = stamps.astype(object)
    return stamps


def load_irradiance_csv(path: str, resolution_s: int = 60, max_gap_steps: int = 5) -> IrradianceTrace:
    """Read "timestamp,irradiance_wm2" rows into a trace.

    Timestamps may be epoch seconds or ISO-8601, strictly increasing on the
    declared resolution grid. Gaps of up to max_gap_steps missing rows are
    filled by holding the previous value (counted in gaps_filled); anything
    larger is an error.
    """
    if resolution_s <= 0:
        raise TraceError(f"resolution must be positive, got {resolution_s}")
    with _open_csv(path) as (header, reader):
        _check_header(path, header, IRRADIANCE_HEADER)
        values = bytearray()  # float64 samples in one growing buffer: no array per chunk kept to the end
        gaps: list[tuple[int, int]] = []  # (index of the sample a gap holds, missing steps)
        start = previous = None
        for chunk in _chunks(reader, 2):
            lines, cells = chunk.lines, chunk.columns[1]
            stamps = _timestamps(chunk, previous)
            samples = chunk.floats(1, lambda k: f"line {lines[k]}: unparseable irradiance {cells[k]!r}")
            chunk.fail(~((samples >= 0.0) & (samples < math.inf)), lambda k: (
                f"line {lines[k]}: negative irradiance {float(samples[k])}" if math.isfinite(samples[k])
                else f"line {lines[k]}: non-finite irradiance {cells[k]!r}"
            ))
            stamps = stamps[: chunk.size]
            first = int(previous is None)  # the file's first row follows no other
            prior = stamps[:-1] if first else np.concatenate(([previous], stamps[:-1]))
            spacing = stamps[first:] - prior
            chunk.fail(spacing <= 0, lambda k: (
                f"line {lines[k]}: timestamp not increasing ({stamps[k]} after {prior[k - first]})"
            ), first)
            chunk.fail(spacing % resolution_s != 0, lambda k: (
                f"line {lines[k]}: spacing {spacing[k - first]} s off the {resolution_s} s grid"
            ), first)
            missing = spacing // resolution_s - 1
            chunk.fail(missing > max_gap_steps, lambda k: (
                f"line {lines[k]}: gap of {missing[k - first]} steps exceeds limit {max_gap_steps}"
            ), first)
            chunk.check()
            if not chunk.size:
                continue
            if first:
                start = int(stamps[0])
            previous = int(stamps[-1])
            at = np.flatnonzero(missing)
            held = len(values) // samples.itemsize + first - 1  # a gap on row first + k holds sample held + k
            gaps += zip((held + at).tolist(), missing[at].tolist())
            values += samples.tobytes()
        if start is None:
            raise TraceError(f"{path}: no data rows")
    samples = np.frombuffer(values, dtype=float).copy()
    if gaps:
        holds, steps = zip(*gaps)
        counts = np.ones(samples.size, np.intp)
        counts[list(holds)] += steps  # each filled step holds the sample before the gap
        samples = np.repeat(samples, counts)
    return IrradianceTrace(start, resolution_s, samples, len(gaps))


def format_floats(values: np.ndarray, spec: str) -> list[str]:
    """spec % value for each value, formatting each distinct value once.

    Values are told apart by their bit pattern, not compared as floats, so
    -0.0 is not merged into 0.0 and keeps its sign.
    """
    bits = np.asarray(values, dtype=np.float64).view(np.int64)
    distinct, inverse = np.unique(bits, return_inverse=True)
    text = np.array([spec % v for v in distinct.view(np.float64).tolist()], dtype=object)
    return text[inverse].tolist()


def csv_field(text: str) -> str:
    """One CSV field, quoted the way csv.writer's default dialect quotes it."""
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def write_csv(path: str, header: list[str], n_rows: int, rows: Callable[[int, int], Iterable[Iterable[str]]]) -> None:
    """Write a header line and n_rows rows, each line ending in \\r\\n.

    rows(start, stop) returns the fields of rows start..stop-1 as finished
    CSV text. It is called once per chunk of CSV_CHUNK_ROWS rows, so only one
    chunk of text is held at a time.
    """
    with open(path, "w", newline="") as handle:
        handle.write(",".join(map(csv_field, header)) + "\r\n")
        for start in range(0, n_rows, CSV_CHUNK_ROWS):
            handle.write("\r\n".join(map(",".join, rows(start, min(start + CSV_CHUNK_ROWS, n_rows)))))
            handle.write("\r\n")


def current_text(trace: HarvestTrace, start: int, stop: int) -> list[str]:
    """The three currents of trace steps start..stop-1, as "%.9e,%.9e,%.9e" text."""
    series = (trace.solar_a, trace.kinetic_a, trace.combined_a)
    return list(map(",".join, zip(*(format_floats(s[start:stop], "%.9e") for s in series))))


def save_irradiance_csv(trace: IrradianceTrace, path: str) -> None:
    """Write "timestamp,irradiance_wm2" rows with epoch-second timestamps."""

    def rows(start: int, stop: int) -> Iterable[tuple[str, str]]:
        stamps = (trace.start_epoch_s + np.arange(start, stop) * trace.resolution_s).tolist()
        return zip(map(str, stamps), format_floats(trace.samples[start:stop], "%.6f"))

    write_csv(path, IRRADIANCE_HEADER, trace.samples.size, rows)


def save_harvest_csv(trace: HarvestTrace, path: str) -> None:
    """Write "t_s,solar_a,kinetic_a,combined_a" rows, one per trace step."""

    def rows(start: int, stop: int) -> Iterable[tuple[str, str]]:
        times = (np.arange(start, stop) * trace.resolution_s).tolist()
        return zip(map(str, times), current_text(trace, start, stop))

    write_csv(path, HARVEST_HEADER, len(trace), rows)


def load_harvest_csv(path: str) -> HarvestTrace:
    """Read a harvest CSV written by save_harvest_csv (or shaped like it)."""
    with _open_csv(path) as (header, reader):
        _check_header(path, header, HARVEST_HEADER)
        parts = [[np.empty(0, np.int64)]] + [[np.empty(0)] for _ in HARVEST_HEADER]  # lines, then each column
        for chunk in _chunks(reader, len(HARVEST_HEADER)):
            def unparseable(k: int, chunk: _Chunk = chunk) -> str:
                return f"line {chunk.lines[k]}: unparseable row {[cells[k] for cells in chunk.columns]!r}"

            parsed = [chunk.floats(j, unparseable) for j in range(len(HARVEST_HEADER))]
            chunk.check()
            for part, values in zip(parts, [chunk.lines, *parsed]):
                part.append(values)
    lines, times, solar, kinetic, combined = map(np.concatenate, parts)
    if not lines.size:
        raise TraceError(f"{path}: no data rows")
    finite = np.isfinite(times) & np.isfinite(solar) & np.isfinite(kinetic) & np.isfinite(combined)
    if not finite.all():
        raise TraceError(f"line {lines[int(np.argmin(finite))]}: non-finite value")
    if times.size == 1:
        resolution = 60
    else:
        # Whole seconds as int() gives them: truncated, and exact however large.
        if np.abs(times).max() < _EXACT_LIMIT:
            whole = times.astype(np.int64)
        else:
            whole = np.array(list(map(int, times.tolist())), dtype=object)
        spacing = np.diff(whole)
        if not (spacing[0] > 0 and (spacing == spacing[0]).all()):
            raise TraceError(f"{path}: time column not uniformly spaced")
        resolution = int(spacing[0])
    return HarvestTrace(0, resolution, solar, kinetic, combined)
