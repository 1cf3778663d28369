"""Harvested-current sources: solar conversion, kinetic synthesis, combining.

Solar input is an irradiance trace (measured CSV or synthetic); the conversion
chain is panel area x efficiency x incidence factor / supply voltage x PMIC
efficiency. Kinetic input is a synthesized wolf-activity pattern calibrated so
every simulated day delivers a fixed energy budget. Both feed a combiner with
its own efficiency factor.
"""

from __future__ import annotations

import csv
import io
import math
import os
import re
from array import array
from collections.abc import Callable, Iterable, Iterator
from contextlib import contextmanager
from dataclasses import dataclass
from datetime import datetime, timezone
from itertools import chain
from typing import NamedTuple

import numpy as np

MINUTES_PER_DAY = 1440
SYNTHETIC_RESOLUTION_S = 60  # the built-in generators make one sample a minute
# The supply rail and the combiner's efficiency; SystemConfig's defaults are these.
DEFAULT_V_SUPPLY = 3.3
DEFAULT_COMBINER_EFFICIENCY = 0.88
CSV_CHUNK_ROWS = 8192  # rows per write(); a chunk holds ~400 bytes of text per row
_EXACT_LIMIT = 2**62  # integers below this in size subtract in int64 without overflow
_ISO_UTC = np.frombuffer(b"0000-00-00T00:00:00", dtype=np.uint8)  # then "Z" or "+00:00"
_UTC_OFFSET = np.frombuffer(b"+00:00\0", dtype=np.uint8)
_ISO_SPAN = np.where(_ISO_UTC == ord("0"), 9, 0).astype(np.uint8)  # a "0" stands for any digit
_ISO_FIELDS = ((0, 4), (5, 2), (8, 2), (11, 2), (14, 2), (17, 2))  # (first digit, digits) of Y, M, D, h, m, s
_MONTH_DAYS = np.array([0, 31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31])  # by month number, not in a leap year
_DAYS_BEFORE_MONTH = np.cumsum(_MONTH_DAYS) - _MONTH_DAYS
_EPOCH_ORDINAL = 719163  # datetime.date(1970, 1, 1).toordinal()
# Number formatting: the four ASCII digits of 0..9999 as one 4-byte word,
# the powers of ten that float64 holds exactly, and the band around a
# half-integer inside which one float64 rounding of y (at most y x 2**-53)
# may have moved it across: 8 times that rounding.
_DIGITS4 = np.ascontiguousarray(np.indices((10,) * 4, np.uint8).reshape(4, -1).T + ord("0")).view(np.uint32).ravel()
_POWERS = 10.0 ** np.arange(23)
_POWERS_INT = 10 ** np.arange(1, 20, dtype=np.uint64)  # n has 1 + searchsorted(_POWERS_INT, n, "right") digits
_NEAR_TIE = 2.0**-50
_MINUS, _COMMA = ord("-"), ord(",")
_CRLF = np.frombuffer(b"\r\n", np.uint8)

IRRADIANCE_HEADER = ["timestamp", "irradiance_wm2"]
HARVEST_HEADER = ["t_s", "solar_a", "kinetic_a", "combined_a"]
# Rows as the one-pass reader parses them. A stamp is one byte wider than the
# longest one it reads, "YYYY-MM-DDTHH:MM:SS+00:00" (epoch seconds take at most
# 20 bytes), so a longer cell shows instead of being cut.
_IRRADIANCE_ROWS = np.dtype([("timestamp", f"S{_ISO_UTC.size + _UTC_OFFSET.size}"), ("irradiance_wm2", float)])
_HARVEST_ROWS = np.dtype([(name, float) for name in HARVEST_HEADER])


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

    def __post_init__(self) -> None:
        if not 0 <= self.sunrise_min < self.sunset_min <= MINUTES_PER_DAY:
            raise ValueError(f"need 0 <= sunrise < sunset <= {MINUTES_PER_DAY}, got {self.sunrise_min} / {self.sunset_min}")
        if not 0.0 <= self.cloud_amplitude <= 1.0:
            raise ValueError(f"cloud amplitude must be in [0, 1], got {self.cloud_amplitude}")
        if not self.peak_wm2 >= 0:
            raise ValueError(f"peak must be >= 0, got {self.peak_wm2}")
        if not self.cloud_correlation_min > 0:
            raise ValueError(f"cloud correlation must be > 0 minutes, got {self.cloud_correlation_min}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


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
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")

    def period_of_minute(self, minute_of_day: int) -> int:
        """0..3 for the period containing this local minute."""
        starts = self.period_starts_min
        for p in range(3, -1, -1):
            if minute_of_day >= starts[p]:
                return p
        return 3  # before the first start: tail of the wrapped last period


def solar_current_from_irradiance(trace: IrradianceTrace, chain: SolarChain) -> np.ndarray:
    """Map each irradiance sample to harvest current through the chain."""
    return trace.samples * chain.current_factor


def generate_synthetic_irradiance(
    days: int, profile: SolarProfile = SolarProfile(), start_epoch_s: int = 0
) -> IrradianceTrace:
    """Per-minute synthetic irradiance: zero at night, attenuated half-sine by day."""
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
    shocks = (rng.standard_normal(n) * math.sqrt(1.0 - rho * rho)).tolist()
    s = 0.0
    for i, shock in enumerate(shocks):
        s = rho * s + shock
        shocks[i] = s
    state = np.array(shocks)
    attenuation = 1.0 - profile.cloud_amplitude * 0.5 * (1.0 + np.tanh(state))

    return IrradianceTrace(start_epoch_s, SYNTHETIC_RESOLUTION_S, clear * attenuation)


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
    if not 0 < v_supply < math.inf:
        raise ValueError(f"v_supply must be positive and finite, got {v_supply}")

    n = days * MINUTES_PER_DAY
    if profile.daily_energy_j == 0.0:
        return np.zeros(n)

    rng = np.random.default_rng(profile.seed)
    # Period of each minute, as period_of_minute gives it: the last period
    # starting at or before the minute, and the wrapped last period before
    # the first start.
    day_labels = np.searchsorted(profile.period_starts_min, np.arange(MINUTES_PER_DAY), side="right") - 1
    day_labels[day_labels < 0] = 3

    # Bout chain: stay-active prob fixes the mean bout length; activation prob
    # fixes the duty cycle of each period. One uniform starts the chain and
    # one decides each minute: an active minute stays active on its stay
    # draw, an idle one turns active on its activation draw.
    p_stay = 1.0 - 1.0 / profile.mean_bout_min
    p_activate = np.array([min(1.0, d / (profile.mean_bout_min * max(1.0 - d, 1e-9))) for d in profile.duty])
    uniforms = rng.random(n + 1)
    first = uniforms[0] < profile.duty[day_labels[0]]
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

    # Active minutes per (day, period) group, day * 4 + period; a group with weight and
    # minutes but none active gets a forced minute, drawn in day and period order.
    weights = np.array(profile.weights)
    minutes = np.flatnonzero(active)
    group = minutes // MINUTES_PER_DAY * 4 + day_labels[minutes % MINUTES_PER_DAY]
    counts = np.bincount(group, minlength=4 * days)
    present = (weights > 0.0) & (np.bincount(day_labels, minlength=4) > 0)
    starved = np.flatnonzero((counts.reshape(days, 4) == 0) & present)
    if starved.size:
        forced = [g // 4 * MINUTES_PER_DAY + rng.choice(np.flatnonzero(day_labels == g % 4)) for g in starved.tolist()]
        minutes, group = np.append(minutes, forced), np.append(group, starved)
        counts[starved] = 1
    current = np.zeros(n)
    with np.errstate(over="ignore"):  # E / (60 V) overflows for a tiny supply or a huge energy
        current[minutes] = profile.daily_energy_j * weights[group % 4] / counts[group] / (60.0 * v_supply)
    _check_finite("kinetic current", current)
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
    """Epoch seconds of an integer, a decimal or an ISO-8601 stamp, which must
    be a whole second: a fraction of zeros is dropped, any other rejected."""
    raw = raw.strip()
    try:
        return int(raw)
    except ValueError:
        pass
    epoch = re.fullmatch(r"([-+]?[0-9]+)\.[0-9]+", raw)
    if epoch is None:
        try:
            stamp = datetime.fromisoformat(raw.replace("Z", "+00:00"))
        except ValueError as exc:
            raise TraceError(f"line {line}: unparseable timestamp {raw!r}") from exc
        if stamp.tzinfo is None:
            stamp = stamp.replace(tzinfo=timezone.utc)
    # The date and time fields hold no "." or ",", so a digit after one is a
    # fraction, of the second or of the offset's; fromisoformat drops digits
    # past the sixth, so the text is read, not the parsed stamp.
    if re.search(r"[.,][0-9]*[1-9]", raw):
        raise TraceError(f"line {line}: timestamp {raw!r} is not a whole second")
    return int(epoch[1]) if epoch else int(stamp.timestamp())


@contextmanager
def _open_csv(path: str) -> Iterator[tuple[list[str], Iterator[list[str]], str]]:
    """The header row of a trace CSV, a csv.reader over the rows after it, and the file's text encoding."""
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
        yield header, reader, handle.encoding


def _header_names(header: list[str]) -> list[str]:
    return [h.strip().lower() for h in header]


def _check_header(path: str, header: list[str], expected: list[str]) -> None:
    if _header_names(header) != expected:
        raise TraceError(f"{path}: expected header {','.join(expected)!r}, got {','.join(header)!r}")


def read_trace_header(path: str) -> list[str]:
    """A trace CSV's column names as the loaders read them: stripped and lower-cased."""
    with _open_csv(path) as (header, _, _):
        return _header_names(header)


def _data_rows(reader: Iterator[list[str]], n_fields: int) -> Iterator[tuple[int, list[str]]]:
    """(line, row) of each data row, rows of blank cells dropped: the header is line 1 and blank rows count."""
    for line, row in enumerate(reader, start=2):
        if not "".join(row).strip():
            continue
        if len(row) != n_fields:
            raise TraceError(f"line {line}: expected {n_fields} fields, got {len(row)}")
        yield line, row


def _decimal(digits: np.ndarray) -> np.ndarray:
    """The numbers whose decimal digits (as values 0-9) are the rows of digits, most significant first."""
    value = digits[0].astype(np.int32)
    for row in digits[1:]:
        value = value * 10 + row
    return value


def _iso_utc_seconds(text: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Where each byte string is a second written "YYYY-MM-DDTHH:MM:SS" and
    "Z" or "+00:00", and its epoch seconds.

    The strings are as wide as _IRRADIANCE_ROWS' stamps. A string counts
    only if _parse_timestamp reads it as that second: every field is in
    range, the day is in its month and the year is 1 or later. The seconds
    of the others are filler.
    """
    size = _ISO_UTC.size
    raw = text[:, None].view(np.uint8)
    iso = (raw[:, size] == ord("Z")) & (raw[:, size + 1] == 0)  # nothing after the suffix
    if not iso.all():
        iso |= (raw[:, size : size + _UTC_OFFSET.size] == _UTC_OFFSET).all(axis=1)
    # One row per character, each the character's offset from the template:
    # a byte below it wraps high.
    codes = np.ascontiguousarray(raw[:, :size].T)
    codes -= _ISO_UTC[:, None]
    for row, span in zip(codes, _ISO_SPAN):
        iso &= row <= span
    year, month, day, hour, minute, second = (_decimal(codes[first : first + count]) for first, count in _ISO_FIELDS)
    del codes
    leap = (year % 4 == 0) & ((year % 100 != 0) | (year % 400 == 0))
    iso &= (year >= 1) & (month >= 1) & (month <= 12) & (hour < 24) & (minute < 60) & (second < 60)
    iso &= (day >= 1) & (day <= _MONTH_DAYS.take(month, mode="clip") + (leap & (month == 2)))
    before = year - 1  # whole years since 0001-01-01
    ordinal = before * 365 + before // 4 - before // 100 + before // 400 + day
    ordinal += _DAYS_BEFORE_MONTH.take(month, mode="clip") + (leap & (month > 2))
    return iso, (ordinal - _EPOCH_ORDINAL).astype(np.int64) * 86400 + (hour * 60 + minute) * 60 + second


def _read_plain(path: str, encoding: str, dtype: np.dtype) -> np.ndarray | None:
    """The rows after the header line, parsed by np.loadtxt in one pass; None where it might read them otherwise.

    For a cell without quotes np.loadtxt splits lines and cells as csv.reader
    does. It keeps a quote in the cell, where no parser here takes it (a
    header with a quoted line break leaves one in the rows), and blanks
    around a stamp, which _plain_stamps rejects. np.loadtxt has
    no field size limit and a byte string drops a final NUL, so a file with a
    line longer than csv.field_size_limit() or with a NUL byte is declined,
    as is one np.loadtxt rejects or finds no data rows in. A pipe is not
    opened again: the row checker reads it once.
    """
    if not os.path.isfile(path):
        return None
    try:
        with open(path, "rb") as handle:
            data = handle.read()
    except OSError:
        return None
    ends = np.flatnonzero(np.frombuffer(data, np.uint8) == ord("\n"))
    if b"\0" in data or np.diff(ends, prepend=-1, append=len(data)).max() > csv.field_size_limit() + 1:
        return None
    if not re.search(b"[\r\n][^\r\n]", data):  # no line after the header: np.loadtxt would warn
        return None
    del data, ends
    try:  # an absolute path, which np.loadtxt cannot take for a URL
        return np.loadtxt(os.path.abspath(path), dtype, comments=None, delimiter=",", skiprows=1, encoding=encoding,
                          ndmin=1)
    except Exception:  # also the error of a decompressor np.loadtxt picks by a name ending .gz, .xz, ...
        return None


def _plain_stamps(text: np.ndarray) -> np.ndarray | None:
    """The epoch seconds of _IRRADIANCE_ROWS' stamps if they are all epoch
    integers, each the plain decimal text of its value, or all UTC text that
    _iso_utc_seconds takes; else None."""
    try:
        seconds = text.astype(np.int64)
    except (ValueError, OverflowError):
        iso, seconds = _iso_utc_seconds(text)
        return seconds if iso.all() else None
    return seconds if (seconds.astype(text.dtype) == text).all() else None


def _plain_irradiance(path: str, encoding: str, resolution_s: int, max_gap_steps: int) -> IrradianceTrace | None:
    """The trace of a plain file whose stamps are all epoch integers or all UTC text, if every row checks."""
    rows = _read_plain(path, encoding, _IRRADIANCE_ROWS)
    if rows is None:
        return None
    stamps = _plain_stamps(rows["timestamp"])
    if stamps is None or not -_EXACT_LIMIT < stamps.min() <= stamps.max() < _EXACT_LIMIT:
        return None
    samples = np.ascontiguousarray(rows["irradiance_wm2"])
    spacing = np.diff(stamps)
    missing = spacing // resolution_s - 1
    if not (((samples >= 0.0) & (samples < math.inf)).all() and (spacing > 0).all()
            and not (spacing % resolution_s).any() and (missing <= max_gap_steps).all()):
        return None
    counts = np.append(missing, 0) + 1  # each sample, then the missing rows after it, which hold it
    return IrradianceTrace(int(stamps[0]), resolution_s, np.repeat(samples, counts), int(np.count_nonzero(missing)))


def load_irradiance_csv(path: str, resolution_s: int = 60, max_gap_steps: int = 5) -> IrradianceTrace:
    """Read "timestamp,irradiance_wm2" rows into a trace.

    Timestamps may be epoch seconds or ISO-8601, in whole seconds, strictly
    increasing on the declared resolution grid. Gaps of up to max_gap_steps
    missing rows are filled by holding the previous value (counted in
    gaps_filled); anything larger is an error. A file whose first stamp
    _plain_stamps takes is parsed in one pass; the row checker reads any
    file that pass declines.
    """
    if resolution_s <= 0:
        raise TraceError(f"resolution must be positive, got {resolution_s}")
    with _open_csv(path) as (header, reader, encoding):
        _check_header(path, header, IRRADIANCE_HEADER)
        first = next(reader, None)
        if first and _plain_stamps(np.array([first[0].encode()], _IRRADIANCE_ROWS["timestamp"])) is not None:
            trace = _plain_irradiance(path, encoding, resolution_s, max_gap_steps)
            if trace is not None:
                return trace
        samples = array("d")
        gaps = 0
        start = previous = None
        for line, row in _data_rows(reader if first is None else chain([first], reader), 2):
            stamp = _parse_timestamp(row[0], line)
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
    return IrradianceTrace(start, resolution_s, np.frombuffer(samples), gaps)


def csv_field(text: str) -> str:
    """One CSV field, quoted the way csv.writer's default dialect quotes it."""
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


class TextColumn(NamedTuple):
    """One CSV field per row: row i's field is the last size[i] bytes of text[i].

    The bytes before them are filler and are never written, so a field may
    hold any byte, NUL included.
    """

    text: np.ndarray  # uint8, (rows, width)
    size: np.ndarray  # bytes in each row's field

    def take(self, index: np.ndarray) -> TextColumn:
        return TextColumn(np.take(self.text, index, axis=0), self.size[index])


def text_column(fields: list[str]) -> TextColumn:
    """The fields as open() encodes them in a text file."""
    encoding = io.TextIOWrapper(io.BytesIO()).encoding  # what open() picks when given none
    encoded = [field.encode(encoding) for field in fields]
    width = max(map(len, encoded), default=0)
    text = np.frombuffer(b"".join(e.rjust(width) for e in encoded), np.uint8).reshape(len(encoded), width)
    return TextColumn(text, np.fromiter(map(len, encoded), np.intp, len(encoded)))


def _word_table(n: np.ndarray, pattern: bytes) -> np.ndarray:
    """One 4-byte word of text per n >= 0: pattern, its "#"s filled with n's last digits in order."""
    slots = np.flatnonzero(np.frombuffer(pattern, np.uint8) == ord("#"))
    text = np.tile(np.frombuffer(pattern, np.uint8), (n.size, 1))
    text[:, slots] = _DIGITS4[n].view(np.uint8).reshape(-1, 4)[:, 4 - slots.size :]
    return text.view(np.uint32).ravel()


# Word tables of the fields: "-d.d" by the two leading digits of a "%.9e"
# mantissa (the sign is part of the field only where the size counts it),
# "e±XX" by exponent + 13 (the exponents of |k| <= 22, within [-13, 31]),
# and the word at the decimal point of "%.5f" ("dd.d") and "%.6f" ("d.dd"),
# by three digits.
_LEAD_WORDS = _word_table(np.arange(100), b"-#.#")
_EXPONENT_WORDS = np.concatenate([_word_table(np.arange(13, 0, -1), b"e-##"), _word_table(np.arange(32), b"e+##")])
_POINT_WORDS = {5: _word_table(np.arange(1000), b"##.#"), 6: _word_table(np.arange(1000), b"#.##")}


def _put_digits(words: np.ndarray, n: np.ndarray) -> np.ndarray:
    """Write n's low decimal digits into the word columns of words, four a word and
    zero-filled; return what is left above them, n // 10^(4 x columns)."""
    for j in range(words.shape[1] - 1, -1, -1):
        q = n // 10000
        words[:, j] = _DIGITS4[n - q * 10000]
        n = q
    return n


def _digit_count(n: np.ndarray) -> np.ndarray:
    """Decimal digits of each n >= 0, searched among the powers of ten up to the largest n."""
    powers = _POWERS_INT[: len(str(n.max(initial=0))) - 1].astype(n.dtype)
    return 1 + np.searchsorted(powers, n, "right")


def _words(size: np.ndarray, least: int) -> int:
    """Words of 4 bytes a row needs for the largest field: at least least."""
    return max(-(-int(size.max(initial=0)) // 4), least)


def _scaled(magnitude: np.ndarray, exponent: np.ndarray) -> np.ndarray:
    """magnitude x 10^exponent with one float64 rounding, for |exponent| <= 22."""
    power = _POWERS[np.abs(exponent)]
    scaled = magnitude / power
    np.multiply(magnitude, power, out=scaled, where=exponent >= 0)
    return scaled


def _near_tie(y: np.ndarray) -> np.ndarray:
    """Where y's one rounding may have carried it across a half-integer."""
    return np.abs(y - np.floor(y) - 0.5) <= y * _NEAR_TIE


def _put_sign(text: np.ndarray, size: np.ndarray, negative: np.ndarray) -> None:
    rows = np.flatnonzero(negative)
    text[rows, text.shape[1] - size[rows]] = _MINUS


def _number_bytes(values: np.ndarray, spec: str) -> tuple[TextColumn, np.ndarray]:
    """spec % value from integer arithmetic, and where that cannot be trusted.

    The rows flagged in the second array hold filler. Every other row holds
    the exact text: a float is scaled to y = |v| x 10^k with one rounding,
    and its digits are those of rint(y) unless y is within that rounding of
    a half-integer. Each field is assembled from 4-byte words of text.
    """
    rows = values.size
    if spec == "%d":
        negative = values < 0
        magnitude = np.abs(values).view(np.uint64)  # -2**63 too
        size = _digit_count(magnitude) + negative
        words = np.empty((rows, _words(size, 1)), np.uint32)
        _put_digits(words, magnitude)
        text = words.view(np.uint8)
        _put_sign(text, size, negative)
        return TextColumn(text, size), np.zeros(rows, bool)

    negative = np.signbit(values)
    magnitude = np.abs(values)
    if spec in ("%.5f", "%.6f"):
        places = int(spec[2])
        fallback = ~(magnitude < 2.0**52)  # NaN, inf, and values whose y could overflow
        y = np.where(fallback, 0.0, magnitude) * _POWERS[places]
        fallback |= y >= 2.0**52
        y[fallback] = 0.0
        fallback |= _near_tie(y)
        n = np.rint(y).astype(np.int64)
        whole = np.maximum(_digit_count(n) - places, 1)  # digits before the dot
        size = whole + 1 + places + negative
        # The last two words are the word at the point and the last four
        # digits; the words before them hold the digits above the last seven.
        words = np.empty((rows, _words(size, 2)), np.uint32)
        rest = _put_digits(words[:, -1:], n)
        above = rest // 1000
        words[:, -2] = _POINT_WORDS[places][rest - above * 1000]
        _put_digits(words[:, :-2], above)
        text = words.view(np.uint8)
        _put_sign(text, size, negative)
        return TextColumn(text, size), fallback

    if spec != "%.9e":
        raise ValueError(f"no byte kernel for {spec!r}")
    # Ten significant digits: k = 9 - exponent, guessed from log10 and put
    # right once if y falls outside [1e9, 1e10).
    zero = magnitude == 0.0
    fallback = ~(magnitude < np.inf)
    usable = np.where(zero | fallback, 1.0, magnitude)
    k = 9 - np.floor(np.log10(usable)).astype(np.intp)
    y = _scaled(usable, np.clip(k, -22, 22))
    off = np.flatnonzero((y < 1e9) | (y >= 1e10))
    if off.size:
        k[off] += (y[off] < 1e9).astype(np.intp) - (y[off] >= 1e10)
        y[off] = _scaled(usable[off], np.clip(k[off], -22, 22))
    n = np.rint(y)
    fallback |= ~zero & ((np.abs(k) > 22) | (y < 1e9) | (n >= 1e10) | _near_tie(y))
    blank = zero | fallback
    n[blank] = 0.0
    k[blank] = 9
    words = np.empty((rows, 4), np.uint32)  # "-d.d", eight more digits, "e±XX"
    words[:, 0] = _LEAD_WORDS[_put_digits(words[:, 1:3], n.astype(np.int64))]
    words[:, 3] = _EXPONENT_WORDS[22 - k]
    return TextColumn(words.view(np.uint8), 15 + negative), fallback


def number_text(values: np.ndarray, spec: str) -> TextColumn:
    """The bytes of spec % value for each value.

    spec is "%.5f", "%.6f" or "%.9e" for float64 values, or "%d" for
    integers. Floats are formatted once per run of equal bit patterns (so
    -0.0 keeps its sign and NaN repeats), the runs found by comparing each
    value with the one before it. A value the kernel cannot place exactly
    (not finite, too large, or a near-tie) goes through spec % value itself.
    """
    if spec == "%d":
        return _number_bytes(np.asarray(values, np.int64), spec)[0]
    values = np.asarray(values, dtype=np.float64)
    bits = values.view(np.int64)
    starts = np.empty(bits.size, bool)  # where a run of equal bit patterns starts
    starts[:1] = True
    np.not_equal(bits[1:], bits[:-1], out=starts[1:])
    firsts = values[starts]
    column, fallback = _number_bytes(firsts, spec)
    if fallback.any():
        text, size = column
        exact = text_column([spec % v for v in firsts[fallback].tolist()])
        width = exact.text.shape[1]
        text = np.pad(text, ((0, 0), (max(width - text.shape[1], 0), 0)))
        text[fallback, text.shape[1] - width :] = exact.text
        size[fallback] = exact.size
        column = TextColumn(text, size)
    return column if firsts.size == values.size else column.take(np.cumsum(starts) - 1)


def _seconds_text(seconds: np.ndarray) -> TextColumn:
    """str() of each whole-second time: %d for integers."""
    if seconds.dtype.kind == "i":
        return number_text(seconds, "%d")
    return text_column(list(map(str, seconds.tolist())))


def _lines(chunks: Iterable[list[TextColumn]]) -> Iterator[np.ndarray]:
    """Each chunk of rows as CSV lines: fields joined by commas, lines ending in \\r\\n.

    A chunk's columns are cut to their widest field and laid side by side;
    only where a column's fields differ in size does a mask drop filler.
    The memory is reused from chunk to chunk, so each result is valid only
    until the next one is made.
    """
    line = keep = np.empty(0, np.uint8)
    for columns in chunks:
        rows = columns[0].size.size
        widths = [int(column.size.max(initial=0)) for column in columns]
        span = rows * (sum(widths) + len(widths) + 1)
        if line.size < span:
            line, keep = np.empty(span, np.uint8), np.empty(span, bool)
        grid = line[:span].reshape(rows, -1)
        ragged = []  # (first byte, width, field sizes) of each column whose fields differ in size
        at = 0
        for column, width in zip(columns, widths):
            grid[:, at : at + width] = column.text[:, column.text.shape[1] - width :]
            grid[:, at + width] = _COMMA
            if (column.size != width).any():
                ragged.append((at, width, column.size))
            at += width + 1
        grid[:, -2:] = _CRLF
        del columns  # their bytes are in grid now
        if not ragged:
            yield grid
            continue
        mask = keep[:span].reshape(rows, -1)
        mask[...] = True
        for at, width, size in ragged:
            # Row k of the table keeps the last k bytes: a field of size k.
            table = np.arange(width) >= np.arange(width, -1, -1)[:, None]
            np.take(table, size, axis=0, mode="clip", out=mask[:, at : at + width])
        yield grid[mask]


def write_csv(path: str, header: list[str], n_rows: int, rows: Callable[[int, int], list[TextColumn]]) -> None:
    """Write a header line and n_rows rows, each line ending in \\r\\n.

    rows(start, stop) returns rows start..stop-1 as one TextColumn per CSV
    column, each field finished CSV text. It is called once per chunk of
    CSV_CHUNK_ROWS rows, and each chunk goes out in one write(), so only one
    chunk of text is held at a time.
    """
    chunks = (rows(start, min(start + CSV_CHUNK_ROWS, n_rows)) for start in range(0, n_rows, CSV_CHUNK_ROWS))
    with open(path, "wb") as handle:
        handle.write(text_column([",".join(map(csv_field, header)) + "\r\n"]).text)
        for lines in _lines(chunks):
            handle.write(lines)


def save_irradiance_csv(trace: IrradianceTrace, path: str) -> None:
    """Write "timestamp,irradiance_wm2" rows with epoch-second timestamps."""

    def rows(start: int, stop: int) -> list[TextColumn]:
        stamps = trace.start_epoch_s + np.arange(start, stop) * trace.resolution_s
        return [_seconds_text(stamps), number_text(trace.samples[start:stop], "%.6f")]

    write_csv(path, IRRADIANCE_HEADER, trace.samples.size, rows)


def save_harvest_csv(trace: HarvestTrace, path: str) -> None:
    """Write "t_s,solar_a,kinetic_a,combined_a" rows, one per trace step."""

    def rows(start: int, stop: int) -> list[TextColumn]:
        times = np.arange(start, stop) * trace.resolution_s
        series = (trace.solar_a, trace.kinetic_a, trace.combined_a)
        return [_seconds_text(times), *(number_text(s[start:stop], "%.9e") for s in series)]

    write_csv(path, HARVEST_HEADER, len(trace), rows)


def _time_step(times: np.ndarray) -> int | None:
    """The step of a finite time column of whole seconds, exact however large;
    60 for one row, None unless uniform and positive."""
    if times.size == 1:
        return 60
    if np.abs(times).max() < _EXACT_LIMIT:
        whole = times.astype(np.int64)
    else:
        whole = np.array(list(map(int, times.tolist())), dtype=object)
    spacing = np.diff(whole)
    return int(spacing[0]) if spacing[0] > 0 and (spacing == spacing[0]).all() else None


def _plain_harvest(path: str, encoding: str) -> HarvestTrace | None:
    """The trace of a plain harvest file whose values are finite, currents non-negative and times uniform
    whole seconds."""
    rows = _read_plain(path, encoding, _HARVEST_ROWS)
    if rows is None:
        return None
    times, *currents = (np.ascontiguousarray(rows[name]) for name in HARVEST_HEADER)
    if not (np.isfinite(times).all() and (times % 1.0 == 0.0).all()
            and all(((c >= 0.0) & (c < math.inf)).all() for c in currents)):
        return None
    step = _time_step(times)
    return None if step is None else HarvestTrace(0, step, *currents)


def load_harvest_csv(path: str) -> HarvestTrace:
    """Read a harvest CSV written by save_harvest_csv (or shaped like it)."""
    with _open_csv(path) as (header, reader, encoding):
        _check_header(path, header, HARVEST_HEADER)
        trace = _plain_harvest(path, encoding)
        if trace is not None:
            return trace
        columns = [array("d") for _ in HARVEST_HEADER]
        # The first row with a non-finite value, and the first whose t_s is not
        # a whole second, reported in that order once every row parses.
        non_finite = fraction = None
        for line, row in _data_rows(reader, len(HARVEST_HEADER)):
            try:
                values = list(map(float, row))
            except ValueError:
                raise TraceError(f"line {line}: unparseable row {row!r}") from None
            if non_finite is None and not all(map(math.isfinite, values)):
                non_finite = line
            if fraction is None and values[0] % 1.0 > 0.0:  # NaN for a non-finite t_s
                fraction = f"line {line}: t_s {row[0].strip()!r} is not a whole second"
            for column, value in zip(columns, values):
                column.append(value)
    times, solar, kinetic, combined = map(np.frombuffer, columns)
    if not times.size:
        raise TraceError(f"{path}: no data rows")
    if non_finite is not None:
        raise TraceError(f"line {non_finite}: non-finite value")
    if fraction is not None:
        raise TraceError(fraction)
    step = _time_step(times)
    if step is None:
        raise TraceError(f"{path}: time column not uniformly spaced")
    return HarvestTrace(0, step, solar, kinetic, combined)
