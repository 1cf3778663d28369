"""harvest.number_text against Python's % operator, byte for byte.

The CSV writers print every number through number_text, so it must give the
exact text of spec % value for each spec they use: "%.5f" and "%.6f"
(times and voltages), "%.9e" (currents, charges) and "%d" (whole seconds).
Values near a rounding tie are drawn on purpose, since one float64 rounding
of the scaled value can carry it across the tie.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from captrack.harvest import number_text

FLOAT_SPECS = ("%.5f", "%.6f", "%.9e")


def texts(column) -> list[str]:
    return [bytes(row[row.size - size :]).decode() for row, size in zip(column.text, column.size.tolist())]


def assert_like_percent(values, spec: str) -> None:
    values = np.asarray(values)
    assert texts(number_text(values, spec)) == [spec % v for v in values.tolist()]


@st.composite
def near_ties(draw):
    """(m + 0.5) / 10^d, a decimal tie at d places (or at ten significant
    digits), and the floats either side of it."""
    digits = draw(st.integers(min_value=1, max_value=10))
    m = draw(st.integers(min_value=0, max_value=10**digits))
    places = draw(st.sampled_from([5, 6]) | st.integers(min_value=-12, max_value=30))
    tie = (m + 0.5) / 10.0**places
    return [tie, float(np.nextafter(tie, 0.0)), float(np.nextafter(tie, np.inf))]


@st.composite
def powers_of_ten(draw):
    """10^k and the floats one ulp either side of it."""
    power = 10.0 ** draw(st.integers(min_value=-320, max_value=308))
    return [power, float(np.nextafter(power, 0.0)), float(np.nextafter(power, np.inf))]


value = (
    st.floats(allow_subnormal=True)
    | st.sampled_from([0.0, -0.0, 0.0078125, 9.9999999995, 1e22, 1e23, 5e-324, 2.0**52, 2.0**53 + 2.0]).map(float)
    | near_ties().flatmap(st.sampled_from)
    | powers_of_ten().flatmap(st.sampled_from)
)


@st.composite
def broken_run(draw):
    """A run of one value broken by a single float next to it."""
    x = draw(value)
    return [(x, draw(st.integers(1, 9))), (float(np.nextafter(x, draw(st.sampled_from([0.0, np.inf])))), 1),
            (x, draw(st.integers(1, 9)))]


# A column is drawn as runs, (value, repeat count) pairs laid end to end, as
# night zeros, bout-constant currents and pinned voltages arrive: the kernel
# formats each run once.
runs = st.lists(
    st.tuples(value, st.integers(1, 6)).map(lambda run: [run])
    | st.sampled_from([[(0.0, 2), (-0.0, 1)], [(-0.0, 3), (0.0, 1)], [(np.nan, 4)]])
    | broken_run(),
    max_size=15,
).map(lambda groups: [run for group in groups for run in group])


def column_of(runs) -> np.ndarray:
    return np.repeat(np.array([v for v, _ in runs], dtype=np.float64), [n for _, n in runs])


@settings(max_examples=400, deadline=None)
@given(runs=runs, spec=st.sampled_from(FLOAT_SPECS), negate=st.booleans())
def test_floats_match_percent(runs, spec, negate):
    values = column_of(runs)
    assert_like_percent(-values if negate else values, spec)


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), spec=st.sampled_from(FLOAT_SPECS))
def test_long_columns_of_runs(seed, spec):
    # Over 5,000 values in runs of 1 to 40, so that run boundaries fall
    # anywhere: zeros of both signs, NaN, typical voltages and currents, and
    # single neighbours that break a run; then the same column negated.
    rng = np.random.default_rng(seed)
    pool = np.concatenate([
        [0.0, -0.0, np.nan, 5.5, 2.0, 1e-4],
        rng.uniform(0.0, 5.5, 40), rng.uniform(1e-7, 1e-2, 40), np.round(rng.uniform(0.0, 9e4, 20), 2),
    ])
    picks = pool[rng.integers(0, pool.size, 600)]
    values = np.repeat(picks, rng.integers(1, 41, picks.size))
    breaks = rng.integers(0, values.size, 60)
    values[breaks] = np.nextafter(values[breaks], rng.choice([0.0, np.inf], breaks.size))
    assert values.size >= 5000
    assert_like_percent(values, spec)
    assert_like_percent(-values, spec)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(min_value=-(2**63), max_value=2**63 - 1) | st.integers(-1000, 1000), max_size=40))
def test_integers_match_percent(values):
    assert_like_percent(np.array(values, dtype=np.int64), "%d")


@pytest.mark.parametrize("spec", FLOAT_SPECS)
def test_ties_extremes_and_non_finite_values(spec):
    cases = [
        0.0, -0.0, 0.0078125, -0.0078125, 0.5e-5, 1.5e-6, 2.5e-6, 9.9999999995, 99999.999995, 1e22, 1e23,
        5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, float("nan"), float("inf"), float("-inf"),
        2.0**52, 2.0**53, 123456789012.5, 0.1, 1.0, 10.0, 5.5, 86400.0, 1e-13, 9.99999999995e31,
    ]
    with np.errstate(over="ignore"):  # the largest float's upper neighbour is inf
        neighbours = np.concatenate([np.nextafter(cases, 0.0), np.nextafter(cases, np.inf)])
    assert_like_percent(np.concatenate([cases, neighbours]), spec)
    assert texts(number_text(np.array([0.0078125]), "%.6f")) == ["0.007812"]  # the tie rounds to even


def test_repeated_values_keep_their_own_text():
    values = np.array([0.0, -0.0, 1e-4, 0.0, -0.0, 1e-4, float("nan"), 0.0, 0.0, -0.0, -0.0, float("nan"), float("nan")])
    for spec in FLOAT_SPECS:
        assert_like_percent(values, spec)


def test_unknown_spec_is_refused():
    with pytest.raises(ValueError, match="%.3f"):
        number_text(np.array([1.0]), "%.3f")
