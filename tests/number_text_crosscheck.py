"""harvest.number_text against Python's % operator over a million seeded
values per float spec, and "%d" over the int64 range and its extremes.

    PYTHONPATH=src python tests/number_text_crosscheck.py [--count N] [--seed S]

The float values mix any bit pattern (NaN, infinities and subnormals
included), decimal ties at five, six and ten significant digits with both
neighbours, powers of ten and their neighbours, subnormals, huge values and
typical voltages, currents and times, with random signs, and are laid out in
runs of equal values as the CSV writers meet them. Prints one line per spec
and exits 1 after listing the first values whose text differs. Not collected
by pytest: it runs as its own step, in a few seconds.
"""

from __future__ import annotations

import argparse
import sys
import time

import numpy as np

from captrack.harvest import number_text

FLOAT_SPECS = ("%.5f", "%.6f", "%.9e")
BLOCK = 1 << 14  # values per number_text call, which keeps the memory small


def lines(column) -> bytes:
    """The column's fields, each ended by a newline."""
    text, size = column
    width = text.shape[1]
    keep = np.arange(width + 1) >= (width - size)[:, None]
    ended = np.concatenate([text, np.full((size.size, 1), ord("\n"), np.uint8)], axis=1)
    return ended[keep].tobytes()


def float_values(rng: np.random.Generator, count: int) -> np.ndarray:
    part = count // 10
    places = 10.0 ** rng.integers(0, 9, part)
    ties = (rng.integers(0, 10**10, part) + 0.5) / 10.0 ** rng.choice(np.r_[5, 6, -12:31], part)
    powers = 10.0 ** rng.integers(-323, 309, part)
    neighbours = [np.nextafter(x, toward) for x in (ties, powers) for toward in (0.0, np.inf)]
    pool = np.concatenate([
        # any bit pattern, and huge values: fewer, since % itself is slow to print them in full
        rng.integers(-(2**63), 2**63 - 1, part // 4, endpoint=True).view(np.float64),
        10.0 ** rng.uniform(15.0, 308.25, part // 4),
        ties, powers, *neighbours,
        rng.integers(1, 2**52, part).view(np.float64),  # subnormals
        np.round(rng.uniform(0.0, 5.5, part) * places) / places,  # voltages
        10.0 ** rng.uniform(-8.0, -2.0, part),  # currents
        rng.integers(0, 10**9, part) * rng.choice([1.0, 0.5, 0.25, 60.0, 1e-3], part),  # times
        [0.0, -0.0, np.nan, np.inf, 5e-324, 2.0**52, 2.0**53, 1e22, 1e23, 0.0078125, 9.9999999995],
    ])
    pool = np.where(rng.random(pool.size) < 0.5, -pool, pool)
    picks = pool[rng.permutation(pool.size)]
    repeat = np.where(rng.random(picks.size) < 0.8, 1, rng.integers(2, 60, picks.size))  # runs
    zeros = np.tile([0.0, -0.0, -0.0, 0.0, np.nan, np.nan], 100)  # runs equal under == but not in bits
    return np.concatenate([zeros, np.repeat(picks, repeat)])[:count]


def int_values(rng: np.random.Generator, count: int) -> np.ndarray:
    powers = 10 ** np.arange(19, dtype=np.int64)
    edges = np.concatenate([powers, powers - 1, powers + 1, [-(2**63), 2**63 - 1, -(2**63) + 1, 2**63 - 2, 0]])
    values = np.concatenate([
        edges, -edges[edges > -(2**63)],
        rng.integers(-(2**63), 2**63 - 1, count // 2, endpoint=True),
        rng.integers(-(10**6), 10**6, count // 2),
    ])
    return values[:count]


def check(values: np.ndarray, spec: str) -> int:
    """Number of values whose text differs from spec % value; prints the first few."""
    wrong = 0
    for start in range(0, values.size, BLOCK):
        block = values[start : start + BLOCK]
        got = lines(number_text(block, spec)).decode().split("\n")[:-1]
        numbers = block.tolist()
        expected = [spec % v for v in numbers]
        if got != expected:
            bad = [i for i, (g, e) in enumerate(zip(got, expected)) if g != e]
            for i in bad[: max(0, 5 - wrong)]:
                print(f"{spec} of {numbers[i]!r}: {got[i]!r}, expected {expected[i]!r}", file=sys.stderr)
            wrong += len(bad)
    return wrong


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--count", type=int, default=1_000_000, help="values per spec (default 1,000,000)")
    parser.add_argument("--seed", type=int, default=2024)
    args = parser.parse_args(argv)
    rng = np.random.default_rng(args.seed)
    failed = 0
    for spec in (*FLOAT_SPECS, "%d"):
        values = int_values(rng, args.count // 5) if spec == "%d" else float_values(rng, args.count)
        start = time.perf_counter()
        wrong = check(values, spec)
        print(f"{spec}: {values.size} values, {wrong} differ ({time.perf_counter() - start:.1f} s)")
        failed += wrong
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
