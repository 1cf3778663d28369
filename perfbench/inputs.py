"""Seeded input generation for the benchmark workloads.

The benchmark owns this generator and never calls captrack's own synthesis,
so a change to captrack.harvest cannot change the inputs of the simulation
workloads. Everything here is a pure function of its arguments and the numpy
generator passed in.
"""

from __future__ import annotations

import math

import numpy as np

MINUTES_PER_DAY = 1440
V_SUPPLY = 3.3
COMBINER_EFFICIENCY = 0.88
# Panel 40 x 40 mm, 18.5 % efficient, cosine factor 0.5, PMIC 85 %, 3.3 V rail:
# amperes of harvest current per W/m^2 of irradiance (README "Model in brief").
SOLAR_A_PER_WM2 = 0.0016 * 0.185 * 0.5 / V_SUPPLY * 0.85

SUNRISE_MIN = 510
SUNSET_MIN = 1005

# Four daily activity periods (dawn, day, dusk, night): start minute, share
# of the day's kinetic energy, and the fraction of the period spent active.
PERIOD_STARTS_MIN = (300, 540, 1020, 1260)
PERIOD_WEIGHTS = (0.35, 0.15, 0.35, 0.15)
PERIOD_DUTY = (0.5, 0.2, 0.5, 0.15)
MEAN_BOUT_MIN = 20.0


def irradiance(days: int, rng: np.random.Generator, peak_wm2: float, cloud_amplitude: float,
               cloud_correlation_min: float = 120.0) -> np.ndarray:
    """Per-minute W/m^2: zero at night, half-sine by day, AR(1) cloud cover."""
    n = days * MINUTES_PER_DAY
    minute = np.arange(n) % MINUTES_PER_DAY
    phase = (minute - SUNRISE_MIN) / (SUNSET_MIN - SUNRISE_MIN)
    day = (phase >= 0.0) & (phase < 1.0)
    clear = np.where(day, peak_wm2 * np.sin(np.pi * np.clip(phase, 0.0, 1.0)), 0.0)
    rho = math.exp(-1.0 / cloud_correlation_min)
    gain = math.sqrt(1.0 - rho * rho)
    shocks = rng.standard_normal(n)
    state = np.empty(n)
    s = 0.0
    for i in range(n):
        s = rho * s + gain * shocks[i]
        state[i] = s
    return clear * (1.0 - cloud_amplitude * 0.5 * (1.0 + np.tanh(state)))


def kinetic_current(days: int, rng: np.random.Generator, daily_energy_j: float) -> np.ndarray:
    """Per-minute kinetic harvest current in amperes.

    A two-state bout chain marks active minutes; each (day, period) then gets
    exactly its share of daily_energy_j spread evenly over its active minutes
    (one forced minute when the chain left the period idle).
    """
    n = days * MINUTES_PER_DAY
    minute = np.arange(n) % MINUTES_PER_DAY
    period = np.searchsorted(PERIOD_STARTS_MIN, minute, side="right") - 1
    period[period < 0] = 3  # before dawn: the night period wrapping past midnight
    duty = np.asarray(PERIOD_DUTY)[period]
    p_stay = 1.0 - 1.0 / MEAN_BOUT_MIN
    p_start = np.minimum(1.0, duty / (MEAN_BOUT_MIN * (1.0 - duty)))
    draws = rng.random(n)
    active = np.zeros(n, dtype=bool)
    on = False
    for i in range(n):
        on = draws[i] < (p_stay if on else p_start[i])
        active[i] = on

    current = np.zeros(n)
    per_day = period.reshape(days, MINUTES_PER_DAY)
    act_day = active.reshape(days, MINUTES_PER_DAY)
    out_day = current.reshape(days, MINUTES_PER_DAY)
    for d in range(days):
        for p, weight in enumerate(PERIOD_WEIGHTS):
            in_period = per_day[d] == p
            chosen = in_period & act_day[d]
            if not chosen.any():
                chosen = np.zeros(MINUTES_PER_DAY, dtype=bool)
                chosen[rng.choice(np.flatnonzero(in_period))] = True
            out_day[d, chosen] = daily_energy_j * weight / int(chosen.sum()) / (60.0 * V_SUPPLY)
    return current


def write_harvest_csv(path: str, solar_a: np.ndarray, kinetic_a: np.ndarray) -> None:
    """Native "t_s,solar_a,kinetic_a,combined_a" trace.

    solar_a and kinetic_a are written at 10 significant digits; combined_a is
    exactly COMBINER_EFFICIENCY * (solar + kinetic) of the values as written,
    at full precision, so a loader that recomputes the combined column from
    the two sources reads the same currents.
    """
    solar_txt = [f"{x:.9e}" for x in solar_a]
    kinetic_txt = [f"{x:.9e}" for x in kinetic_a]
    combined = COMBINER_EFFICIENCY * (np.array(solar_txt, dtype=float) + np.array(kinetic_txt, dtype=float))
    lines = ["t_s,solar_a,kinetic_a,combined_a"]
    lines += [f"{60 * i},{s},{k},{c!r}" for i, (s, k, c) in enumerate(zip(solar_txt, kinetic_txt, combined.tolist()))]
    with open(path, "w") as handle:
        handle.write("\n".join(lines) + "\n")


def write_irradiance_csv_iso(path: str, wm2: np.ndarray, start: str) -> None:
    """"timestamp,irradiance_wm2" rows with ISO-8601 UTC timestamps."""
    stamps = np.datetime64(start, "s") + np.arange(wm2.size) * np.timedelta64(60, "s")
    text = np.datetime_as_string(stamps, unit="s")
    lines = ["timestamp,irradiance_wm2"]
    lines += [f"{t}Z,{v:.6f}" for t, v in zip(text.tolist(), wm2.tolist())]
    with open(path, "w") as handle:
        handle.write("\n".join(lines) + "\n")
