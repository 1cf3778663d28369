"""Closed-form supercapacitor voltage dynamics.

A task is a resistive load R_eq = V_supply / I_task; together with a constant
harvest current I_H the voltage follows a first-order linear ODE whose exact
solution over a segment of length dt is

    V' = I_H R_eq + (V - I_H R_eq) exp(-dt / (R_eq C))

Everything here is built on that solution: analytic crossing times and
closed-form energy integrals for the ledger, each written once: crossing_time,
decay_factors and segment_energy, which time_to_voltage and integrate_segment
combine and the engine calls.
"""

from __future__ import annotations

import math


def equivalent_resistance(v_supply: float, current_ma: float) -> float:
    """Load resistance of a task in ohms, from its supply-referred current."""
    if current_ma <= 0:
        raise ValueError(f"task current must be positive, got {current_ma}")
    return v_supply / (current_ma * 1e-3)


def time_to_voltage(
    v0: float, harvest_current: float, resistance: float, capacitance: float, target: float
) -> float | None:
    """Seconds until the trajectory from v0 reaches target, or None if it never does.

    The solution moves monotonically from V toward I_H R_eq, so the target is
    reachable iff it lies between the two (asymptote excluded).
    """
    if target <= 0:
        raise ValueError(f"target must be positive, got {target}")
    if resistance <= 0:
        raise ValueError(f"resistance must be positive, got {resistance}")
    if target == v0:
        return 0.0
    asymptote = harvest_current * resistance
    # Reachable only strictly between V and the asymptote.
    if not (min(v0, asymptote) < target < max(v0, asymptote)):
        return None
    return crossing_time(v0, asymptote, resistance * capacitance, target)


def crossing_time(v0: float, asymptote: float, tau: float, target: float) -> float:
    """Seconds from v0 to a target strictly between v0 and the asymptote,
    on the trajectory toward the asymptote with time constant tau = R C."""
    return tau * math.log((v0 - asymptote) / (target - asymptote))


def decay_factors(duration: float, tau: float) -> tuple[float, float, float]:
    """exp(-x), 1 - exp(-x) and 1 - exp(-2x) for x = duration / tau, the
    last two as -expm1, stable for tiny x."""
    x = duration / tau
    return math.exp(-x), -math.expm1(-x), -math.expm1(-2.0 * x)


def segment_energy(i_h, r, tau, a, b, duration, em1, em2):
    """I_H * integral(V dt) and integral(V^2 / R dt) over an unclamped segment
    from a + b toward the asymptote a = I_H R; em1, em2 from decay_factors.
    Only + - * /, so numpy arrays give the bits of per-element float calls."""
    harvested = i_h * (a * duration + b * tau * em1)
    consumed = (a * a * duration + 2.0 * a * b * tau * em1 + b * b * (tau / 2.0) * em2) / r
    return harvested, consumed


def integrate_segment(
    v0: float, harvest_current: float, resistance: float, capacitance: float, duration: float
) -> tuple[float, float, float]:
    """Exact energy bookkeeping over one unclamped segment.

    Returns (end voltage, harvested joules, consumed joules) where
    harvested = I_H * integral(V dt) and consumed = integral(V^2 / R dt),
    both in closed form. Their difference equals the stored-energy change,
    which is what makes the ledger a real check rather than bookkeeping
    that balances by construction.
    """
    if duration == 0.0:
        return v0, 0.0, 0.0
    tau = resistance * capacitance
    a = harvest_current * resistance  # asymptote
    b = v0 - a
    e, em1, em2 = decay_factors(duration, tau)
    return a + b * e, *segment_energy(harvest_current, resistance, tau, a, b, duration, em1, em2)
