"""Walk through the closed-form capacitor voltage solution.

Shows the sleep decay over one tick, the droop of an NB-IoT burst, the exact
time to reach the power-off floor, and a charge-up that hits the 5.5 V clamp
partway through a segment.
"""

import math

from captrack import (
    CapacitorSpec,
    compose_task_current,
    equivalent_resistance,
    integrate_segment,
    time_to_voltage,
)

cap = CapacitorSpec(2.5, 0.030)
c = cap.capacitance_f
v_supply = 3.3

sleep_ma = compose_task_current("Sleep", cap.leakage_ma)
r_sleep = equivalent_resistance(v_supply, sleep_ma)
print(f"sleep draw {sleep_ma:.5f} mA -> equivalent load {r_sleep:.2f} ohm")

v, _, _ = integrate_segment(3.0, 0.0, r_sleep, c, 60.0)
print(f"one idle minute from 3.000 V -> {v:.6f} V")

nbiot_ma = compose_task_current("NbIot", cap.leakage_ma)
r_nbiot = equivalent_resistance(v_supply, nbiot_ma)
v, _, _ = integrate_segment(3.0, 0.0, r_nbiot, c, 7.89)
print(f"7.89 s upload at {nbiot_ma:.3f} mA from 3.000 V -> {v:.4f} V")

t = time_to_voltage(5.5, 0.0, r_sleep, c, 1.8)
print(f"full charge to power-off floor on sleep alone: {t:.0f} s ({t/3600:.1f} h)")
print(f"  analytic check: tau ln(5.5/1.8) = {c * r_sleep * math.log(5.5/1.8):.0f} s")


def stored(v: float) -> float:
    return 0.5 * c * v**2


print(f"stored energy at 5.5 V: {stored(5.5):.2f} J; usable above 1.8 V: {stored(5.5) - stored(1.8):.2f} J")

# 10 mA of harvest drives the asymptote far above the rail, so the voltage
# rises until the charger pins it at v_max.
crossing = time_to_voltage(5.4, 0.010, r_sleep, c, cap.v_max)
print(f"strong harvest from 5.40 V: clamped at {cap.v_max:.1f} V after {crossing:.1f} s of the minute")
