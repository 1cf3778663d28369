"""Print the component draws and the composed per-task current budget.

Every task current is base + MCU-active floor + GPS backup keep-alive +
capacitor leakage, so the same task costs slightly different amounts on
different capacitor builds.
"""

from captrack import LEAKAGE_BY_CAPACITANCE, TASKS, compose_task_current, task_energy
from captrack.energy_model import GPS_BACKUP_MA, MCU_ACTIVE_BASE_MA

# The measured task draws, then the always-on ones. The leakage row is the
# 5 F part used when the system-level profiles were characterized.
rows = [(spec.label, spec.base_ma, spec.duration_s) for spec in TASKS.values() if spec.label] + [
    ("GPS hardware backup", GPS_BACKUP_MA, None),
    ("MCU active base", MCU_ACTIVE_BASE_MA, None),
    ("Capacitor leakage", LEAKAGE_BY_CAPACITANCE[5.0], None),
]
print("component bench table")
print(f"{'component':<26} {'mA':>9} {'s':>9}")
for label, current_ma, duration_s in rows:
    duration = f"{duration_s:g}" if duration_s is not None else "-"
    print(f"{label:<26} {current_ma:>9.5f} {duration:>9}")

print()
print("composed task stacks per leakage figure")
print(f"{'task':<18} {'10 uA':>9} {'16 uA':>9} {'30 uA':>9} {'energy mJ @30uA':>16}")
for name, spec in TASKS.items():
    currents = [compose_task_current(name, leak) for leak in (0.010, 0.016, 0.030)]
    if spec.duration_s:
        energy = f"{task_energy(currents[2], spec.duration_s, 3.3):.4g}"
    else:
        energy = "-"
    print(f"{name:<18} {currents[0]:>9.5f} {currents[1]:>9.5f} {currents[2]:>9.5f} {energy:>16}")
