"""Host-speed calibration: a fixed task that never changes.

Run in a fresh interpreter by perfbench/run.py before and after every timed
workload run. Its wall time measures how fast the host runs Python at that
moment, and the end-to-end times are scaled by it to the reference host (see
CALIB_REF_S in run.py). The task imports numpy and mixes what captrack's
commands spend their time on: an interpreted loop of float arithmetic with
branches, as in the engine's tick loop; formatting CSV rows, as in the
export; and vectorised numpy work, as in trace parsing and synthesis.

It imports nothing from captrack, so a change to captrack cannot change it.
Changing this file changes every scaled time: keep it as it is.
"""

import numpy as np

LOOP_STEPS = 300_000
ARRAY_SIZE = 1_000_000


def main() -> float:
    voltage = 2.5
    energy = 0.0
    rows = []
    for step in range(LOOP_STEPS):
        current = 1e-3 * ((step % 97) - 48)
        voltage += current * 0.024
        if voltage < 1.8:
            voltage = 1.8
        elif voltage > 5.0:
            voltage = 5.0
        energy += voltage * current * 60.0
        if step % 3 == 0:
            rows.append(f"{step * 60},{voltage:.6f},{current:.6g},{energy:.9g},")
    text = "\n".join(rows)
    samples = np.random.default_rng(0).random(ARRAY_SIZE)
    trace = np.cumsum(np.sin(samples) * 2.0)
    trace.sort()
    return len(text) + float(trace[-1])


if __name__ == "__main__":
    main()
