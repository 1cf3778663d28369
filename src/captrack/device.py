"""Device rules: GPS mode selection, the task schedule, the upload payload.

The device sleeps between ticks and wakes for three periodic activities:
voltage sensing, GPS fixes (with attached Coulomb-counter read and position
write), and bulk NB-IoT uploads. Which GPS start mode a fix uses depends on
how stale the ephemeris is and whether the backup domain survived since the
last fix; fixes and uploads are gated on a minimum capacitor voltage, the
threshold that energy_model.ACTIVITIES names for each, read at run time.
"""

from __future__ import annotations

import numpy as np

from .energy_model import ACTIVITIES, FIX, SENSE, TRANSMIT, SystemConfig

# One buffered sample on the wire: 12 bytes of position (8 lon/lat + 4 GPS
# time) and the 4-byte Coulomb-counter reading.
SAMPLE_BYTES = 16


def select_gps_mode(age_s: int | None, voltage: float, config: SystemConfig) -> str | None:
    """Pick the fix kind (an ACTIVITIES key) for a due fix, or None to skip
    it on low voltage.

    age_s is the ephemeris age, None once the backup domain (RTC + backup
    RAM) has lost power. The age alone picks the candidates, stale to fresh:
    cold when the backup domain is gone or the ephemeris is older than the
    warm limit; warm (always with a download) in between; hot within the hot
    limit, tried with a download first once the age passes the refresh age.
    The first candidate whose ACTIVITIES gate the voltage meets runs.
    """
    if age_s is None or age_s > config.ephemeris_warm_limit_s:
        candidates = ("FixCold",)
    elif age_s > config.ephemeris_hot_limit_s:
        candidates = ("FixWarmEph",)
    elif age_s >= config.ephemeris_refresh_age_s:
        candidates = ("FixHotEph", "FixHot")
    else:
        candidates = ("FixHot",)
    thresholds = config.thresholds
    for kind in candidates:
        if voltage >= getattr(thresholds, ACTIVITIES[kind].gate):
            return kind
    return None


def due_codes(clock0: int, n_ticks: int, config: SystemConfig) -> np.ndarray:
    """What is due in each of n_ticks consecutive ticks from clock0, as the
    OR of the SENSE, FIX and TRANSMIT bits (0: nothing due). Disabled
    intervals (None) never fire; everything fires at clock 0."""
    clock = clock0 + np.arange(n_ticks, dtype=np.int64) * config.base_tick_s
    code = np.zeros(n_ticks, dtype=np.int64)
    for bit, interval in (
        (SENSE, config.sense_interval_s), (FIX, config.fix_interval_s), (TRANSMIT, config.transmit_interval_s),
    ):
        if interval is not None:
            code[clock % interval == 0] |= bit
    return code


# The upload whose bench-measured duration is TASKS["NbIot"].duration_s;
# payload-scaled uploads last in proportion to their size over this one.
REFERENCE_PAYLOAD_BYTES = 30 * SAMPLE_BYTES


def payload_bytes(samples: int) -> int:
    """Upload size for a buffer of samples; 16 bytes each."""
    if samples < 0:
        raise ValueError(f"sample count must be >= 0, got {samples}")
    return SAMPLE_BYTES * samples
