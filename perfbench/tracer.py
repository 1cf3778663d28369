"""Traced run of one captrack CLI command.

    python3 perfbench/tracer.py SPANS.json CLI-ARGS...

Records a span (name, start, end, parent) around each call into a layer, by
replacing the module-level names that the calling module looks up at call
time; captrack's sources are not changed. Functions called once per segment
or per fix are counted instead of timed, so that tracing stays cheap. Spans
and counts are kept in memory and written to SPANS.json when the command
ends.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter

import captrack.cli as cli
import captrack.configfile as configfile
import captrack.engine as engine

# (module, attribute looked up by that module, span name)
SPANS = [
    (cli, "load_config", "configfile.load"),
    (cli, "load_sweep_spec", "configfile.load"),
    (cli, "validate_config", "energy_model.validate"),
    (configfile, "validate_config", "energy_model.validate"),
    (engine, "validate_config", "energy_model.validate"),
    (cli, "load_harvest_csv", "harvest.load_csv"),
    (cli, "load_irradiance_csv", "harvest.load_csv"),
    (cli, "generate_synthetic_irradiance", "harvest.synth_solar"),
    (cli, "generate_kinetic_trace", "harvest.synth_kinetic"),
    (cli, "save_irradiance_csv", "harvest.save_csv"),
    (cli, "save_harvest_csv", "harvest.save_csv"),
    (cli, "run_simulation", "engine.run"),
    (engine, "compute_metrics", "engine.metrics"),
    (cli, "export_timeseries", "engine.export"),
]

# (module, attribute, counter name): hot calls, counted only.
COUNTS = [
    (engine, "integrate_segment", "capacitor.integrate_segment"),
    (engine, "select_gps_mode", "device.select_gps_mode"),
]


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.stack: list[int] = []
        self.counts: Counter = Counter()

    def span(self, name: str, fn):
        def traced(*args, **kwargs):
            record = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1]
            self.stack.append(len(self.spans))
            self.spans.append(record)
            self.counts[name] += 1
            record[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                self.stack.pop()
        return traced

    def count(self, name: str, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return counted


def main(argv: list[str]) -> int:
    out_path, args = argv[0], argv[1:]
    tracer = Tracer()
    for module, attr, name in SPANS:
        setattr(module, attr, tracer.span(name, getattr(module, attr)))
    for module, attr, name in COUNTS:
        setattr(module, attr, tracer.count(name, getattr(module, attr)))
    try:
        code = tracer.span("cli.main", cli.main)(args)
    finally:
        with open(out_path, "w") as handle:
            json.dump({"args": args, "spans": tracer.spans, "counts": tracer.counts}, handle)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
