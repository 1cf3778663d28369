"""Set-up probe: what every captrack command pays before any trace work.

Run in a fresh interpreter by perfbench/run.py, which times the whole
process. It imports captrack.cli, then loads and validates the workload's
configuration the way the command would:

    probe.py simulate CONFIG.yaml      load_config (parse + validate)
    probe.py sweep SPEC.yaml           load_sweep_spec + validate every cell
    probe.py parse ARGS... -- ARGS...  parse each generator command line

It prints the path of the captrack package it imported, so the caller can
check that the benchmark measured the checkout's own sources.
"""

import sys

import captrack
import captrack.cli as cli


def main(argv: list[str]) -> int:
    kind, rest = argv[0], argv[1:]
    if kind == "simulate":
        cli.load_config(rest[0])
    elif kind == "sweep":
        cli.load_sweep_spec(rest[0]).combinations()
    elif kind == "parse":
        cut = rest.index("--")
        parser = cli.build_parser()
        for args in (rest[:cut], rest[cut + 1:]):
            parser.parse_args(args)
    else:
        raise SystemExit(f"unknown probe kind {kind!r}")
    print(captrack.__file__)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
