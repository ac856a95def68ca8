"""Run one bench suite, print its table and gates, write its JSON.

::

    PYTHONPATH=src:. python -m benchmarks.suites SUITE [--quick] [--save PATH]

Each suite module exports ``run(quick) -> dict``, ``rows(result)``, the
table's ``COLUMNS`` as (header, cell) pairs, and its ``GATES`` as
(name, check) pairs; a gate's name is the dotted path of the result
field it reads.  The runner exits 1, naming every failing gate, if any
check fails.  Gates apply in quick and full mode alike: ``--quick``
only shrinks the round count, the faults matrix and the detect-scale
stream.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import sys

from benchmarks.conftest import fmt_table

SUITES = ("vm", "detect", "detect-scale", "obs", "faults", "store")


def load(suite: str):
    return importlib.import_module(
        f"benchmarks.suites.{suite.replace('-', '_')}"
    )


def field(result: dict, path: str):
    for key in path.split("."):
        result = result[key]
    return result


def check_gates(module, result: dict) -> list[str]:
    """Print one line per gate; return the names of the failing ones."""
    failed = []
    for name, check in module.GATES:
        ok = check(result)
        print(f"{'ok  ' if ok else 'FAIL'} {name} = {field(result, name)}")
        if not ok:
            failed.append(name)
    return failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.suites", description=__doc__.split("\n")[0]
    )
    parser.add_argument("suite", choices=SUITES)
    parser.add_argument(
        "--quick", action="store_true",
        help="the CI size: fewer rounds, the reduced faults matrix and "
             "a 2M-event detect-scale stream",
    )
    parser.add_argument(
        "--save", metavar="PATH", default=None,
        help="JSON result path (default: BENCH_<suite>.json)",
    )
    args = parser.parse_args(argv)
    module = load(args.suite)
    result = module.run(args.quick)
    result.update(
        bench=args.suite,
        quick=args.quick,
        ru_maxrss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    )
    print(fmt_table(
        [header for header, _ in module.COLUMNS],
        [[cell(row) for _, cell in module.COLUMNS]
         for row in module.rows(result)],
    ))
    save = args.save or f"BENCH_{args.suite}.json"
    with open(save, "w", encoding="utf-8") as handle:
        json.dump(result, handle, indent=1)
    print(f"; saved {save}", file=sys.stderr)
    return 1 if check_gates(module, result) else 0


if __name__ == "__main__":
    sys.exit(main())
