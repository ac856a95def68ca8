"""Do two sets of e2e results agree within the benchmark's own bounds?

    PYTHONPATH=src:. python -m benchmarks.e2e.agree A.json B.json
    PYTHONPATH=src:. python -m benchmarks.e2e.agree A1.json A2.json B1.json B2.json

Each file is a ``benchmarks.e2e`` result (``out/BENCH_e2e.json`` or a
``--out`` file); the first half of the files is side A, the second half
side B.  A side with several files stands for their per-metric median,
which rides out host drift that a single run cannot.  For
every workload and end-to-end metric present on both sides, prints the
relative difference of the medians, ``|B - A| / A``, against the
metric's bound in ``BENCHMARK.json``.  Exits 1 if any difference
exceeds its bound (a bound of 0.001 means "exact" for the deterministic
metrics).  Metrics without a bound (per-layer) are not compared.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys

from benchmarks.e2e.spec import load_catalogue


def medians(docs) -> dict:
    """{workload: {metric: median over the documents' medians}}."""
    values: dict = {}
    for doc in docs:
        for workload, result in doc["workloads"].items():
            for name, metric in result["metrics"].items():
                values.setdefault(workload, {}).setdefault(name, []).append(
                    metric["median"]
                )
    return {
        workload: {name: statistics.median(v) for name, v in metrics.items()}
        for workload, metrics in values.items()
    }


def compare(a: dict, b: dict, bounds: dict) -> tuple:
    """(report lines, number of excesses) for two :func:`medians`."""
    lines = [f"{'workload':<16}{'metric':<24}{'A':>13}{'B':>13}"
             f"{'diff':>9}{'bound':>8}"]
    excess = 0
    for workload, metrics_a in a.items():
        metrics_b = b.get(workload, {})
        for name, bound in bounds.items():
            if name not in metrics_a or name not in metrics_b:
                continue
            med_a, med_b = metrics_a[name], metrics_b[name]
            diff = abs(med_b - med_a) / abs(med_a) if med_a else (
                0.0 if med_b == med_a else float("inf")
            )
            over = diff > bound
            excess += over
            lines.append(
                f"{workload:<16}{name:<24}{med_a:>13.6g}{med_b:>13.6g}"
                f"{diff:>9.2%}{bound:>8.1%}" + ("  EXCESS" if over else "")
            )
    return lines, excess


def _load(paths) -> list:
    docs = []
    for path in paths:
        with open(path, encoding="utf-8") as handle:
            docs.append(json.load(handle))
    return docs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("files", nargs="+",
                        help="side A's files, then as many of side B's")
    args = parser.parse_args(argv)
    half, odd = divmod(len(args.files), 2)
    if odd or not half:
        parser.error("give the same number of files for each side")
    side_a, side_b = args.files[:half], args.files[half:]
    bounds = {m["name"]: m["bound"] for m in load_catalogue()["end_to_end"]}
    lines, excess = compare(
        medians(_load(side_a)), medians(_load(side_b)), bounds
    )
    print("\n".join(lines))
    print(f"{excess} metric(s) outside their bound")
    return 1 if excess else 0


if __name__ == "__main__":
    sys.exit(main())
