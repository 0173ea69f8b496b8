"""Summarize untraced run records into per-workload medians and spreads.

    python3 perfbench/summarize.py [.bench_out] > summary.json

Reads every ``BENCH_<workload>_seed<n>_trace0.json`` in the directory and
prints, for each workload and end-to-end metric, the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the spread, which is the distance
between the quartiles as a share of the median. ``baseline.json`` was made
this way.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path


def summarize(records: list[dict]) -> dict:
    by_workload: dict[str, dict[str, list[float]]] = {}
    seeds: dict[str, list[int]] = {}
    for record in records:
        metrics = by_workload.setdefault(record["workload"], {})
        seeds.setdefault(record["workload"], []).append(record["seed"])
        for name, metric in record["metrics"].items():
            metrics.setdefault(name, []).append(metric["value"])
    summary = {}
    for workload, metrics in sorted(by_workload.items()):
        rows = {}
        for name, values in metrics.items():
            q1, median, q3 = statistics.quantiles(values, n=4)
            rows[name] = {"median": statistics.median(values), "q1": q1, "q3": q3,
                          "spread": (q3 - q1) / statistics.median(values),
                          "runs": len(values)}
        summary[workload] = {"seeds": sorted(seeds[workload]), "metrics": rows}
    return summary


def main() -> int:
    directory = Path(sys.argv[1] if len(sys.argv) > 1 else ".bench_out")
    records = [json.loads(path.read_text(encoding="utf-8"))
               for path in sorted(directory.glob("BENCH_*_trace0.json"))]
    if len(records) < 2:
        print(f"summarize: need at least two run records in {directory}", file=sys.stderr)
        return 1
    print(json.dumps(summarize(records), indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
