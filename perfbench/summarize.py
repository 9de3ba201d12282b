"""Summarise a directory of benchmark results: median and quartiles per metric.

    python3 perfbench/summarize.py perfbench/results

Reads the ``<workload>-seed<n>-trace<t>.json`` records ``run.py`` writes and
prints one JSON object: per workload and metric, the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the quartile spread as a share of
the median; for traced runs, the median of each per-layer value.  It also
lists every deadline miss by workload and check.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path


def summarize(directory: Path) -> dict:
    values: dict[tuple, dict[str, list[float]]] = defaultdict(lambda: defaultdict(list))
    seeds: dict[tuple, list[int]] = defaultdict(list)
    misses: dict[str, set[str]] = defaultdict(set)
    machine = set()
    for path in sorted(directory.glob("*-seed*-trace*.json")):
        rec = json.loads(path.read_text())
        key = (rec["workload"], rec["trace"])
        seeds[key].append(rec["seed"])
        machine.add((rec["nproc"], rec["python"], rec["numpy"]))
        for name, metric in rec["result"]["metrics"].items():
            values[key][name].append(metric["value"])
        for miss in rec["deadline_misses"]:
            misses[rec["workload"]].add(miss.split(":", 1)[1])
    out: dict = {"machine": sorted(machine), "end_to_end": {}, "per_layer": {}, "deadline_misses": {}}
    for (workload, trace), metrics in sorted(values.items()):
        table = {}
        for name, vals in metrics.items():
            med = statistics.median(vals)
            if trace:
                table[name] = {"median": med}
                continue
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
            table[name] = {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0}
        section = "per_layer" if trace else "end_to_end"
        out[section][workload] = {"seeds": sorted(seeds[(workload, trace)]), "metrics": table}
    out["deadline_misses"] = {w: sorted(m) for w, m in sorted(misses.items())}
    return out


if __name__ == "__main__":
    print(json.dumps(summarize(Path(sys.argv[1])), indent=1))
