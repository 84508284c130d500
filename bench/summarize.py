#!/usr/bin/env python3
"""Fold the run records in .bench_out/ into one trajectory point.

    python3 bench/summarize.py bench/results/<label>.json

For every workload it reports each metric's median and quartiles over the
records found (one per seed), the failures by reason summed over them, and
the provenance of the runs.  Records of --trace 0 runs give the end-to-end
metrics, those of --trace 1 runs the per-layer metrics.
"""

import json
import statistics
import sys
from collections import Counter, defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def spread(values):
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0], "runs": 1}
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "runs": len(values)}


def main(out_path):
    records = [json.loads(p.read_text()) for p in sorted((ROOT / ".bench_out").glob("result-*.json"))]
    if not records:
        sys.exit("no run records under .bench_out/")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    whys = {w["name"]: w["why"] for w in spec["workloads"]}
    grouped = defaultdict(list)
    for r in records:
        grouped[(r["workload"], r["trace"])].append(r)
    workloads = {}
    for (name, trace), runs in sorted(grouped.items()):
        entry = workloads.setdefault(name, {"why": whys[name]})
        values, units = defaultdict(list), {}
        for r in runs:
            for metric, m in r["metrics"].items():
                values[metric].append(m["value"])
                units[metric] = m["unit"]
        metrics = {metric: {"unit": units[metric], **spread(v)} for metric, v in values.items()}
        reasons = Counter()
        by_label = defaultdict(Counter)
        for r in runs:
            reasons.update(r["fail_reasons"])
            for label, counts in r["fail_by_label"].items():
                by_label[label].update(counts)
        entry["per_layer" if trace else "end_to_end"] = {
            "seeds": sorted(r["provenance"]["seed"] for r in runs),
            "seconds": runs[0]["seconds"],
            "metrics": metrics,
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "fail_reasons": dict(reasons),
            "fail_by_label": {label: dict(c) for label, c in sorted(by_label.items())},
        }
        if not trace:
            entry["end_to_end"]["tail_percentile"] = runs[0]["tail_percentile"]
            entry["end_to_end"]["fail_examples"] = runs[0]["fail_examples"]
    provenance = dict(records[0]["provenance"])
    provenance.pop("seed")
    point = {"provenance": provenance, "tolerance": records[0]["tolerance"], "workloads": workloads}
    Path(out_path).write_text(json.dumps(point, indent=2) + "\n", encoding="utf-8")


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    main(sys.argv[1])
