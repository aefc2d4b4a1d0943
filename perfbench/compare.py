#!/usr/bin/env python3
"""Compare two sets of benchmark records, metric by metric.

    python3 perfbench/compare.py BASE_DIR HEAD_DIR

Each directory holds run records (the `<workload>-seed<n>-trace0.json`
files that perfbench/run.py writes under perfbench/_work/), for example
from ten seeds on the parent commit and ten on the change.  For every
workload and end-to-end metric it prints both medians, the change as a
share of the base median, and the base's own spread (quartile distance over
median), against the bound in BENCHMARK.json.

Records from different scalar backends are never compared: the command
refuses with exit code 2.  Exit code 1 means some metric got worse by more
than its bound; 0 means none did.
"""

import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(directory):
    records = [json.loads(p.read_text(encoding="utf-8"))
               for p in sorted(Path(directory).glob("*-trace0.json"))]
    if not records:
        raise SystemExit(f"error: no *-trace0.json records in {directory}")
    return records


def spread(values):
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv):
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, head = load(argv[0]), load(argv[1])
    backends = {r["env"]["backend"] for r in base + head}
    if len(backends) != 1:
        print(f"error: records come from different scalar backends {sorted(backends)}; "
              "numbers from different backends are never compared", file=sys.stderr)
        return 2
    spec = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    worse = False
    print(f"backend {backends.pop()}")
    for workload in sorted({r["workload"] for r in base} & {r["workload"] for r in head}):
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            b = [r["metrics"][name]["value"] for r in base if r["workload"] == workload]
            h = [r["metrics"][name]["value"] for r in head if r["workload"] == workload]
            mb, mh = statistics.median(b), statistics.median(h)
            change = (mh - mb) / mb
            loss = -change if metric["better"] == "higher" else change
            verdict = "ok"
            if loss > bound:
                verdict, worse = "WORSE", True
            elif spread(b) > bound:
                verdict = "unresolved"
            print(f"{workload:12} {name:12} base {mb:12.4f} (n={len(b)}, spread {spread(b):.3f}) "
                  f"head {mh:12.4f} (n={len(h)})  change {change:+.3f}  bound {bound}  {verdict}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
