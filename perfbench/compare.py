"""Summarize benchmark result files, or compare two sets of them.

    python3 perfbench/compare.py DIR                 # medians and spreads
    python3 perfbench/compare.py BASE_DIR NEW_DIR    # NEW against BASE

A directory holds the ``<workload>-seed<n>-trace0.json`` files that
``run.py`` writes to ``perfbench/out/`` (copy that directory aside between
the two commits).  For each workload and end-to-end metric it prints the
median over seeds, the spread (distance between the first and third
quartile, as a share of the median) and, when comparing, the change of the
median against the metric's bound from BENCHMARK.json.  Runs made on
different arithmetic backends are never compared: the command refuses and
exits with code 2.
"""

from __future__ import annotations

import glob
import json
import os
import statistics
import sys
from collections import defaultdict

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(directory):
    """{workload: {metric: [values]}} and the set of backends seen."""
    values = defaultdict(lambda: defaultdict(list))
    backends = set()
    for path in sorted(glob.glob(os.path.join(directory, "*-trace0.json"))):
        with open(path) as fh:
            record = json.load(fh)
        backends.add(record["env"]["backend"])
        for metric, entry in record["metrics"].items():
            values[record["env"]["workload"]][metric].append(entry["value"])
    return values, backends


def spread(vals):
    if len(vals) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(vals, n=4)
    return (q3 - q1) / statistics.median(vals)


def main(argv) -> int:
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    sets = [load(d) for d in argv]
    backends = set().union(*(b for _, b in sets))
    if len(backends) > 1:
        print(f"refusing to compare runs made on different backends: {sorted(backends)}",
              file=sys.stderr)
        return 2
    bounds = {}
    bench = os.path.join(ROOT, "BENCHMARK.json")
    if os.path.isfile(bench):
        with open(bench) as fh:
            bounds = {m["name"]: m["bound"] for m in json.load(fh)["end_to_end"]}

    base = sets[0][0]
    new = sets[-1][0] if len(sets) == 2 else None
    print(f"backend: {', '.join(sorted(backends)) or 'none'}")
    worse = 0
    for workload in sorted(base):
        for metric in sorted(base[workload]):
            b = base[workload][metric]
            line = (f"{workload:<20}{metric:<13} n={len(b):<3} median={statistics.median(b):<10.4f}"
                    f" spread={spread(b):.3f}")
            if new is not None:
                n = new.get(workload, {}).get(metric)
                if not n:
                    line += "  (missing in NEW)"
                else:
                    change = statistics.median(n) / statistics.median(b) - 1
                    bound = bounds.get(metric)
                    flag = ""
                    if bound is not None and change > bound:
                        flag = "  WORSE than bound"
                        worse += 1
                    line += (f"  new median={statistics.median(n):.4f} spread={spread(n):.3f}"
                             f" change={change:+.3f}{flag}")
            print(line)
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
