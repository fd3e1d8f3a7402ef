#!/usr/bin/env python3
"""Compare two sets of e2ebench runs, or summarize one.

Each input file holds the stdout of any number of `run.py` invocations
(the {"record": ...} lines are used, everything else is skipped):

    for s in 1 2 3 4 5 6 7 8 9 10; do
      python3 e2ebench/run.py --workload q1_steady --seed $s --seconds 20 \
          --trace 0 >> parent.jsonl
    done
    python3 e2ebench/compare.py parent.jsonl            # spread of one set
    python3 e2ebench/compare.py parent.jsonl change.jsonl

For every workload x end-to-end metric it prints each side's median and
quartiles, the spread (interquartile distance / median), the share of
pairs the change wins (pairs in run order; run the two sides alternately),
and a verdict by the gain rule of the choosing-metrics guide, section 8:

  gain          the change wins >= 9/10 of the pairs (ties count for
                neither) and the medians differ by more than the parent's
                own interquartile distance
  worse         the change's median is worse than the parent's by more
                than the metric's bound (BENCHMARK.json)
  unresolved    either side's spread exceeds the bound, unless every run
                of the change beats every run of the parent
  no change     otherwise
"""
import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load_records(path):
    out = {}
    with open(path) as f:
        for line in f:
            line = line.strip()
            if not line.startswith("{"):
                continue
            try:
                obj = json.loads(line)
            except ValueError:
                continue
            rec = obj.get("record")
            if rec is None or rec["provenance"].get("trace"):
                continue
            out.setdefault(rec["provenance"]["workload"], []).append(rec)
    return out


def load_spec(path):
    with open(path) as f:
        spec = json.load(f)
    return {m["name"]: m for m in spec["end_to_end"]}


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def better(a, b, direction):
    """True if value a is better than value b."""
    return a < b if direction == "lower" else a > b


def verdict(parent, change, metric):
    bound = metric.get("bound", 0.0)
    direction = metric["better"]
    pq1, pmed, pq3 = quartiles(parent)
    cq1, cmed, cq3 = quartiles(change)
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if better(c, p, direction))
    win_share = wins / len(pairs) if pairs else 0.0
    spread_p = (pq3 - pq1) / pmed if pmed else 0.0
    spread_c = (cq3 - cq1) / cmed if cmed else 0.0
    worse_by = ((cmed - pmed) if direction == "lower" else (pmed - cmed))
    worse_share = worse_by / pmed if pmed else 0.0
    all_better = all(better(c, p, direction) for c in change for p in parent)
    if win_share >= 0.9 and abs(cmed - pmed) > (pq3 - pq1):
        v = "gain"
    elif (spread_p > bound or spread_c > bound) and not all_better:
        v = "unresolved"
    elif worse_share > bound:
        v = "worse"
    else:
        v = "no change"
    return win_share, spread_p, spread_c, v


def fmt(x):
    return f"{x:.4g}"


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("parent")
    ap.add_argument("change", nargs="?")
    ap.add_argument("--spec", default=os.path.join(os.path.dirname(HERE),
                                                   "BENCHMARK.json"))
    args = ap.parse_args()
    spec = load_spec(args.spec)
    parent = load_records(args.parent)
    change = load_records(args.change) if args.change else None
    for workload in sorted(parent):
        runs_p = parent[workload]
        print(f"== {workload}: {len(runs_p)} parent runs"
              + (f", {len(change.get(workload, []))} change runs"
                 if change is not None else ""))
        for name, metric in spec.items():
            vp = [r["metrics"][name]["value"] for r in runs_p
                  if name in r["metrics"]]
            if not vp:
                continue
            q1, med, q3 = quartiles(vp)
            spread = (q3 - q1) / med if med else 0.0
            line = (f"  {name:14s} [{metric['unit']}] parent median "
                    f"{fmt(med)} q1 {fmt(q1)} q3 {fmt(q3)} spread "
                    f"{spread:.3f} (bound {metric['bound']})")
            if change is not None:
                vc = [r["metrics"][name]["value"]
                      for r in change.get(workload, [])
                      if name in r["metrics"]]
                if not vc:
                    print(line + "  change: no runs")
                    continue
                cq1, cmed, cq3 = quartiles(vc)
                win, _, spread_c, v = verdict(vp, vc, metric)
                line += (f" | change median {fmt(cmed)} q1 {fmt(cq1)} q3 "
                         f"{fmt(cq3)} spread {spread_c:.3f} wins "
                         f"{win:.0%} -> {v}")
            elif name != "setup_s" and spread > metric["bound"] / 3:
                line += "  <- spread above a third of the bound"
            print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
