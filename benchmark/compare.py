#!/usr/bin/env python3
"""Compare benchmark runs of a parent commit and a change.

    compare.py PARENT_DIR CHANGE_DIR [--benchmark BENCHMARK.json]

Each directory holds the run reports that `benchmark/run.sh --out DIR`
writes (`<workload>-seed<N>.json`; traced reports are ignored). Runs
of the two sides are paired by workload and seed. For every
(end-to-end metric, workload) pair the comparison reports each
side's median and quartiles, the share of pairs the change wins
(ties count for neither), and a verdict:

  improved    the change wins at least 9 of 10 pairs and the medians
              differ by more than the parent's interquartile range
  regressed   the change's median is worse than the parent's by more
              than the metric's bound
  unresolved  the parent's own spread (IQR / median) is wider than the
              bound, and not every change run beats every parent run
  unchanged   otherwise

It also compares the failed share (failed / attempted) per workload.
Runs from hosts with a different CPU count or CPU model are refused.
Exit status: 0 when nothing regressed, 1 otherwise, 2 on bad input.
"""

import argparse
import glob
import json
import os
import statistics
import sys


def load(directory):
    runs = {}
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        if path.endswith(".trace.json"):
            continue
        with open(path) as f:
            report = json.load(f)
        if report.get("trace") or "result" not in report:
            continue
        runs[(report["workload"], report["seed"])] = report
    return runs


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(metric, parent, change, pairs):
    lower_better = metric["better"] == "lower"
    bound = metric["bound"]

    def better(a, b):
        return a < b if lower_better else a > b

    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    wins = sum(1 for p, c in pairs if better(c, p))
    share = wins / len(pairs) if pairs else 0.0
    worse_by = (cm - pm) / pm if lower_better else (pm - cm) / pm
    spread = (p3 - p1) / pm if pm else float("inf")
    if worse_by > bound:
        word = "regressed"
    elif share >= 0.9 and abs(cm - pm) > (p3 - p1) and better(cm, pm):
        word = "improved"
    elif spread > bound and not all(better(c, p) for c in change
                                    for p in parent):
        word = "unresolved"
    else:
        word = "unchanged"
    return {"parent": (p1, pm, p3), "change": (c1, cm, c3),
            "wins": wins, "pairs": len(pairs), "worse_by": worse_by,
            "spread": spread, "verdict": word}


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--benchmark",
                        default=os.path.join(here, "..", "BENCHMARK.json"))
    args = parser.parse_args()
    with open(args.benchmark) as f:
        spec = json.load(f)
    parent, change = load(args.parent), load(args.change)
    if not parent or not change:
        print("no untraced run reports in one of the directories")
        return 2

    hosts = {(r["info"].get("host_nproc"), r["info"].get("host_cpu"))
             for r in list(parent.values()) + list(change.values())}
    if len(hosts) != 1:
        print(f"refusing to compare runs from different hosts: {hosts}")
        return 2

    print(f"host: nproc={next(iter(hosts))[0]} cpu={next(iter(hosts))[1]}")
    header = (f"{'workload':10} {'metric':17} {'parent q1/med/q3':>30} "
              f"{'change q1/med/q3':>30} {'wins':>6} {'worse':>7} "
              f"{'spread':>7} {'bound':>5}  verdict")
    print(header)
    print("-" * len(header))
    regressed = False
    for workload in [w["name"] for w in spec["workloads"]]:
        seeds_p = {s for (w, s) in parent if w == workload}
        seeds_c = {s for (w, s) in change if w == workload}
        if not seeds_p or not seeds_c:
            print(f"{workload:10} (no runs on one side)")
            continue
        common = sorted(seeds_p & seeds_c)
        for metric in spec["end_to_end"]:
            name = metric["name"]
            pv = [parent[(workload, s)]["result"]["metrics"][name]["value"]
                  for s in sorted(seeds_p)]
            cv = [change[(workload, s)]["result"]["metrics"][name]["value"]
                  for s in sorted(seeds_c)]
            pairs = [(parent[(workload, s)]["result"]["metrics"][name]
                      ["value"],
                      change[(workload, s)]["result"]["metrics"][name]
                      ["value"]) for s in common]
            v = verdict(metric, pv, cv, pairs)
            regressed |= v["verdict"] == "regressed"
            fmt = "{:9.4g}/{:9.4g}/{:9.4g}"
            print(f"{workload:10} {name:17} {fmt.format(*v['parent']):>30} "
                  f"{fmt.format(*v['change']):>30} "
                  f"{v['wins']:>2}/{v['pairs']:<3} {v['worse_by']:>+7.3f} "
                  f"{v['spread']:>7.3f} {metric['bound']:>5}  {v['verdict']}")

        def failed_share(runs, seeds):
            failed = sum(runs[(workload, s)]["result"]["failed"]
                         for s in seeds)
            attempted = sum(runs[(workload, s)]["result"]["attempted"]
                            for s in seeds)
            return failed / attempted, failed, attempted

        pf = failed_share(parent, seeds_p)
        cf = failed_share(change, seeds_c)
        grew = cf[0] > pf[0]
        regressed |= grew
        print(f"{workload:10} {'failed share':17} "
              f"{pf[0]:>12.3g} ({pf[1]}/{pf[2]}) -> {cf[0]:.3g} "
              f"({cf[1]}/{cf[2]})  {'grew' if grew else 'not grown'}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
