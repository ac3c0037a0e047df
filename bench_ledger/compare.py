#!/usr/bin/env python3
"""Compares bench_ledger results of a parent commit and a change.

    compare.py RUNS                 # one set: medians, quartiles, spreads
    compare.py BASE CHANGE          # two sets: per-metric verdicts

RUNS, BASE and CHANGE are directories searched recursively for the
<workload>.json files `run.sh --out DIR` writes (traced results are
skipped). Runs pair up in path order: run the two sides alternately into
numbered directories (base/01, change/01, change/02, base/02, ...).

Every end-to-end metric a result holds is compared. The gated ones, the
end_to_end list of BENCHMARK.json, use the bound recorded there. The rest
(latencies, rates, restart times) use max(3 %, 2 x the parent's quartile
spread), capped at 10 %.

For each (workload, metric) the comparison prints both sides' median and
quartiles, the gain (change median against parent median, positive when
better), the fraction of pairs the change won (ties count for neither
side), the bound and a verdict:

  improved    the change won >= 9/10 of at least ten pairs, its median is
              better by more than the parent's quartile distance, and no
              more ops failed than at the parent;
  regressed   the change's median is worse than the parent's by more than
              the bound;
  unresolved  the parent's own spread (quartile distance over median) is
              wider than the bound and not every change run beat every
              parent run -- or a gain was seen on fewer than ten pairs;
  unchanged   otherwise.

A pair whose parent spread exceeds 10 % can therefore never read
`unchanged`: on this kind of host that is where CPU-bound latencies sit.

Exit status: 1 when a metric regressed or a run failed its output checks.
"""
import argparse
import json
import pathlib
import statistics
import sys

# Direction of the ungated metrics; every other one is better lower.
HIGHER_IS_BETTER = {"ops_per_s", "user_mb_per_s"}
MIN_BOUND, MAX_BOUND = 0.03, 0.10


def load_runs(root):
    """{workload: [result, ...]} in path order, end-to-end results only."""
    runs = {}
    paths = sorted(pathlib.Path(root).rglob("*.json"))
    for path in paths:
        if path.name.endswith(".traced.json"):
            continue
        try:
            result = json.loads(path.read_text())
        except (OSError, ValueError):
            continue
        if not isinstance(result, dict) or result.get("trace") != 0:
            continue
        if "workload" not in result or "metrics" not in result:
            continue
        runs.setdefault(result["workload"], []).append(result)
    if not runs:
        sys.exit(f"compare.py: no bench_ledger results under {root}")
    return runs


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def spread_of(values):
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / med if med else float("inf")


def values_of(runs, metric):
    return [r["metrics"][metric]["value"] for r in runs if metric in r["metrics"]]


def metric_names(runs, gated):
    """Gated metrics first, in BENCHMARK.json order, then the rest sorted."""
    seen = {name for rs in runs.values() for r in rs for name in r["metrics"]}
    return [m for m in gated if m in seen] + sorted(seen - set(gated))


def bound_for(metric, gated, base):
    if metric in gated:
        return gated[metric]["bound"]
    return min(MAX_BOUND, max(MIN_BOUND, 2 * spread_of(base)))


def check_correct(label, runs):
    bad = [r for rs in runs.values() for r in rs if not r.get("correct")]
    for r in bad:
        print(f"{label}: {r['workload']} seed {r.get('seed')} failed its "
              f"output checks: {'; '.join(r.get('errors', [])) or 'failed ops'}")
    return not bad


def summarize(runs, gated):
    print(f"{'workload':12} {'metric':28} {'unit':8} {'runs':>4} "
          f"{'median':>12} {'q1':>12} {'q3':>12} {'spread':>7} {'bound':>6}")
    for workload in sorted(runs):
        for name in metric_names(runs, gated):
            v = values_of(runs[workload], name)
            if not v:
                continue
            q1, med, q3 = quartiles(v)
            bound = bound_for(name, gated, v)
            spread = spread_of(v)
            flag = "  > bound/3" if name in gated and spread > bound / 3 else ""
            unit = next(r["metrics"][name]["unit"] for r in runs[workload]
                        if name in r["metrics"])
            mark = "*" if name in gated else " "
            print(f"{workload:12} {name + mark:28} {unit:8} {len(v):4} "
                  f"{med:12.6g} {q1:12.6g} {q3:12.6g} {spread:7.2%} "
                  f"{bound:6.0%}{flag}")
    print("* gated by BENCHMARK.json; the other bounds follow these runs' "
          "own spread")


def verdict(base, change, lower, bound, base_failed, change_failed):
    q1b, medb, q3b = quartiles(base)
    _, medc, _ = quartiles(change)
    pairs = list(zip(base, change))
    wins = sum(1 for b, c in pairs if (c < b if lower else c > b))
    won = wins / len(pairs)
    worse = ((medc - medb) if lower else (medb - medc)) / medb
    all_better = (max(change) < min(base)) if lower else (min(change) > max(base))
    gain = (won >= 0.9 and worse < 0 and abs(medc - medb) > q3b - q1b
            and change_failed <= base_failed)
    if gain and len(pairs) >= 10:
        return "improved", won, worse
    if worse > bound:
        return "regressed", won, worse
    if gain or (spread_of(base) > bound and not all_better):
        return "unresolved", won, worse
    return "unchanged", won, worse


def compare(base_runs, change_runs, gated):
    regressed = False
    print(f"{'workload':12} {'metric':28} {'base median [q1, q3]':>36} "
          f"{'change median [q1, q3]':>36} {'gain':>8} {'won':>5} "
          f"{'bound':>6}  verdict")
    for workload in sorted(set(base_runs) & set(change_runs)):
        b_runs, c_runs = base_runs[workload], change_runs[workload]
        b_failed = sum(r.get("failed", 0) for r in b_runs)
        c_failed = sum(r.get("failed", 0) for r in c_runs)
        for name in metric_names({workload: b_runs}, gated):
            # A p99 is missing from a run whose window lacked the samples;
            # pairs keep only the runs where both sides have it.
            pairs = [(rb["metrics"][name]["value"], rc["metrics"][name]["value"])
                     for rb, rc in zip(b_runs, c_runs)
                     if name in rb["metrics"] and name in rc["metrics"]]
            if not pairs:
                continue
            b, c = [list(side) for side in zip(*pairs)]
            lower = (gated[name]["better"] == "lower" if name in gated
                     else name not in HIGHER_IS_BETTER)
            bound = bound_for(name, gated, b)
            v, won, worse = verdict(b, c, lower, bound, b_failed, c_failed)
            regressed |= v == "regressed"
            bq, cq = quartiles(b), quartiles(c)
            mark = "*" if name in gated else " "
            print(f"{workload:12} {name + mark:28} "
                  f"{bq[1]:12.6g} [{bq[0]:9.4g}, {bq[2]:9.4g}] "
                  f"{cq[1]:12.6g} [{cq[0]:9.4g}, {cq[2]:9.4g}] "
                  f"{-worse:+8.2%} {won:5.0%} {bound:6.0%}  {v}")
        if len(b_runs) != len(c_runs) or len(b_runs) < 10:
            print(f"{workload:12} note: {len(b_runs)} parent and "
                  f"{len(c_runs)} change runs; a gain needs ten pairs")
    print("* gated by BENCHMARK.json; the other bounds follow the parent's "
          "own spread")
    return regressed


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("runs", nargs="+", metavar="DIR",
                        help="one result set to summarize, or BASE CHANGE")
    parser.add_argument("--benchmark", default=str(
        pathlib.Path(__file__).resolve().parent.parent / "BENCHMARK.json"),
        help="BENCHMARK.json with the gated metrics and their bounds")
    args = parser.parse_args()
    if len(args.runs) > 2:
        parser.error("give one result set, or BASE and CHANGE")
    benchmark = json.loads(pathlib.Path(args.benchmark).read_text())
    gated = {m["name"]: m for m in benchmark["end_to_end"]}
    sets = [load_runs(d) for d in args.runs]
    ok = all([check_correct(label, s) for label, s in zip(args.runs, sets)])
    if len(sets) == 1:
        summarize(sets[0], gated)
        return 0 if ok else 1
    regressed = compare(sets[0], sets[1], gated)
    return 0 if ok and not regressed else 1


if __name__ == "__main__":
    sys.exit(main())
