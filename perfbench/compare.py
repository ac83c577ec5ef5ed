"""Compare two benchmark result sets (for example a parent and a change).

    python3 perfbench/compare.py perfbench/out/parent.json \\
        perfbench/out/change.json

A result set is what ``suite.py --out`` writes; the two sets must have
the same run length.  For every workload and end-to-end metric the report
gives both medians and quartiles, the share of seed-matched pairs the
change won (ties count for neither side) and a verdict:

* ``better`` — the change won at least 9 of 10 pairs and the medians differ
  by more than the parent's own quartile spread;
* ``worse`` — the change's median is worse than the parent's by more than
  the metric's bound;
* ``unresolved`` — either side's spread (quartile distance over median)
  exceeds the bound and the change did not beat every parent run;
* ``within bound`` — none of the above.

It also reports each set's ``tracing.overhead_frac`` (traced against
untraced campaign throughput, measured inside the traced runs).
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import sys

BENCHMARK = pathlib.Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile) as
    ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) < 2:
        value = values[0]
        return value, value, value
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: list[float]) -> float:
    """Quartile distance as a share of the median."""
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / abs(median) if median else float("inf")


def load_set(path) -> dict:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def metric_values(result_set: dict, workload: str, metric: str,
                  trace: int = 0) -> dict[int, float]:
    """Seed -> value of ``metric`` over the runs of ``workload``."""
    return {run["seed"]: run["result"]["metrics"][metric]["value"]
            for run in result_set["runs"]
            if run["workload"] == workload and run["trace"] == trace
            and run.get("result") and metric in run["result"]["metrics"]}


def verdict(parent: dict[int, float], change: dict[int, float],
            better: str, bound: float) -> dict:
    """The comparison row of one workload and metric."""
    sign = 1.0 if better == "higher" else -1.0
    pairs = [(parent[s], change[s]) for s in sorted(set(parent) & set(change))]
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    p_values, c_values = list(parent.values()), list(change.values())
    p_q1, p_median, p_q3 = quartiles(p_values)
    c_q1, c_median, c_q3 = quartiles(c_values)
    won = wins / len(pairs) if pairs else 0.0
    worse_by = -sign * (c_median - p_median) / abs(p_median)
    dominates = (min(sign * v for v in c_values)
                 > max(sign * v for v in p_values))
    if won >= 0.9 and sign * (c_median - p_median) > (p_q3 - p_q1):
        label = "better"
    elif (spread(p_values) > bound or spread(c_values) > bound) \
            and not dominates:
        label = "unresolved"
    elif worse_by > bound:
        label = "worse"
    else:
        label = "within bound"
    return {"parent": (p_q1, p_median, p_q3), "change": (c_q1, c_median,
                                                          c_q3),
            "pairs": len(pairs), "won": won, "verdict": label}


def overhead(result_set: dict, workload: str) -> float | None:
    values = metric_values(result_set, workload, "tracing.overhead_frac",
                           trace=1)
    return statistics.median(values.values()) if values else None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    args = parser.parse_args(argv)
    parent, change = load_set(args.parent), load_set(args.change)
    if parent.get("run_seconds") != change.get("run_seconds"):
        print(f"run lengths differ: {parent.get('run_seconds')} s against "
              f"{change.get('run_seconds')} s; measure both with the same "
              "BENCHMARK.json", file=sys.stderr)
        return 2
    spec = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    print(f"parent {parent['env'].get('commit')}  change "
          f"{change['env'].get('commit')}")
    worse = False
    for workload in (w["name"] for w in spec["workloads"]):
        print(f"\n{workload}")
        for metric in spec["end_to_end"]:
            name = metric["name"]
            p_values = metric_values(parent, workload, name)
            c_values = metric_values(change, workload, name)
            if not p_values or not c_values:
                print(f"  {name:14s} no runs")
                continue
            row = verdict(p_values, c_values, metric["better"],
                          metric["bound"])
            worse |= row["verdict"] == "worse"
            p, c = row["parent"], row["change"]
            print(f"  {name:14s} parent {p[1]:.5g} [{p[0]:.5g}, {p[2]:.5g}]"
                  f"  change {c[1]:.5g} [{c[0]:.5g}, {c[2]:.5g}] "
                  f"{metric['unit']}  won {row['won']:.0%} of "
                  f"{row['pairs']}  {row['verdict']}")
        for label, result_set in (("parent", parent), ("change", change)):
            value = overhead(result_set, workload)
            if value is not None:
                print(f"  tracing.overhead_frac ({label}) {value:.4f}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
