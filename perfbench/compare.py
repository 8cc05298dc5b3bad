"""Compare two sets of untraced result files, such as parent and change.

    python3 perfbench/compare.py PARENT_DIR CHANGE_DIR

Each directory holds <workload>/seed<N>-trace0.json files as run.py
writes them (perfbench/out/results, or a saved copy such as
perfbench/baseline).  For every workload in both sets and every
end-to-end metric of BENCHMARK.json it prints the median and quartiles of
each side and one outcome:

  gain          over at least 10 pairs, the change wins 9 in 10 (ties count
                for neither) and the medians differ by more than the parent's
                interquartile distance, or every change run beats every
                parent run; void if more operations failed
  regression    the change's median is worse than the parent's by more
                than the metric's bound
  unresolved    either side's spread (interquartile distance over median)
                exceeds the bound, so "no change" cannot be claimed
  within bound  none of the above

Runs are paired by seed where both sides ran the same seeds, otherwise
in sorted seed order.  Exits 1 when any metric regressed.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import stats  # noqa: E402

WIN_SHARE = 0.9
MIN_PAIRS = 10


def load(directory: Path) -> dict:
    """workload -> {seed: result} for the untraced result files."""
    runs: dict = {}
    for path in sorted(directory.glob("*/seed*-trace0.json")):
        doc = json.loads(path.read_text())
        runs.setdefault(doc["workload"], {})[doc["seed"]] = doc
    return runs


def pairs(parent: dict, change: dict):
    common = sorted(set(parent) & set(change))
    if common:
        return [(parent[s], change[s]) for s in common]
    return list(zip((parent[s] for s in sorted(parent)), (change[s] for s in sorted(change))))


def outcome(metric, a_runs, b_runs, paired, more_failures):
    name, lower = metric["name"], metric["better"] == "lower"
    a = [r["metrics"][name]["value"] for r in a_runs]
    b = [r["metrics"][name]["value"] for r in b_runs]
    med_a, med_b = stats.median(a), stats.median(b)
    worse = (med_b - med_a) / med_a if lower else (med_a - med_b) / med_a
    wins = 0
    for pa, pb in paired:
        va, vb = pa["metrics"][name]["value"], pb["metrics"][name]["value"]
        wins += (vb < va) if lower else (vb > va)
    q1, q3 = stats.quartiles(a)
    won = (
        len(paired) >= MIN_PAIRS
        and wins >= WIN_SHARE * len(paired)
        and abs(med_b - med_a) > q3 - q1
        and worse < 0
    )
    all_better = (max(b) < min(a)) if lower else (min(b) > max(a))
    wide = max(stats.spread(a), stats.spread(b)) > metric["bound"]
    if won or (wide and all_better):
        verdict = "gain (void: more failures)" if more_failures else "gain"
    elif worse > metric["bound"]:
        verdict = "regression"
    elif wide:
        verdict = "unresolved"
    else:
        verdict = "within bound"
    return {
        "parent": (med_a, *stats.quartiles(a)),
        "change": (med_b, *stats.quartiles(b)),
        "worse": worse,
        "wins": f"{wins}/{len(paired)}",
        "verdict": verdict,
    }


def failure_ratio(runs) -> float:
    return stats.median([len(r["failures"]) / r["attempted"] for r in runs])


def main(argv) -> int:
    if len(argv) != 2:
        sys.stderr.write(__doc__)
        return 2
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    parent, change = load(Path(argv[0])), load(Path(argv[1]))
    regressed = False
    for workload in [w["name"] for w in spec["workloads"]]:
        if workload not in parent or workload not in change:
            print(f"{workload}: missing on one side, not compared")
            continue
        a_runs, b_runs = list(parent[workload].values()), list(change[workload].values())
        paired = pairs(parent[workload], change[workload])
        fa, fb = failure_ratio(a_runs), failure_ratio(b_runs)
        print(
            f"{workload}: {len(a_runs)} parent runs, {len(b_runs)} change runs, "
            f"fail_ratio {fa:.4f} -> {fb:.4f}"
        )
        print(
            f"  {'metric':<18}{'parent med [q1, q3]':>32}{'change med [q1, q3]':>32}"
            f"{'worse':>9}{'wins':>7}  outcome"
        )
        for metric in spec["end_to_end"]:
            row = outcome(metric, a_runs, b_runs, paired, fb > fa)
            regressed |= row["verdict"] == "regression"
            cells = [
                f"{m:.4g} [{q1:.4g}, {q3:.4g}]" for m, q1, q3 in (row["parent"], row["change"])
            ]
            print(
                f"  {metric['name']:<18}{cells[0]:>32}{cells[1]:>32}"
                f"{row['worse']:>+9.3f}{row['wins']:>7}  {row['verdict']}"
                f" (bound {metric['bound']})"
            )
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
