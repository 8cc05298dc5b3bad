"""Runs one workload in a fresh interpreter and writes its raw samples.

Started by run.py with `PYTHONPATH=src`; not meant to be run by hand.

    python3 perfbench/worker.py ROOT WORKLOAD SEED SECONDS TRACE WORKDIR OUT
"""

from __future__ import annotations

import json
import resource
import sys
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent))

import stats  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def run_passes(workload, budget, phase, recorder=None):
    """Closed loop, one client: whole passes until `budget` seconds pass."""
    result = {
        "latencies": [],
        "pass_walls": [],
        "attempted": 0,
        "correct": 0,
        "failures": [],
        "probes": 0,
        "probe_failures": 0,
    }
    start = perf_counter()
    while not result["pass_walls"] or perf_counter() - start < budget:
        pass_wall = 0.0
        ops = workload.next_pass()
        for k, op in enumerate(ops):
            op_id = f"{phase}.p{len(result['pass_walls'])}.o{k}.{op.kind}"
            if recorder is not None:
                recorder.op = op_id
            t0 = perf_counter()
            try:
                out = op.run()
            except Exception as exc:  # a raising call is a failed operation
                elapsed = perf_counter() - t0
                reason = f"raised {type(exc).__name__}: {exc}"
            else:
                elapsed = perf_counter() - t0
                try:
                    reason = op.check(out)
                except Exception as exc:  # unreadable output is a wrong answer
                    reason = f"output unreadable: {type(exc).__name__}: {exc}"
            pass_wall += elapsed
            result["latencies"].append(elapsed)
            result["attempted"] += 1
            if op.known_defect:
                result["probes"] += 1
                result["probe_failures"] += reason is not None
            if reason is None:
                result["correct"] += 1
            else:
                result["failures"].append(
                    {"op": op_id, "reason": reason[:300], "known_defect": op.known_defect}
                )
        if recorder is not None:
            recorder.op = None
        result["pass_walls"].append(pass_wall)
    return result


def layer_metrics(spans, n_ops, traced_wall):
    """Per-layer metrics of the traced phase, normalized per operation."""
    rows = tracing.summarize(spans)

    def row(name):
        return rows.get(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0, "size": 0})

    def prefixed(prefix, key):
        return sum(v[key] for k, v in rows.items() if k.startswith(prefix))

    m = {}
    for name, size_key in (
        ("polys.poly_det", "out_terms"),
        ("polys.exact_divide", "quotient_terms"),
        ("polys.mul", "out_terms"),
    ):
        r = row(name)
        m[f"{name}.calls"] = r["calls"] / n_ops
        m[f"{name}.self_s"] = r["self_s"] / n_ops
        m[f"{name}.{size_key}"] = r["size"] / n_ops
    divide = row("polys.exact_divide")["total_s"]
    _, nested_mul = tracing.nested(spans, "polys.mul", "polys.exact_divide")
    m["polys.remultiply_share"] = nested_mul / divide if divide else 0.0
    m["factorization.certify.self_s"] = row("factorization.certify")["self_s"] / n_ops
    m["builders.calls"] = prefixed("builders.", "calls") / n_ops
    m["builders.self_s"] = prefixed("builders.", "self_s") / n_ops
    for name in ("exact.det", "exact.psd_verdict", "exact.rank"):
        m[f"{name}.calls"] = row(name)["calls"] / n_ops
        m[f"{name}.self_s"] = row(name)["self_s"] / n_ops
    rank_in_psd, _ = tracing.nested(spans, "exact.rank", "exact.psd_verdict")
    m["exact.rank.nested_calls"] = rank_in_psd / n_ops
    for name in (
        "analysis.cone_membership",
        "analysis.definiteness",
        "analysis.embed",
        "analysis.simplex_volume_sq",
    ):
        m[f"{name}.self_s"] = row(name)["self_s"] / n_ops
    m["numpy.eig.calls"] = row("numpy.eig")["calls"] / n_ops
    m["numpy.eig.self_s"] = row("numpy.eig")["self_s"] / n_ops
    m["core.from_json.self_s"] = row("core.from_json")["self_s"] / n_ops
    for verb in ("build", "det", "check", "embed", "factor", "verify"):
        m[f"cli.main.{verb}.self_s"] = row(f"cli.main.{verb}")["self_s"] / n_ops
    for suite in ("cmdk", "signs"):
        m[f"suites.{suite}.self_s"] = row(f"suites.{suite}")["self_s"] / n_ops
    accounting = tracing.accounting(spans, traced_wall)
    m["trace.unattributed_share"] = accounting["unattributed"] / traced_wall
    return m, accounting, rows


def main(argv):
    root, name, seed, seconds, trace, workdir, out = argv
    root, workdir, out = Path(root), Path(workdir), Path(out)
    seed, seconds, trace = int(seed), float(seconds), trace == "1"
    import numpy

    # The traced run of cli-cold replays the CLI inside this interpreter.
    workload = WORKLOADS[name](root, seed, trace and name == "cli-cold", workdir)
    raw = {"numpy": numpy.__version__}
    if workload.warmup:
        run_passes(workload, 0.0, "warmup")
    if not trace:
        raw["phases"] = {"timed": run_passes(workload, seconds, "timed")}
        who = resource.RUSAGE_CHILDREN if name == "cli-cold" else resource.RUSAGE_SELF
        raw["peak_rss_mb"] = resource.getrusage(who).ru_maxrss / 1024
        raw["peak_rss_of"] = "largest child" if name == "cli-cold" else "worker"
    else:
        untraced = run_passes(workload, seconds / 2, "untraced")
        recorder = tracing.Recorder()
        remove = tracing.instrument(recorder)
        try:
            traced = run_passes(workload, seconds / 2, "traced", recorder)
        finally:
            remove()
        traced_wall = sum(traced["pass_walls"])
        metrics, accounting, rows = layer_metrics(
            recorder.spans, traced["attempted"], traced_wall
        )
        metrics["trace.overhead_ratio"] = (
            stats.median(traced["pass_walls"]) / stats.median(untraced["pass_walls"]) - 1
        )
        metrics["cli.defect_probe_failures"] = traced["probe_failures"] / len(
            traced["pass_walls"]
        )
        raw["phases"] = {"untraced": untraced, "traced": traced}
        raw["layer_metrics"] = metrics
        raw["accounting"] = accounting
        raw["traced_wall_s"] = traced_wall
        raw["span_table"] = rows
        raw["spans"] = recorder.spans
    out.write_text(json.dumps(raw))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
