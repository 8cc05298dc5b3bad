"""The distgeom benchmark: one workload, one run, one result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
`src/` (PYTHONPATH=src), never from an installed copy.  With --trace 0 the
run measures the end-to-end metrics listed in BENCHMARK.json; with
--trace 1 it measures the per-layer metrics from a traced run.  The
result file goes to perfbench/out/results/<workload>/, and the last line
of standard output is the result as one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import stats  # noqa: E402

SETUP_RUNS = 7
IMPORTTIME_RUNS = 3
RUN_DEADLINE_S = 170
SETUP_CODE = "import distgeom.cli; distgeom.cli.build_parser()"


def fail(message: str) -> int:
    sys.stderr.write(f"perfbench: {message}\n")
    return 2


def package_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(ROOT / "src"))


def machine_info() -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "git_commit": git_commit(),
    }


def git_commit():
    """HEAD of the checkout read from .git, or None outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def measure_setup() -> list[float]:
    """Fresh interpreters importing the CLI, after one untimed warm-up."""
    env = package_env()
    samples = []
    for k in range(SETUP_RUNS + 1):
        t0 = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", SETUP_CODE], env=env, check=True, cwd=ROOT
        )
        if k:
            samples.append(time.perf_counter() - t0)
    return samples


def measure_import_times() -> dict:
    """Cumulative import time of distgeom.cli and of numpy, from -X importtime."""
    env = package_env()
    found = {"distgeom.cli": [], "numpy": []}
    for _ in range(IMPORTTIME_RUNS):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import distgeom.cli"],
            env=env,
            capture_output=True,
            text=True,
            check=True,
            cwd=ROOT,
        )
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[2].strip() in found:
                found[parts[2].strip()].append(int(parts[1]) / 1e6)
    return {
        "cli.import_s": stats.median(found["distgeom.cli"]),
        "cli.numpy_import_s": stats.median(found["numpy"]) if found["numpy"] else 0.0,
    }


def run_worker(argv, timeout):
    """Run the worker in its own process group; on timeout kill the group,
    CLI children included, and wait for it."""
    with subprocess.Popen(
        argv,
        env=package_env(),
        cwd=ROOT,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    ) as proc:
        try:
            _, err = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise
    return proc.returncode, err


def end_to_end(raw, setup_samples):
    timed = raw["phases"]["timed"]
    lat = timed["latencies"]
    tail, pct, beyond = stats.tail(lat)
    metrics = {
        "setup_s": stats.median(setup_samples),
        "wall_s": stats.median(timed["pass_walls"]),
        "ops_per_s": timed["correct"] / sum(lat),
        "latency_p50_ms": stats.median(lat) * 1000,
        "latency_tail_ms": tail * 1000,
        "peak_rss_mb": raw["peak_rss_mb"],
    }
    detail = {
        "latency_tail_percentile": pct,
        "latency_tail_samples_beyond": beyond,
        "latency_samples": len(lat),
        "passes": len(timed["pass_walls"]),
        "fail_ratio": len(timed["failures"]) / timed["attempted"],
        "known_defect_probes": timed["probes"],
        "known_defect_failures": timed["probe_failures"],
        "peak_rss_of": raw["peak_rss_of"],
        "setup_samples_s": setup_samples,
    }
    return metrics, detail


def print_accounting(accounting, traced_wall, overhead):
    print(f"trace accounting (traced wall {traced_wall:.4f} s, overhead {overhead:+.3f})")
    for layer, seconds in sorted(accounting.items(), key=lambda kv: -kv[1]):
        print(f"  {layer:<16}{seconds:12.4f} s {100 * seconds / traced_wall:7.2f}%")
    print(f"  {'total':<16}{sum(accounting.values()):12.4f} s")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "distgeom" / "__init__.py").is_file():
        return fail(f"no distgeom sources under {ROOT / 'src'}")
    if not (ROOT / "tests" / "goldens" / "v1").is_dir():
        return fail("no goldens under tests/goldens/v1")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        return fail(f"unknown workload {args.workload!r}")
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}

    started = time.monotonic()
    out_dir = HERE / "out" / "results" / args.workload
    work = HERE / "out" / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    out_dir.mkdir(parents=True, exist_ok=True)
    work.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            setup = None
            imports = measure_import_times()
        else:
            setup = measure_setup()
        raw_path = work / "raw.json"
        remaining = RUN_DEADLINE_S - (time.monotonic() - started)
        code, err = run_worker(
            [
                sys.executable,
                str(HERE / "worker.py"),
                str(ROOT),
                args.workload,
                str(args.seed),
                str(args.seconds),
                str(args.trace),
                str(work),
                str(raw_path),
            ],
            remaining,
        )
        if code != 0:
            sys.stderr.write(err[-4000:])
            return fail(f"worker exited with {code}")
        raw = json.loads(raw_path.read_text())
    except subprocess.TimeoutExpired:
        return fail(f"run exceeded {RUN_DEADLINE_S} s")
    except subprocess.CalledProcessError as exc:
        return fail(f"{exc.cmd[:3]} exited with {exc.returncode}")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    phases = list(raw["phases"].values())
    failures = [f for p in phases for f in p["failures"]]
    attempted = sum(p["attempted"] for p in phases)
    unexpected = [f for f in failures if not f["known_defect"]]
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": dict(machine_info(), numpy=raw["numpy"]),
        "attempted": attempted,
        "failed": len(unexpected),
        "failures": failures,
    }
    if args.trace:
        metrics = dict(raw["layer_metrics"], **imports)
        result.update(
            accounting=raw["accounting"],
            traced_wall_s=raw["traced_wall_s"],
            span_table=raw["span_table"],
        )
        spans_path = out_dir / f"seed{args.seed}-spans.json"
        spans_path.write_text(json.dumps(raw["spans"]))
        result["spans_file"] = spans_path.name
    else:
        metrics, detail = end_to_end(raw, setup)
        result.update(detail)
    missing = set(units) - set(metrics)
    if missing:
        return fail(f"metrics not measured: {sorted(missing)}")
    result["metrics"] = {k: {"value": metrics[k], "unit": units[k]} for k in units}
    (out_dir / f"seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(result, indent=1)
    )

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}")
    for name, cell in result["metrics"].items():
        print(f"  {name:<40}{cell['value']:>16.6g} {cell['unit']}")
    if args.trace:
        print_accounting(raw["accounting"], raw["traced_wall_s"], metrics["trace.overhead_ratio"])
    else:
        print(
            f"  tail is p{result['latency_tail_percentile']:.1f} of "
            f"{result['latency_samples']} samples; fail_ratio {result['fail_ratio']:.4f}"
        )
    grouped: dict = {}
    for f in failures:
        key = (f["op"].rsplit(".", 1)[1], f["reason"], f["known_defect"])
        grouped[key] = grouped.get(key, 0) + 1
    for (kind, reason, known), count in grouped.items():
        tag = " (known defect)" if known else ""
        print(f"  FAILED {count} x {kind}: {reason}{tag}")
    line = {
        "correct": not unexpected,
        "attempted": attempted,
        "failed": len(unexpected),
        "metrics": result["metrics"],
    }
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
