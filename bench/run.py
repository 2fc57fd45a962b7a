"""Benchmark of the strange-segments CLI.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S

The checkout is the parent of this directory; the package is imported from
its ``src`` and nothing is installed. With ``--trace 0`` the last stdout line
holds the end-to-end metrics, with ``--trace 1`` the per-layer metrics of a
separate traced run. The lines before it record the environment and the
workload's own figures by name. bench/README.md says what each workload loads
and which metric each layer should move.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from workloads import MODEL_FILES, WORKLOADS, percentile  # noqa: E402

SETUP_REPEATS = 7
CHILD_TIMEOUT_S = 150.0

# Import of the CLI plus load_model, timed inside a fresh interpreter.
SETUP_PROBE = """
import sys, time
t0 = time.perf_counter()
import strange_segments.cli
strange_segments.cli.load_model(sys.argv[1])
print(time.perf_counter() - t0)
"""


def child_env() -> dict:
    """Subprocess environment: the checkout's src on the path, BLAS on one thread.

    One thread (at most nproc) because every workload runs ``--workers 1`` from
    one client; BLAS threads spread over shared cores would measure the
    scheduler, not the program.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env.pop("STRANGE_SEGMENTS_LOG", None)
    return env


def run_child(argv: list[str]) -> str:
    """Run a Python child in the checkout; returns its last stdout line."""
    proc = subprocess.run(
        [sys.executable, *argv], cwd=ROOT, env=child_env(), capture_output=True,
        text=True, timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0 or not proc.stdout.strip():
        raise RuntimeError(f"child exited with {proc.returncode}: {proc.stderr[-2000:]}")
    return proc.stdout.strip().splitlines()[-1]


def environment() -> dict:
    import numpy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
        "blas_threads": child_env()["OPENBLAS_NUM_THREADS"],
        "models_sha256": {m: hashlib.sha256((ROOT / m).read_bytes()).hexdigest() for m in MODEL_FILES},
    }


def setup_seconds(model: str) -> float:
    """Median over fresh interpreters of importing the CLI and loading ``model``."""
    return statistics.median(float(run_child(["-c", SETUP_PROBE, model])) for _ in range(SETUP_REPEATS))


def end_to_end(workload, result: dict) -> tuple[dict, dict]:
    """(bounded metrics, figures under their own names) of an untraced run.

    Only the 90th percentile latency is bounded. The host alternates between
    speed states; the median and the mean move with the share of operations
    that fall in the fast one, while the 90th percentile stays in the slow one.
    """
    records = result["records"]
    latency = workload.op_latencies_ms(records) or [0.0]
    metrics = {
        "setup_s": (setup_seconds(workload.setup_model), "s"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
        "op_p90_ms": (percentile(latency, 90), "ms"),
    }
    figures = {
        "ops": (len(latency), "count"),
        "op_p50_ms": (percentile(latency, 50), "ms"),
        "units_per_s": (sum(r["units"] for r in records) / sum(r["latency_s"] for r in records), "1/s"),
        **workload.figures(records),
        "failed_share": (result["failed"] / result["attempted"], "ratio"),
    }
    return metrics, figures


def run_workload(name: str, seed: int, seconds: float, trace: int) -> dict:
    workload = WORKLOADS[name]
    result = json.loads(run_child([
        str(BENCH / "worker.py"), "--root", str(ROOT), "--workload", name,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]))
    if trace:
        metrics = {k: tuple(v) for k, v in result["layers"].items()}
        own = {k: (v, "s") for k, v in result["layer_seconds"].items()}
        own["failed_share"] = (result["failed"] / result["attempted"], "ratio")
    else:
        metrics, own = end_to_end(workload, result)
    for problem in result["problems"]:
        print(f"{name}: FAILED {problem}")
    for key, (value, unit) in own.items():
        print(f"{name}: {key} = {value:.6g} {unit}")
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description="strange-segments CLI benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    missing = [p for p in ("src/strange_segments/cli.py", *MODEL_FILES) if not (ROOT / p).is_file()]
    if missing:
        print(f"not a strange-segments checkout: missing {', '.join(missing)}", file=sys.stderr)
        return 2

    print("env " + json.dumps(environment(), sort_keys=True))
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {name: run_workload(name, args.seed, args.seconds, args.trace) for name in names}
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": m for n, r in results.items() for k, m in r["metrics"].items()},
        }
    for name, r in results.items():
        for key, m in r["metrics"].items():
            print(f"{name}: {key} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
