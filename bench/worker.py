"""One workload process: a closed loop of in-process CLI calls.

Started by ``run.py`` in a fresh interpreter with ``src`` of the checkout on
``sys.path``. Each job calls ``strange_segments.cli.main(argv)`` with ``--out``
in a scratch directory inside the checkout; the next job starts only after the
previous one returned and its outputs were checked. Checks run outside the
timed region. The process prints one JSON object on its last stdout line.

Untraced (``--trace 0``): one warm-up cycle of the workload's job kinds, then
jobs, starting over from the warm-up jobs, until their summed latency reaches
``--seconds``. The repeated jobs must write byte-identical CSV and summary
files.

Traced (``--trace 1``): a fixed number of jobs, so counts repeat exactly at one
seed, each run once untraced and once traced; the traced outputs must be
byte-identical to the untraced ones.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import sys
import time
from pathlib import Path

from tracer import Tracer, layer_totals
from workloads import WORKLOADS, WindowTails

SUFFIXES = (".csv", ".summary.json")


class Session:
    def __init__(self, cli, workdir: Path):
        self.cli = cli
        self.prefix = workdir / "job"
        self.problems: list[str] = []
        self.attempted = 0
        self.failed = 0

    def call(self, job, main=None) -> tuple[float, dict, float]:
        """Run one job; returns (latency s, outputs, work units). Failures are counted."""
        for suffix in SUFFIXES + (".manifest.json",):
            Path(f"{self.prefix}{suffix}").unlink(missing_ok=True)
        argv = list(job.argv) + ["--out", str(self.prefix)]
        main = main or self.cli.main
        t0 = time.perf_counter()
        try:
            code = main(argv)
        except Exception as exc:  # a crash fails this operation, not the run
            code = repr(exc)
        latency = time.perf_counter() - t0
        self.attempted += 1
        outputs = {
            s: Path(f"{self.prefix}{s}").read_bytes()
            for s in SUFFIXES
            if Path(f"{self.prefix}{s}").exists()
        }
        problems, units = [f"exit code {code}"], 0.0
        if code == 0:
            try:
                problems, units = job.check(outputs)
            except (KeyError, ValueError, IndexError, TypeError) as exc:
                problems = [f"unreadable output: {exc!r}"]
        self.fail(problems, job)
        return latency, outputs, units

    def fail(self, problems: list[str], job) -> None:
        if problems:
            self.failed += 1
            self.problems.extend(f"{job.kind} {' '.join(job.argv)}: {p}" for p in problems[:3])


def run_untraced(session: Session, workload, seconds: float) -> dict:
    jobs = workload.jobs()
    # Warm-up: one cycle of the workload's job kinds, so lazy imports and
    # caches are not timed. The timed loop starts over from the same jobs,
    # whose outputs must then be byte-identical to the warm-up's.
    warmup = [next(jobs) for _ in range(workload.cycle)]
    reference = {job.argv: session.call(job)[1] for job in warmup}
    records = []
    busy = 0.0
    while busy < seconds:
        job = warmup.pop(0) if warmup else next(jobs)
        latency, outputs, units = session.call(job)
        if job.argv in reference and outputs != reference.pop(job.argv):
            session.fail(["rerun at the same seed is not byte-identical"], job)
        busy += latency
        records.append({"kind": job.kind, "latency_s": latency, "units": units})
    return {
        "records": records,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def run_traced(session: Session, workload, package) -> dict:
    jobs = workload.jobs()
    job_list = [next(jobs) for _ in range(workload.trace_jobs)]
    session.call(job_list[0])  # warm-up, untimed

    # Each job runs untraced and then traced, back to back, so both timings
    # see the same machine state and the overhead is not lost in drift.
    tracer = Tracer()
    traced_main = tracer.wrap(session.cli.main, "cli.main")
    untraced_s = traced_s = 0.0
    for op, job in enumerate(job_list):
        latency, outputs, _ = session.call(job)
        untraced_s += latency
        tracer.op = op
        tracer.install(package)
        try:
            latency, traced_outputs, _ = session.call(job, traced_main)
        finally:
            tracer.uninstall()
        traced_s += latency
        if traced_outputs != outputs:
            session.fail(["traced outputs differ from the untraced run"], job)
    metrics, seconds = layer_metrics(tracer, untraced_s, traced_s)
    return {"layers": metrics, "layer_seconds": seconds}


# Layers and the figures kept for each. Times are reported as shares of the
# traced wall time of cli.main, so a layer a workload never calls reads 0.
LAYERS = (
    ("cli.main", ("calls", "self_s")),
    ("cli.build_parser", ("calls", "s")),
    ("modeldoc.load_model", ("calls", "s")),
    ("modeldoc.parse_model_document", ("calls",)),
    ("model_core.floor_power_prefix", ("calls", "s", "amount:elements")),
    ("model_core.cumulative_population_prefix", ("calls", "s")),
    ("innovations.sample", ("calls", "s", "amount:draws")),
    ("innovations.sample_aggregate", ("calls", "s")),
    ("simulator.simulate", ("calls", "s", "self_s", "amount:steps")),
    ("segments.t_stat", ("calls", "s")),
    ("segments.r_stat", ("calls", "s", "amount:steps")),
    ("rate_function.legendre", ("calls", "s")),
    ("rate_function.invert_capacity", ("calls", "s")),
    ("rate_function.lambda_k_prime", ("calls", "s")),
    ("experiments.replicate", ("calls", "self_s")),
    ("experiments.uldp_chunk", ("calls", "self_s")),
)


def layer_metrics(tracer, untraced_s: float, traced_s: float) -> tuple[dict, dict]:
    """(metrics as name -> [value, unit], seconds per layer figure)."""
    totals = layer_totals(tracer)
    wall = totals["cli.main"]["s"]
    metrics, seconds = {}, {}
    for name, fields in LAYERS:
        entry = totals.get(name, {"calls": 0, "s": 0.0, "self_s": 0.0, "amount": 0})
        for field in fields:
            if field == "calls":
                metrics[f"{name}.calls"] = [entry["calls"], "count"]
            elif field.startswith("amount:"):
                metrics[f"{name}.{field[7:]}"] = [entry["amount"], "count"]
            else:
                share = "share" if field == "s" else "self_share"
                metrics[f"{name}.{share}"] = [entry[field] / wall, "ratio"]
                seconds[f"{name}.{field}"] = entry[field]
    metrics["rate_function.derivative_evals"] = [
        totals.get("rate_function.lambda_limit_prime", {}).get("calls", 0)
        + totals.get("rate_function.lambda_k_prime", {}).get("calls", 0),
        "count",
    ]

    # Useful steps of the doubling search: final horizons over every step the
    # replicates simulated on the way there.
    simulated = sum(
        span.amount
        for i, span in enumerate(tracer.spans)
        if span.name == "simulator.simulate" and tracer.ancestors_named(i, "experiments.replicate")
    )
    final = totals.get("experiments.replicate", {}).get("amount", 0)
    metrics["experiments.sl.useful_step_ratio"] = [final / simulated if simulated else 0.0, "ratio"]

    hits = {k: [0, 0] for k in WindowTails.k_grid}
    for span in tracer.spans:
        if span.name == "experiments.uldp_chunk":
            k, h, n = span.amount
            hits[k][0] += h
            hits[k][1] += n
    for k, (h, n) in hits.items():
        metrics[f"experiments.uldp.hit_ratio.k{k}"] = [h / n if n else 0.0, "ratio"]

    metrics["trace.spans"] = [len(tracer.spans), "count"]
    metrics["trace.overhead_share"] = [(traced_s - untraced_s) / untraced_s, "ratio"]
    seconds["cli.main.s"] = wall
    return metrics, seconds


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", required=True, type=Path)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    root = args.root.resolve()
    sys.path.insert(0, str(root / "src"))
    import strange_segments
    import strange_segments.cli as cli

    if not Path(strange_segments.__file__).resolve().is_relative_to(root / "src"):
        raise SystemExit(f"imported strange_segments from {strange_segments.__file__}, not the checkout")

    workdir = root / ".bench_tmp" / f"{args.workload}-{args.seed}-{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        session = Session(cli, workdir)
        workload = WORKLOADS[args.workload](root, args.seed)
        if args.trace:
            result = run_traced(session, workload, strange_segments)
        else:
            result = run_untraced(session, workload, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:  # another run still uses it
            pass
    result.update(attempted=session.attempted, failed=session.failed, problems=session.problems[:20])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
