"""The benchmark's workloads: seeded CLI jobs and the checks on their outputs.

Each workload turns a seed into an endless, reproducible list of jobs. A job
is one ``strange-segments`` invocation (an argv without ``--out``) plus a
check that reads the files the invocation wrote and returns the problems it
found and the work units the job completed. The checks compare against exact
answers worked out here from the model documents, independently of the
package, so a speed-up that changes a result shows up as a failed operation.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator

UNIT = "models/unit.json"
TWO_GROUP = "models/two_group.json"
MODEL_FILES = ("models/unit.json", "models/two_group.json", "models/unit_noisy.json")

# Relative tolerance of every closed-form comparison (acceptance criterion 1).
REL_TOL = 1e-8
# A window estimate further than this many binomial standard errors from the
# exact probability fails; at 5 the chance of a false alarm per check is ~6e-7.
Z_BOUND = 5.0

Outputs = dict  # file suffix (".csv", ".summary.json") -> bytes


@dataclass(frozen=True)
class Job:
    kind: str
    argv: tuple[str, ...]
    check: Callable[[Outputs], tuple[list[str], float]]  # -> (problems, work units)


class Model:
    """The constants of a Gaussian model document that the oracles need."""

    def __init__(self, root: Path, rel: str):
        doc = json.loads((root / rel).read_text())
        self.alpha = float(doc["alpha"])
        groups = doc["groups"]
        self.total_c = sum(g["c"] for g in groups)
        dim = len(groups[0]["beta"])
        self.beta_sum = [sum(g["c"] * g["beta"][i] for g in groups) for i in range(dim)]
        beta_bar = [b / self.total_c for b in self.beta_sum]
        cov = doc["innovations"]["cov"]

        def quad(v):
            return sum(v[i] * cov[i][j] * v[j] for i in range(dim) for j in range(dim))

        self.q_bar = quad(beta_bar)
        self.q_sum = quad(self.beta_sum)
        self.phi = {int(p["lag"]): float(p["value"]) for p in doc["phi"]}
        self.phi_total = sum(self.phi.values())
        noise = doc.get("noise")
        self.noise_var = float(noise["var"]) if noise else 0.0

    def limit_rate(self, x: float) -> float:
        """Lambda*(x) of the limit curve: x^2 / (2 phi^2 beta_bar' cov beta_bar)."""
        return x * x / (2.0 * self.phi_total**2 * self.q_bar)

    def window_rate(self, k: float, x: float) -> float:
        """Lambda_k*(x) = x^2 / (2 phi^2 q int_k^{k+1} w^2), w = (a+1) y^a / mass."""
        a = self.alpha
        mass = (k + 1.0) ** (a + 1.0) - k ** (a + 1.0)
        w2 = (a + 1.0) ** 2 * ((k + 1.0) ** (2 * a + 1.0) - k ** (2 * a + 1.0)) / (2 * a + 1.0)
        return x * x / (2.0 * self.phi_total**2 * self.q_bar * w2 / mass**2)

    def capacity(self, rate: float) -> float:
        """Inverse of the limit transform on the above-mean branch."""
        return math.sqrt(2.0 * rate * self.phi_total**2 * self.q_bar)

    def window_tail(self, k: float, t: int, a: float) -> float:
        """Exact P(window average over (kt, (k+1)t] > a) for aggregate Gaussian noise.

        The window sum is linear in the innovations: sum_m (beta_sum . xi_m) h_m
        with h = phi convolved with the weights floor(s^alpha), plus aggregate
        noise of variance var * n_window.
        """
        lo, hi = math.ceil(k * t) + 1, math.floor((k + 1) * t)
        weights = [math.floor(s**self.alpha) for s in range(lo, hi + 1)]
        max_lag = max(self.phi)
        h = [0.0] * (len(weights) + max_lag - min(self.phi))
        for lag, coeff in self.phi.items():
            for j, w in enumerate(weights):
                h[max_lag - lag + j] += coeff * w
        n_window = self.total_c * sum(weights)
        var = self.q_sum * sum(v * v for v in h) + self.noise_var * n_window
        return 0.5 * math.erfc(a * n_window / math.sqrt(2.0 * var))


def _close(got: float, want: float) -> bool:
    return abs(got - want) <= REL_TOL * abs(want)


def _csv_rows(out: Outputs) -> list[dict]:
    return list(csv.DictReader(io.StringIO(out[".csv"].decode())))


def _seeds(seed: int) -> random.Random:
    return random.Random(f"strange-segments-bench:{seed}")


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolation percentile, q in [0, 100]."""
    s = sorted(values)
    pos = (len(s) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (pos - lo) * (s[hi] - s[lo])


def job_latencies_ms(records: list[dict]) -> list[float]:
    """One operation per job: its latency in ms."""
    return [1e3 * r["latency_s"] for r in records]


def kind_figures(records: list[dict], kinds: tuple[str, ...], label: str, rate: str) -> dict:
    """Latency percentiles, count and work rate of the records of some job kinds."""
    recs = [r for r in records if r["kind"] in kinds]
    if not recs:
        return {}
    ms = [1e3 * r["latency_s"] for r in recs]
    return {
        f"{label}_ops": (len(recs), "count"),
        f"{label}_p50_ms": (percentile(ms, 50), "ms"),
        f"{label}_p90_ms": (percentile(ms, 90), "ms"),
        rate: (sum(r["units"] for r in recs) / sum(r["latency_s"] for r in recs), "1/s"),
    }


class StrongLaw:
    """Doubling-horizon replicates of the growth law on the unit model.

    One job is one replicate (``--replicates 1``) with its own master seed, so
    a run is a closed loop of replicates. The horizon starts at 1000 (the
    largest t on the grid) and doubles until T_10 completes; the cap of
    4,096,000 = 1000 * 2^12 steps bounds one replicate's memory and time, so
    a run's peak memory does not hinge on one rare 1e7-step replicate.
    """

    name = "strong-law"
    setup_model = UNIT
    cp = 1.5
    r_grid = (6, 10)
    t_grid = (100, 1000)
    first_horizon = 1000
    horizon_cap = 4_096_000
    cycle = 1
    trace_jobs = 12

    def __init__(self, root: Path, seed: int):
        self.model = Model(root, UNIT)
        self.rng = _seeds(seed)

    def jobs(self) -> Iterator[Job]:
        while True:
            argv = (
                "verify-strong-law", "--model", UNIT, "--cp", str(self.cp),
                "--r-grid", ",".join(map(str, self.r_grid)),
                "--t-grid", ",".join(map(str, self.t_grid)),
                "--noise-mode", "off", "--replicates", "1",
                "--horizon-cap", str(self.horizon_cap), "--workers", "1",
                "--seed", str(self.rng.getrandbits(63)),
            )
            yield Job("replicate", argv, self.check)

    @staticmethod
    def op_latencies_ms(records: list[dict]) -> list[float]:
        """Replicate latency per 10^6 final-horizon steps.

        A replicate's size, its final horizon, is random; per million steps
        it is the same quantity at a stated input size for every seed.
        """
        return [1e9 * r["latency_s"] / r["units"] for r in records if r["units"]]

    @staticmethod
    def figures(records: list[dict]) -> dict:
        out = kind_figures(records, ("replicate",), "replicate", "replicate_steps_per_s")
        out["replicates_per_s"] = (len(records) / sum(r["latency_s"] for r in records), "1/s")
        return out

    def final_horizon(self, t_last) -> int:
        """Horizon the doubling stopped at, given T of the largest r (None if censored)."""
        h = self.first_horizon
        while (t_last is None or t_last > h) and h < self.horizon_cap:
            h = min(2 * h, self.horizon_cap)
        return h

    def check(self, out: Outputs) -> tuple[list[str], float]:
        problems = []
        summary = json.loads(out[".summary.json"])
        if summary["duality_consistent"] is not True:
            problems.append("duality_consistent is not true")
        if not _close(summary["predicted_rate"], self.model.limit_rate(self.cp)):
            problems.append(f"predicted_rate {summary['predicted_rate']!r} is not the closed form")
        t_last = None
        for row in _csv_rows(out):
            if row["statistic"] != "T" or row["censored"] == "true":
                continue
            r, value = int(row["grid"]), int(row["value"])
            if value < r:
                problems.append(f"T_{r} = {value} < r")
            if r == max(self.r_grid):
                t_last = value
        return problems, float(self.final_horizon(t_last))


class WindowTails:
    """Crude Monte Carlo window tails of the two-group model at t = 40."""

    name = "window-tails"
    setup_model = TWO_GROUP
    t = 40
    k_grid = ("0", "1", "4")
    a = 0.4
    samples = 32768  # per offset; four chunks of the harness's 8192
    cycle = 1
    trace_jobs = 4

    def __init__(self, root: Path, seed: int):
        model = Model(root, TWO_GROUP)
        self.exact = {float(k): model.window_tail(float(k), self.t, self.a) for k in self.k_grid}
        self.rng = _seeds(seed)

    def jobs(self) -> Iterator[Job]:
        while True:
            argv = (
                "verify-uldp", "--model", TWO_GROUP, "--t", str(self.t),
                "--k-grid", ",".join(self.k_grid), "--set", "above", "--a", str(self.a),
                "--samples", str(self.samples), "--workers", "1",
                "--seed", str(self.rng.getrandbits(63)),
            )
            yield Job("uldp", argv, self.check)

    op_latencies_ms = staticmethod(job_latencies_ms)

    @staticmethod
    def figures(records: list[dict]) -> dict:
        return kind_figures(records, ("uldp",), "uldp", "samples_per_s")

    def check(self, out: Outputs) -> tuple[list[str], float]:
        problems = []
        rows = _csv_rows(out)
        if [float(r["k"]) for r in rows] != sorted(self.exact):
            problems.append("unexpected offsets in the CSV")
            return problems, 0.0
        for row in rows:
            p, n = self.exact[float(row["k"])], int(row["samples"])
            p_hat = float(row["p_hat"])
            if int(row["successes"]) != round(p_hat * n) or n != self.samples:
                problems.append(f"k={row['k']}: successes and p_hat disagree")
            if abs(p_hat - p) > Z_BOUND * math.sqrt(p * (1.0 - p) / n):
                problems.append(f"k={row['k']}: p_hat {p_hat} is not within {Z_BOUND} se of {p}")
        json.loads(out[".summary.json"])
        return problems, float(sum(int(r["samples"]) for r in rows))


class CapacityPlan:
    """Interactive planning queries: two ``plan`` for every ``rate``.

    The model alternates between the unit and two-group documents from one
    query to the next.
    """

    name = "capacity-plan"
    setup_model = UNIT
    offsets = (0, 0.5, 1, 2, 5, 20, 100)
    cycle = 3
    trace_jobs = 150

    def __init__(self, root: Path, seed: int):
        self.models = {UNIT: Model(root, UNIT), TWO_GROUP: Model(root, TWO_GROUP)}
        self.rng = _seeds(seed)

    def jobs(self) -> Iterator[Job]:
        i = 0
        while True:
            model = (UNIT, TWO_GROUP)[i % 2]
            if i % 3 == 2:
                xs = [round(self.rng.uniform(0.25, 4.0), 4) for _ in range(4)]
                ks = sorted(self.rng.sample(self.offsets, 3))
                argv = ("rate", "--model", model, "--x", ",".join(map(str, xs)),
                        "--k", ",".join(map(str, ks)), "--limit")
                yield Job("rate", argv, self._rate_check(model))
            else:
                r_target = self.rng.randint(4, 40)
                horizon = int(10 ** self.rng.uniform(2.0, 7.0))
                argv = ("plan", "--model", model, "--r-target", str(r_target),
                        "--horizon", str(horizon))
                yield Job("plan", argv, self._plan_check(model, r_target, horizon))
            i += 1

    op_latencies_ms = staticmethod(job_latencies_ms)

    @staticmethod
    def figures(records: list[dict]) -> dict:
        return {
            **kind_figures(records, ("plan",), "plan", "plan_per_s"),
            **kind_figures(records, ("rate",), "rate", "rate_per_s"),
        }

    def _plan_check(self, model: str, r_target: int, horizon: int):
        m = self.models[model]

        def check(out: Outputs) -> tuple[list[str], float]:
            plan = json.loads(out[".summary.json"])
            want = m.capacity(math.log(horizon) / r_target)
            if not _close(plan["capacity_headroom"], want):
                return [f"capacity_headroom {plan['capacity_headroom']!r} != {want!r}"], 1.0
            return [], 1.0

        return check

    def _rate_check(self, model: str):
        m = self.models[model]

        def check(out: Outputs) -> tuple[list[str], float]:
            problems = []
            for row in _csv_rows(out):
                x, got = float(row["x"]), float(row["lambda_star"])
                want = m.limit_rate(x) if row["k"] == "limit" else m.window_rate(float(row["k"]), x)
                if not _close(got, want):
                    problems.append(f"rate k={row['k']} x={x}: {got!r} != {want!r}")
            return problems, 1.0

        return check


class LongPath:
    """One large two-group path per job: a CSV export and two full-horizon scans.

    A round is ``simulate --record-steps`` at 300,000 steps, then ``segments``
    on one seeded 4,000,000-step path above 0.4 and below -0.4 with r = 100.
    The export is sized to take about as long as one scan, so the latency
    percentiles over all jobs see both kinds.
    """

    name = "long-path"
    setup_model = TWO_GROUP
    export_steps = 300_000
    scan_steps = 4_000_000
    r = 100
    cycle = 3
    trace_jobs = 3

    def __init__(self, root: Path, seed: int):
        self.rng = _seeds(seed)

    def jobs(self) -> Iterator[Job]:
        while True:
            yield Job("export", (
                "simulate", "--model", TWO_GROUP, "--seed", str(self.rng.getrandbits(63)),
                "--t-max", str(self.export_steps), "--record-steps",
            ), self.check_export)
            scan_seed = str(self.rng.getrandbits(63))
            for kind, a in (("above", "0.4"), ("below", "-0.4")):
                yield Job(f"scan-{kind}", (
                    "segments", "--model", TWO_GROUP, "--seed", scan_seed,
                    "--t-max", str(self.scan_steps), "--set", kind, f"--a={a}",
                    "--r", str(self.r),
                ), self.check_scan)

    op_latencies_ms = staticmethod(job_latencies_ms)

    @staticmethod
    def figures(records: list[dict]) -> dict:
        return {
            **kind_figures(records, ("export",), "export", "export_rows_per_s"),
            **kind_figures(records, ("scan-above", "scan-below"), "scan", "scan_steps_per_s"),
        }

    def check_export(self, out: Outputs) -> tuple[list[str], float]:
        lines = out[".csv"].decode().splitlines()
        if lines[0] != "t,N,S,D" or len(lines) != self.export_steps + 2:
            return [f"export has {len(lines) - 1} rows, want {self.export_steps + 1}"], 0.0
        for t, line in enumerate(lines[1:]):
            cells = line.split(",")
            if int(cells[0]) != t or int(cells[1]) != 3 * t * (t + 1) // 2:
                return [f"export row {t} has t,N = {cells[0]},{cells[1]}"], 0.0
        if lines[1] != "0,0,0,":
            return ["export row 0 is not 0,0,0,"], 0.0
        return [], float(self.export_steps)

    def check_scan(self, out: Outputs) -> tuple[list[str], float]:
        rows = {row["statistic"]: row for row in _csv_rows(out)}
        problems = []
        r_row, t_row = rows["R"], rows["T"]
        r_value = int(r_row["value"])
        if r_value and int(r_row["l"]) - int(r_row["k"]) != r_value:
            problems.append(f"R witness ({r_row['k']},{r_row['l']}) is not of length {r_value}")
        t_value = int(t_row["value"]) if t_row["value"] else None
        if t_value is not None and (
            int(t_row["l"]) != t_value or t_value - int(t_row["k"]) < self.r
        ):
            problems.append(f"T witness ({t_row['k']},{t_row['l']}) does not end at {t_value}")
        if (t_value is not None and t_value <= self.scan_steps) != (r_value >= self.r):
            problems.append(f"duality fails: R = {r_value}, T_{self.r} = {t_value}")
        return problems, float(self.scan_steps)


WORKLOADS = {w.name: w for w in (StrongLaw, WindowTails, CapacityPlan, LongPath)}
