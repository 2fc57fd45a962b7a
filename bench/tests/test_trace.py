"""Tracing must not change results: traced CLI runs write the same bytes.

Run with ``python3 -m pytest bench/tests`` from the checkout.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import strange_segments  # noqa: E402
import strange_segments.cli as cli  # noqa: E402
from tracer import Tracer, layer_totals  # noqa: E402
from workloads import TWO_GROUP, UNIT, CapacityPlan, Job, LongPath, StrongLaw, WindowTails  # noqa: E402
from worker import Session  # noqa: E402

# One small job per subcommand the workloads use, so every wrapped boundary
# is crossed.
SMALL_JOBS = [
    ("verify-strong-law", "--model", UNIT, "--cp", "1.5", "--r-grid", "6,10",
     "--t-grid", "100,1000", "--noise-mode", "off", "--replicates", "2",
     "--horizon-cap", "64000", "--seed", "3"),
    ("verify-uldp", "--model", TWO_GROUP, "--t", "40", "--k-grid", "0,1,4", "--set", "above",
     "--a", "0.4", "--samples", "8192", "--seed", "4"),
    ("plan", "--model", TWO_GROUP, "--r-target", "12", "--horizon", "100000"),
    ("rate", "--model", UNIT, "--x", "0.5,2", "--k", "0,5", "--limit"),
    ("simulate", "--model", TWO_GROUP, "--seed", "5", "--t-max", "2000", "--record-steps"),
    ("segments", "--model", TWO_GROUP, "--seed", "6", "--t-max", "50000", "--set", "below",
     "--a=-0.4", "--r", "100"),
]


@pytest.fixture
def session(tmp_path, monkeypatch):
    monkeypatch.chdir(ROOT)
    return Session(cli, tmp_path)


def _no_check(outputs):
    return [], 1.0


def test_traced_outputs_are_byte_identical(session):
    jobs = [Job(argv[0], argv, _no_check) for argv in SMALL_JOBS]
    untraced = [session.call(job)[1] for job in jobs]

    tracer = Tracer()
    tracer.install(strange_segments)
    try:
        traced = [session.call(job)[1] for job in jobs]
    finally:
        tracer.uninstall()

    assert session.failed == 0, session.problems
    assert all(outputs for outputs in untraced)
    assert traced == untraced
    totals = layer_totals(tracer)
    for name in ("cli.build_parser", "modeldoc.load_model", "model_core.floor_power_prefix",
                 "innovations.sample", "simulator.simulate", "segments.t_stat", "segments.r_stat",
                 "rate_function.legendre", "rate_function.invert_capacity",
                 "rate_function.lambda_k_prime", "experiments.replicate", "experiments.uldp_chunk"):
        assert totals[name]["calls"] > 0, name
    # A function imported by name is traced at every import site: simulate asks
    # for floor(t^alpha) itself and through the normalizer, a window chunk once.
    assert totals["model_core.floor_power_prefix"]["calls"] == (
        2 * totals["simulator.simulate"]["calls"] + totals["experiments.uldp_chunk"]["calls"]
    )


def test_uninstall_restores_every_boundary():
    before = {(id(o), a): o.__dict__[a] for o, a, *_ in _boundaries()}
    tracer = Tracer()
    tracer.install(strange_segments)
    tracer.uninstall()
    after = {(id(o), a): o.__dict__[a] for o, a, *_ in _boundaries()}
    assert after == before


def _boundaries():
    from tracer import _boundaries as boundaries

    return boundaries(strange_segments)


@pytest.mark.parametrize("workload", [StrongLaw, WindowTails, CapacityPlan, LongPath])
def test_jobs_repeat_for_a_seed(workload):
    first = workload(ROOT, 7).jobs()
    second = workload(ROOT, 7).jobs()
    other = workload(ROOT, 8).jobs()
    a = [next(first).argv for _ in range(6)]
    assert a == [next(second).argv for _ in range(6)]
    assert a != [next(other).argv for _ in range(6)]


def test_oracles_match_known_values():
    plan = CapacityPlan(ROOT, 0)
    unit = plan.models[UNIT]
    # alpha = 1, k = 0, unit model: x^2 / (2 * 4/3) = 0.375 at x = 1.
    assert unit.window_rate(0.0, 1.0) == pytest.approx(0.375, rel=1e-12)
    assert unit.limit_rate(1.5) == pytest.approx(1.125, rel=1e-12)
    tails = WindowTails(ROOT, 0)
    assert tails.exact[0.0] == pytest.approx(0.016930, abs=5e-7)
