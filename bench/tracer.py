"""Span recorder that wraps the package's layer boundaries from outside.

The package itself is not instrumented. ``Tracer.install`` replaces, for the
duration of a traced pass, the module attributes through which one layer calls
another: a function imported by name is wrapped in every module that imports
it, so a call is recorded whichever module makes it. Each call becomes a span
(name, start, end, parent span, operation id, counted amount); spans stay in
memory until the pass ends and are then reduced to per-layer metrics.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass
from typing import Any, Callable, Optional


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root span
    op: int
    amount: Any  # what the wrapper counted for this call (steps, draws, ...)


def _floor_power_elements(args, kwargs, result):
    return len(result)


def _simulate_steps(args, kwargs, result):
    return result.t_max


def _r_stat_steps(args, kwargs, result):
    return int(args[2])


def _sample_draws(args, kwargs, result):
    return int(result.size)


def _replicate_horizon(args, kwargs, result):
    return int(result["horizon"])


def _uldp_hits(args, kwargs, result):
    unit = args[0]
    hits, size = result
    return (unit[1], hits, size)  # (k as text, hits, samples)


def _boundaries(ss) -> list[tuple[object, str, str, Optional[Callable]]]:
    """(owner, attribute, span name, amount counter) for every wrapped call site.

    ``ss`` is the imported ``strange_segments`` package. The span name is the
    layer that does the work, not the module that calls it.
    """
    cli, exp, sim = ss.cli, ss.experiments, ss.simulator
    mc, md, rf, inn = ss.model_core, ss.modeldoc, ss.rate_function, ss.innovations
    fpp = ("model_core.floor_power_prefix", _floor_power_elements)
    return [
        (cli, "build_parser", "cli.build_parser", None),
        (cli, "load_model", "modeldoc.load_model", None),
        (md, "parse_model_document", "modeldoc.parse_model_document", None),
        (exp, "parse_model_document", "modeldoc.parse_model_document", None),
        (mc, "floor_power_prefix", *fpp),
        (sim, "floor_power_prefix", *fpp),
        (exp, "floor_power_prefix", *fpp),
        (sim, "cumulative_population_prefix", "model_core.cumulative_population_prefix", None),
        (inn.GaussianInnovations, "sample", "innovations.sample", _sample_draws),
        (inn.GaussianNoise, "sample_aggregate", "innovations.sample_aggregate", None),
        (cli, "simulate", "simulator.simulate", _simulate_steps),
        (exp, "simulate", "simulator.simulate", _simulate_steps),
        (cli, "t_stat", "segments.t_stat", None),
        (exp, "t_stat", "segments.t_stat", None),
        (cli, "r_stat", "segments.r_stat", _r_stat_steps),
        (exp, "r_stat", "segments.r_stat", _r_stat_steps),
        (cli, "legendre", "rate_function.legendre", None),
        (exp, "legendre", "rate_function.legendre", None),
        (rf, "legendre", "rate_function.legendre", None),
        (exp, "invert_capacity", "rate_function.invert_capacity", None),
        (rf, "lambda_limit_prime", "rate_function.lambda_limit_prime", None),
        (exp, "lambda_limit_prime", "rate_function.lambda_limit_prime", None),
        (rf, "lambda_k_prime", "rate_function.lambda_k_prime", None),
        (cli, "run_strong_law", "experiments.run_strong_law", None),
        (cli, "run_uldp", "experiments.run_uldp", None),
        (cli, "sla_plan", "experiments.sla_plan", None),
        (exp, "_strong_law_replicate", "experiments.replicate", _replicate_horizon),
        (exp, "_uldp_chunk", "experiments.uldp_chunk", _uldp_hits),
    ]


class Tracer:
    """In-memory span recorder; one instance per traced pass."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op = -1
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def wrap(self, fn: Callable, name: str, counter: Optional[Callable] = None) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            span = Span(name, 0.0, 0.0, parent, tracer.op, 0)
            tracer.spans.append(span)
            tracer._stack.append(idx)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                tracer._stack.pop()
            if counter is not None:
                span.amount = counter(args, kwargs, result)
            return result

        return traced

    def install(self, package) -> None:
        """Wrap every layer boundary of ``package`` (``strange_segments``)."""
        for owner, attr, name, counter in _boundaries(package):
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self.wrap(original, name, counter))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def children_time(self) -> list[float]:
        """Per span, the time covered by its direct children."""
        covered = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent >= 0:
                covered[span.parent] += span.end - span.start
        return covered

    def ancestors_named(self, idx: int, name: str) -> bool:
        parent = self.spans[idx].parent
        while parent >= 0:
            if self.spans[parent].name == name:
                return True
            parent = self.spans[parent].parent
        return False


def layer_totals(tracer: Tracer) -> dict[str, dict[str, float]]:
    """name -> {calls, s, self_s, amount} summed over every span of that name."""
    covered = tracer.children_time()
    totals: dict[str, dict[str, float]] = {}
    for idx, span in enumerate(tracer.spans):
        entry = totals.setdefault(span.name, {"calls": 0, "s": 0.0, "self_s": 0.0, "amount": 0})
        dur = span.end - span.start
        entry["calls"] += 1
        entry["s"] += dur
        entry["self_s"] += dur - covered[idx]
        if isinstance(span.amount, int):
            entry["amount"] += span.amount
    return totals
