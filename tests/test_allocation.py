"""Allocation budgets of the path synthesis, the R_t and T_r scans, a strong-law replicate and a window chunk.

numpy reports its buffers to ``tracemalloc``, so the traced peak of one call
counts every array it makes. These limits keep full-length temporaries from
coming back into ``simulate``, ``r_stat``, ``t_stat``, the strong-law growth
loop and the window sampler unnoticed.
"""

from __future__ import annotations

import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from strange_segments import PathConfig, ThresholdSet, WorkloadPath, load_model, r_stat, simulate, t_stat
from strange_segments import segments
from strange_segments.experiments import _strong_law_replicate, _uldp_chunk
from strange_segments.modeldoc import canonical_document

MODELS = Path(__file__).resolve().parent.parent / "models"


def traced_peak(fn) -> tuple[object, int]:
    """(result, peak bytes allocated while ``fn`` ran, above what was live before)."""
    tracemalloc.start()
    try:
        base, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        out = fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, peak - base


def test_simulate_peaks_below_six_path_arrays(unit_spec):
    t_max = 1_000_000
    path, peak = traced_peak(lambda: simulate(unit_spec, PathConfig(t_max=t_max, seed=1)))
    assert path.t_max == t_max
    # S and N are kept; the loading product, floor(t^alpha) and the normalizer's
    # own floor(t^alpha) are the other whole-path arrays
    assert peak < 6 * 8 * (t_max + 1)


@pytest.mark.parametrize("t_max", [100_000, 1_000_000])
@pytest.mark.parametrize("kind", ["above", "below"])
def test_t_stat_without_hit_peaks_below_six_blocks(t_max, kind):
    rng = np.random.default_rng(0)
    s = np.concatenate([[0.0], np.cumsum(rng.standard_normal(t_max))])
    path = WorkloadPath(S=s, N=np.arange(t_max + 1, dtype=np.int64))
    tset = ThresholdSet(kind, 100.0 if kind == "above" else -100.0)  # never reached
    rep, peak = traced_peak(lambda: t_stat(path, tset, 10))
    assert rep.value is None
    assert peak < 6 * 8 * segments._SCAN_BLOCK


@pytest.mark.parametrize("tset, grows_in_every_block", [
    (ThresholdSet.above(0.01), False),
    (ThresholdSet.below(1.0), True),  # holds the mean: R = t
])
def test_r_stat_peaks_below_one_path_array(tset, grows_in_every_block):
    t = 1_000_000
    rng = np.random.default_rng(0)
    s = np.concatenate([[0.0], np.cumsum(rng.standard_normal(t))])
    path = WorkloadPath(S=s, N=np.arange(t + 1, dtype=np.int64))
    rep, peak = traced_peak(lambda: r_stat(path, tset, t))
    assert (rep.value == t) == grows_in_every_block and rep.value > 0
    # the running minimum is the one path-length array; the walk lives a block at a time
    assert peak < 8 * (t + 1) + 6 * 8 * segments._SCAN_BLOCK


@pytest.mark.parametrize("model, cap_arrays", [
    # no noise law: S and N span the cap; a growth's loading product,
    # floor(t^alpha) and normalizer range, at most an eighth of a cap each,
    # add little to them
    ("unit.json", 2.75),
    # a noise law: a growth's step noise and its counts, at most an eighth of
    # a cap each, live with the aggregate sampler's temporaries
    ("two_group.json", 2.75),
])
def test_strong_law_replicate_peak_in_cap_arrays(model, cap_arrays):
    # a capacity no segment average of length 10 reaches, so the horizon
    # grows by an eighth from 256 up to the cap; each growth draws only its
    # new steps
    spec, _ = load_model(str(MODELS / model))
    cap = 1_024_000
    args = (canonical_document(spec), 100.0, (10,), (100,), cap, 1, 0)
    rep, peak = traced_peak(lambda: _strong_law_replicate(args))
    assert rep["horizon"] == cap and rep["T"] == {10: None}
    assert peak < cap_arrays * 8 * (cap + 1)


@pytest.mark.parametrize("t", [40, 2000])
def test_uldp_chunk_peak_independent_of_window_length(t):
    spec, _ = load_model(str(MODELS / "two_group.json"))
    size = 8192
    args = (canonical_document(spec), "0", t, ThresholdSet.above(0.4), size, 1, 0, 0)
    # numpy imports numpy.random on first use, some 650 kB, and the first chunk parses the
    # model text; no later chunk in the process allocates either
    _uldp_chunk(args)
    (hits, n), peak = traced_peak(lambda: _uldp_chunk(args))
    assert n == size and (0 < hits < size if t == 40 else hits == 0)
    # no array spans the window: the loading law draws one normal per sum, so
    # the chunk's sums, noise and averages are a few arrays of one value per sample
    assert peak < 8 * 8 * size
