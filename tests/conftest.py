import json
from dataclasses import dataclass, fields
from typing import Any

import numpy as np
import pytest
from hypothesis import settings

from strange_segments import ModelSpec, parse_model_document
from strange_segments.segments import _direct_widths, _one_sided_walk

# Example budgets for the properties that set none of their own: "dev" is the
# default, and CI selects the larger "ci" budget with --hypothesis-profile=ci.
settings.register_profile("dev", max_examples=300)
settings.register_profile("ci", max_examples=1500)
settings.load_profile("dev")


def segment_average(path, k, l):
    """Oracle: the average deviation over (k, l], (S(l) - S(k)) / (N(l) - N(k))."""
    assert 0 <= k < l <= path.t_max
    return float((path.S[l] - path.S[k]) / float(path.N[l] - path.N[k]))


def gaussian_closed_form(spec, x):
    """Oracle: the limit curve's transform for Gaussian innovations, x^2 / (2 (phi / C)^2 q).

    ``q = beta_sum' cov beta_sum`` is formed from the model's innovation
    covariance, not from the loading law the package derives from it.
    """
    q = float(spec.beta_sum @ spec.cov @ spec.beta_sum)
    return x * x / (2.0 * (spec.phi_total / spec.total_c) ** 2 * q)


def lorenz(alpha, k, p):
    """Oracle: the Lorenz curve of the window weight on (k, k+1), for 0 <= p <= 1.

    ``((k+p)^(alpha+1) - k^(alpha+1)) / ((k+1)^(alpha+1) - k^(alpha+1))``,
    pointwise nondecreasing in k, which is what makes the window log-MGF
    shrink toward the limit curve as the window moves out.
    """
    return ((k + p) ** (alpha + 1.0) - k ** (alpha + 1.0)) / ((k + 1.0) ** (alpha + 1.0) - k ** (alpha + 1.0))


@dataclass(frozen=True)
class LawSpec(ModelSpec):
    """A model whose loading law is ``law``, a test-only scalar law, in place of its Gaussian one.

    ``law`` keeps the loading contract: ``log_mgf`` and ``slope`` act element
    by element on a float array of any shape, and ``sample(rng, size)``
    returns shape ``(size,)``.
    """

    law: Any = None

    @property
    def loading(self):
        return self.law


def with_law(spec, law):
    """``spec`` with the loading law ``law``."""
    return LawSpec(**{f.name: getattr(spec, f.name) for f in fields(spec)}, law=law)


def ramp_widths(path, tset, t):
    """Reference: for each l = 0..t, the width of the widest deviant segment ending at l.

    Works on the tilted walk g of a one-sided set, where a deviant segment
    (k, l) is a ramp g[k] < g[l]. The earliest such k is always a strict
    prefix-minimum record, and the record values decrease, so one
    searchsorted per index finds it. Entries with no ramp are 0. This scan
    shares no code with the package's search for R and T beyond the walk.
    """
    assert 1 <= t <= path.t_max
    g = _one_sided_walk(path, tset, 0, t + 1)
    pm = np.minimum.accumulate(g)
    is_rec = np.empty(len(g), dtype=bool)
    is_rec[0] = True
    is_rec[1:] = g[1:] < pm[:-1]
    rec_pos = np.flatnonzero(is_rec)
    rec_val = g[rec_pos]  # strictly decreasing
    first = np.searchsorted(-rec_val, -g, side="right")
    widths = np.zeros(len(g), dtype=np.int64)
    idx = np.flatnonzero(first < len(rec_pos))
    widths[idx] = idx - rec_pos[first[idx]]
    return np.maximum(widths, 0)


def trajectory(path, tset, t):
    """Reference: R_0..R_t, the running maximum of the per-endpoint widths.

    One-sided sets take the widths from ``ramp_widths``, interval sets from
    the enumeration ``_direct_widths``.
    """
    if tset.kind == "interval":
        return np.maximum.accumulate(_direct_widths(path, tset, t))
    return np.maximum.accumulate(ramp_widths(path, tset, t))


def unit_document(**overrides):
    doc = {
        "alpha": 1.0,
        "groups": [{"c": 1, "mu": 0.0, "beta": [1.0]}],
        "phi": [{"lag": 0, "value": 1.0}],
        "innovations": {"type": "gaussian", "cov": [[1.0]]},
    }
    doc.update(overrides)
    return doc


@pytest.fixture
def unit_doc():
    return unit_document()


@pytest.fixture
def unit_spec():
    return parse_model_document(unit_document())


@pytest.fixture
def noisy_unit_spec():
    return parse_model_document(unit_document(noise={"type": "gaussian_noise", "var": 1.0}))


@pytest.fixture
def phi2_spec():
    return parse_model_document(unit_document(phi=[{"lag": 0, "value": 2.0}]))


@pytest.fixture
def cov4_spec():
    return parse_model_document(unit_document(innovations={"type": "gaussian", "cov": [[4.0]]}))


@pytest.fixture
def model_file(tmp_path):
    """Write a model document to disk and return its path."""

    def write(doc, name="model.json"):
        path = tmp_path / name
        path.write_text(json.dumps(doc))
        return str(path)

    return write
