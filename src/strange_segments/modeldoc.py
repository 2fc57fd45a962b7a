"""Model document handling: JSON schema, validation, canonical form.

A model document is a single JSON object:

    {
      "alpha": 1.0,
      "groups": [{"c": 1, "mu": 0.0, "beta": [1.0]}],
      "phi": [{"lag": 0, "value": 1.0}],
      "innovations": {"type": "gaussian", "cov": [[1.0]]},
      "noise": {"type": "gaussian_noise", "var": 1.0},   // or {"type": "none"}
      "trunc_tol": 0.0                                    // optional
    }

Unknown keys anywhere are a hard error so that typos cannot silently change
a run. Every validation failure names the violated invariant. Every number
of the model must be a JSON number: a string, boolean or null in its place
is refused under ``value_type``, naming its field. Python's ``json`` reads
``NaN`` and ``Infinity``; every number of the model must be finite, and a
non-finite one is refused under ``finite_number``, naming its field.

The covariance must be square (``cov_square``), symmetric (``cov_symmetric``)
and positive semidefinite (``cov_psd``), and the loading variance
``beta_sum' cov beta_sum`` must be positive and finite (``loading_variance``):
a zero-variance loading has a flat log-MGF, so it is refused at load.

``groups[].mu`` and ``trunc_tol`` are accepted and kept in the canonical
document, but no computation reads them: paths are deviations from the mean
workload, and ``phi`` is always a finite literal family.
"""

from __future__ import annotations

import hashlib
import json
import math
import numbers
from pathlib import Path
from typing import Any, Mapping

import numpy as np

from .errors import ModelValidationError
from .innovations import GaussianNoise, NoiseModel
from .model_core import CustomerGroup, MACoefficients, ModelSpec


def _reject_unknown(obj: Mapping[str, Any], allowed: set[str], where: str) -> None:
    unknown = set(obj) - allowed
    if unknown:
        raise ModelValidationError(
            "unknown_key", f"unknown key(s) {sorted(unknown)} in {where}"
        )


def _require(obj: Mapping[str, Any], key: str, where: str) -> Any:
    if key not in obj:
        raise ModelValidationError("missing_key", f"missing required key {key!r} in {where}")
    return obj[key]


def _finite(value: Any, where: str) -> float:
    """``value`` as a float, refused unless it is a finite number (not a string, boolean or null)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        got = f"{type(value).__name__} {value!r}"
        raise ModelValidationError("value_type", f"{where} must be a number, got {got}")
    x = float(value)
    if not math.isfinite(x):
        raise ModelValidationError("finite_number", f"{where} must be a finite number, got {x}")
    return x


def _entries(value: Any) -> Any:
    """The nested arrays ``value`` with each entry checked by ``_finite``, as numpy would convert none."""
    return [_entries(v) for v in value] if isinstance(value, list) else _finite(value, "innovations cov")


def _parse_covariance(obj: Any) -> np.ndarray:
    """The covariance of the ``innovations`` object; ``ModelSpec`` checks its shape and values."""
    if not isinstance(obj, dict):
        raise ModelValidationError("innovations_object", "innovations must be an object")
    kind = _require(obj, "type", "innovations")
    if kind == "gaussian":
        _reject_unknown(obj, {"type", "cov"}, "innovations")
        return np.asarray(_entries(_require(obj, "cov", "innovations")), dtype=np.float64)
    raise ModelValidationError(
        "innovation_type",
        f"unsupported innovation type {kind!r}; a closed-form log-MGF is required",
    )


def _parse_noise(obj: Any) -> NoiseModel | None:
    if obj is None:
        return None
    if not isinstance(obj, dict):
        raise ModelValidationError("noise_object", "noise must be an object")
    kind = _require(obj, "type", "noise")
    if kind == "none":
        _reject_unknown(obj, {"type"}, "noise")
        return None
    if kind == "gaussian_noise":
        _reject_unknown(obj, {"type", "var"}, "noise")
        return GaussianNoise(var=_finite(_require(obj, "var", "noise"), "noise var"))
    raise ModelValidationError("noise_type", f"unsupported noise type {kind!r}")


def parse_model_document(doc: Any) -> ModelSpec:
    """Build a validated ModelSpec from a parsed JSON document."""
    try:
        return _parse_model_document(doc)
    except (TypeError, ValueError) as exc:
        # ModelValidationError does not derive from these, so real
        # validation failures pass through untouched
        raise ModelValidationError(
            "value_type", f"model document contains a value of the wrong type: {exc}"
        ) from exc


def _parse_model_document(doc: Any) -> ModelSpec:
    if not isinstance(doc, dict):
        raise ModelValidationError("document_object", "model document must be a JSON object")
    _reject_unknown(doc, {"alpha", "groups", "phi", "innovations", "noise", "trunc_tol"}, "model document")

    cov = _parse_covariance(_require(doc, "innovations", "model document"))

    raw_groups = _require(doc, "groups", "model document")
    if not isinstance(raw_groups, list) or not raw_groups:
        raise ModelValidationError("groups_nonempty", "groups must be a non-empty array")
    groups = []
    for idx, g in enumerate(raw_groups, start=1):
        if not isinstance(g, dict):
            raise ModelValidationError("group_object", f"group {idx} must be an object")
        _reject_unknown(g, {"c", "mu", "beta"}, f"group {idx}")
        c = _require(g, "c", f"group {idx}")
        if not isinstance(c, int) or isinstance(c, bool):
            raise ModelValidationError(
                "group_c_positive_integer", f"group {idx}: c must be a positive integer"
            )
        beta = _require(g, "beta", f"group {idx}")
        if not isinstance(beta, list):
            raise ModelValidationError("beta_array", f"group {idx}: beta must be an array")
        mu = _finite(_require(g, "mu", f"group {idx}"), f"group {idx} mu")
        groups.append(CustomerGroup(c=c, mu=mu, beta=tuple(_finite(b, f"group {idx} beta") for b in beta)))

    raw_phi = _require(doc, "phi", "model document")
    if not isinstance(raw_phi, list) or not raw_phi:
        raise ModelValidationError("phi_nonempty", "phi must be a non-empty array")
    coeffs: dict[int, float] = {}
    for idx, entry in enumerate(raw_phi):
        if not isinstance(entry, dict):
            raise ModelValidationError("phi_entry_object", f"phi[{idx}] must be an object")
        _reject_unknown(entry, {"lag", "value"}, f"phi[{idx}]")
        lag = _require(entry, "lag", f"phi[{idx}]")
        if not isinstance(lag, int) or isinstance(lag, bool):
            raise ModelValidationError("phi_lag_integer", f"phi[{idx}]: lag must be an integer")
        if lag in coeffs:
            raise ModelValidationError("phi_lag_unique", f"duplicate phi lag {lag}")
        coeffs[lag] = _finite(_require(entry, "value", f"phi[{idx}]"), f"phi[{idx}] value")

    spec = ModelSpec(
        alpha=_finite(_require(doc, "alpha", "model document"), "alpha"),
        groups=tuple(groups),
        ma=MACoefficients(coeffs, trunc_tol=_finite(doc.get("trunc_tol", 0.0), "trunc_tol")),
        cov=cov,
        noise=_parse_noise(doc.get("noise")),
    )
    spec.loading  # forms the loading law, which refuses a zero or non-finite variance
    return spec


def load_model(path: str | Path) -> tuple[ModelSpec, str]:
    """Read and validate a model document; returns (spec, file digest)."""
    raw = Path(path).read_bytes()
    try:
        doc = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ModelValidationError("json_syntax", f"model document is not valid JSON: {exc}") from exc
    return parse_model_document(doc), hashlib.sha256(raw).hexdigest()


def canonical_document(spec: ModelSpec) -> str:
    """Canonical JSON text of a ModelSpec (inverse of parsing).

    The text is ``json.dumps`` of the document with sorted keys, so equal
    specs give equal texts. It is hashable and a few hundred bytes long:
    the Monte Carlo work units carry it, and each process parses a distinct
    text once.
    """
    doc: dict[str, Any] = {
        "alpha": spec.alpha,
        "groups": [
            {"c": g.c, "mu": g.mu, "beta": list(g.beta)} for g in spec.groups
        ],
        "phi": [
            {"lag": lag, "value": spec.ma.coeffs[lag]} for lag in spec.ma.lags
        ],
        "trunc_tol": spec.ma.trunc_tol,
    }
    doc["innovations"] = {"type": "gaussian", "cov": spec.cov.tolist()}
    if spec.noise is None:
        doc["noise"] = {"type": "none"}
    elif isinstance(spec.noise, GaussianNoise):
        doc["noise"] = {"type": "gaussian_noise", "var": spec.noise.var}
    else:  # pragma: no cover
        doc["noise"] = {"type": type(spec.noise).__name__}
    return json.dumps(doc, sort_keys=True)
