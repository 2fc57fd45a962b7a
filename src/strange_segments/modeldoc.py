"""Model document handling: JSON schema, validation, canonical digests.

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
a run. Every validation failure names the violated invariant.

``groups[].mu`` and ``trunc_tol`` are accepted and enter the model digest,
but no computation reads them: paths are deviations from the mean workload,
and ``phi`` is always a finite literal family.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Any, Mapping

import numpy as np

from .errors import ModelValidationError
from .innovations import GaussianInnovations, GaussianNoise, InnovationModel, NoiseModel, check_steepness
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


def _parse_innovations(obj: Any) -> InnovationModel:
    if not isinstance(obj, dict):
        raise ModelValidationError("innovations_object", "innovations must be an object")
    kind = _require(obj, "type", "innovations")
    if kind == "gaussian":
        _reject_unknown(obj, {"type", "cov"}, "innovations")
        return GaussianInnovations(cov=np.asarray(_require(obj, "cov", "innovations"), dtype=np.float64))
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
        return GaussianNoise(var=float(_require(obj, "var", "noise")))
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

    innovations = _parse_innovations(_require(doc, "innovations", "model document"))

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
        groups.append(CustomerGroup(c=c, mu=float(_require(g, "mu", f"group {idx}")), beta=tuple(beta)))

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
        coeffs[lag] = float(_require(entry, "value", f"phi[{idx}]"))

    spec = ModelSpec(
        alpha=float(_require(doc, "alpha", "model document")),
        groups=tuple(groups),
        ma=MACoefficients(coeffs, trunc_tol=float(doc.get("trunc_tol", 0.0))),
        innovations=innovations,
        noise=_parse_noise(doc.get("noise")),
    )
    # Advisory only at load time; becomes an error if bracketing ever fails.
    check_steepness(spec.innovations, spec.phi_total * spec.beta_bar)
    return spec


def load_model(path: str | Path) -> tuple[ModelSpec, str]:
    """Read and validate a model document; returns (spec, file digest)."""
    raw = Path(path).read_bytes()
    try:
        doc = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ModelValidationError("json_syntax", f"model document is not valid JSON: {exc}") from exc
    return parse_model_document(doc), hashlib.sha256(raw).hexdigest()


def canonical_document(spec: ModelSpec) -> dict:
    """Canonical JSON-ready form of a ModelSpec (inverse of parsing)."""
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
    if isinstance(spec.innovations, GaussianInnovations):
        doc["innovations"] = {"type": "gaussian", "cov": spec.innovations.cov.tolist()}
    else:  # pragma: no cover - only Gaussian ships
        doc["innovations"] = {"type": type(spec.innovations).__name__}
    if spec.noise is None:
        doc["noise"] = {"type": "none"}
    elif isinstance(spec.noise, GaussianNoise):
        doc["noise"] = {"type": "gaussian_noise", "var": spec.noise.var}
    else:  # pragma: no cover
        doc["noise"] = {"type": type(spec.noise).__name__}
    return doc


def model_digest(spec: ModelSpec) -> str:
    """sha256 of the canonical document; stable across processes."""
    blob = json.dumps(canonical_document(spec), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()
