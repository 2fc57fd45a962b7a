"""Numerical evaluation of the workload rate functions.

Two convex log-MGF limits drive all asymptotics of long deviant segments:

* the limit curve ``Lambda(lam) = log_mgf(lam * phi * beta_bar)``, which
  governs segments far from the start of the horizon, and
* the position-indexed curve for a window spanning offsets ``(k, k+1)`` in
  units of the window length,

  ``Lambda_k(lam) = integral_k^{k+1} log_mgf(w_k(y) * lam * phi * beta_bar) dy``,
  ``w_k(y) = (alpha+1) y**alpha / ((k+1)**(alpha+1) - k**(alpha+1))``,

  which reduces to the limit curve as ``k -> infinity``.

Their Fenchel-Legendre transforms ``f*(x) = sup_lam {lam x - f(lam)}`` are
computed by solving ``f'(lam) = x``. The derivative is continuous and
increasing, so a doubled bracket plus Brent's method (interpolation steps
guarded by bisection) is globally safe and converges superlinearly. The
capacity inversion solves ``Lambda*(C) = target`` on the increasing branch
through the duality ``Lambda*(Lambda'(lam)) = lam Lambda'(lam) - Lambda(lam)``,
so it needs one root search in lam rather than a transform per probe.

A ``RateFunctionCtx`` keeps one ``_Curve`` per curve it is asked about: the
limit curve, or a window offset ``k``. A window curve keeps the innovation
law's ray along ``beta_bar`` (``InnovationModel.ray``) and the window
constant ``phi (alpha+1) / mass(k)`` for its quadrature. Every curve keeps
its slope, and its value where asked, at the points all queries on it share:
lam = 0, where the slope is the mean, and the bracket probes
``+-_LAMBDA_BRACKET * 2**j``. One context therefore serves any number of x on
a curve, and each x pays only for its own Brent steps. The points are keyed by
probe index, so a curve holds at most ``2 * _MAX_BRACKET_DOUBLINGS + 1`` of
them. A curve holds the model and the tolerance, not the context, so a
dropped context is freed at once. Every value and slope is computed through
``lambda_limit``, ``lambda_limit_prime``, ``lambda_k`` or ``lambda_k_prime``,
looked up by name at each call.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from math import copysign, expm1, inf, isfinite, log1p
from typing import Callable, Optional, Union

import numpy as np

from .errors import BracketError, ModelValidationError, NumericalError, QuadratureError
from .innovations import GaussianInnovations
from .model_core import ModelSpec
from .segments import ThresholdSet

# Gauss-Legendre order is doubled from _QUAD_ORDER until two successive
# estimates agree to quad_tol, relative to the estimate once it exceeds 1; the
# cap only guards against a non-smooth integrand, which the closed-form
# log-MGF contract rules out.
_QUAD_ORDER = 32
_MAX_QUAD_ORDER = 8192
_LAMBDA_BRACKET = 1.0  # first |lam| a root bracket tries before doubling
_MAX_BRACKET_DOUBLINGS = 60
# Brent's method on a monotone g needs a few dozen steps at the default
# tolerances; the cap stops a search on a g that is not finite or not monotone.
_MAX_ROOT_STEPS = 500
_EPS = 2.0**-52  # spacing of doubles at 1.0
_ZERO = (0, 0)  # key of lam = 0 among a curve's shared points; probe j on side s is (s, j)

WhichCurve = Union[str, float]  # "limit" or a window offset k >= 0


@dataclass(frozen=True)
class RateFunctionCtx:
    """Numerical context: model reference plus tolerances.

    ``quad_tol`` bounds the change between successive quadrature estimates,
    absolutely for estimates up to 1 in magnitude and relative to the
    estimate above that. ``root_tol`` is the root searches' tolerance.

    It also keeps one ``_Curve`` per curve asked about, keyed "limit" or by
    the float window offset, so a curve's shared points are computed once per
    context.
    """

    spec: ModelSpec
    quad_tol: float = 1e-10
    root_tol: float = 1e-12
    _curves: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if not all(isfinite(tol) and tol > 0 for tol in (self.quad_tol, self.root_tol)):
            raise ModelValidationError(
                "tolerances_positive", "quad_tol and root_tol must be finite and > 0"
            )


@dataclass(frozen=True)
class LegendreResult:
    """Value of a Fenchel-Legendre transform and the maximizing lambda."""

    value: float
    argmax_lambda: float


@lru_cache(maxsize=32)
def _leggauss(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on (-1, 1), shared read-only."""
    nodes, weights = np.polynomial.legendre.leggauss(order)
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


# 256 grids hold at most 16 MB, even all at _MAX_QUAD_ORDER; a query touches
# one grid per (curve, order), so repeated queries on a few models all hit.
@lru_cache(maxsize=256)
def _window_grid(alpha: float, coeff: float, k: float, order: int) -> tuple[np.ndarray, np.ndarray]:
    """Integrand loadings ``coeff * y**alpha`` at the order-``order`` nodes on
    (k, k+1), with the matching weights; shared read-only."""
    nodes, weights = _leggauss(order)
    y = k + 0.5 * (nodes + 1.0)
    g = coeff * y**alpha
    g.setflags(write=False)
    return g, weights


def _interval_mass(alpha: float, k: float, p: float = 1.0) -> float:
    """(k+p)**(alpha+1) - k**(alpha+1), stably for large k."""
    if k == 0.0:
        return p ** (alpha + 1.0)
    return k ** (alpha + 1.0) * expm1((alpha + 1.0) * log1p(p / k))


class _Curve:
    """One curve of a context: the limit curve (``k`` None) or the window curve at offset ``k``.

    ``slopes`` and ``values`` hold the curve at its shared points, keyed
    ``_ZERO`` for lam = 0 and ``(side, j)`` for the j-th bracket probe on
    ``side``: keys, not float lambdas, so that +0.0 and -0.0 never collide.
    """

    __slots__ = ("spec", "quad_tol", "k", "ray", "coeff", "slopes", "values")

    def __init__(self, spec: ModelSpec, quad_tol: float, k: Optional[float] = None):
        self.spec = spec
        self.quad_tol = quad_tol
        self.k = k
        self.slopes: dict[tuple, float] = {}
        self.values: dict[tuple, float] = {}
        if k is not None:
            if not 0.0 <= k < inf:
                raise ModelValidationError(
                    "window_offset", f"window offset k must be finite and >= 0, got {k:g}"
                )
            self.coeff = spec.phi_total * (spec.alpha + 1.0) / _interval_mass(spec.alpha, k)
            self.ray = spec.innovations.ray(spec.beta_bar)

    def slope_at(self, key: tuple, lam: float, fprime: Callable[[float], float]) -> float:
        """Slope at the shared point ``key``, which lies at ``lam``; ``fprime`` computes it once."""
        slope = self.slopes.get(key)
        if slope is None:
            slope = self.slopes[key] = fprime(lam)
        return slope

    def value_at(self, key: tuple, lam: float, f: Callable[[float], float]) -> float:
        """Value at the shared point ``key``, which lies at ``lam``; ``f`` computes it once."""
        value = self.values.get(key)
        if value is None:
            value = self.values[key] = f(lam)
        return value

    def quadrature(self, lam: float, differentiated: bool) -> float:
        """Adaptive Gauss-Legendre over (k, k+1) of the (optionally differentiated)
        window integrand."""
        alpha, coeff, k = self.spec.alpha, self.coeff, self.k
        ray = self.ray

        def estimate(order: int) -> float:
            g, weights = _window_grid(alpha, coeff, k, order)
            if differentiated:
                vals = g * ray.slope(g * lam)
            else:
                vals = ray.log_mgf(g * lam)
            return 0.5 * float(weights @ vals)

        order = _QUAD_ORDER
        prev = estimate(order)
        while order < _MAX_QUAD_ORDER:
            order *= 2
            cur = estimate(order)
            if abs(cur - prev) < self.quad_tol * max(1.0, abs(cur)):
                return cur
            prev = cur
        raise QuadratureError(
            f"quadrature did not reach tolerance {self.quad_tol:g} by order {_MAX_QUAD_ORDER}",
            achieved=abs(cur - prev),
        )


def _window(ctx: RateFunctionCtx, k: float) -> _Curve:
    """The context's window curve at offset ``k``, built on first use (which refuses k < 0)."""
    k = float(k)
    curve = ctx._curves.get(k)
    if curve is None:
        curve = ctx._curves[k] = _Curve(ctx.spec, ctx.quad_tol, k)
    return curve


def lambda_limit(ctx: RateFunctionCtx, lam: float) -> float:
    """Limit log-MGF: log_mgf(lam * phi * beta_bar)."""
    spec = ctx.spec
    return spec.innovations.log_mgf(lam * spec.phi_total * spec.beta_bar)


def lambda_limit_prime(ctx: RateFunctionCtx, lam: float) -> float:
    """Derivative of the limit log-MGF in lam."""
    spec = ctx.spec
    v = spec.phi_total * spec.beta_bar
    return float(v @ spec.innovations.grad_log_mgf(lam * v))


def lambda_k(ctx: RateFunctionCtx, k: float, lam: float) -> float:
    """Window log-MGF at offset ``k`` (exactly 0 at lam = 0)."""
    curve = _window(ctx, k)
    if lam == 0.0:
        return 0.0
    return curve.quadrature(lam, differentiated=False)


def lambda_k_prime(ctx: RateFunctionCtx, k: float, lam: float) -> float:
    """Derivative of the window log-MGF in lam, by the differentiated integrand."""
    return _window(ctx, k).quadrature(lam, differentiated=True)


def _curve(ctx: RateFunctionCtx, which: WhichCurve):
    """Return the context's curve for ``which`` with its (f, f') callables.

    f and f' call the module functions by name on each evaluation.
    """
    if isinstance(which, str):
        if which != "limit":
            raise ValueError(f"unknown curve {which!r}; expected 'limit' or a window offset")
        curve = ctx._curves.get("limit")
        if curve is None:
            curve = ctx._curves["limit"] = _Curve(ctx.spec, ctx.quad_tol)
        return (curve, lambda lam: lambda_limit(ctx, lam), lambda lam: lambda_limit_prime(ctx, lam))
    curve = _window(ctx, which)
    k = curve.k
    return (curve, lambda lam: lambda_k(ctx, k, lam), lambda lam: lambda_k_prime(ctx, k, lam))


def _increasing_root(g, lo: float, hi: float, tol: float, *, g_lo: float, g_hi: float) -> float:
    """Root of a nondecreasing continuous ``g`` bracketed by ``g_lo <= 0 <= g_hi``.

    Brent's method (Brent 1973, *Algorithms for Minimization without
    Derivatives*, ch. 4): inverse-quadratic or secant steps, replaced by a
    bisection whenever a step would leave the bracket or shrink it too
    slowly. Stops once the bracket is within ``tol`` (or the spacing of
    doubles near the root) and returns the end with the smaller residual.
    """
    if g_lo == 0.0:
        return lo
    if g_hi == 0.0:
        return hi
    a, fa, b, fb = lo, g_lo, hi, g_hi
    c, fc = a, fa
    d = e = b - a
    for _ in range(_MAX_ROOT_STEPS):
        if (fb > 0.0) == (fc > 0.0):
            c, fc = a, fa
            d = e = b - a
        if abs(fc) < abs(fb):
            a, fa, b, fb, c, fc = b, fb, c, fc, b, fb
        step_tol = 2.0 * _EPS * abs(b) + 0.5 * tol
        m = 0.5 * (c - b)
        if abs(m) <= step_tol or fb == 0.0:
            return b
        if abs(e) >= step_tol and abs(fa) > abs(fb):
            s = fb / fa
            if a == c:
                p, q = 2.0 * m * s, 1.0 - s
            else:
                q, r = fa / fc, fb / fc
                p = s * (2.0 * m * q * (q - r) - (b - a) * (r - 1.0))
                q = (q - 1.0) * (r - 1.0) * (s - 1.0)
            if p > 0.0:
                q = -q
            else:
                p = -p
            if 2.0 * p < min(3.0 * m * q - abs(step_tol * q), abs(e * q)):
                e, d = d, p / q
            else:
                e = d = m
        else:
            e = d = m
        a, fa = b, fb
        b += d if abs(d) > step_tol else copysign(step_tol, m)
        fb = g(b)
    raise NumericalError(
        f"root search did not reach tolerance {tol:g} within {_MAX_ROOT_STEPS} steps"
    )


def _root_beyond_zero(g, probe, g_zero: float, side: float, tol: float, what: str) -> float:
    """Root of a nondecreasing continuous ``g`` on the ``side`` (+1 or -1) of 0, where it is ``g_zero``.

    The bracket doubles from _LAMBDA_BRACKET until ``side * g`` reaches 0 (else
    BracketError(``what``)), then Brent's method runs on the last doubling step.
    ``probe(j, lam)`` is ``g`` at the j-th bracket probe ``lam``, which it may
    build from a curve's shared points.
    """
    near, g_near = 0.0, g_zero
    b = _LAMBDA_BRACKET
    for j in range(_MAX_BRACKET_DOUBLINGS):
        g_far = probe(j, side * b)
        if side * g_far >= 0.0:
            break
        near, g_near = side * b, g_far
        b *= 2.0
    else:
        raise BracketError(what)
    if side > 0:
        return _increasing_root(g, near, b, tol, g_lo=g_near, g_hi=g_far)
    return _increasing_root(g, -b, near, tol, g_lo=g_far, g_hi=g_near)


def legendre(ctx: RateFunctionCtx, which: WhichCurve, x: float) -> LegendreResult:
    """Fenchel-Legendre transform of the selected curve at ``x``.

    Solves ``f'(lam) = x`` by ``_root_beyond_zero`` on the side of 0 where
    the derivative passes ``x``; a bracket that never reaches it means the
    model is not steep along the loading direction. ``x`` exactly at the
    mean slope ``f'(0)`` returns 0 without any root finding. The mean and
    the bracket probes come from the curve's shared points.
    """
    if not isfinite(x):
        raise ValueError(f"the transform needs a finite x, got {x!r}")
    curve, f, fprime = _curve(ctx, which)
    mean = curve.slope_at(_ZERO, 0.0, fprime)
    if x == mean:
        return LegendreResult(0.0, 0.0)

    side = 1.0 if x > mean else -1.0
    lam = _root_beyond_zero(
        lambda lam: fprime(lam) - x,
        lambda j, lam: curve.slope_at((side, j), lam, fprime) - x,
        mean - x, side, ctx.root_tol,
        "steepness violation: derivative of the log-MGF never passed "
        f"x={x:g} within {_MAX_BRACKET_DOUBLINGS} bracket doublings",
    )
    value = lam * x - f(lam)
    return LegendreResult(max(value, 0.0), lam)


def gaussian_closed_form(spec: ModelSpec, x: float) -> float:
    """Closed-form transform of the limit curve for Gaussian innovations.

    ``x**2 / (2 phi**2 beta_bar' cov beta_bar)``; the quadratic form must be
    positive for the model to be steep along the loading direction.
    """
    model = spec.innovations
    if not isinstance(model, GaussianInnovations):
        raise ModelValidationError(
            "gaussian_innovations_required",
            "the closed form applies only to Gaussian innovation models",
        )
    quad = float(spec.beta_bar @ model.cov @ spec.beta_bar)
    if quad <= 0.0:
        raise ModelValidationError(
            "gaussian_direction_variance",
            "beta_bar' cov beta_bar must be positive for a usable Gaussian model",
        )
    return x * x / (2.0 * spec.phi_total**2 * quad)


def invert_capacity(ctx: RateFunctionCtx, target_rate: float) -> float:
    """Capacity headroom C with ``Lambda*(C) = target_rate`` (above-mean branch).

    On that branch ``C = Lambda'(lam)`` for some lam > 0, where
    ``Lambda*(C) = lam Lambda'(lam) - Lambda(lam)``. The right side is 0 at
    lam = 0 and nondecreasing for lam > 0, so ``_root_beyond_zero`` finds
    lam to root_tol, and C is the slope there. The bracket probes take the
    limit curve's shared points, which a later ``legendre`` on the same
    context reuses.
    """
    if not 0.0 < target_rate < inf:
        raise ValueError("target rate must be finite and > 0")
    curve, f, fprime = _curve(ctx, "limit")

    def excess(lam: float) -> float:
        return lam * fprime(lam) - f(lam) - target_rate

    def excess_at_probe(j: int, lam: float) -> float:
        key = (1.0, j)
        return lam * curve.slope_at(key, lam, fprime) - curve.value_at(key, lam, f) - target_rate

    lam = _root_beyond_zero(  # the excess is -target_rate at lam = 0, where Lambda(0) = 0
        excess, excess_at_probe, -target_rate, 1.0, ctx.root_tol,
        f"could not bracket the capacity for target rate {target_rate:g}",
    )
    return fprime(lam)


def lorenz(alpha: float, k: float, p: float) -> float:
    """Lorenz curve of the normalized power-growth weight on (k, k+1).

    ``((k+p)**(alpha+1) - k**(alpha+1)) / ((k+1)**(alpha+1) - k**(alpha+1))``
    for 0 <= p <= 1; pointwise nondecreasing in k, which is what makes the
    window log-MGF shrink toward the limit curve as the window moves out.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    if k < 0:
        raise ValueError("window offset k must be >= 0")
    if alpha <= 0:
        raise ValueError("alpha must be > 0")
    return _interval_mass(alpha, k, p) / _interval_mass(alpha, k, 1.0)


def set_rate(ctx: RateFunctionCtx, which: WhichCurve, tset: ThresholdSet) -> float:
    """inf over an open threshold set of the selected transform.

    The transform is convex with its minimum (value 0) at the mean slope, so
    the infimum over an open interval-type set is attained at the endpoint
    nearest the mean, or is 0 when the set reaches the mean. By continuity
    the infimum over the closure is the same, so a single number covers both
    the optimistic and conservative asymptotic bounds.
    """
    curve, _, fprime = _curve(ctx, which)
    mean = curve.slope_at(_ZERO, 0.0, fprime)
    if tset.kind == "above":
        return 0.0 if tset.a <= mean else legendre(ctx, which, tset.a).value
    if tset.kind == "below":
        return 0.0 if tset.a >= mean else legendre(ctx, which, tset.a).value
    if mean <= tset.a:
        return legendre(ctx, which, tset.a).value
    if mean >= tset.b:
        return legendre(ctx, which, tset.b).value
    return 0.0
