"""Analytic convergence-rate machinery for the collocation estimator.

Builds the polyellipse radii that control parametric holomorphy, turns
them into per-variable stochastic decay rates, and evaluates the
piecewise work-rate formula together with its closed-form specialization
for the trigonometric log-uniform field (three analysis variants of
increasing sharpness: plain summability, squared summability, and the
improved choice of the derived exponents).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .quadrature import max_leb_delta
from .random_field import BSequence, FieldSpec, SummabilityError, b_sequence, max_order, p_bound

E_DELTA_RESIDUAL_TOL = 1e-10

#: Strict-inequality bounds on p_s get this safety offset when used as values.
P_SAFETY_OFFSET = 1e-6

VARIANTS = ("theory", "square", "improved")


class RateError(ValueError):
    """No convergent rate exists under the requested assumptions."""


@dataclass(frozen=True)
class EllipseParams:
    """Per-variable polyellipse geometry: semi-axis sums rho = tau + sqrt(tau^2 + 1)."""

    delta: float | None
    e_delta: float
    tau: tuple[float, ...]
    rho: tuple[float, ...]


@dataclass
class RatePrediction:
    """Outcome of the max-over-smoothness rate program."""

    variant: str
    r_misc: float
    s_star: int | None
    r_det_by_s: dict[int, float]
    p_by_s: dict[int, float]
    warnings: tuple[str, ...] = ()

    def to_json(self) -> str:
        return json.dumps(
            {
                "variant": self.variant,
                "r_misc": self.r_misc,
                "s_star": self.s_star,
                "r_det_by_s": {str(s): v for s, v in self.r_det_by_s.items()},
                "p_by_s": {str(s): v for s, v in self.p_by_s.items()},
                "warnings": list(self.warnings),
            },
            indent=1,
        )


def e_delta_equation(e: float, b0_l1_norm: float, delta: float) -> float:
    return math.pi / e - (-b0_l1_norm - math.log(delta) + math.log(math.cos(math.pi / e)))


def solve_E_delta(b0_l1_norm: float, delta: float) -> float:
    """Root E > 2 of pi/E = -|b_0|_1 - log(delta) + log cos(pi/E).

    The right side must be positive somewhere on E > 2, i.e. delta <
    exp(-|b_0|_1); larger delta leaves no admissible ellipse scaling.
    The residual of the returned root is below 1e-10.
    """
    if not delta > 0:
        raise ValueError("delta must be positive")
    ceiling = -b0_l1_norm - math.log(delta)
    if ceiling <= 0:
        raise RateError(
            f"delta too large for ellipse construction: need delta < exp(-|b0|_1) = {math.exp(-b0_l1_norm):.3g}"
        )
    # The residual pi/E - rhs decreases strictly from +inf (E -> 2+) to
    # -ceiling < 0 (E -> inf); bracket the sign change and bisect it.
    lo = 2.0 + 1e-12
    if e_delta_equation(lo, b0_l1_norm, delta) <= 0:
        raise RateError(
            "ellipse-scale root lies too close to 2 to bracket in double precision"
        )
    hi = 4.0
    while e_delta_equation(hi, b0_l1_norm, delta) > 0:
        hi *= 2.0
        if hi > 1e12:
            raise RateError("failed to bracket the ellipse-scale equation")
    # Bisect until lo and hi are adjacent doubles, at most about 100 steps.
    while (mid := 0.5 * (lo + hi)) not in (lo, hi):
        if e_delta_equation(mid, b0_l1_norm, delta) > 0:
            lo = mid
        else:
            hi = mid
    root = lo
    # Polish to the best representable root: near-boundary roots are steep,
    # so a few ulps can dominate the residual.
    best = float(root)
    best_residual = abs(e_delta_equation(best, b0_l1_norm, delta))
    for direction in (math.inf, -math.inf):
        candidate = float(root)
        for _ in range(4):
            candidate = math.nextafter(candidate, direction)
            residual = abs(e_delta_equation(candidate, b0_l1_norm, delta))
            if residual < best_residual:
                best, best_residual = candidate, residual
    if best_residual > E_DELTA_RESIDUAL_TOL:
        raise RateError(
            f"ellipse-scale root residual {best_residual:.2e} above tolerance; "
            "delta is too extreme to resolve in double precision"
        )
    return best


def ellipse_radii(b: BSequence, p_s: float, e_delta: float, delta: float | None = None) -> EllipseParams:
    """Polyellipse radii tau_j = pi * b_j^(p-1) / (E * |b|_p^p), rho = tau + sqrt(tau^2+1)."""
    if not 0.0 < p_s < 1.0:
        raise ValueError(f"summability exponent must lie in (0, 1), got {p_s}")
    values = b.as_array()
    if np.any(values <= 0.0):
        raise ValueError("zero entries in the derivative-norm sequence have no admissible radius")
    norm_p = float(np.sum(values**p_s))
    tau = math.pi * values ** (p_s - 1.0) / (e_delta * norm_p)
    rho = tau + np.sqrt(tau * tau + 1.0)
    return EllipseParams(delta, e_delta, tuple(float(t) for t in tau), tuple(float(r) for r in rho))


def g_rates(rho: Sequence[float], leb_bound: float) -> tuple[float, ...]:
    """Stochastic decay rates from polyellipse radii.

    Small radii (rho <= 2 L^(1/3)) keep the full log(rho); larger ones
    pay for the quadrature-increment operator norm L.  Every output is
    strictly positive.
    """
    if leb_bound < 1.0:
        raise ValueError("the operator-norm bound is at least 1")
    threshold = 2.0 * leb_bound ** (1.0 / 3.0)
    out = []
    for r in rho:
        if r <= 1.0:
            raise RateError(f"polyellipse radius must exceed 1, got {r}")
        if r <= threshold:
            out.append(math.log(r))
        else:
            out.append(math.log(r) - math.log(2.0) - math.log(leb_bound) / 3.0)
    return tuple(out)


def r_det(s: int, gamma: Sequence[float], dims: Sequence[int], multiplier: float = 1.0) -> float:
    """Spatial rate min{1 / max_i gamma_i d_i, s / sum_i gamma_i d_i}, optionally scaled."""
    if s < 0:
        raise ValueError("smoothness order must be nonnegative")
    if any(g < 1 for g in gamma) or any(d < 1 for d in dims):
        raise ValueError("cost exponents and dimensions must be >= 1")
    if s == 0:
        return 0.0
    products = [g * d for g, d in zip(gamma, dims)]
    return multiplier * min(1.0 / max(products), s / sum(products))


def r_misc(
    p0: float,
    ps: Callable[[int], float],
    r_det_fn: Callable[[int], float],
    s_max: int,
    improved: bool = False,
    variant: str | None = None,
) -> RatePrediction:
    """Max over s of the two-branch rate formula.

    With derived exponents 1/p - 1 (standard) the branches are r_det(s)
    when r_det(s) <= 1/p_s - 2, else
    (1/p0 - 2) / (1 + (1/p0 - 1/p_s) / r_det(s)); the improved variant
    replaces the derived exponent by 1/p, shifting both branches by one.
    Exponent-assumption violations are reported on the prediction, never
    clamped.
    """
    limit = 1.0 if improved else 0.5
    if not 0.0 < p0 < limit:
        raise RateError(
            f"method does not converge under the summability assumption: p0 = {p0} not in (0, {limit})"
        )
    if s_max < 0:
        raise ValueError("s_max must be nonnegative")
    warnings: list[str] = []
    shift = 1.0 if improved else 2.0
    t0 = 1.0 / p0 - (shift - 1.0)
    best = -math.inf
    best_s: int | None = None
    dets: dict[int, float] = {}
    pbys: dict[int, float] = {}
    for s in range(s_max + 1):
        p_s = ps(s)
        det = r_det_fn(s)
        dets[s] = det
        pbys[s] = p_s
        if not p0 <= p_s < limit:
            warnings.append(f"p_{s} = {p_s:.6g} violates p0 <= p_s < {limit}")
        if p_s <= 0:
            continue
        ts = 1.0 / p_s - (shift - 1.0)
        if det <= ts - 1.0 or det == 0.0:
            candidate = det
        else:
            candidate = (t0 - 1.0) / (1.0 + (t0 - ts) / det)
        if candidate > best:
            best = candidate
            best_s = s
    tag = variant or ("improved" if improved else "generic")
    return RatePrediction(tag, best, best_s, dets, pbys, tuple(warnings))


@dataclass
class StochasticRateInputs:
    """Everything needed to produce theoretical per-variable rates for one field."""

    field_spec: FieldSpec
    delta: float
    variant: str = "theory"
    leb_bound: float = field(default_factory=max_leb_delta)


def stochastic_rates(inputs: StochasticRateInputs, s: int = 0) -> tuple[float, ...]:
    """Theoretical g(rho_j) for derivative order s, using the computed operator-norm bound."""
    spec = inputs.field_spec
    b0 = b_sequence(0, spec)
    e_delta = solve_E_delta(float(np.sum(b0.as_array())), inputs.delta)
    bs = b_sequence(s, spec)
    p_s = p_bound(s, spec, "square" if inputs.variant != "theory" else "theory",
                  1.0 if inputs.variant == "improved" else 0.5) + P_SAFETY_OFFSET
    radii = ellipse_radii(bs, p_s, e_delta, inputs.delta)
    return g_rates(radii.rho, inputs.leb_bound)


def example_prediction(nu: float, d: int, gamma: float, variant: str) -> RatePrediction:
    """Full prediction record for one variant of the shipped example.

    The "theory" variant is the closed form
    1/gamma                      if nu/d >= 1/gamma + 5/2,
    (nu/d - 3/2) / (1 + gamma)   otherwise,
    valid for nu >= 3d/2 (zero exactly at the boundary); it optimizes
    over a continuous smoothness range, so it carries no integer
    maximizer.  "square" and "improved" run the max-over-s program with
    the squared-amplitude exponents, a doubled spatial rate (smooth
    functional of the solution), equal cost exponents on all d unit
    subdomains and (for "improved") the sharper derived exponents, over
    s <= d; their admissibility extends to nu > d/2 and nu > 0
    respectively.
    """
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}; expected one of {VARIANTS}")
    if not gamma >= 1:
        raise ValueError("gamma must be >= 1")
    if variant == "theory":
        if nu < 1.5 * d:
            raise RateError(f"theory variant needs nu >= 3d/2 = {1.5 * d}, got nu = {nu}")
        ratio = nu / d
        rate = 1.0 / gamma if ratio >= 1.0 / gamma + 2.5 else (ratio - 1.5) / (1.0 + gamma)
        return RatePrediction("theory", rate, None, {}, {})
    improved = variant == "improved"
    spec = FieldSpec(d=d, nu=nu, max_modes=1)
    limit = 1.0 if improved else 0.5
    try:
        # The doubled spatial rate is at its cap 2/gamma from s = d on while
        # p_s grows with s, so no larger s raises the rate: the program's
        # time and record stay bounded in nu.
        s_max = max_order(spec, "square", limit, cap=d)
        p_of = lambda s: p_bound(s, spec, "square", limit) + P_SAFETY_OFFSET
        det_of = lambda s: r_det(s, (gamma,) * d, (1,) * d, multiplier=2.0)
        return r_misc(p_of(0), p_of, det_of, s_max, improved=improved, variant=variant)
    except SummabilityError as exc:
        raise RateError(f"variant {variant!r} inadmissible at nu = {nu}, d = {d}: {exc}") from exc


def r_misc_example(nu: float, d: int, gamma: float, variant: str) -> float:
    """Predicted work rate of the trigonometric log-uniform example:
    ``example_prediction(nu, d, gamma, variant).r_misc``."""
    return example_prediction(nu, d, gamma, variant).r_misc


def predict_all_variants(nu: float, d: int, gamma: float) -> dict[str, float | None]:
    """Rates of the three variants, None where a variant is inadmissible."""
    out: dict[str, float | None] = {}
    for variant in VARIANTS:
        try:
            out[variant] = r_misc_example(nu, d, gamma, variant)
        except RateError:
            out[variant] = None
    return out
