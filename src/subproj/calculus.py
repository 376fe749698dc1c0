"""Operator calculus for subgradient projections.

Each identity is provided as a direct formula; the composed FunctionSpec
routes through the ordinary projector, so every rule here can be checked
against the projection of the combined description.

Rules
-----
scale           G_{lam f} = G_f
left compose    G_{phi o f} x = x + phi(f(x)) / (f(x) phi'(f(x))) (G_f x - x)
power           G_{f^(1/alpha)} = (1 - alpha) Id + alpha G_f       (f >= 0)
right linear    alpha G_{f o L} = L^T o G_f o L    when L^T L = L L^T = alpha I
convex comb     five-row case table; splits iff f(x) g(x) >= 0
sum             mean of the two projections plus a min(|f|, |g|) correction
inf-convolution split into partial projections iff f(Mx) g(x - Mx) >= 0
"""

from __future__ import annotations

import numpy as np

from .core import as_vector, finite_float
from .errors import (
    NegativeBaseError,
    NonMonotonePhi,
    NotPositiveHere,
)
from .functions import (
    _BASE_SLACK,
    LEAST_INDEX,
    FunctionSpec,
    InfConv,
    Scale,
    SelectionStrategy,
    scaled_orthogonal_factor,
)
from .projector import ProjOutcome, _checked, _normal, _value, halfspace_project, sproj


def sproj_scale(lam: float, f: FunctionSpec, x,
                strategy: SelectionStrategy = LEAST_INDEX) -> ProjOutcome:
    """Projection of lam*f under the scaled selection; the point equals G_f x."""
    return sproj(Scale(lam, f), x, strategy)


def sproj_leftcompose(phi_pair, f: FunctionSpec, x) -> np.ndarray:
    """Projection of phi o f at x via the displacement rescaling rule.

    ``phi_pair`` is a (phi, dphi) pair of scalar callables with phi(0) = 0 and
    phi strictly increasing on the range of f.  Requires a unique gradient of
    f at x when f(x) > 0; raises NonMonotonePhi when dphi(f(x)) <= 0.
    """
    phi, dphi = phi_pair
    x = as_vector(x, dim=f.dim)
    fx = _value(f, x)
    if fx <= 0.0:
        return np.array(x)
    slope = float(dphi(fx))
    if slope <= 0.0:
        raise NonMonotonePhi(f"phi'({fx}) = {slope} must be positive")
    gx = halfspace_project(x, f.gradient(x), fx)
    ratio = float(phi(fx)) / (fx * slope)
    return x + ratio * (gx - x)


def sproj_power(alpha: float, f: FunctionSpec, x,
                strategy: SelectionStrategy = LEAST_INDEX) -> np.ndarray:
    """Projection of f^(1/alpha) for f >= 0:  (1 - alpha) x + alpha G_f x."""
    alpha = finite_float(alpha, "alpha")
    if alpha <= 0.0:
        raise ValueError("alpha must be positive")
    x = as_vector(x, dim=f.dim)
    out = sproj(f, x, strategy)
    if out.f_value < -_BASE_SLACK:
        raise NegativeBaseError(f"the power rule needs f >= 0, got f(x) = {out.f_value}")
    return (1.0 - alpha) * x + alpha * out.point


def sproj_rightlinear(L, f: FunctionSpec, y,
                      strategy: SelectionStrategy = LEAST_INDEX) -> np.ndarray:
    """Projection of f o L for a scaled-orthogonal L:  (1/alpha) L^T G_f(L y)."""
    L = np.asarray(L, dtype=float)
    alpha = scaled_orthogonal_factor(L)
    y = as_vector(y, dim=L.shape[1])
    return (L.T @ sproj(f, L @ y, strategy).point) / alpha


def sproj_convexcomb(alpha: float, f: FunctionSpec, g: FunctionSpec,
                     joint_u, x) -> np.ndarray:
    """Projection of alpha*f + (1-alpha)*g under a joint selection.

    Implemented literally as a branch on the signs of f(x), g(x) and of the
    combination, so each row of the underlying case analysis is individually
    addressable.  Equals alpha G_f x + (1-alpha) G_g x exactly when
    f(x) g(x) >= 0.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    x = as_vector(x, dim=f.dim)
    fx = _value(f, x)
    gx = _value(g, x)
    if fx <= 0.0 and gx <= 0.0:
        return np.array(x)
    u, n2 = _normal(joint_u(x), x)
    hx = alpha * fx + (1.0 - alpha) * gx
    pf = x - (max(fx, 0.0) / n2) * u
    pg = x - (max(gx, 0.0) / n2) * u
    base = alpha * pf + (1.0 - alpha) * pg
    if fx <= 0.0 and gx > 0.0:
        if hx <= 0.0:
            return base + ((1.0 - alpha) * gx / n2) * u
        return base + (-alpha * fx / n2) * u
    if fx > 0.0 and gx <= 0.0:
        if hx <= 0.0:
            return base + (alpha * fx / n2) * u
        return base + (-(1.0 - alpha) * gx / n2) * u
    return base  # both positive: the combination splits


def sproj_sum(f: FunctionSpec, g: FunctionSpec, joint_u, x) -> np.ndarray:
    """Projection of f + g under the doubled joint selection.

    Equals the mean of the two projections when f(x) g(x) >= 0 and otherwise
    carries the min(|f(x)|, |g(x)|) / (2 ||u||^2) correction along u.
    """
    x = as_vector(x, dim=f.dim)
    fx = _value(f, x)
    gx = _value(g, x)
    if fx <= 0.0 and gx <= 0.0:
        return np.array(x)
    u, n2 = _normal(joint_u(x), x)
    pf = x - (max(fx, 0.0) / n2) * u
    pg = x - (max(gx, 0.0) / n2) * u
    mean = 0.5 * pf + 0.5 * pg
    if fx * gx >= 0.0:
        return mean
    return mean + (min(abs(fx), abs(gx)) / (2.0 * n2)) * u


def sproj_infconv(f: FunctionSpec, g: FunctionSpec, minimizer, joint_u, x) -> np.ndarray:
    """Projection of the exact inf-convolution of f and g.

    ``minimizer`` supplies y attaining f(y) + g(x - y) and is audited on each
    call; ``joint_u`` must satisfy u(x) = u(Mx) = u(x - Mx).  The result splits
    as G_f(Mx) + G_g(x - Mx) exactly when f(Mx) g(x - Mx) >= 0.
    """
    spec = InfConv(f, g, minimizer, joint_u)
    x = as_vector(x, dim=f.dim)
    _, fy, gxy = spec.split_at(x)
    fx = _checked(spec, fy + gxy)
    if fy <= 0.0 and gxy <= 0.0:
        return np.array(x)
    return halfspace_project(x, joint_u(x), fx)


def acceleration_gap(f: FunctionSpec, alpha: float, x) -> float:
    """Reach difference ||x - G_f x|| - ||x - G_{f^alpha} x|| for f >= 0.

    Equals f(x) / ||grad f(x)|| * (1 - 1/alpha), which is nonpositive for
    alpha in (0, 1]: composing with t -> t^alpha sends the point farther but
    away from its metric projection onto the sublevel set.
    """
    if not 0.0 < alpha <= 1.0:
        raise ValueError("alpha must lie in (0, 1]")
    x = as_vector(x, dim=f.dim)
    fx = _value(f, x)
    if fx <= 0.0:
        raise NotPositiveHere("the gap is defined where f(x) > 0")
    return fx / float(np.sqrt(_normal(f.gradient(x), x)[1])) * (1.0 - 1.0 / alpha)


__all__ = [
    "sproj_scale",
    "sproj_leftcompose",
    "sproj_power",
    "sproj_rightlinear",
    "sproj_convexcomb",
    "sproj_sum",
    "sproj_infconv",
    "acceleration_gap",
]
