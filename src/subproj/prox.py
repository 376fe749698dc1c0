"""Proximity operators for prox-friendly atoms and the Moreau-envelope projector.

Only atoms with a closed-form proximal map are admitted: indicators, ||.||,
||.||^2, linear forms, and positive scalings of these.  No inner iterative
solver is hidden behind the oracle, so every identity in the test suite stays
oracle-exact.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .core import as_vector, finite_float, nonzero_norm2, norm, norm2
from .errors import DegenerateMoreau, ProxAuditFailed, UnsupportedAtom
from .functions import (
    LEAST_INDEX,
    FunctionSpec,
    Indicator,
    Linear,
    NormPow,
    Scale,
)

PROX_AUDIT_TOL = 1e-8


def _closed_form(f: FunctionSpec) -> Callable[[float, np.ndarray], np.ndarray] | None:
    """The map (gamma, x) -> prox_{gamma f} x in closed form, or None if there is none.

    This is the one list of prox-friendly atoms.
    """
    if isinstance(f, Scale):
        inner = _closed_form(f.inner)
        return None if inner is None else (lambda gamma, x: inner(gamma * f.lam, x))
    if isinstance(f, Indicator):
        return lambda gamma, x: f.set.project(x)
    if isinstance(f, Linear):
        return lambda gamma, x: x - gamma * f.u
    if isinstance(f, NormPow):
        return {1.0: _shrink, 2.0: lambda gamma, x: x / (1.0 + 2.0 * gamma)}.get(f.p)
    return None


def _shrink(gamma: float, x: np.ndarray) -> np.ndarray:
    """Prox of gamma ||.||: block soft thresholding."""
    n = norm(x)
    if n <= gamma:
        return np.zeros(x.size)
    return (1.0 - gamma / n) * x


def is_prox_friendly(f: FunctionSpec) -> bool:
    """True when prox has a closed form for this spec."""
    return _closed_form(f) is not None


def prox(f: FunctionSpec, gamma: float, x) -> np.ndarray:
    """Unique minimizer of f(y) + ||x - y||^2 / (2 gamma).

    The closed form is audited against 8 pseudo-random competitors on every
    call and ProxAuditFailed is raised when one of them wins; that indicates
    a broken formula or oracle, not user error.
    """
    finite_float(gamma, "gamma")
    if gamma <= 0.0:
        raise ValueError("gamma must be positive")
    x = as_vector(x, dim=f.dim)
    closed_form = _closed_form(f)
    if closed_form is None:
        raise UnsupportedAtom(f"no closed-form prox for {type(f).__name__}")
    p = closed_form(gamma, x)
    rng = np.random.default_rng(314159)
    best = f.value(p) + norm(x - p) ** 2 / (2.0 * gamma)
    scale = 1.0 + norm(x)
    for _ in range(8):
        z = p + scale * rng.standard_normal(f.dim)
        cand = f.value(z) + norm(x - z) ** 2 / (2.0 * gamma)
        if not cand >= best - PROX_AUDIT_TOL:
            raise ProxAuditFailed(
                f"prox optimality audit failed: a competitor improves it by {best - cand:.3e}")
    return p


def moreau_value(f: FunctionSpec, gamma: float, x) -> float:
    """Moreau envelope f(prox_{gamma f} x) + ||x - prox_{gamma f} x||^2 / (2 gamma)."""
    x = as_vector(x, dim=f.dim)
    p = prox(f, gamma, x)
    d = x - p
    return f.value(p) + norm2(d) / (2.0 * gamma)


def sproj_moreau(f: FunctionSpec, gamma: float, x) -> np.ndarray:
    """Subgradient projection of the Moreau envelope of f.

    The envelope is differentiable with gradient (x - prox x) / gamma, so the
    projector is single valued:

        x - gamma * env(x) / ||x - prox x||^2 * (x - prox x)   when env(x) > 0.

    The envelope and the squared displacement are derived from the same dot
    product, so for an indicator with gamma = 1 the step factor is exactly
    one half and the halved-displacement form holds bit for bit.
    """
    x = as_vector(x, dim=f.dim)
    p = prox(f, gamma, x)
    d = x - p
    n2 = norm2(d)
    env = f.value(p) + n2 / (2.0 * gamma)
    if env <= 0.0:
        return np.array(x)
    nonzero_norm2(n2, DegenerateMoreau, "positive envelope with a vanishing proximal displacement")
    return x - (gamma * env / n2) * d


class MoreauEnv(FunctionSpec):
    """The Moreau envelope of a prox-friendly f as a first-class function.

    Finite and differentiable everywhere, with gradient
    (x - prox_{gamma f} x) / gamma; its projector coincides with
    :func:`sproj_moreau`.
    """

    def __init__(self, gamma: float, f: FunctionSpec):
        finite_float(gamma, "gamma")
        if gamma <= 0.0:
            raise ValueError("gamma must be positive")
        if not is_prox_friendly(f):
            raise UnsupportedAtom("the Moreau envelope needs a prox-friendly inner function")
        self.gamma = float(gamma)
        self.inner = f
        self.dim = f.dim

    def value(self, x):
        return moreau_value(self.inner, self.gamma, x)

    def subgradient(self, x, strategy=LEAST_INDEX):
        return (x - prox(self.inner, self.gamma, x)) / self.gamma

    def level_set_project(self, x):
        # For f >= 0 the envelope is >= 0 and vanishes exactly where f does,
        # so both share the zero sublevel set.
        if self.inner.nonnegative:
            return self.inner.level_set_project(x)
        return super().level_set_project(x)

    def __repr__(self):
        return f"MoreauEnv(gamma={self.gamma}, inner={self.inner!r})"
