"""Proximity operators for prox-friendly atoms and the Moreau-envelope projector.

Only atoms with a closed-form proximal map are admitted: indicators, ||.||,
||.||^2, linear forms, and positive scalings of these.  Each atom states its own
map (``FunctionSpec._prox_map``, None on the base class), so this module names
no atom.  No inner iterative solver is hidden behind the oracle, so every
identity in the test suite stays oracle-exact.  Every result comes from one
computation, ``_envelope``, whose point is audited by ``core._audit``.
"""

from __future__ import annotations

import math

import numpy as np

from .core import _audit, as_vector, finite_float, nonzero_norm2, norm2
from .errors import DegenerateMoreau, NonFiniteValue, ProxAuditFailed, UnsupportedAtom
from .functions import LEAST_INDEX, FunctionSpec, _inner_margin


def is_prox_friendly(f: FunctionSpec) -> bool:
    """True when prox has a closed form for this spec."""
    return f._prox_map() is not None


def _gamma(gamma) -> float:
    """gamma as a float; ValueError unless it is finite and positive."""
    if finite_float(gamma, "gamma") <= 0.0:
        raise ValueError("gamma must be positive")
    return float(gamma)


def _args(f: FunctionSpec, gamma, x) -> tuple:
    """(f, its closed form, gamma, x), checked in that order: ``_envelope``'s arguments."""
    gamma, x = _gamma(gamma), as_vector(x, dim=f.dim)
    closed_form = f._prox_map()
    if closed_form is None:
        raise UnsupportedAtom(f"no closed-form prox for {type(f).__name__}")
    return f, closed_form, gamma, x


def _envelope(f: FunctionSpec, closed_form, gamma: float, x: np.ndarray):
    """(p, e) at a checked x: p = prox_{gamma f} x in closed form, audited against the envelope
    e = f(p) + ||x - p||^2 / (2 gamma); NonFiniteValue where both overflowed."""
    p = closed_form(gamma, x)
    objective = lambda z: f.value(z) + norm2(x - z) / (2.0 * gamma)
    env = objective(p)
    if not math.isfinite(env) and not np.isfinite(p).all():
        raise NonFiniteValue(f"{type(f).__name__} prox is not finite")
    _audit(objective, p, env, x, 314159, ProxAuditFailed,
           "prox optimality audit failed: a competitor improves it")
    return p, env


def prox(f: FunctionSpec, gamma: float, x) -> np.ndarray:
    """Unique minimizer of f(y) + ||x - y||^2 / (2 gamma).  ProxAuditFailed, raised where
    one of 8 pseudo-random competitors beats it, means a broken formula or oracle."""
    return _envelope(*_args(f, gamma, x))[0]


def moreau_value(f: FunctionSpec, gamma: float, x) -> float:
    """Moreau envelope f(prox_{gamma f} x) + ||x - prox_{gamma f} x||^2 / (2 gamma)."""
    return _envelope(*_args(f, gamma, as_vector(x, dim=f.dim)))[1]


def sproj_moreau(f: FunctionSpec, gamma: float, x) -> np.ndarray:
    """Subgradient projection of the Moreau envelope of f, which is differentiable
    with gradient (x - prox x) / gamma, so the projector is single valued:
    x - gamma * env(x) / ||x - prox x||^2 * (x - prox x) where env(x) > 0.  env(x)
    and the squared displacement come from the same dot product, so for an
    indicator with gamma = 1 the step factor is exactly one half, bit for bit.
    """
    f, closed_form, gamma, x = _args(f, gamma, as_vector(x, dim=f.dim))
    p, env = _envelope(f, closed_form, gamma, x)
    if env <= 0.0:
        return np.array(x)
    d = x - p
    n2 = nonzero_norm2(norm2(d), DegenerateMoreau,
                       "positive envelope with a vanishing proximal displacement")
    return x - (gamma * env / n2) * d


class MoreauEnv(FunctionSpec):
    """The Moreau envelope of a prox-friendly f as a first-class function: finite and
    differentiable, with gradient (x - prox_{gamma f} x) / gamma, and the projector of
    :func:`sproj_moreau`.  gamma and the closed form of f are checked once, here."""

    def __init__(self, gamma: float, f: FunctionSpec):
        self.gamma = _gamma(gamma)
        self._closed_form = f._prox_map()
        if self._closed_form is None:
            raise UnsupportedAtom("the Moreau envelope needs a prox-friendly inner function")
        self.inner = f
        self.dim = f.dim

    def value(self, x):
        return _envelope(self.inner, self._closed_form, self.gamma, x)[1]

    def _bind_margin(self):
        # Where a nonnegative f is <= 0 it is 0, and its closed form returns the point
        # itself (FunctionSpec._bind_margin), so the envelope is f(z) + 0 = 0 there and every
        # competitor of the audit is >= 0: f's radius holds for the envelope too.
        return _inner_margin(self.inner, "_prox_map")

    def subgradient(self, x, strategy=LEAST_INDEX):
        return (x - _envelope(self.inner, self._closed_form, self.gamma, x)[0]) / self.gamma

    def level_set_project(self, x):
        # For f >= 0 the envelope is >= 0 and vanishes exactly where f does.
        return (self.inner if self.inner.nonnegative else super()).level_set_project(x)

    def __repr__(self):
        return f"MoreauEnv(gamma={self.gamma}, inner={self.inner!r})"
