"""Proximity operators for prox-friendly atoms and the Moreau-envelope projector.

Only atoms with a closed-form proximal map are admitted: indicators, ||.||,
||.||^2, linear forms, and positive scalings of these.  Each atom states its own
map (``FunctionSpec._prox_map``, None on the base class), so this module names
no atom.  No inner iterative solver is hidden behind the oracle, so every
identity in the test suite stays oracle-exact.  Every result is audited by
``core._audit``, which builds its 8 competitors as one block.
"""

from __future__ import annotations

import numpy as np

from .core import _audit, as_vector, finite_float, nonzero_norm2, norm, norm2
from .errors import DegenerateMoreau, ProxAuditFailed, UnsupportedAtom
from .functions import LEAST_INDEX, FunctionSpec


def is_prox_friendly(f: FunctionSpec) -> bool:
    """True when prox has a closed form for this spec."""
    return f._prox_map() is not None


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
    closed_form = f._prox_map()
    if closed_form is None:
        raise UnsupportedAtom(f"no closed-form prox for {type(f).__name__}")
    p = closed_form(gamma, x)
    objective = lambda z: f.value(z) + norm(x - z) ** 2 / (2.0 * gamma)
    _audit(objective, p, objective(p), x, 314159, ProxAuditFailed,
           "prox optimality audit failed: a competitor improves it")
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
