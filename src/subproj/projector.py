"""The subgradient projection operator.

For a convex f with a nonempty zero sublevel set, the operator maps

    x  ->  x                         if f(x) <= 0
    x  ->  x - f(x) / ||u||^2 * u    if f(x) > 0, u a subgradient at x,

which is the exact metric projection of x onto the cutting halfspace
{y : <y - x, u> + f(x) <= 0}.  The halfspace contains the whole sublevel set,
so the operator is quasi-nonexpansive and belongs to the class of operators T
with <y - Tx, x - Tx> <= 0 for every fixed point y.

The f(x) <= 0 branch is an exact sign test on purpose: the operator is
genuinely discontinuous across the level boundary and softening the test would
change it.  Stopping tolerances belong to the feasibility solver, not here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np

from .core import as_vector, dot, nonzero_norm2, norm, norm2
from .errors import (
    DomainError,
    InfeasibleWitness,
    NonFiniteValue,
    RelaxationOutOfRange,
    ZeroSubgradient,
)
from .functions import INF, LEAST_INDEX, FunctionSpec, SelectionStrategy


class ProjStatus(Enum):
    FIXED = "fixed"
    PROJECTED = "projected"


@dataclass(frozen=True)
class ProjOutcome:
    """Result of one subgradient projection.

    ``status`` is FIXED exactly when the input had f(x) <= 0, in which case
    ``point`` is the input itself and ``subgradient_used`` is None.  When
    PROJECTED, the step recovers the function value:
    <x - point, subgradient_used> = f_value.
    """

    point: np.ndarray
    status: ProjStatus
    f_value: float
    subgradient_used: Optional[np.ndarray] = None

    @property
    def fixed(self) -> bool:
        return self.status is ProjStatus.FIXED


def halfspace_project(x, u, fx: float) -> np.ndarray:
    """Project x onto the halfspace {y : <y - x, u> + fx <= 0}.

    Returns x unchanged when fx <= 0, else x - (fx / ||u||^2) u, which
    saturates the constraint.  Raises ZeroSubgradient when fx > 0 and u is
    numerically zero.
    """
    x = as_vector(x)
    if fx <= 0.0:
        return np.array(x)
    return _cut(x, u, fx)[0]


def _cut(x: np.ndarray, u, fx: float) -> tuple[np.ndarray, float]:
    """x - t u for fx > 0, with its step scale t = fx / ||u||^2 (0 where ||u||^2 overflows)."""
    u, n2 = _normal(u, x)
    t = fx / n2
    return x - t * u, t


def _normal(u, x: np.ndarray) -> tuple[np.ndarray, float]:
    """(u, ||u||^2) for a cut normal u at x: the one check of a normal where f(x) > 0.

    A finite ||u||^2 vouches for a float64 u of x's shape; any other u, and one whose
    ||u||^2 is not finite, goes through ``as_vector``, which raises on a wrong shape or
    a non-finite entry.  A numerically zero u raises ZeroSubgradient.
    """
    if type(u) is np.ndarray and u.dtype == np.float64 and u.shape == x.shape:
        n2 = norm2(u)
        if not math.isfinite(n2):
            as_vector(u, dim=x.size)
    else:
        u = as_vector(u, dim=x.size)
        n2 = norm2(u)
    return u, nonzero_norm2(n2, ZeroSubgradient, "zero subgradient with positive function value")


def _value(f: FunctionSpec, x: np.ndarray) -> float:
    """f(x), raising where it is +inf or NaN and no projection is defined."""
    return _checked(f, f.value(x))


def _checked(f: FunctionSpec, fx: float) -> float:
    """A value fx of f, raising where it is +inf or NaN and no projection is defined."""
    if fx == INF:
        raise DomainError("cannot project from outside the effective domain")
    if fx != fx:
        raise NonFiniteValue(f"{type(f).__name__} value is NaN")
    return fx


def sproj(f: FunctionSpec, x, strategy: SelectionStrategy = LEAST_INDEX) -> ProjOutcome:
    """Subgradient projection of x under the selection rule ``strategy``.

    A zero subgradient at a point with f(x) > 0 signals an inconsistent user
    oracle (genuine convex functions have nonzero subgradients there) and
    raises ZeroSubgradient rather than being patched over.
    """
    x = as_vector(x, dim=f.dim)
    fx = _value(f, x)
    if fx <= 0.0:
        return ProjOutcome(np.array(x), ProjStatus.FIXED, fx, None)
    u = f.subgradient(x, strategy)
    return ProjOutcome(_cut(x, u, fx)[0], ProjStatus.PROJECTED, fx, u)


def sproj_set(f: FunctionSpec, x, k: int) -> list[np.ndarray]:
    """k points of the set-valued projection, one per sampled subgradient.

    Returns the singleton [x] when f(x) <= 0.  Sampling order is
    deterministic: endpoints of the active-gradient simplex first, then
    midpoints, then finer barycentric grids.
    """
    x = as_vector(x, dim=f.dim)
    fx = _value(f, x)
    if fx <= 0.0:
        return [np.array(x)]
    return [halfspace_project(x, u, fx) for u in f.subdifferential_sample(x, k)]


def relax(x, p, lam: float) -> np.ndarray:
    """Relaxed step (1 - lam) x + lam p with lam in [0, 2]."""
    if not 0.0 <= lam <= 2.0:
        raise RelaxationOutOfRange(f"lam = {lam} is outside [0, 2]")
    x = as_vector(x)
    p = as_vector(p, dim=x.size)
    return (1.0 - lam) * x + lam * p


def class_t_witness(f: FunctionSpec, x, y,
                    strategy: SelectionStrategy = LEAST_INDEX) -> float:
    """<y - Gx, x - Gx> for a feasible witness y; nonpositive for this operator class.

    Raises InfeasibleWitness when f(y) > 0 and NonFiniteValue when f(y) is NaN.
    """
    y = as_vector(y, dim=f.dim)
    fy = f.value(y)
    if fy > 0.0:
        raise InfeasibleWitness("witness must satisfy f(y) <= 0")
    _checked(f, fy)  # only NaN is left to reject
    out = sproj(f, x, strategy)
    g = out.point
    return dot(y - g, as_vector(x, dim=f.dim) - g)


def fejer_gap(x, p, y) -> float:
    """||x - y||^2 - ||x - p||^2 - ||p - y||^2.

    Nonnegative whenever p is a subgradient projection of x and y lies in the
    zero sublevel set; this is the quasi-nonexpansiveness certificate.
    """
    x = as_vector(x)
    p = as_vector(p, dim=x.size)
    y = as_vector(y, dim=x.size)
    return norm(x - y) ** 2 - norm(x - p) ** 2 - norm(p - y) ** 2
