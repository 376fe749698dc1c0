"""Dense vector arithmetic, the generalized inverse map, finite-difference oracles
and the seeded optimality audit of a claimed minimizer.

Vectors are 1-D float64 numpy arrays.  All operations treat their inputs as
immutable values and return fresh arrays; nothing in this package mutates a
vector in place.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .errors import DimensionMismatch, ZeroVector

# Norm threshold below which a vector counts as zero.  Subgradients at points
# with positive function value are nonzero in exact arithmetic; the guard is
# only there to catch broken oracles and ill-scaled inputs.
EPS_NORM = 1e-14

# Default central-difference step, balancing truncation against rounding at
# double precision.
FD_STEP = 1e-5

# Margin by which a competitor may beat an audited minimizer (see _audit).
_AUDIT_TOL = 1e-8


def as_vector(x, dim: int | None = None) -> np.ndarray:
    """Coerce ``x`` to a finite 1-D float64 array, optionally checking its length.

    Scalars become vectors of dimension one.  Raises :class:`DimensionMismatch`
    if the length disagrees with ``dim``, and ``ValueError`` on NaN/inf entries.
    """
    v = np.asarray(x, dtype=float)
    if v.ndim == 0:
        v = v.reshape(1)
    if v.ndim != 1 or v.size < 1:
        raise DimensionMismatch(f"expected a 1-D vector, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValueError("vector entries must be finite")
    if dim is not None and v.size != dim:
        raise DimensionMismatch(f"expected dimension {dim}, got {v.size}")
    return v


def finite_float(v, what: str, error: type[Exception] = ValueError) -> float:
    """``float(v)``, raising ``error`` when it is NaN or infinite."""
    v = float(v)
    if not math.isfinite(v):
        raise error(f"{what} must be finite")
    return v


def norm2(x: np.ndarray) -> float:
    """Squared Euclidean norm as a plain float; +inf, with no warning, where it overflows."""
    return float(np.vdot(x, x))


def norm(x: np.ndarray) -> float:
    """Euclidean norm as a plain float."""
    return math.sqrt(norm2(x))


def nonzero_norm2(n2: float, error: type[Exception], message: str) -> float:
    """A squared norm ``n2``, raising ``error(message)`` where the norm is at most EPS_NORM."""
    if math.sqrt(n2) <= EPS_NORM:
        raise error(message)
    return n2


def _audit(objective: Callable[[np.ndarray], float], y: np.ndarray, best: float, x,
           seed: int, error: type[Exception], message: str) -> None:
    """Probe a claimed minimizer ``y`` of ``objective`` (value ``best``) with 8 competitors.

    Competitor k is ``y + scale * d_k``, where ``d`` is one seeded standard-normal
    (8, dim) block and ``scale`` is ``1 + ||x||``, measured through the largest
    entry of x where the plain norm overflows.  A competitor below ``best - 1e-8``,
    or one whose value is NaN, raises ``error(f"{message} by {best - value:.3e}")``.
    """
    scale = 1.0 + norm(x)
    if scale == math.inf:
        m = float(np.max(np.abs(x)))
        scale = 1.0 + m * norm(np.divide(x, m))
    for d in np.random.default_rng(seed).standard_normal((8, y.size)):
        cand = objective(y + scale * d)
        if not cand >= best - _AUDIT_TOL:
            raise error(f"{message} by {best - cand:.3e}")


def inv(x) -> np.ndarray:
    """Generalized inverse x -> x / ||x||^2, an involution of the punctured space.

    Raises :class:`ZeroVector` when ``||x|| <= EPS_NORM``.
    """
    x = as_vector(x)
    n2 = nonzero_norm2(norm2(x), ZeroVector, "inv is undefined at (numerically) zero vectors")
    return x / n2


def inv_jacobian(x) -> np.ndarray:
    """Jacobian of :func:`inv`:  ||x||^-2 I - 2 (inv x)(inv x)^T."""
    x = as_vector(x)
    n2 = nonzero_norm2(norm2(x), ZeroVector,
                       "inv_jacobian is undefined at (numerically) zero vectors")
    ix = x / n2
    return np.eye(x.size) / n2 - 2.0 * np.outer(ix, ix)


def fd_jacobian(g: Callable[[np.ndarray], np.ndarray], x, h: float = FD_STEP) -> np.ndarray:
    """Central-difference Jacobian of a vector-valued map.

    Column ``i`` is ``(g(x + h e_i) - g(x - h e_i)) / (2h)``.  Evaluation errors
    of ``g`` propagate unchanged.
    """
    x = as_vector(x)
    if h <= 0.0:
        raise ValueError("finite-difference step must be positive")
    cols = []
    for i in range(x.size):
        e = np.zeros(x.size)
        e[i] = h
        gp = as_vector(g(x + e))
        gm = as_vector(g(x - e))
        if gp.size != gm.size:
            raise DimensionMismatch("map returned vectors of inconsistent size")
        cols.append((gp - gm) / (2.0 * h))
    return np.column_stack(cols)


def fd_gradient(f: Callable[[np.ndarray], float], x, h: float = FD_STEP) -> np.ndarray:
    """Central-difference gradient of a scalar map: the one row of its fd_jacobian.

    A probe value of +-inf or NaN raises ``ValueError``.
    """
    return fd_jacobian(lambda z: [float(f(z))], x, h)[0]
