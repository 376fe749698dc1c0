"""Dense vector arithmetic, the generalized inverse map, finite-difference oracles,
the seeded optimality audit of a claimed minimizer and the rounding screen of a
block of affine rows.

Vectors are 1-D float64 numpy arrays.  All operations treat their inputs as
immutable values and return fresh arrays; nothing in this package mutates a
vector in place.
"""

from __future__ import annotations

import math
import sys
from functools import lru_cache
from typing import Callable, Optional

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

# Lengths and offsets below which AffineRows trusts a row and an iterate: there
# no dot product of the two, and no offset added to it, comes near overflow.
SCREEN_MAX = 2.0 ** 500
# Fewer rows than this cost less one by one than as one product with bounds: on
# a 2-vCPU EPYC host, 4 halfspaces took 5.0 us per row loop and 9.8 us screened,
# 8 took 10.4 and 10.1 us.
SCREEN_MIN_ROWS = 8
# Underflow allowance of one term of a screened dot product.  A subnormal
# product is off by at most 2**-1075, and a row may stand for an oracle that
# divides by its length of at least 2**-450 (Halfspace.affine_row).
_SCREEN_TINY = 2.0 ** -600


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
    entry of x where the plain norm overflows, and the largest double where that
    overflows too.  Where ``||y|| + scale * max|d|`` reaches half the largest
    double, a competitor may have an entry beyond it, and each is built by
    :func:`_finite_competitor`; below that bound none can, rounding included,
    and none is checked (a check costs about as much as building the
    competitor).  A competitor below ``best - 1e-8``, or one whose value
    is NaN, raises ``error(f"{message} by {best - value:.3e}")``.
    """
    scale = 1.0 + norm(x)
    if scale == math.inf:
        m = float(np.max(np.abs(x)))
        scale = min(1.0 + m * norm(np.divide(x, m)), sys.float_info.max)
    check = not norm(y) + scale * _probe_reach(seed, y.size) < 0.5 * sys.float_info.max
    for d in _probe_block(seed, y.size):
        cand = objective(_finite_competitor(y, scale, d) if check else y + scale * d)
        if not cand >= best - _AUDIT_TOL:
            raise error(f"{message} by {best - cand:.3e}")


def _finite_competitor(y: np.ndarray, scale: float, d: np.ndarray) -> np.ndarray:
    """``y + s * d`` for the first s of scale, scale / 2, scale / 4, ... that leaves it finite.

    Where y is not finite, or scale is NaN, no s does, and ``y + scale * d`` is
    returned as it is, so that its objective is NaN and fails the audit.
    """
    with np.errstate(over="ignore"):
        z = y + scale * d
        if np.isfinite(y).all():
            while scale > 0 and not np.isfinite(z).all():  # scale > 0 is False for NaN
                scale *= 0.5
                z = y + scale * d
    return z


@lru_cache(maxsize=64)
def _probe_block(seed: int, dim: int) -> np.ndarray:
    """The audit's (8, dim) standard-normal block from ``seed``, drawn once and read-only."""
    block = np.random.default_rng(seed).standard_normal((8, dim))
    block.flags.writeable = False
    return block


@lru_cache(maxsize=64)
def _probe_reach(seed: int, dim: int) -> float:
    """The largest absolute entry of ``_probe_block(seed, dim)``."""
    return float(np.max(np.abs(_probe_block(seed, dim)), initial=0.0))


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


class AffineRows:
    """Affine rows r_k . x - c_k evaluated by one matrix-vector product, with error bounds.

    The product sums in another order than a per-row ``np.vdot``, so its values
    may differ from the per-row ones in the last bits.  ``bounds`` brackets the
    value w that an oracle computes for a row: one n-term dot product, an
    offset and at most three more roundings.  Both w and the block value g
    obey |fl(r . x) - r . x| <= gamma_n |r| . |x| <= gamma_n ||r|| ||x|| for any
    summation order (Higham, Accuracy and Stability of Numerical Algorithms,
    2nd ed., section 3.1), so |w - g| <= (2n + 5) u (||r|| ||x|| + |c|) to first
    order, with u = 2**-53.  The slack is 8 (n + 4) u times the same, more than
    twice that, plus the underflow allowance.
    """

    def __init__(self, rows: np.ndarray, offsets: np.ndarray):
        self.rows = rows
        self.offsets = offsets
        n = rows.shape[1]
        row_norms = np.sqrt(np.einsum("ij,ij->i", rows, rows))
        size = np.abs(offsets)
        # The range rule: enough rows, and each row and offset shorter than SCREEN_MAX.
        self.used = bool(len(rows) >= SCREEN_MIN_ROWS and row_norms.max() < SCREEN_MAX
                         and size.max() < SCREEN_MAX)
        rel = 8.0 * (n + 4) * 2.0 ** -53
        self._per_norm = rel * row_norms
        self._fixed = rel * size + (n + 4) * _SCREEN_TINY

    def bounds(self, x: np.ndarray) -> Optional[tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """(value, lower, upper) per row at x; None where the rows are not ``used``
        or x is as long as SCREEN_MAX."""
        if not self.used:
            return None
        n2 = norm2(x)
        if not n2 < SCREEN_MAX ** 2:
            return None
        g = self.rows @ x
        g -= self.offsets
        slack = self._per_norm * math.sqrt(n2)
        slack += self._fixed
        return g, g - slack, g + slack

    def screen(self, x: np.ndarray) -> tuple[Optional[np.ndarray], Optional[np.ndarray], Callable]:
        """(value, upper, contenders) per row at x, the first two None where ``bounds`` is.
        The contender rule: ``contenders(known)`` lists the rows whose upper bound reaches
        ``known``, a lower bound on the largest value, and every row's lower bound (all rows
        where ``bounds`` is None).  No other row can hold the largest value."""
        bounds = self.bounds(x)
        if bounds is None:
            return None, None, lambda known=-math.inf: range(len(self.offsets))
        g, lo, hi = bounds
        return g, hi, lambda known=-math.inf: (hi >= max(known, lo.max())).nonzero()[0].tolist()
