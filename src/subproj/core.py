"""Dense vector arithmetic, the generalized inverse map, finite-difference oracles,
the seeded optimality audit of a claimed minimizer, the rounding screen of a
block of affine rows and the ownership rule that lets a fast path stand in for
an oracle.

Vectors are 1-D float64 numpy arrays.  All operations treat their inputs as
immutable values and return fresh arrays; nothing in this package mutates a
vector in place.
"""

from __future__ import annotations

import math
import sys
from functools import cached_property, lru_cache
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
# Underflow allowance of one term of a radius (see _reach): a sum of n squares that
# underflow loses at most n 2**-1074, and its square root at most sqrt(n) 2**-537.
_REACH_TINY = 2.0 ** -537


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
    if not np.isfinite(v).all():
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


# numpy's C vdot, bound past the __array_function__ dispatcher (NEP 18) that np.vdot
# puts in front of it, which costs about a quarter of a short call; np.vdot itself
# where numpy exposes no such routine.
_vdot = getattr(np.vdot, "__wrapped__", np.vdot)


def dot(a: np.ndarray, b: np.ndarray) -> float:
    """Inner product of two 1-D vectors as a plain float: numpy's vdot, the same bits,
    and +-inf, with no warning, where it overflows."""
    return float(_vdot(a, b))


def norm2(x: np.ndarray) -> float:
    """Squared Euclidean norm ``dot(x, x)``; +inf, with no warning, where it overflows."""
    return dot(x, x)


def norm(x: np.ndarray) -> float:
    """Euclidean norm as a plain float: the square root of ``norm2(x)``."""
    return math.sqrt(_vdot(x, x))


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
    overflows too.  All 8 are built at once, as one array.  Where y is
    finite, a competitor with an entry beyond the largest double has its own scale
    halved until it has none; where y is not finite, or scale is NaN, no scale
    does, and the competitor stays as it is, so that its objective is NaN and
    fails.  A competitor below ``best - 1e-8``, or one whose value is NaN, raises
    ``error(f"{message} by {best - value:.3e}")``; they are scored in row order.
    """
    scale = 1.0 + norm(x)
    if scale == math.inf:
        m = float(np.max(np.abs(x)))
        scale = min(1.0 + m * norm(np.divide(x, m)), sys.float_info.max)
    block = _probe_block(seed, y.size)
    with np.errstate(over="ignore"):
        probes = block * scale
        probes += y
        finite = np.isfinite(probes).all(axis=1)
        if not finite.all() and np.isfinite(y).all():
            for k in np.flatnonzero(~finite):
                s = scale
                while s > 0 and not np.isfinite(probes[k]).all():  # s > 0 is False for NaN
                    s *= 0.5
                    probes[k] = y + s * block[k]
    for z in probes:
        cand = objective(z)
        if not cand >= best - _AUDIT_TOL:
            raise error(f"{message} by {best - cand:.3e}")


@lru_cache(maxsize=64)
def _probe_block(seed: int, dim: int) -> np.ndarray:
    """The audit's (8, dim) standard-normal block from ``seed``, drawn once and read-only."""
    block = np.random.default_rng(seed).standard_normal((8, dim))
    block.flags.writeable = False
    return block


def _trusted(obj, *names: str) -> bool:
    """True where the class that defines method ``fast`` on obj, ``names = (fast,
    *oracles)``, is, for each of ``oracles``, the class that defines it or a subclass of
    it, and obj itself assigns none of them: the one ownership rule for a fast path.

    A subclass that overrides an oracle but inherits ``fast`` gets False, and so does
    an instance whose own attribute replaces any of them, so the fast path cannot
    stand in for an oracle that it was not written for.  Each name is read through
    ``getattr``: it must give a method bound to obj itself whose function is the one
    the class's verdict was drawn for, so a method borrowed from another instance is
    refused too.  Reading ``obj.__dict__`` instead would build every checked object's
    instance dict.  Where the class holds another function than its verdict's, one
    assigned to it or to a base since, every verdict is drawn again.
    """
    cls = type(obj)
    agree, pairs = _owners_agree(cls, names)
    try:
        for name, func in pairs:
            method = getattr(obj, name)
            if method.__self__ is not obj or method.__func__ is not func:
                break
        else:
            return agree
    except AttributeError:  # no method: an instance attribute such as a lambda
        return False
    if method.__self__ is not obj or method.__func__ is not getattr(cls, name, None):
        return False
    # The class's function is not the verdict's: the verdict is stale.  Clearing
    # the cache draws it again from the functions that the check reads.
    _owners_agree.cache_clear()
    return _trusted(obj, *names)


@lru_cache(maxsize=256)
def _owners_agree(cls: type, names: tuple[str, ...]) -> tuple[bool, tuple]:
    """Whether the classes on cls's MRO that define ``names`` agree (see _trusted), and
    the pairs (name, what the name reads on cls, or None) that the verdict was drawn for."""
    owners = [next((c for c in cls.__mro__ if name in vars(c)), None) for name in names]
    agree = None not in owners and all(issubclass(owners[0], c) for c in owners[1:])
    return agree, tuple((name, getattr(cls, name, None)) for name in names)


def _reach(gap: float, scale: float, n: int) -> float:
    """A computed radius ``gap`` shrunk by a forward-error bound, or 0.0 where none is left.

    ``gap`` is one rounding of a distance formed from n-term sums whose terms are at
    most ``scale`` in total, such as b - a . x with scale ||a|| ||x||, or r - ||x - c||
    with scale r + ||x - c||.  Such a sum is off by at most gamma_n times its scale, and
    a square root, a product or a quotient by at most a few u more (Higham, Accuracy
    and Stability of Numerical Algorithms, 2nd ed., section 3.1), so 4 (n + 8) u times
    gap + scale covers every rounding of the gap and of the formula that shrinks it, at
    any n; ``_REACH_TINY`` per term covers underflow.  A NaN gap or scale, or an
    infinite one, gives 0.0.
    """
    rho = gap - (n + 8) * (2.0 ** -51 * (gap + scale) + _REACH_TINY)
    return rho if rho > 0.0 else 0.0


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

    The product sums in another order than a per-row ``dot``, so its values
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
        # The range rule: enough rows, each row and offset shorter than SCREEN_MAX.
        self.used = bool(len(rows) >= SCREEN_MIN_ROWS and row_norms.max() < SCREEN_MAX
                         and size.max() < SCREEN_MAX)
        rel = 8.0 * (n + 4) * 2.0 ** -53
        self._per_norm = rel * row_norms
        self._fixed = rel * size + (n + 4) * _SCREEN_TINY

    @cached_property
    def _worst(self) -> tuple[float, float, float]:
        """What ``reach`` needs of every row at once: the largest slack terms, and the
        largest row length plus its slack."""
        per_norm = float(self._per_norm.max())
        length = float(np.sqrt(np.einsum("ij,ij->i", self.rows, self.rows)).max())
        return per_norm, float(self._fixed.max()), length + per_norm

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

    def reach(self, x: np.ndarray, top: float) -> float:
        """A radius within which every row's oracle value stays <= 0, given ``top`` < 0, the
        largest of those values at x; 0.0 where the rows are not ``used`` or x is as long
        as SCREEN_MAX.

        A row's oracle value w(z) is within its slack s(z) = P ||z|| + F of the exact
        r . z - c, which grows by at most ||r|| rho from x, so w(z) <= top + 2 s(x) +
        (||r|| + P) rho where ||z - x|| <= rho.  The slack is more than twice the
        rounding, which covers the computed ||x|| and the radius's own rounding too.
        """
        if not (top < 0.0 and self.used):
            return 0.0
        nx = norm(x)
        if not nx < SCREEN_MAX:
            return 0.0
        per_norm, fixed, length = self._worst
        rho = (-top - 2.0 * (per_norm * nx + fixed)) / length
        return rho if rho > 0.0 else 0.0
