"""Catalog of convex functions and combinators with value / subgradient oracles.

Atoms
-----
Linear(u)            x -> <x, u>
Dist(S)              distance to a convex set S
SqDist(S)            squared distance to S
NormPow(p)           ||x||^p, p >= 1
NegLog()             -ln(x) on (0, inf), +inf elsewhere (1-D)
SqrtShift(eta)       eta - sqrt(x) on (0, inf), +inf elsewhere (1-D)
Hyperbolic(eta)      sqrt(1 + x^2) - eta, eta > 1 (1-D)
AffineMax(pieces)    x -> max_i <a_i, x> + b_i
Indicator(S)         0 on S, +inf elsewhere (only meaningful under a Moreau envelope)

Combinators
-----------
Scale(lam, f)            lam * f, lam > 0
PowerComp(alpha, f)      f^(1/alpha) for f >= 0
LeftCompose(phi, dphi, f)  phi o f with phi(0) = 0, phi strictly increasing
RightLinear(L, f)        f o L for L with L^T L = L L^T = alpha I
ConvexComb(alpha, f, g, joint_u)   alpha*f + (1-alpha)*g under a joint selection
SumPair(f, g, joint_u)   f + g under the doubled joint selection
InfConv(f, g, minimizer, joint_u)  exact inf-convolution with an audited argmin oracle

Subgradient selections are deterministic: the same (function, point, strategy)
always yields the same subgradient.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement
from typing import Callable, Optional

import numpy as np

from .core import (
    AffineRows,
    _audit,
    _finite_n2,
    _trusted,
    as_vector,
    dot,
    finite_float,
    norm,
    norm2,
)
from .errors import (
    DimensionMismatch,
    DomainError,
    EmptySubdifferential,
    InconsistentMinimizer,
    InvalidSpec,
    JointSelectionUnavailable,
    NegativeBaseError,
    NoLevelSetOracle,
    NonFiniteValue,
    NotDifferentiableHere,
    NotScaledOrthogonal,
    NotTwiceDifferentiable,
    UnsupportedAtom,
)
from .sets import Ball, ConvexSet, Halfspace

INF = math.inf

# Relative tolerance deciding which affine pieces count as active at a point.
ACTIVE_TOL = 1e-12

# Rounding below zero that the base of a power may show and still count as 0.
_BASE_SLACK = 1e-12


# ---------------------------------------------------------------------------
# selection strategies
# ---------------------------------------------------------------------------

class SelectionStrategy:
    """Deterministic rule for picking one subgradient at multivalued points."""

    def pick(self, verts: list[np.ndarray]) -> np.ndarray:
        """One subgradient from the gradients of the active pieces."""
        raise NotImplementedError

    def at_kink(self, message: str) -> None:
        """Called where the subdifferential is not a singleton; a selecting rule passes."""


@dataclass(frozen=True)
class LeastIndexActive(SelectionStrategy):
    """Gradient of the active piece with the smallest index."""

    def pick(self, verts):
        return np.array(verts[0])


@dataclass(frozen=True)
class CentroidActive(SelectionStrategy):
    """Mean of the active-piece gradients."""

    def pick(self, verts):
        return np.mean(verts, axis=0)


@dataclass(frozen=True)
class EndpointK(SelectionStrategy):
    """The k-th active-piece gradient (k taken modulo the active count)."""

    k: int

    def pick(self, verts):
        return np.array(verts[self.k % len(verts)])


@dataclass(frozen=True)
class _Gradient(SelectionStrategy):
    """The unique subgradient: refuses to choose, raising NotDifferentiableHere at a kink."""

    def pick(self, verts):
        if any(norm(g - verts[0]) > 0.0 for g in verts[1:]):
            self.at_kink("several pieces are active with distinct slopes")
        return np.array(verts[0])

    def at_kink(self, message):
        raise NotDifferentiableHere(message)


LEAST_INDEX = LeastIndexActive()
CENTROID = CentroidActive()
_GRADIENT = _Gradient()


# ---------------------------------------------------------------------------
# base class
# ---------------------------------------------------------------------------

class FunctionSpec:
    """A convex extended-real function with value and subgradient oracles.

    ``value`` returns +inf outside the effective domain and never NaN.  The
    subgradient oracle returns a member of the subdifferential whenever the
    value is finite and the subdifferential is nonempty.  Specs are slotted and
    immutable after construction, and all oracles are pure.
    """
    __slots__ = ("dim",)
    dim: int
    domain_is_full: bool = True
    nonnegative: bool = False

    def value(self, x: np.ndarray) -> float:
        raise NotImplementedError

    def subgradient(self, x: np.ndarray, strategy: SelectionStrategy = LEAST_INDEX) -> np.ndarray:
        raise NotImplementedError

    def gradient(self, x: np.ndarray) -> np.ndarray:
        """Unique subgradient; raises NotDifferentiableHere at kinks."""
        return self.subgradient(x, _GRADIENT)

    def subdifferential_sample(self, x: np.ndarray, k: int) -> list[np.ndarray]:
        """k members of the subdifferential; a singleton is repeated."""
        u = self.subgradient(x)
        return [u] * int(k)

    def hessian(self, x: np.ndarray) -> np.ndarray:
        raise NotTwiceDifferentiable(f"{type(self).__name__} has no Hessian oracle")

    def level_set_project(self, x: np.ndarray) -> np.ndarray:
        """Exact projection onto {f <= 0} where a closed form exists."""
        raise NoLevelSetOracle(f"{type(self).__name__} has no level-set projection")

    def affine_row(self) -> Optional[tuple[np.ndarray, float]]:
        """A row (r, c) that settles the sign of f(x) without calling ``value``, or None.

        The contract: at any x where ||x||, ||r|| and |c| lie below ``core.SCREEN_MAX``,
        ``value`` computes one rounding w of r . x - c (one n-term dot product of x with r
        or a multiple of r, then at most three more roundings) and returns w where w > 0
        and a value <= 0 elsewhere.  ``core.AffineRows`` checks those lengths and brackets
        w; an implementation checks only its own oracle's arithmetic limits.  The solve
        reads the row only where ``core._trusted`` vouches for it.
        """
        return None

    def _prox_map(self) -> Optional[Callable[[float, np.ndarray], np.ndarray]]:
        """The map (gamma, x) -> prox_{gamma f} x in closed form, or None where there is none.

        The specs that return a map are the prox-friendly atoms of ``prox.prox``.
        """
        return None

    def _bind_margin(self) -> Optional[Callable[[np.ndarray, float], float]]:
        """The one radius method: an oracle (x, v) -> rho >= 0, asked only where v =
        ``value(x)`` <= 0 was just computed, with this contract: the computed ``value`` is
        <= 0 at every point within rho of x, and a spec with a closed-form prox returns
        each such point unchanged from it.  So a value within rho raises nothing, and the
        solve may skip it while the steps since x sum to less than rho.  None where every
        radius is 0.0; the base class states none.  Each premise beyond ``value`` (the
        trust of a set's ``_depth`` or of an inner spec's oracles) is resolved here, once
        per solve, where ``_AffineBlock`` resolves the rows and radii.

        Of the package's own nonnegative specs, only the set atoms and the combinators over
        them state a radius, and each such radius is a set's depth at x, which reads no
        value: so a combinator asks its inner spec's radius at its own v, and the inner
        value is not computed again (``_inner_margin``)."""
        return None


def _margin_oracle(f: FunctionSpec) -> Optional[Callable[[np.ndarray, float], float]]:
    """The oracle that f's ``_bind_margin`` returns, where ``core._trusted`` vouches for it,
    else None."""
    return f._bind_margin() if _trusted(f, "_bind_margin") else None


def _inner_margin(f: FunctionSpec) -> Optional[Callable[[np.ndarray, float], float]]:
    """A combinator's radius oracle: its inner f's own, where f is ``nonnegative`` and
    states one (``_margin_oracle``), else None."""
    return _margin_oracle(f) if f.nonnegative else None


# ---------------------------------------------------------------------------
# atoms
# ---------------------------------------------------------------------------

class Linear(FunctionSpec):
    """x -> <x, u>."""
    __slots__ = ("u", "_level")

    def __init__(self, u):
        self.u = as_vector(u)
        self.dim = self.u.size
        self._level = Halfspace(self.u, 0.0) if norm2(self.u) > 0.0 else None

    def value(self, x):
        return dot(x, self.u)

    def affine_row(self):
        return self.u, 0.0

    def subgradient(self, x, strategy=LEAST_INDEX):
        return np.array(self.u)

    def hessian(self, x):
        return np.zeros((self.dim, self.dim))

    def level_set_project(self, x):
        if self._level is None:
            return np.array(x, dtype=float)
        return self._level.project(x)

    def _prox_map(self):
        return lambda gamma, x: x - gamma * self.u

    def __repr__(self):
        return f"Linear(u={self.u.tolist()})"


class _SetAtom(FunctionSpec):
    """An atom built on a closed convex set S whose zero sublevel set is S."""
    __slots__ = ("set",)
    nonnegative = True

    def __init__(self, s: ConvexSet):
        self.set = s
        self.dim = s.dim

    def level_set_project(self, x):
        return self.set.project(x)

    def _bind_margin(self):
        """The set's depth as the radius oracle where ``core._trusted`` vouches for it, else None.

        A set that has one (``Ball``, ``Halfspace``, ``Box``) states its depth as
        ``_depth(x, v=0.0)``, a depth >= 0 with this contract: at every point z within depth
        of x, the computed ``distance(z)`` is 0.0, ``contains(z)`` is True and ``project(z)``
        returns z.  It is the distance to the complement, shrunk by a forward-error bound
        (``core._reach``).  So it is the radius of every set atom, bound as it is: v is not
        read, and no value is computed."""
        return self.set._depth if _trusted(self.set, "_depth") else None

    def _hessian(self, x, what: str, outside: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
        """Zeros inside S, NotTwiceDifferentiable on its boundary, else ``outside(x)``."""
        if self.set.distance(x) == 0.0:
            if self.set.interior_contains(x):
                return np.zeros((self.dim, self.dim))
            raise NotTwiceDifferentiable(f"{what} Hessian undefined on the set boundary")
        return outside(x)

    def __repr__(self):
        return f"{type(self).__name__}({self.set!r})"


class Dist(_SetAtom):
    """Distance to a closed convex set; its projector is the metric projection."""
    __slots__ = ()

    def value(self, x):
        return self.set.distance(x)

    def affine_row(self):
        return self.set.affine_row() if _trusted(self.set, "affine_row") else None

    def _cut_normal(self, x, fx):
        """``subgradient(x, s)`` under any selection s, bit for bit, stated from fx =
        ``value(x)`` > 0; ``solve`` takes it where ``core._trusted`` vouches for it."""
        return (x - self.set.project(x)) / fx

    def subgradient(self, x, strategy=LEAST_INDEX):
        d = self.set.distance(x)
        if d > 0.0:
            return (x - self.set.project(x)) / d
        # 0 is a subgradient everywhere on the set since the distance is >= 0.
        if not self.set.interior_contains(x):
            strategy.at_kink("distance is not differentiable on the set boundary")
        return np.zeros(self.dim)

    def hessian(self, x):
        return self._hessian(x, "distance", self.set.dist_hessian)


class SqDist(_SetAtom):
    """Squared distance to a closed convex set; differentiable everywhere."""
    __slots__ = ()

    def value(self, x):
        d = self.set.distance(x)
        return d * d

    def subgradient(self, x, strategy=LEAST_INDEX):
        return 2.0 * (x - self.set.project(x))

    def hessian(self, x):
        return self._hessian(x, "squared-distance", self.set.sqdist_hessian)


class NormPow(FunctionSpec):
    """||x||^p with p >= 1."""
    __slots__ = ("p",)
    nonnegative = True

    def __init__(self, p: float, dim: int = 1):
        self.p = finite_float(p, "NormPow p", InvalidSpec)
        self.dim = int(dim)
        if self.p < 1.0:
            raise InvalidSpec("NormPow requires p >= 1; use PowerComp for smaller exponents")
        if self.dim < 1:
            raise InvalidSpec("NormPow requires dim >= 1")

    def value(self, x):
        return _power(self, norm(x), self.p)

    def subgradient(self, x, strategy=LEAST_INDEX):
        n = norm(x)
        if n == 0.0:
            # 0 belongs to the subdifferential at the minimizer for every p >= 1.
            if self.p == 1.0:
                strategy.at_kink("the norm is not differentiable at 0")
            return np.zeros(self.dim)
        return self.p * _power(self, n, self.p - 2.0) * x

    def hessian(self, x):
        n = norm(x)
        if n == 0.0:
            if self.p == 2.0:
                return 2.0 * np.eye(self.dim)
            raise NotTwiceDifferentiable("||.||^p has no Hessian at 0 unless p = 2")
        eye = np.eye(self.dim)
        return (self.p * _power(self, n, self.p - 2.0) * eye
                + self.p * (self.p - 2.0) * _power(self, n, self.p - 4.0) * np.outer(x, x))

    def level_set_project(self, x):
        return np.zeros(self.dim)

    def _prox_map(self):
        return {1.0: _shrink, 2.0: lambda gamma, x: x / (1.0 + 2.0 * gamma)}.get(self.p)

    def __repr__(self):
        return f"NormPow(p={self.p}, dim={self.dim})"


def _power(f: FunctionSpec, base: float, e: float) -> float:
    """base ** e for a float base >= 0; NonFiniteValue naming f's class where it overflows."""
    try:
        return base ** e
    except OverflowError:
        raise NonFiniteValue(f"{type(f).__name__} power {base!r} ** {e!r} overflows") from None


def _shrink(gamma: float, x: np.ndarray) -> np.ndarray:
    """Prox of gamma ||.||: block soft thresholding."""
    n = norm(x)
    if n <= gamma:
        return np.zeros(x.size)
    return (1.0 - gamma / n) * x


def _positive(x, formula: str) -> float:
    """The one entry of x inside the domain (0, inf) of ``formula``; DomainError outside."""
    t = float(x[0])
    if t <= 0.0:
        raise DomainError(f"{formula} is +inf at x <= 0")
    return t


class NegLog(FunctionSpec):
    """-ln(x) for x > 0, +inf otherwise; its zero sublevel set is [1, inf)."""
    __slots__ = ()
    dim = 1
    domain_is_full = False

    def value(self, x):
        t = float(x[0])
        return -math.log(t) if t > 0.0 else INF

    def subgradient(self, x, strategy=LEAST_INDEX):
        return np.array([-1.0 / _positive(x, "-ln(x)")])

    def hessian(self, x):
        t = _positive(x, "-ln(x)")
        t2 = t * t
        h = 1.0 / t2 if t2 > 0.0 else INF
        if h == INF:
            raise NonFiniteValue(f"NegLog Hessian 1 / {t!r}**2 overflows")
        return np.array([[h]])

    def level_set_project(self, x):
        return np.array([max(float(x[0]), 1.0)])

    def __repr__(self):
        return "NegLog()"


class SqrtShift(FunctionSpec):
    """eta - sqrt(x) for x > 0, +inf otherwise; zero sublevel set [eta^2, inf)."""
    __slots__ = ("eta",)
    dim = 1
    domain_is_full = False

    def __init__(self, eta: float):
        self.eta = finite_float(eta, "SqrtShift eta", InvalidSpec)
        if self.eta <= 0.0:
            raise InvalidSpec("SqrtShift requires eta > 0")

    def value(self, x):
        t = float(x[0])
        return self.eta - math.sqrt(t) if t > 0.0 else INF

    def subgradient(self, x, strategy=LEAST_INDEX):
        return np.array([-0.5 / math.sqrt(_positive(x, "eta - sqrt(x)"))])

    def hessian(self, x):
        return np.array([[0.25 * _power(self, _positive(x, "eta - sqrt(x)"), -1.5)]])

    def level_set_project(self, x):
        return np.array([max(float(x[0]), self.eta * self.eta)])

    def __repr__(self):
        return f"SqrtShift(eta={self.eta})"


class Hyperbolic(FunctionSpec):
    """sqrt(1 + x^2) - eta with eta > 1; zero sublevel set [-a, a], a = sqrt(eta^2 - 1)."""
    __slots__ = ("eta",)
    dim = 1

    def __init__(self, eta: float):
        self.eta = finite_float(eta, "Hyperbolic eta", InvalidSpec)
        if self.eta <= 1.0:
            raise InvalidSpec("Hyperbolic requires eta > 1")

    def value(self, x):
        t = float(x[0])
        return math.hypot(1.0, t) - self.eta

    def subgradient(self, x, strategy=LEAST_INDEX):
        t = float(x[0])
        return np.array([t / math.hypot(1.0, t)])

    def hessian(self, x):
        t = float(x[0])
        return np.array([[(1.0 + t * t) ** (-1.5)]])

    def level_set_project(self, x):
        a = math.sqrt(self.eta * self.eta - 1.0)
        return np.array([min(max(float(x[0]), -a), a)])

    def __repr__(self):
        return f"Hyperbolic(eta={self.eta})"


def _slope_block(pieces) -> Optional[np.ndarray]:
    """The slopes of ``pieces`` as one (k, n) float array, n >= 1, checked finite by one
    reduction (``core._finite_n2``); None where they are not such a block of finite
    entries."""
    try:
        slopes = np.array([a for a, _ in pieces], dtype=float)
        _finite_n2(slopes)
    except Exception:  # the per-piece path raises the error, or takes the pieces
        return None
    return slopes if slopes.ndim == 2 and slopes.shape[1] else None


class AffineMax(FunctionSpec):
    """x -> max_i <a_i, x> + b_i over finitely many affine pieces.

    A piece's value is ``dot(a_i, x) + b_i``.  Where ``core.AffineRows``
    takes the pieces (enough of them, each within its range), ``value`` and
    ``active_indices`` screen them with one matrix-vector product and compute
    only those its rounding bound cannot settle, so they return what the
    per-piece values give, bit for bit.
    """
    __slots__ = ("offsets", "slopes", "_screen")

    def __init__(self, pieces):
        if not pieces:
            raise InvalidSpec("AffineMax needs at least one piece")
        slopes = _slope_block(pieces)
        # Pieces that are not one such block are taken one by one, as vectors: scalar
        # slopes in one dimension, or a bad piece, which raises its own error there.
        each = None if slopes is not None else [as_vector(a) for a, _ in pieces]
        try:
            offsets = [float(b) for _, b in pieces]
        except OverflowError:  # an integer beyond every float
            offsets = None
        if offsets is None or not math.isfinite(sum(offsets)):  # a finite sum has only finite terms
            offsets = [finite_float(b, "AffineMax offset") for _, b in pieces]
        self.offsets = offsets
        if each is not None:
            if any(a.size != each[0].size for a in each):
                raise DimensionMismatch("all pieces must share one dimension")
            slopes = np.array(each)
        self.slopes = slopes
        self.dim = slopes.shape[1]
        self._screen = None

    @property
    def pieces(self) -> list[tuple[np.ndarray, float]]:
        return list(zip(self.slopes, self.offsets))

    @property
    def _rows(self) -> AffineRows:
        # Built at the first evaluation and kept, so that constructing a spec stays cheap.
        if self._screen is None:
            self._screen = AffineRows(self.slopes, -np.array(self.offsets))
        return self._screen

    def _piece(self, i, x) -> float:
        return dot(self.slopes[i], x) + self.offsets[i]

    def _top(self, x) -> tuple[float, dict[int, float], Optional[np.ndarray]]:
        """The largest piece value, the values of the screen's contenders computed
        for it, and the screen's upper bounds (None where it is not used)."""
        _g, hi, contenders = self._rows.screen(x)
        vals = {i: self._piece(i, x) for i in contenders()}
        return max(vals.values()), vals, hi

    def value(self, x):
        return self._top(x)[0]

    def _bind_margin(self):
        return self._rows.reach

    def active_indices(self, x) -> list[int]:
        """Indices of pieces within a relative tolerance of the maximum."""
        top, vals, hi = self._top(x)
        cut = top - ACTIVE_TOL * (1.0 + abs(top))
        # A piece whose upper bound is below the cut is inactive; every other one is computed.
        rows = vals if hi is None else (hi >= cut).nonzero()[0].tolist()
        return [i for i in rows if (vals[i] if i in vals else self._piece(i, x)) >= cut]

    def subgradient(self, x, strategy=LEAST_INDEX):
        return strategy.pick([self.slopes[i] for i in self.active_indices(x)])

    def subdifferential_sample(self, x, k):
        active = self.active_indices(x)
        verts = [self.slopes[i] for i in active]
        if len(verts) == 1:
            return [np.array(verts[0])] * int(k)
        return _simplex_sample(verts, int(k))

    def level_set_project(self, x):
        # The sublevel set is an interval in one dimension; clamp onto it.
        if self.dim != 1:
            raise NoLevelSetOracle("no affine-max level-set projection beyond one dimension")
        lo, hi = -INF, INF
        for a, b in zip(self.slopes, self.offsets):
            s = float(a[0])
            if s > 0.0:
                hi = min(hi, -b / s)
            elif s < 0.0:
                lo = max(lo, -b / s)
            elif b > 0.0:
                raise NoLevelSetOracle("the zero sublevel set is empty")
        if lo > hi:
            raise NoLevelSetOracle("the zero sublevel set is empty")
        return np.array([min(max(float(x[0]), lo), hi)])

    def __repr__(self):
        pieces = [(a.tolist(), b) for a, b in self.pieces]
        return f"AffineMax(pieces={pieces})"


class Indicator(_SetAtom):
    """0 on the set, +inf outside.  Valid only under a Moreau envelope."""
    __slots__ = ()
    domain_is_full = False

    def value(self, x):
        return 0.0 if self.set.contains(x) else INF

    def subgradient(self, x, strategy=LEAST_INDEX):
        raise UnsupportedAtom("indicator atoms only support projection through a Moreau envelope")

    def _prox_map(self):
        return lambda gamma, x: self.set.project(x)


# ---------------------------------------------------------------------------
# combinators
# ---------------------------------------------------------------------------

class _Unary(FunctionSpec):
    """One inner function f: its dimension and domain, and its zero sublevel set."""
    __slots__ = ("inner", "domain_is_full")

    def __init__(self, f: FunctionSpec):
        self.inner = f
        self.dim = f.dim
        self.domain_is_full = f.domain_is_full

    def level_set_project(self, x):
        return self.inner.level_set_project(x)


class Scale(_Unary):
    """lam * f with lam > 0; shares the sublevel set and projector of f."""
    __slots__ = ("lam", "nonnegative")

    def __init__(self, lam: float, f: FunctionSpec):
        self.lam = finite_float(lam, "Scale lam", InvalidSpec)
        if self.lam <= 0.0:
            raise InvalidSpec("Scale requires lam > 0")
        super().__init__(f)
        self.nonnegative = f.nonnegative

    def value(self, x):
        return self.lam * self.inner.value(x)

    def subgradient(self, x, strategy=LEAST_INDEX):
        return self.lam * self.inner.subgradient(x, strategy)

    def subdifferential_sample(self, x, k):
        return [self.lam * u for u in self.inner.subdifferential_sample(x, k)]

    def hessian(self, x):
        return self.lam * self.inner.hessian(x)

    def _prox_map(self):
        inner = self.inner._prox_map()
        return None if inner is None else (lambda gamma, x: inner(gamma * self.lam, x))

    def __repr__(self):
        return f"Scale(lam={self.lam}, inner={self.inner!r})"


class PowerComp(_Unary):
    """f^(1/alpha) for f >= 0 and alpha > 0; f^(1/alpha) <= 0 exactly where f <= 0.

    Every base is checked at evaluation: a value of f below -_BASE_SLACK raises
    NegativeBaseError, and rounding above it counts as 0.
    """
    __slots__ = ("alpha",)
    nonnegative = True

    def __init__(self, alpha: float, f: FunctionSpec):
        self.alpha = finite_float(alpha, "PowerComp alpha", InvalidSpec)
        if self.alpha <= 0.0:
            raise InvalidSpec("PowerComp requires alpha > 0")
        super().__init__(f)

    def _base(self, v):
        """The inner value v with rounding below zero cut to 0; NegativeBaseError past the slack."""
        if v < -_BASE_SLACK:
            raise NegativeBaseError(f"base function is negative ({v}) at this point")
        return max(v, 0.0)

    def value(self, x):
        return _power(self, self._base(self.inner.value(x)), 1.0 / self.alpha)

    def _bind_margin(self):
        # A nonnegative inner value <= 0 is 0, a base that raises nothing (one that can go
        # negative may meet NegativeBaseError); with no closed form, only value is trusted.
        return _inner_margin(self.inner)

    def subgradient(self, x, strategy=LEAST_INDEX):
        v = self._base(self.inner.value(x))
        if v == INF:
            raise DomainError("base function is +inf here")
        e = 1.0 / self.alpha
        if v == 0.0:
            # The zero set minimizes f^e >= 0, so 0 is a subgradient there.  For
            # e > 1 it is returned without asking the inner oracle, which may
            # refuse a kink that f^e smooths out (d^2 on a ball's boundary).
            if e > 1.0:
                return np.zeros(self.dim)
            if e < 1.0:
                strategy.at_kink("fractional power is not differentiable on the zero set")
        u = self.inner.subgradient(x, strategy)
        if v != 0.0:
            return e * _power(self, v, e - 1.0) * u
        if e == 1.0:
            return u
        raise EmptySubdifferential("fractional power has no subgradient on the zero set")

    def __repr__(self):
        return f"PowerComp(alpha={self.alpha}, inner={self.inner!r})"


class LeftCompose(_Unary):
    """phi o f for a scalar phi with phi(0) = 0, strictly increasing on f's range;
    phi(0) = 0 and monotonicity leave the zero sublevel set of f unchanged."""
    __slots__ = ("phi", "dphi")

    def __init__(self, phi, dphi, f: FunctionSpec):
        self.phi = phi
        self.dphi = dphi
        super().__init__(f)
        if not abs(float(phi(0.0))) <= 1e-12:
            raise InvalidSpec("left composition requires phi(0) = 0")

    def value(self, x):
        v = self.inner.value(x)
        return INF if v == INF else float(self.phi(v))

    def subgradient(self, x, strategy=LEAST_INDEX):
        v = self.inner.value(x)
        if v == INF:
            raise DomainError("inner function is +inf here")
        return float(self.dphi(v)) * self.inner.subgradient(x, strategy)

    def __repr__(self):
        return f"LeftCompose(inner={self.inner!r})"


# Entrywise tolerance, relative to 1 + alpha, of the check L^T L = L L^T = alpha I.
_ORTHO_TOL = 1e-10


def scaled_orthogonal_factor(L: np.ndarray, tol: float = _ORTHO_TOL) -> float:
    """Return alpha > 0 with L^T L = L L^T = alpha I, else raise NotScaledOrthogonal."""
    L = np.asarray(L, dtype=float)
    if L.ndim != 2 or L.shape[0] != L.shape[1]:
        raise NotScaledOrthogonal("matrix must be square")
    gram = L.T @ L
    alpha = float(np.trace(gram)) / L.shape[0]
    if alpha <= tol:
        raise NotScaledOrthogonal("scaling factor must be positive")
    eye = np.eye(L.shape[0])
    if np.max(np.abs(gram - alpha * eye)) > tol * (1.0 + alpha):
        raise NotScaledOrthogonal("L^T L is not a positive multiple of the identity")
    if np.max(np.abs(L @ L.T - alpha * eye)) > tol * (1.0 + alpha):
        raise NotScaledOrthogonal("L L^T is not a positive multiple of the identity")
    return alpha


class RightLinear(_Unary):
    """f o L for L^T L = L L^T = alpha I (checked at construction); subgradients L^T u(Lx).

    Its dimension is L's column count, and its zero sublevel set is L^-1 of f's.
    """
    __slots__ = ("L", "alpha", "nonnegative")

    def __init__(self, L, f: FunctionSpec):
        self.L = np.asarray(L, dtype=float)
        self.alpha = scaled_orthogonal_factor(self.L)
        if self.L.shape[0] != f.dim:
            raise DimensionMismatch("matrix rows must match the inner dimension")
        super().__init__(f)
        self.dim = self.L.shape[1]
        self.nonnegative = f.nonnegative

    def value(self, x):
        return self.inner.value(self.L @ x)

    def subgradient(self, x, strategy=LEAST_INDEX):
        return self.L.T @ self.inner.subgradient(self.L @ x, strategy)

    def hessian(self, x):
        return self.L.T @ self.inner.hessian(self.L @ x) @ self.L

    def level_set_project(self, x):
        p = self.inner.level_set_project(self.L @ x)
        return (self.L.T @ p) / self.alpha

    def __repr__(self):
        return f"RightLinear(alpha={self.alpha}, inner={self.inner!r})"


class _Pair(FunctionSpec):
    """Two terms f and g of one dimension and their joint selection; full domain where both are."""
    __slots__ = ("f", "g", "joint_u", "domain_is_full")

    def __init__(self, f: FunctionSpec, g: FunctionSpec, joint_u):
        if f.dim != g.dim:
            raise DimensionMismatch("both terms must share one dimension")
        self.f = f
        self.g = g
        self.joint_u = joint_u
        self.dim = f.dim
        self.domain_is_full = f.domain_is_full and g.domain_is_full

    def subgradient(self, x, strategy=LEAST_INDEX):
        return as_vector(self.joint_u(x), dim=self.dim)


class ConvexComb(_Pair):
    """alpha*f + (1-alpha)*g under a joint selection of both subdifferentials."""
    __slots__ = ("alpha",)

    def __init__(self, alpha: float, f: FunctionSpec, g: FunctionSpec, joint_u):
        self.alpha = float(alpha)
        if not 0.0 < self.alpha < 1.0:
            raise InvalidSpec("ConvexComb requires alpha in (0, 1)")
        super().__init__(f, g, joint_u)

    def value(self, x):
        return self.alpha * self.f.value(x) + (1.0 - self.alpha) * self.g.value(x)

    def __repr__(self):
        return f"ConvexComb(alpha={self.alpha}, f={self.f!r}, g={self.g!r})"


class SumPair(_Pair):
    """f + g; the selection used for projection is twice the joint selection."""
    __slots__ = ()

    def value(self, x):
        return self.f.value(x) + self.g.value(x)

    def subgradient(self, x, strategy=LEAST_INDEX):
        return 2.0 * super().subgradient(x, strategy)

    def __repr__(self):
        return f"SumPair(f={self.f!r}, g={self.g!r})"


class InfConv(_Pair):
    """Exact inf-convolution of f and g through an audited argmin oracle.

    ``minimizer(x)`` must return y attaining inf_y f(y) + g(x - y); each call is
    probed against 8 pseudo-random competitors and InconsistentMinimizer is
    raised when a competitor beats it by more than 1e-8 or has a NaN value.
    """
    __slots__ = ("minimizer",)

    def __init__(self, f: FunctionSpec, g: FunctionSpec, minimizer, joint_u=None):
        super().__init__(f, g, joint_u)
        self.minimizer = minimizer
        # The domain of an inf-convolution is dom f + dom g, full where either one is.
        self.domain_is_full = f.domain_is_full or g.domain_is_full

    def split_at(self, x):
        """Return (y, f(y), g(x - y)) with the argmin audited.

        Raises NonFiniteValue when f(y) or g(x - y) is NaN, which the audit
        could not catch.
        """
        y = as_vector(self.minimizer(x), dim=self.dim)
        fy = self.f.value(y)
        gxy = self.g.value(x - y)
        for h, v in ((self.f, fy), (self.g, gxy)):
            if v != v:
                raise NonFiniteValue(f"{type(h).__name__} value is NaN")
        _audit(lambda z: self.f.value(z) + self.g.value(x - z), y, fy + gxy, x, 271828,
               InconsistentMinimizer, "competitor improves the supplied argmin")
        return y, fy, gxy

    def value(self, x):
        _, fy, gxy = self.split_at(x)
        return fy + gxy

    def subgradient(self, x, strategy=LEAST_INDEX):
        if self.joint_u is None:
            raise JointSelectionUnavailable("no joint selection was supplied")
        return super().subgradient(x, strategy)

    def __repr__(self):
        return f"InfConv(f={self.f!r}, g={self.g!r})"


# ---------------------------------------------------------------------------
# operation wrappers
# ---------------------------------------------------------------------------

def evaluate(f: FunctionSpec, x) -> float:
    """Function value as an extended real (+inf outside the domain)."""
    return f.value(as_vector(x, dim=f.dim))


def subgradient(f: FunctionSpec, x, strategy: SelectionStrategy = LEAST_INDEX) -> np.ndarray:
    """One subgradient at x; raises DomainError when the value is +inf."""
    x = as_vector(x, dim=f.dim)
    if f.value(x) == INF:
        raise DomainError("no subgradient outside the effective domain")
    return f.subgradient(x, strategy)


def subdifferential_sample(f: FunctionSpec, x, k: int) -> list[np.ndarray]:
    """k members of the subdifferential at x (deterministic order)."""
    x = as_vector(x, dim=f.dim)
    if f.value(x) == INF:
        raise DomainError("no subgradient outside the effective domain")
    if k < 1:
        raise ValueError("k must be positive")
    return f.subdifferential_sample(x, k)


def hessian(f: FunctionSpec, x) -> np.ndarray:
    """Exact Hessian where the atom provides one."""
    return f.hessian(as_vector(x, dim=f.dim))


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------

def _simplex_sample(verts: list[np.ndarray], k: int) -> list[np.ndarray]:
    """Deterministic dense sample of a simplex: vertices first, then barycentric
    grids of increasing resolution (level 2 adds the pairwise midpoints)."""
    m = len(verts)
    vmat = np.column_stack(verts)
    out: list[np.ndarray] = []
    seen: set[tuple[Fraction, ...]] = set()
    level = 1
    while len(out) < k:
        for combo in combinations_with_replacement(range(m), level):
            weights = [Fraction(combo.count(i), level) for i in range(m)]
            key = tuple(weights)
            if key in seen:
                continue
            seen.add(key)
            w = np.array([float(t) for t in weights])
            out.append(vmat @ w)
            if len(out) == k:
                break
        level += 1
    return out


def concentric_ball_pair(r: float, r_prime: float, dim: int = 2):
    """Distance functions to two concentric balls plus their maximal joint selection.

    The joint selection is 0 inside the inner ball and x/||x|| outside the
    outer one; between the two radii the joint subdifferential is empty.
    """
    if not 0.0 < r < r_prime:
        raise InvalidSpec("need 0 < r < r_prime")
    f = Dist(Ball(np.zeros(dim), r))
    g = Dist(Ball(np.zeros(dim), r_prime))

    def joint_u(x):
        x = as_vector(x, dim=dim)
        n = norm(x)
        if n <= r:
            return np.zeros(dim)
        if n >= r_prime:
            return x / n
        raise JointSelectionUnavailable(
            "the joint subdifferential is empty strictly between the two radii")

    return f, g, joint_u
