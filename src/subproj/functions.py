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

import numpy as np

from .core import as_vector, finite_float, norm, norm2
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
    value is finite and the subdifferential is nonempty.  Specs are immutable
    after construction and all oracles are pure.
    """

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


# ---------------------------------------------------------------------------
# atoms
# ---------------------------------------------------------------------------

class Linear(FunctionSpec):
    """x -> <x, u>."""

    def __init__(self, u):
        self.u = as_vector(u)
        self.dim = self.u.size
        self._level = Halfspace(self.u, 0.0) if norm2(self.u) > 0.0 else None

    def value(self, x):
        return float(np.dot(x, self.u))

    def subgradient(self, x, strategy=LEAST_INDEX):
        return np.array(self.u)

    def hessian(self, x):
        return np.zeros((self.dim, self.dim))

    def level_set_project(self, x):
        if self._level is None:
            return np.array(x, dtype=float)
        return self._level.project(x)

    def __repr__(self):
        return f"Linear(u={self.u.tolist()})"


class _SetAtom(FunctionSpec):
    """An atom built on a closed convex set S whose zero sublevel set is S."""

    nonnegative = True

    def __init__(self, s: ConvexSet):
        self.set = s
        self.dim = s.dim

    def level_set_project(self, x):
        return self.set.project(x)

    def __repr__(self):
        return f"{type(self).__name__}({self.set!r})"


class Dist(_SetAtom):
    """Distance to a closed convex set; its projector is the metric projection."""

    def value(self, x):
        return self.set.distance(x)

    def subgradient(self, x, strategy=LEAST_INDEX):
        d = self.set.distance(x)
        if d > 0.0:
            return (x - self.set.project(x)) / d
        # 0 is a subgradient everywhere on the set since the distance is >= 0.
        if not self.set.interior_contains(x):
            strategy.at_kink("distance is not differentiable on the set boundary")
        return np.zeros(self.dim)

    def hessian(self, x):
        if self.set.distance(x) == 0.0:
            if self.set.interior_contains(x):
                return np.zeros((self.dim, self.dim))
            raise NotTwiceDifferentiable("distance Hessian undefined on the set boundary")
        return self.set.dist_hessian(x)


class SqDist(_SetAtom):
    """Squared distance to a closed convex set; differentiable everywhere."""

    def value(self, x):
        d = self.set.distance(x)
        return d * d

    def subgradient(self, x, strategy=LEAST_INDEX):
        return 2.0 * (x - self.set.project(x))

    def hessian(self, x):
        if self.set.distance(x) == 0.0:
            if self.set.interior_contains(x):
                return np.zeros((self.dim, self.dim))
            raise NotTwiceDifferentiable("squared-distance Hessian undefined on the set boundary")
        return self.set.sqdist_hessian(x)


class NormPow(FunctionSpec):
    """||x||^p with p >= 1."""

    nonnegative = True

    def __init__(self, p: float, dim: int = 1):
        self.p = finite_float(p, "NormPow p", InvalidSpec)
        self.dim = int(dim)
        if self.p < 1.0:
            raise InvalidSpec("NormPow requires p >= 1; use PowerComp for smaller exponents")
        if self.dim < 1:
            raise InvalidSpec("NormPow requires dim >= 1")

    def value(self, x):
        return norm(x) ** self.p

    def subgradient(self, x, strategy=LEAST_INDEX):
        n = norm(x)
        if n == 0.0:
            # 0 belongs to the subdifferential at the minimizer for every p >= 1.
            if self.p == 1.0:
                strategy.at_kink("the norm is not differentiable at 0")
            return np.zeros(self.dim)
        return self.p * n ** (self.p - 2.0) * x

    def hessian(self, x):
        n = norm(x)
        if n == 0.0:
            if self.p == 2.0:
                return 2.0 * np.eye(self.dim)
            raise NotTwiceDifferentiable("||.||^p has no Hessian at 0 unless p = 2")
        eye = np.eye(self.dim)
        return self.p * n ** (self.p - 2.0) * eye + self.p * (self.p - 2.0) * n ** (self.p - 4.0) * np.outer(x, x)

    def level_set_project(self, x):
        return np.zeros(self.dim)

    def __repr__(self):
        return f"NormPow(p={self.p}, dim={self.dim})"


class NegLog(FunctionSpec):
    """-ln(x) for x > 0, +inf otherwise; its zero sublevel set is [1, inf)."""

    dim = 1
    domain_is_full = False

    def value(self, x):
        t = float(x[0])
        return -math.log(t) if t > 0.0 else INF

    def subgradient(self, x, strategy=LEAST_INDEX):
        t = float(x[0])
        if t <= 0.0:
            raise DomainError("-ln(x) is +inf at x <= 0")
        return np.array([-1.0 / t])

    def hessian(self, x):
        t = float(x[0])
        if t <= 0.0:
            raise DomainError("-ln(x) is +inf at x <= 0")
        return np.array([[1.0 / (t * t)]])

    def level_set_project(self, x):
        return np.array([max(float(x[0]), 1.0)])

    def __repr__(self):
        return "NegLog()"


class SqrtShift(FunctionSpec):
    """eta - sqrt(x) for x > 0, +inf otherwise; zero sublevel set [eta^2, inf)."""

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
        t = float(x[0])
        if t <= 0.0:
            raise DomainError("eta - sqrt(x) is +inf at x <= 0")
        return np.array([-0.5 / math.sqrt(t)])

    def hessian(self, x):
        t = float(x[0])
        if t <= 0.0:
            raise DomainError("eta - sqrt(x) is +inf at x <= 0")
        return np.array([[0.25 * t ** (-1.5)]])

    def level_set_project(self, x):
        return np.array([max(float(x[0]), self.eta * self.eta)])

    def __repr__(self):
        return f"SqrtShift(eta={self.eta})"


class Hyperbolic(FunctionSpec):
    """sqrt(1 + x^2) - eta with eta > 1; zero sublevel set [-a, a], a = sqrt(eta^2 - 1)."""

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


class AffineMax(FunctionSpec):
    """x -> max_i <a_i, x> + b_i over finitely many affine pieces."""

    def __init__(self, pieces):
        if not pieces:
            raise InvalidSpec("AffineMax needs at least one piece")
        self.slopes = [as_vector(a) for a, _ in pieces]
        self.offsets = [float(b) for _, b in pieces]
        self.dim = self.slopes[0].size
        for a in self.slopes:
            if a.size != self.dim:
                raise DimensionMismatch("all pieces must share one dimension")

    @property
    def pieces(self) -> list[tuple[np.ndarray, float]]:
        return list(zip(self.slopes, self.offsets))

    def _piece_values(self, x):
        return [float(np.dot(a, x)) + b for a, b in zip(self.slopes, self.offsets)]

    def value(self, x):
        return max(self._piece_values(x))

    def active_indices(self, x) -> list[int]:
        """Indices of pieces within a relative tolerance of the maximum."""
        vals = self._piece_values(x)
        top = max(vals)
        cut = top - ACTIVE_TOL * (1.0 + abs(top))
        return [i for i, v in enumerate(vals) if v >= cut]

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

    domain_is_full = False

    def value(self, x):
        return 0.0 if self.set.contains(x) else INF

    def subgradient(self, x, strategy=LEAST_INDEX):
        raise UnsupportedAtom("indicator atoms only support projection through a Moreau envelope")


# ---------------------------------------------------------------------------
# combinators
# ---------------------------------------------------------------------------

class Scale(FunctionSpec):
    """lam * f with lam > 0; shares the sublevel set and projector of f."""

    def __init__(self, lam: float, f: FunctionSpec):
        self.lam = finite_float(lam, "Scale lam", InvalidSpec)
        self.inner = f
        if self.lam <= 0.0:
            raise InvalidSpec("Scale requires lam > 0")
        self.dim = f.dim
        self.domain_is_full = f.domain_is_full
        self.nonnegative = f.nonnegative

    def value(self, x):
        return self.lam * self.inner.value(x)

    def subgradient(self, x, strategy=LEAST_INDEX):
        return self.lam * self.inner.subgradient(x, strategy)

    def subdifferential_sample(self, x, k):
        return [self.lam * u for u in self.inner.subdifferential_sample(x, k)]

    def hessian(self, x):
        return self.lam * self.inner.hessian(x)

    def level_set_project(self, x):
        return self.inner.level_set_project(x)

    def __repr__(self):
        return f"Scale(lam={self.lam}, inner={self.inner!r})"


class PowerComp(FunctionSpec):
    """f^(1/alpha) for a certified-nonnegative f and alpha > 0."""

    nonnegative = True

    def __init__(self, alpha: float, f: FunctionSpec):
        self.alpha = finite_float(alpha, "PowerComp alpha", InvalidSpec)
        self.inner = f
        if self.alpha <= 0.0:
            raise InvalidSpec("PowerComp requires alpha > 0")
        self.dim = f.dim
        self.domain_is_full = f.domain_is_full
        # Nonnegativity is certified structurally where possible and checked
        # at every evaluation otherwise.
        self._certified = f.nonnegative

    def _base(self, x):
        v = self.inner.value(x)
        if v == INF:
            raise DomainError("base function is +inf here")
        if v < 0.0:
            if self._certified or v >= -1e-12:
                return 0.0
            raise NegativeBaseError(f"base function is negative ({v}) at this point")
        return v

    def value(self, x):
        v = self.inner.value(x)
        if v == INF:
            return INF
        if v < -1e-12 and not self._certified:
            raise NegativeBaseError(f"base function is negative ({v}) at this point")
        return max(v, 0.0) ** (1.0 / self.alpha)

    def subgradient(self, x, strategy=LEAST_INDEX):
        v = self._base(x)
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
            return e * v ** (e - 1.0) * u
        if e == 1.0:
            return u
        raise EmptySubdifferential("fractional power has no subgradient on the zero set")

    def level_set_project(self, x):
        # f^(1/alpha) <= 0 exactly where f <= 0.
        return self.inner.level_set_project(x)

    def __repr__(self):
        return f"PowerComp(alpha={self.alpha}, inner={self.inner!r})"


class LeftCompose(FunctionSpec):
    """phi o f for a scalar phi with phi(0) = 0, strictly increasing on f's range."""

    def __init__(self, phi, dphi, f: FunctionSpec):
        self.phi = phi
        self.dphi = dphi
        self.inner = f
        self.dim = f.dim
        self.domain_is_full = f.domain_is_full
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

    def level_set_project(self, x):
        # phi(0) = 0 and monotonicity leave the zero sublevel set unchanged.
        return self.inner.level_set_project(x)

    def __repr__(self):
        return f"LeftCompose(inner={self.inner!r})"


def scaled_orthogonal_factor(L: np.ndarray, tol: float = 1e-10) -> float:
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


class RightLinear(FunctionSpec):
    """f o L for L^T L = L L^T = alpha I (checked at construction); subgradients L^T u(Lx)."""

    def __init__(self, L, f: FunctionSpec):
        self.L = np.asarray(L, dtype=float)
        self.alpha = scaled_orthogonal_factor(self.L)
        if self.L.shape[0] != f.dim:
            raise DimensionMismatch("matrix rows must match the inner dimension")
        self.inner = f
        self.dim = self.L.shape[1]
        self.domain_is_full = f.domain_is_full
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


class ConvexComb(FunctionSpec):
    """alpha*f + (1-alpha)*g under a joint selection of both subdifferentials."""

    def __init__(self, alpha: float, f: FunctionSpec, g: FunctionSpec, joint_u):
        self.alpha = float(alpha)
        if not 0.0 < self.alpha < 1.0:
            raise InvalidSpec("ConvexComb requires alpha in (0, 1)")
        if f.dim != g.dim:
            raise DimensionMismatch("both terms must share one dimension")
        self.f = f
        self.g = g
        self.joint_u = joint_u
        self.dim = f.dim
        self.domain_is_full = f.domain_is_full and g.domain_is_full

    def value(self, x):
        return self.alpha * self.f.value(x) + (1.0 - self.alpha) * self.g.value(x)

    def subgradient(self, x, strategy=LEAST_INDEX):
        return as_vector(self.joint_u(x), dim=self.dim)

    def __repr__(self):
        return f"ConvexComb(alpha={self.alpha}, f={self.f!r}, g={self.g!r})"


class SumPair(FunctionSpec):
    """f + g; the selection used for projection is twice the joint selection."""

    def __init__(self, f: FunctionSpec, g: FunctionSpec, joint_u):
        if f.dim != g.dim:
            raise DimensionMismatch("both terms must share one dimension")
        self.f = f
        self.g = g
        self.joint_u = joint_u
        self.dim = f.dim
        self.domain_is_full = f.domain_is_full and g.domain_is_full

    def value(self, x):
        return self.f.value(x) + self.g.value(x)

    def subgradient(self, x, strategy=LEAST_INDEX):
        return 2.0 * as_vector(self.joint_u(x), dim=self.dim)

    def __repr__(self):
        return f"SumPair(f={self.f!r}, g={self.g!r})"


class InfConv(FunctionSpec):
    """Exact inf-convolution of f and g through an audited argmin oracle.

    ``minimizer(x)`` must return y attaining inf_y f(y) + g(x - y); each call is
    probed against 8 pseudo-random competitors and InconsistentMinimizer is
    raised when a competitor beats it by more than 1e-8.
    """

    AUDIT_TOL = 1e-8

    def __init__(self, f: FunctionSpec, g: FunctionSpec, minimizer, joint_u=None):
        if f.dim != g.dim:
            raise DimensionMismatch("both terms must share one dimension")
        self.f = f
        self.g = g
        self.minimizer = minimizer
        self.joint_u = joint_u
        self.dim = f.dim

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
        best = fy + gxy
        rng = np.random.default_rng(271828)
        scale = 1.0 + norm(x)
        for _ in range(8):
            z = y + scale * rng.standard_normal(self.dim)
            cand = self.f.value(z) + self.g.value(x - z)
            if cand < best - self.AUDIT_TOL:
                raise InconsistentMinimizer(
                    f"competitor improves the supplied argmin by {best - cand:.3e}")
        return y, fy, gxy

    def value(self, x):
        _, fy, gxy = self.split_at(x)
        return fy + gxy

    def subgradient(self, x, strategy=LEAST_INDEX):
        if self.joint_u is None:
            raise JointSelectionUnavailable("no joint selection was supplied")
        return as_vector(self.joint_u(x), dim=self.dim)

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
