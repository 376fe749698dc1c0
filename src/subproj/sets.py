"""Closed convex sets with exact metric projections.

Every set variant is nonempty, closed and convex by construction, and its
projection is the exact nearest-point map (idempotent, firmly nonexpansive).
Each set also answers the second-order questions the distance atoms ask:
strict-interior membership and the Hessians of d_S and d_S^2 off the set.
"""

from __future__ import annotations

import math
import sys

import numpy as np

from .core import (SCREEN_MAX, _reach, _vector_n2, as_vector, dot, finite_float, norm,
                   scaled_norm)
from .errors import NonFiniteValue, NotTwiceDifferentiable

__all__ = ["ConvexSet", "Ball", "Halfspace", "Box", "Point", "project_set"]


class ConvexSet:
    """Base class for slotted sets with an exact projection oracle."""
    __slots__ = ("dim",)
    dim: int

    def project(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def distance(self, x: np.ndarray) -> float:
        """Exact Euclidean distance to the set."""
        raise NotImplementedError

    def contains(self, x: np.ndarray) -> bool:
        raise NotImplementedError

    def interior_contains(self, x: np.ndarray) -> bool:
        """True when x lies in the set but not on its boundary (conservative)."""
        return False

    def affine_row(self):
        """The row (r, c) whose value r . x - c has the distance as its positive part.

        Only a halfspace has one, and it checks only its own oracle's arithmetic limits
        (FunctionSpec.affine_row has the contract; core.AffineRows checks the rest).
        """
        return None

    def dist_hessian(self, x: np.ndarray) -> np.ndarray:
        """Hessian of the distance at a point outside the set."""
        raise NotTwiceDifferentiable("no distance Hessian oracle for this set")

    def sqdist_hessian(self, x: np.ndarray) -> np.ndarray:
        """Hessian of the squared distance at a point outside the set."""
        raise NotTwiceDifferentiable("no squared-distance Hessian oracle for this set")


class Ball(ConvexSet):
    """Closed Euclidean ball {y : ||y - center|| <= radius}."""
    __slots__ = ("center", "radius")

    def __init__(self, center, radius: float):
        self.center = as_vector(center)
        self.radius = finite_float(radius, "ball radius")
        self.dim = self.center.size
        if self.radius <= 0.0:
            raise ValueError("ball radius must be positive")

    def project(self, x):
        z = x - self.center
        n = norm(z)
        if n <= self.radius:
            return np.array(x, dtype=float)
        p = self.center + (self.radius / n) * z
        # Rounding may inflate the result by an ulp; pull it back inside so
        # that membership and idempotence hold exactly.  The shrink escalates
        # geometrically, so the loop terminates at any scale.
        shrink = 2.0 ** -52
        while norm(p - self.center) > self.radius:
            p = self.center + (p - self.center) * (1.0 - shrink)
            shrink *= 2.0
        return p

    def distance(self, x):
        return max(norm(x - self.center) - self.radius, 0.0)

    def _depth(self, x, v=0.0):
        # distance, contains and project all compare this one n = ||x - c|| with r.  Below
        # SCREEN_MAX no point of the ball has a squared offset that overflows.
        n, r = norm(x - self.center), self.radius
        return _reach(r - n, r + n, self.dim) if n < r < SCREEN_MAX else 0.0

    def contains(self, x):
        return norm(x - self.center) <= self.radius

    def interior_contains(self, x):
        return norm(x - self.center) < self.radius

    def dist_hessian(self, x):
        return _radial_dist_hessian(x - self.center)

    def sqdist_hessian(self, x):
        z = x - self.center
        n = norm(z)
        s = z / n
        r = self.radius
        return 2.0 * ((1.0 - r / n) * np.eye(self.dim) + (r / n) * np.outer(s, s))

    def __repr__(self):
        return f"Ball(center={self.center.tolist()}, radius={self.radius})"


class Halfspace(ConvexSet):
    """Closed halfspace {y : <y, normal> <= offset}."""
    __slots__ = ("normal", "offset", "_n2", "_length")

    def __init__(self, normal, offset: float):
        self.normal, self._n2 = _vector_n2(normal)
        self.offset = finite_float(offset, "halfspace offset")
        self.dim = self.normal.size
        if self._n2 == 0.0:
            raise ValueError("halfspace normal must be nonzero")
        # The square root of an overflowed or subnormal _n2 loses the length, which the
        # scaled norm keeps.
        self._length = (math.sqrt(self._n2) if sys.float_info.min <= self._n2 < math.inf
                        else scaled_norm(self.normal))

    def project(self, x):
        excess = dot(x, self.normal) - self.offset
        if excess <= 0.0:
            return np.array(x, dtype=float)
        t = excess / self._n2
        p = x - t * self.normal
        if dot(p, self.normal) <= self.offset:
            return p
        # As for the ball: keep the result inside despite rounding, padding
        # the step by an escalating few ulps of the operating scale.
        pad = 4.0 * 2.0 ** -52 * (abs(self.offset) + norm(x) * self._length) / self._n2
        if not pad > 0.0:  # 0 where it underflows, NaN where _n2 overflowed
            return self._edge(x, excess)
        p = x - (t + pad) * self.normal
        while dot(p, self.normal) > self.offset:
            pad *= 2.0
            p = x - (t + pad) * self.normal
        return p

    def distance(self, x):
        excess = dot(x, self.normal) - self.offset
        return max(excess, 0.0) / self._length

    def _edge(self, x, excess):
        """The projection where the padded step scale underflows: x less s times the
        unit normal a / ||a||, s the distance d = excess / ||a|| padded from its own
        spacing, doubling, until the point lies in the set.  The pad starts at 2**-1074
        or more, so within about 2,100 steps s is +inf; a step that leaves the doubles
        raises NonFiniteValue, so the loop ends on any finite x.

        The point p satisfies ``contains(p)``, and with n the dimension, u = 2**-53,
        d = ``distance(x)``, b the offset and e = (n + 2) (8 u + 2**-1074 / ||a||^2):
        | ||p - x|| - d | <= e (d + ||x|| + |b| / ||a||) + 4 (n + 2) 2**-1074 (1 + 1 / ||a||).
        That is rounding at the operating scale, that of a subnormal ||a||^2, and
        underflow; a test checks it in exact arithmetic.
        """
        if self._n2 == math.inf:
            raise NonFiniteValue(
                "Halfspace normal's squared length overflows; its projection is undefined here")
        unit = self.normal / self._length
        d = excess / self._length
        s, pad = d, math.ulp(d)
        while s < math.inf:
            with np.errstate(over="ignore"):
                p = x - s * unit
            if not np.isfinite(p).all():
                break
            if dot(p, self.normal) <= self.offset:
                return p
            s = d + pad
            pad *= 2.0
        raise NonFiniteValue("Halfspace projection leaves the doubles")

    def _depth(self, x, v=0.0):
        # distance, contains and project all test this one excess against 0, and an excess
        # >= 0 leaves no depth.  Where the gap and ||normal|| ||x|| together stay below
        # SCREEN_MAX**2, no partial sum of normal . z overflows within the depth.
        excess = dot(x, self.normal) - self.offset
        scale = self._length * norm(x)
        rho = _reach(-excess, scale, self.dim) if scale - excess < SCREEN_MAX ** 2 else 0.0
        return rho / self._length

    def affine_row(self):
        # distance forms normal . x, finite where ||x|| < SCREEN_MAX only if s is too,
        # and divides it by s, growing its underflow by 1/s: the screen allows s >= 2**-450.
        if not 2.0 ** -900 <= self._n2 < SCREEN_MAX ** 2:
            return None
        return self.normal / self._length, self.offset / self._length

    def contains(self, x):
        return dot(x, self.normal) <= self.offset

    def interior_contains(self, x):
        return dot(x, self.normal) < self.offset

    def dist_hessian(self, x):
        return np.zeros((self.dim, self.dim))

    def sqdist_hessian(self, x):
        return 2.0 * np.outer(self.normal, self.normal) / self._n2

    def __repr__(self):
        return f"Halfspace(normal={self.normal.tolist()}, offset={self.offset})"


class Box(ConvexSet):
    """Axis-aligned box {y : lo <= y <= hi componentwise}."""
    __slots__ = ("lo", "hi")

    def __init__(self, lo, hi):
        self.lo = as_vector(lo)
        self.hi = as_vector(hi, dim=self.lo.size)
        self.dim = self.lo.size
        if np.any(self.lo > self.hi):
            raise ValueError("box requires lo <= hi componentwise")

    def project(self, x):
        return np.clip(x, self.lo, self.hi)

    def distance(self, x):
        return norm(x - np.clip(x, self.lo, self.hi))

    def _depth(self, x, v=0.0):
        # Within the smallest face gap every coordinate stays between its bounds, which
        # distance, contains and project (the clip) all compare exactly; outside, it is < 0.
        return _reach(float(min((x - self.lo).min(), (self.hi - x).min())), 0.0, 1)

    def contains(self, x):
        return bool(np.all(x >= self.lo) and np.all(x <= self.hi))

    def interior_contains(self, x):
        return bool(np.all(x > self.lo) and np.all(x < self.hi))

    def sqdist_hessian(self, x):
        diag = np.zeros(self.dim)
        for i in range(self.dim):
            if x[i] == self.lo[i] or x[i] == self.hi[i]:
                raise NotTwiceDifferentiable("squared distance to a box is not C^2 on facets")
            diag[i] = 2.0 if (x[i] < self.lo[i] or x[i] > self.hi[i]) else 0.0
        return np.diag(diag)

    def __repr__(self):
        return f"Box(lo={self.lo.tolist()}, hi={self.hi.tolist()})"


class Point(ConvexSet):
    """Singleton {c}."""
    __slots__ = ("c",)

    def __init__(self, c):
        self.c = as_vector(c)
        self.dim = self.c.size

    def project(self, x):
        return np.array(self.c, dtype=float)

    def distance(self, x):
        return norm(x - self.c)

    def contains(self, x):
        return bool(np.all(np.asarray(x, dtype=float) == self.c))

    def dist_hessian(self, x):
        return _radial_dist_hessian(x - self.c)

    def sqdist_hessian(self, x):
        return 2.0 * np.eye(self.dim)

    def __repr__(self):
        return f"Point(c={self.c.tolist()})"


def _radial_dist_hessian(z: np.ndarray) -> np.ndarray:
    """Hessian of ||.|| - const at the offset z from a center: (I - s s^T) / ||z||."""
    n = norm(z)
    s = z / n
    return (np.eye(z.size) - np.outer(s, s)) / n


def project_set(s: ConvexSet, x) -> np.ndarray:
    """Exact metric projection of ``x`` onto ``s``."""
    return s.project(as_vector(x, dim=s.dim))
