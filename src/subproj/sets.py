"""Closed convex sets with exact metric projections.

Every set variant is nonempty, closed and convex by construction, and its
projection is the exact nearest-point map (idempotent, firmly nonexpansive).
Each set also answers the second-order questions the distance atoms ask:
strict-interior membership and the Hessians of d_S and d_S^2 off the set.
"""

from __future__ import annotations

import numpy as np

from .core import as_vector, finite_float, norm, norm2
from .errors import NotTwiceDifferentiable

__all__ = ["ConvexSet", "Ball", "Halfspace", "Box", "Point", "project_set"]


class ConvexSet:
    """Base class for sets with an exact projection oracle."""

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

    def dist_hessian(self, x: np.ndarray) -> np.ndarray:
        """Hessian of the distance at a point outside the set."""
        raise NotTwiceDifferentiable("no distance Hessian oracle for this set")

    def sqdist_hessian(self, x: np.ndarray) -> np.ndarray:
        """Hessian of the squared distance at a point outside the set."""
        raise NotTwiceDifferentiable("no squared-distance Hessian oracle for this set")


class Ball(ConvexSet):
    """Closed Euclidean ball {y : ||y - center|| <= radius}."""

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

    def __init__(self, normal, offset: float):
        self.normal = as_vector(normal)
        self.offset = finite_float(offset, "halfspace offset")
        self.dim = self.normal.size
        self._n2 = norm2(self.normal)
        if self._n2 == 0.0:
            raise ValueError("halfspace normal must be nonzero")

    def project(self, x):
        excess = float(np.dot(x, self.normal)) - self.offset
        if excess <= 0.0:
            return np.array(x, dtype=float)
        t = excess / self._n2
        p = x - t * self.normal
        # As for the ball: keep the result inside despite rounding, padding
        # the step by an escalating few ulps of the operating scale.
        pad = 4.0 * 2.0 ** -52 * (abs(self.offset) + norm(x) * np.sqrt(self._n2)) / self._n2
        while float(np.dot(p, self.normal)) > self.offset:
            p = x - (t + pad) * self.normal
            pad *= 2.0
        return p

    def distance(self, x):
        excess = float(np.dot(x, self.normal)) - self.offset
        return max(excess, 0.0) / np.sqrt(self._n2)

    def contains(self, x):
        return float(np.dot(x, self.normal)) <= self.offset

    def interior_contains(self, x):
        return float(np.dot(x, self.normal)) < self.offset

    def dist_hessian(self, x):
        return np.zeros((self.dim, self.dim))

    def sqdist_hessian(self, x):
        return 2.0 * np.outer(self.normal, self.normal) / self._n2

    def __repr__(self):
        return f"Halfspace(normal={self.normal.tolist()}, offset={self.offset})"


class Box(ConvexSet):
    """Axis-aligned box {y : lo <= y <= hi componentwise}."""

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
