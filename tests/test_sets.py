import numpy as np
import pytest

from subproj import Ball, Box, Halfspace, Point, project_set


def sample_sets():
    return [
        Ball([0.0, 0.0], 1.0),
        Ball([1.5, -0.3], 2.2),
        Halfspace([0.0, 1.0], 0.0),
        Halfspace([2.0, -1.0], 0.7),
        Box([-1.0, -1.0], [1.0, 1.0]),
        Box([0.0, -2.5], [0.1, 4.0]),
        Point([0.3, 0.4]),
    ]


def test_projection_examples():
    assert np.allclose(project_set(Ball([0, 0], 1.0), [2.0, 0.0]), [1.0, 0.0])
    assert np.allclose(project_set(Halfspace([0, 1], 0.0), [1.0, 2.0]), [1.0, 0.0])
    assert np.allclose(project_set(Box([-1, -1], [1, 1]), [3.0, 0.5]), [1.0, 0.5])
    assert np.allclose(project_set(Point([1.0, 2.0]), [9.0, 9.0]), [1.0, 2.0])


def test_projection_idempotent_and_contained():
    rng = np.random.default_rng(11)
    for s in sample_sets():
        for _ in range(300):
            x = rng.standard_normal(2) * rng.uniform(0.1, 50.0)
            p = s.project(x)
            assert s.contains(p)
            assert np.array_equal(s.project(p), p)


def test_projection_firmly_nonexpansive():
    rng = np.random.default_rng(12)
    for s in sample_sets():
        for _ in range(300):
            x = rng.standard_normal(2) * 5.0
            y = rng.standard_normal(2) * 5.0
            px, py = s.project(x), s.project(y)
            lhs = float(np.dot(px - py, px - py))
            rhs = float(np.dot(px - py, x - y))
            assert lhs <= rhs + 1e-12


def test_distance_matches_projection():
    rng = np.random.default_rng(13)
    for s in sample_sets():
        for _ in range(200):
            x = rng.standard_normal(2) * 5.0
            assert s.distance(x) == pytest.approx(np.linalg.norm(x - s.project(x)), abs=1e-12)


def test_construction_validation():
    with pytest.raises(ValueError):
        Ball([0, 0], 0.0)
    with pytest.raises(ValueError):
        Halfspace([0.0, 0.0], 1.0)
    with pytest.raises(ValueError):
        Box([1.0, 0.0], [0.0, 1.0])


def eager_halfspace_project(s, x):
    """Halfspace.project with its pad computed up front, before the first membership check."""
    excess = float(np.vdot(x, s.normal)) - s.offset
    if excess <= 0.0:
        return np.array(x, dtype=float)
    t = excess / s._n2
    p = x - t * s.normal
    pad = 4.0 * 2.0 ** -52 * (abs(s.offset) + np.sqrt(float(np.vdot(x, x))) * s._length) / s._n2
    while float(np.vdot(p, s.normal)) > s.offset:
        p = x - (t + pad) * s.normal
        pad *= 2.0
    return p


def test_halfspace_pads_only_a_step_left_outside_and_keeps_its_bits():
    # The pad is read only where the plain step leaves the point outside; there the
    # padded loop runs, and its result is the eager formula's, inside the halfspace.
    rng = np.random.default_rng(29)
    padded = 0
    for _ in range(400):
        n = int(rng.integers(1, 6))
        s = Halfspace(rng.standard_normal(n) * 10.0 ** rng.integers(-3, 4),
                      float(rng.standard_normal()) * 10.0 ** rng.integers(-3, 4))
        x = rng.standard_normal(n) * 10.0 ** rng.integers(-3, 4)
        excess = float(np.vdot(x, s.normal)) - s.offset
        if excess > 0.0:
            plain = x - (excess / s._n2) * s.normal
            padded += float(np.vdot(plain, s.normal)) > s.offset
        p = s.project(x)
        assert p.tobytes() == eager_halfspace_project(s, x).tobytes()
        assert s.contains(p)
    assert padded >= 20
