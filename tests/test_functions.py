import math

import numpy as np
import pytest

from subproj import (
    CENTROID,
    LEAST_INDEX,
    AffineMax,
    Ball,
    Box,
    DimensionMismatch,
    Dist,
    DomainError,
    EndpointK,
    Halfspace,
    Hyperbolic,
    Indicator,
    InvalidSpec,
    LeftCompose,
    Linear,
    NegativeBaseError,
    NegLog,
    NormPow,
    NotScaledOrthogonal,
    NotTwiceDifferentiable,
    Point,
    PowerComp,
    RightLinear,
    Scale,
    SqDist,
    SqrtShift,
    UnsupportedAtom,
    evaluate,
    fd_jacobian,
    hessian,
    subdifferential_sample,
    subgradient,
)

STRATEGIES = [LEAST_INDEX, CENTROID, EndpointK(0), EndpointK(1)]


def catalog_with_domain_samplers():
    """(function, sampler) pairs; samplers draw points inside the domain."""
    rng = np.random.default_rng(20)
    ball = Ball([0.0, 0.0], 1.0)
    return [
        (Linear([0.5, -1.0]), lambda: rng.standard_normal(2) * 3.0),
        (Dist(ball), lambda: rng.standard_normal(2) * 3.0),
        (Dist(Halfspace([1.0, 2.0], 0.5)), lambda: rng.standard_normal(2) * 3.0),
        (SqDist(ball), lambda: rng.standard_normal(2) * 3.0),
        (NormPow(2.0, dim=2), lambda: rng.standard_normal(2) * 3.0),
        (NormPow(1.0, dim=2), lambda: rng.standard_normal(2) * 3.0),
        (AffineMax([([1.0], 1.0), ([2.0], 1.0)]), lambda: rng.standard_normal(1) * 3.0),
        (AffineMax([([1.0, 0.0], 1.0), ([0.0, 1.0], 1.0)]), lambda: rng.standard_normal(2) * 3.0),
        (NegLog(), lambda: np.array([rng.uniform(0.05, 10.0)])),
        (SqrtShift(2.0), lambda: np.array([rng.uniform(0.05, 10.0)])),
        (Hyperbolic(2.0), lambda: rng.standard_normal(1) * 4.0),
    ]


# -- values -------------------------------------------------------------------

def test_eval_examples():
    assert evaluate(NegLog(), 0.5) == pytest.approx(math.log(2.0), abs=1e-12)
    assert evaluate(NegLog(), -1.0) == math.inf
    assert evaluate(Dist(Ball([0, 0], 1.0)), [2.0, 0.0]) == pytest.approx(1.0, abs=1e-12)
    assert evaluate(SqrtShift(2.0), -3.0) == math.inf
    assert evaluate(Hyperbolic(2.0), 0.0) == pytest.approx(-1.0)


def test_eval_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        evaluate(Linear([1.0, 2.0]), [1.0, 2.0, 3.0])


# -- subgradients -------------------------------------------------------------

def test_subgradient_examples():
    assert np.allclose(subgradient(Dist(Ball([0, 0], 1.0)), [2.0, 0.0]), [1.0, 0.0])
    two_piece = AffineMax([([1.0], 1.0), ([2.0], 1.0)])
    assert subgradient(two_piece, 0.0, LEAST_INDEX)[0] == 1.0
    assert subgradient(two_piece, 0.0, EndpointK(1))[0] == 2.0
    assert subgradient(two_piece, 0.0, CENTROID)[0] == pytest.approx(1.5)
    assert np.allclose(subgradient(Linear([0.0, 1.0]), [7.0, -3.0]), [0.0, 1.0])


def test_subgradient_outside_domain_raises():
    with pytest.raises(DomainError):
        subgradient(NegLog(), -0.5)


def test_subgradient_inequality_all_strategies():
    for f, sampler in catalog_with_domain_samplers():
        for _ in range(1000):
            x, y = sampler(), sampler()
            fx, fy = evaluate(f, x), evaluate(f, y)
            for strat in STRATEGIES:
                u = subgradient(f, x, strat)
                assert fy >= fx + float(np.dot(y - x, u)) - 1e-9


def test_selection_is_deterministic():
    f = AffineMax([([1.0, 0.0], 1.0), ([0.0, 1.0], 1.0)])
    x = np.zeros(2)
    for strat in STRATEGIES:
        a = subgradient(f, x, strat)
        b = subgradient(f, x, strat)
        assert np.array_equal(a, b)


# -- subdifferential sampling --------------------------------------------------

def test_subdifferential_sample_two_active_pieces():
    f = AffineMax([([1.0, 0.0], 1.0), ([0.0, 1.0], 1.0)])
    got = subdifferential_sample(f, [0.0, 0.0], 3)
    want = {(1.0, 0.0), (0.0, 1.0), (0.5, 0.5)}
    assert {tuple(u) for u in got} == want


def test_subdifferential_sample_1d_interval():
    f = AffineMax([([1.0], 1.0), ([2.0], 1.0)])
    got = subdifferential_sample(f, 0.0, 2)
    assert {float(u[0]) for u in got} == {1.0, 2.0}


def test_subdifferential_sample_singleton_repeated():
    got = subdifferential_sample(NegLog(), 0.5, 4)
    assert len(got) == 4
    for u in got:
        assert u[0] == pytest.approx(-2.0)


def test_subdifferential_sample_members_are_subgradients():
    f = AffineMax([([1.0, 0.0], 1.0), ([0.0, 1.0], 1.0), ([0.5, 0.5], 0.5)])
    rng = np.random.default_rng(5)
    x = np.zeros(2)
    members = subdifferential_sample(f, x, 25)
    fx = evaluate(f, x)
    for u in members:
        for _ in range(40):
            y = rng.standard_normal(2) * 3.0
            assert evaluate(f, y) >= fx + float(np.dot(y - x, u)) - 1e-9


def test_subdifferential_sample_unique_active_piece():
    f = AffineMax([([1.0], 1.0), ([2.0], 1.0)])
    got = subdifferential_sample(f, 1.0, 5)
    assert len({float(u[0]) for u in got}) == 1


# -- hessians -------------------------------------------------------------------

def test_hessian_closed_forms():
    assert np.allclose(hessian(NegLog(), 0.5), [[4.0]])
    x = 1.7
    assert np.allclose(hessian(Hyperbolic(2.0), x), [[(1 + x * x) ** -1.5]])
    assert np.allclose(hessian(NormPow(2.0, dim=3), [1.0, 2.0, 3.0]), 2 * np.eye(3))


def test_hessian_matches_finite_differences():
    rng = np.random.default_rng(8)
    cases = [
        (NegLog(), lambda: np.array([rng.uniform(0.2, 3.0)])),
        (SqrtShift(2.0), lambda: np.array([rng.uniform(0.2, 3.0)])),
        (Hyperbolic(2.0), lambda: rng.standard_normal(1) * 2.0),
        (NormPow(2.0, dim=2), lambda: rng.standard_normal(2) * 2.0),
        (SqDist(Ball([0.0, 0.0], 1.0)), lambda: rng.standard_normal(2) * 4.0),
    ]
    for f, sampler in cases:
        for _ in range(10):
            x = sampler()
            if isinstance(f, SqDist) and abs(np.linalg.norm(x) - 1.0) < 0.3:
                continue  # keep away from the set boundary
            h = hessian(f, x)
            approx = fd_jacobian(f.gradient, x)
            assert np.max(np.abs(h - approx)) <= 1e-6 * (1.0 + np.max(np.abs(h)))


UNIT_BALL = Ball([0.0, 0.0], 1.0)
HALFSPACE = Halfspace([1.0, 2.0], 0.5)
POINT = Point([0.5, -1.0])
UNIT_BOX = Box([-1.0, -1.0], [1.0, 1.0])


@pytest.mark.parametrize("f", [
    Dist(UNIT_BALL), Dist(HALFSPACE), Dist(POINT),
    SqDist(UNIT_BALL), SqDist(HALFSPACE), SqDist(POINT), SqDist(UNIT_BOX),
], ids=repr)
def test_distance_hessians_match_finite_differences_off_the_boundary(f):
    rng = np.random.default_rng(9)
    checked = 0
    while checked < 10:
        x = rng.standard_normal(2) * 3.0
        if f.set.distance(x) < 0.3:
            continue  # outside the set, away from its boundary
        if isinstance(f.set, Box) and np.min(np.abs(np.abs(x) - 1.0)) < 0.3:
            continue  # away from the planes through the box facets
        h = hessian(f, x)
        approx = fd_jacobian(f.gradient, x)
        assert np.max(np.abs(h - approx)) <= 1e-6 * (1.0 + np.max(np.abs(h)))
        checked += 1


@pytest.mark.parametrize("f,x", [
    (Dist(UNIT_BALL), [0.5, 0.0]),
    (Dist(HALFSPACE), [-1.0, 0.0]),
    (SqDist(UNIT_BALL), [0.0, -0.5]),
    (SqDist(HALFSPACE), [0.0, -1.0]),
    (SqDist(UNIT_BOX), [0.5, -0.5]),
    (Dist(UNIT_BOX), [0.5, -0.5]),
], ids=repr)
def test_distance_hessian_is_zero_in_the_strict_interior(f, x):
    assert np.array_equal(hessian(f, x), np.zeros((2, 2)))


@pytest.mark.parametrize("f,x,message", [
    (Dist(UNIT_BALL), [1.0, 0.0], "distance Hessian undefined on the set boundary"),
    (Dist(HALFSPACE), [0.5, 0.0], "distance Hessian undefined on the set boundary"),
    (Dist(POINT), [0.5, -1.0], "distance Hessian undefined on the set boundary"),
    (SqDist(UNIT_BALL), [0.0, 1.0], "squared-distance Hessian undefined on the set boundary"),
    (SqDist(POINT), [0.5, -1.0], "squared-distance Hessian undefined on the set boundary"),
    (SqDist(UNIT_BOX), [1.0, 0.0], "squared-distance Hessian undefined on the set boundary"),
    (SqDist(UNIT_BOX), [2.0, 1.0], "squared distance to a box is not C^2 on facets"),
    (SqDist(UNIT_BOX), [-1.0, 3.0], "squared distance to a box is not C^2 on facets"),
    (Dist(UNIT_BOX), [2.0, 0.0], "no distance Hessian oracle for this set"),
], ids=repr)
def test_distance_hessian_unavailable(f, x, message):
    with pytest.raises(NotTwiceDifferentiable) as info:
        hessian(f, x)
    assert str(info.value) == message


def test_hessian_unavailable():
    with pytest.raises(NotTwiceDifferentiable):
        hessian(AffineMax([([1.0], 0.0)]), 0.5)
    with pytest.raises(NotTwiceDifferentiable):
        hessian(NormPow(1.0, dim=2), [0.0, 0.0])


# -- combinator construction -----------------------------------------------------

def test_powercomp_negative_base_rejected():
    f = PowerComp(2.0, Linear([1.0]))  # linear form is not certified nonnegative
    with pytest.raises(NegativeBaseError):
        evaluate(f, -1.0)


def test_powercomp_certified_atoms_clamp_roundoff():
    f = PowerComp(2.0, Dist(Ball([0.0, 0.0], 1.0)))
    assert evaluate(f, [0.5, 0.0]) == 0.0


def test_leftcompose_requires_anchored_phi():
    with pytest.raises(InvalidSpec):
        LeftCompose(lambda t: t + 1.0, lambda t: 1.0, NegLog())


def test_rightlinear_requires_scaled_orthogonal():
    shear = np.array([[1.0, 1.0], [0.0, 1.0]])
    with pytest.raises(NotScaledOrthogonal):
        RightLinear(shear, NormPow(2.0, dim=2))
    rot = np.array([[0.0, -1.0], [1.0, 0.0]])
    spec = RightLinear(2.0 * rot, NormPow(2.0, dim=2))
    assert spec.alpha == pytest.approx(4.0)


def test_indicator_raw_subgradient_unsupported():
    ind = Indicator(Ball([0.0, 0.0], 1.0))
    with pytest.raises(UnsupportedAtom):
        subgradient(ind, [0.5, 0.0])


def test_scale_requires_positive_factor():
    with pytest.raises(InvalidSpec):
        Scale(0.0, NegLog())
    with pytest.raises(InvalidSpec):
        Scale(-1.0, NegLog())


def test_normpow_requires_p_at_least_one():
    with pytest.raises(InvalidSpec):
        NormPow(0.5, dim=2)
