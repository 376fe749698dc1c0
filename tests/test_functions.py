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
    EmptySubdifferential,
    EndpointK,
    Halfspace,
    Hyperbolic,
    Indicator,
    InvalidSpec,
    LeftCompose,
    Linear,
    MoreauEnv,
    NegativeBaseError,
    NegLog,
    NonFiniteValue,
    NormPow,
    NotDifferentiableHere,
    NotScaledOrthogonal,
    NotTwiceDifferentiable,
    Point,
    PowerComp,
    RightLinear,
    Scale,
    SqDist,
    SqrtShift,
    SumPair,
    UnsupportedAtom,
    as_vector,
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


# -- gradient and subgradient at smooth points and kinks -------------------------

PUBLIC_STRATEGIES = (LEAST_INDEX, CENTROID, EndpointK(1))

BOUNDARY = (NotDifferentiableHere, "distance is not differentiable on the set boundary")
NORM_AT_0 = (NotDifferentiableHere, "the norm is not differentiable at 0")
DISTINCT_SLOPES = (NotDifferentiableHere, "several pieces are active with distinct slopes")
FRACTIONAL = (NotDifferentiableHere, "fractional power is not differentiable on the zero set")
NO_FRACTIONAL_SUBGRADIENT = (EmptySubdifferential,
                             "fractional power has no subgradient on the zero set")
INDICATOR = (UnsupportedAtom, "indicator atoms only support projection through a Moreau envelope")

UNIT_BALL = Ball([0.0, 0.0], 1.0)
ROT = np.array([[0.0, -1.0], [1.0, 0.0]])
KINKED_1D = AffineMax([([1.0], 1.0), ([3.0], 1.0)])          # kink at 0
KINKED_2D = AffineMax([([1.0, 0.0], 0.0), ([0.0, 1.0], 0.0), ([-1.0, -1.0], 0.0)])
TWIN_SLOPES = AffineMax([([1.0, 2.0], 0.0), ([1.0, 2.0], 0.0), ([0.0, -1.0], -5.0)])
DOUBLE = (lambda t: 2.0 * t, lambda t: 2.0)


def _radial(x):
    return x / np.linalg.norm(x)


# (spec, x, gradient outcome, subgradient outcome).  An outcome is a list of
# coordinates or an (exception type, message) pair; the subgradient outcome is
# one outcome shared by LEAST_INDEX, CENTROID and EndpointK(1), or a triple in
# that order where the strategies disagree.
ORACLE_TABLE = [
    (Linear([3.0, -4.0]), [1.0, 2.0], [3.0, -4.0], [3.0, -4.0]),
    # distance: smooth outside, zero inside, kinked on the boundary
    (Dist(UNIT_BALL), [2.0, 0.0], [1.0, 0.0], [1.0, 0.0]),
    (Dist(UNIT_BALL), [1.0, 0.0], BOUNDARY, [0.0, 0.0]),
    (Dist(UNIT_BALL), [0.5, 0.0], [0.0, 0.0], [0.0, 0.0]),
    (Dist(Halfspace([1.0, 0.0], 1.0)), [3.0, 0.0], [1.0, 0.0], [1.0, 0.0]),
    (Dist(Halfspace([1.0, 0.0], 1.0)), [1.0, 5.0], BOUNDARY, [0.0, 0.0]),
    (Dist(Halfspace([1.0, 0.0], 1.0)), [0.0, 5.0], [0.0, 0.0], [0.0, 0.0]),
    (Dist(Box([0.0, 0.0], [1.0, 1.0])), [2.0, 0.5], [1.0, 0.0], [1.0, 0.0]),
    (Dist(Box([0.0, 0.0], [1.0, 1.0])), [1.0, 0.5], BOUNDARY, [0.0, 0.0]),
    (Dist(Box([0.0, 0.0], [1.0, 1.0])), [0.0, 0.0], BOUNDARY, [0.0, 0.0]),
    (Dist(Box([0.0, 0.0], [1.0, 1.0])), [0.5, 0.5], [0.0, 0.0], [0.0, 0.0]),
    (SqDist(UNIT_BALL), [3.0, 0.0], [4.0, 0.0], [4.0, 0.0]),
    (SqDist(UNIT_BALL), [1.0, 0.0], [0.0, 0.0], [0.0, 0.0]),
    # ||x||^p: p = 1 is kinked at 0, p > 1 is not
    (NormPow(2.0, dim=2), [3.0, 4.0], [6.0, 8.0], [6.0, 8.0]),
    (NormPow(2.0, dim=2), [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]),
    (NormPow(1.0, dim=2), [3.0, 4.0], [0.6, 0.8], [0.6, 0.8]),
    (NormPow(1.0, dim=2), [0.0, 0.0], NORM_AT_0, [0.0, 0.0]),
    (NormPow(3.0, dim=1), [2.0], [12.0], [12.0]),
    (NegLog(), [2.0], [-0.5], [-0.5]),
    (NegLog(), [-1.0], (DomainError, "-ln(x) is +inf at x <= 0"),
     (DomainError, "-ln(x) is +inf at x <= 0")),
    (SqrtShift(2.0), [4.0], [-0.25], [-0.25]),
    (SqrtShift(2.0), [0.0], (DomainError, "eta - sqrt(x) is +inf at x <= 0"),
     (DomainError, "eta - sqrt(x) is +inf at x <= 0")),
    (Hyperbolic(2.0), [0.0], [0.0], [0.0]),
    (Hyperbolic(2.0), [1.0], [math.sqrt(0.5)], [math.sqrt(0.5)]),
    # affine max: distinct active slopes are a kink, equal ones are not
    (KINKED_1D, [1.0], [3.0], [3.0]),
    (KINKED_1D, [0.0], DISTINCT_SLOPES, ([1.0], [2.0], [3.0])),
    (KINKED_2D, [0.0, 0.0], DISTINCT_SLOPES, ([1.0, 0.0], [0.0, 0.0], [0.0, 1.0])),
    (KINKED_2D, [2.0, 1.0], [1.0, 0.0], [1.0, 0.0]),
    (TWIN_SLOPES, [1.0, 1.0], [1.0, 2.0], [1.0, 2.0]),
    (Indicator(UNIT_BALL), [0.5, 0.0], INDICATOR, INDICATOR),
    (Indicator(UNIT_BALL), [2.0, 0.0], INDICATOR, INDICATOR),
    # lam * f
    (Scale(2.0, Dist(UNIT_BALL)), [2.0, 0.0], [2.0, 0.0], [2.0, 0.0]),
    (Scale(2.0, Dist(UNIT_BALL)), [1.0, 0.0], BOUNDARY, [0.0, 0.0]),
    (Scale(0.5, KINKED_1D), [0.0], DISTINCT_SLOPES, ([0.5], [1.0], [1.5])),
    (Scale(2.0, NormPow(1.0, dim=2)), [0.0, 0.0], NORM_AT_0, [0.0, 0.0]),
    # f^(1/alpha) on and off the zero set, for 1/alpha > 1, = 1 and < 1
    (PowerComp(0.5, Dist(UNIT_BALL)), [3.0, 0.0], [4.0, 0.0], [4.0, 0.0]),
    (PowerComp(0.5, Dist(UNIT_BALL)), [1.0, 0.0], [0.0, 0.0], [0.0, 0.0]),
    (PowerComp(0.5, Dist(UNIT_BALL)), [0.5, 0.0], [0.0, 0.0], [0.0, 0.0]),
    (PowerComp(0.5, NormPow(1.0, dim=2)), [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]),
    (PowerComp(1.0, Dist(UNIT_BALL)), [3.0, 0.0], [1.0, 0.0], [1.0, 0.0]),
    (PowerComp(1.0, Dist(UNIT_BALL)), [1.0, 0.0], BOUNDARY, [0.0, 0.0]),
    (PowerComp(1.0, Dist(UNIT_BALL)), [0.5, 0.0], [0.0, 0.0], [0.0, 0.0]),
    (PowerComp(1.0, NormPow(1.0, dim=2)), [0.0, 0.0], NORM_AT_0, [0.0, 0.0]),
    (PowerComp(1.0, KINKED_1D), [0.0], DISTINCT_SLOPES, ([1.0], [2.0], [3.0])),
    (PowerComp(1.0, Indicator(UNIT_BALL)), [0.5, 0.0], INDICATOR, INDICATOR),
    (PowerComp(2.0, Dist(UNIT_BALL)), [5.0, 0.0], [0.25, 0.0], [0.25, 0.0]),
    (PowerComp(2.0, Dist(UNIT_BALL)), [1.0, 0.0], FRACTIONAL, NO_FRACTIONAL_SUBGRADIENT),
    (PowerComp(2.0, Dist(UNIT_BALL)), [0.5, 0.0], FRACTIONAL, NO_FRACTIONAL_SUBGRADIENT),
    (PowerComp(2.0, Indicator(UNIT_BALL)), [0.5, 0.0], FRACTIONAL, INDICATOR),
    (PowerComp(2.0, Indicator(UNIT_BALL)), [2.0, 0.0],
     (DomainError, "base function is +inf here"), (DomainError, "base function is +inf here")),
    (PowerComp(2.0, Linear([1.0])), [-1.0],
     (NegativeBaseError, "base function is negative (-1.0) at this point"),
     (NegativeBaseError, "base function is negative (-1.0) at this point")),
    # phi o f
    (LeftCompose(*DOUBLE, Dist(UNIT_BALL)), [3.0, 0.0], [2.0, 0.0], [2.0, 0.0]),
    (LeftCompose(*DOUBLE, Dist(UNIT_BALL)), [1.0, 0.0], BOUNDARY, [0.0, 0.0]),
    (LeftCompose(*DOUBLE, KINKED_1D), [0.0], DISTINCT_SLOPES, ([2.0], [4.0], [6.0])),
    (LeftCompose(*DOUBLE, NegLog()), [-1.0], (DomainError, "inner function is +inf here"),
     (DomainError, "inner function is +inf here")),
    # f o L with L a rotation: L [0, -2] = [2, 0]
    (RightLinear(ROT, Dist(UNIT_BALL)), [0.0, -2.0], [0.0, -1.0], [0.0, -1.0]),
    (RightLinear(ROT, Dist(UNIT_BALL)), [0.0, -1.0], BOUNDARY, [0.0, 0.0]),
    (RightLinear(ROT, KINKED_2D), [0.0, 0.0], DISTINCT_SLOPES,
     ([0.0, -1.0], [0.0, 0.0], [1.0, 0.0])),
    (RightLinear(ROT, NormPow(1.0, dim=2)), [0.0, 0.0], NORM_AT_0, [0.0, 0.0]),
    # Moreau envelopes are differentiable everywhere
    (MoreauEnv(1.0, Indicator(UNIT_BALL)), [3.0, 0.0], [2.0, 0.0], [2.0, 0.0]),
    (MoreauEnv(1.0, Indicator(UNIT_BALL)), [0.5, 0.0], [0.0, 0.0], [0.0, 0.0]),
    (MoreauEnv(1.0, NormPow(1.0, dim=2)), [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]),
    # the sum's selection is twice the joint selection whatever the strategy
    (SumPair(Dist(UNIT_BALL), Dist(UNIT_BALL), _radial), [0.0, 3.0],
     [0.0, 2.0], [0.0, 2.0]),
]


def _outcome(call):
    try:
        return call()
    except Exception as exc:  # noqa: BLE001 -- the table pins the exact error
        return type(exc), str(exc)


def _assert_outcome(actual, expected):
    if isinstance(expected, tuple):
        assert isinstance(actual, tuple) and actual == expected, actual
    else:
        assert isinstance(actual, np.ndarray), actual
        assert actual.shape == (len(expected),)
        np.testing.assert_allclose(actual, expected, rtol=1e-12, atol=1e-15)


@pytest.mark.parametrize("f, x, grad, sub", ORACLE_TABLE,
                         ids=[f"{row[0]!r}@{row[1]}" for row in ORACLE_TABLE])
def test_gradient_and_subgradient_table(f, x, grad, sub):
    x = as_vector(x, dim=f.dim)
    _assert_outcome(_outcome(lambda: f.gradient(x)), grad)
    subs = sub if isinstance(sub, tuple) and len(sub) == 3 else (sub,) * 3
    for strategy, expected in zip(PUBLIC_STRATEGIES, subs):
        _assert_outcome(_outcome(lambda: f.subgradient(x, strategy)), expected)


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


@pytest.mark.parametrize("call, message", [
    (lambda: NormPow(400.0).value(np.array([10.0])), "NormPow power 10.0 ** 400.0 overflows"),
    (lambda: NormPow(400.0).subgradient(np.array([10.0])), "NormPow power 10.0 ** 398.0 overflows"),
    (lambda: NormPow(400.0).hessian(np.array([10.0])), "NormPow power 10.0 ** 398.0 overflows"),
    (lambda: PowerComp(0.01, Dist(Ball([0.0], 1.0))).value(np.array([1e5])),
     "PowerComp power 99999.0 ** 100.0 overflows"),
    (lambda: PowerComp(0.01, Dist(Ball([0.0], 1.0))).subgradient(np.array([1e5])),
     "PowerComp power 99999.0 ** 99.0 overflows"),
    (lambda: SqrtShift(2.0).hessian(np.array([5e-324])),
     "SqrtShift power 5e-324 ** -1.5 overflows"),
], ids=["normpow-value", "normpow-subgradient", "normpow-hessian", "powercomp-value",
        "powercomp-subgradient", "sqrtshift-hessian"])
def test_an_overflowing_power_raises_nonfinite(call, message):
    # A float power raises a bare OverflowError where its result is too large.
    with pytest.raises(NonFiniteValue) as info:
        call()
    assert str(info.value) == message


# -- combinator construction -----------------------------------------------------

def test_powercomp_negative_base_rejected():
    f = PowerComp(2.0, Linear([1.0]))  # linear form is not certified nonnegative
    with pytest.raises(NegativeBaseError):
        evaluate(f, -1.0)


class _NegativeDist(Dist):
    """A Dist whose value is -1: its class says nonnegative, its oracle does not."""

    def value(self, x):
        return -1.0


def test_powercomp_tests_the_base_of_every_inner_function():
    # The base of a nonnegative class was once clamped unchecked: the value was 0.0.
    f = PowerComp(0.5, _NegativeDist(Ball([0.0], 1.0)))
    assert f.inner.nonnegative
    for call in (lambda: evaluate(f, 3.0), lambda: f.subgradient(np.array([3.0]))):
        with pytest.raises(NegativeBaseError) as info:
            call()
        assert str(info.value) == "base function is negative (-1.0) at this point"


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


def test_power_above_one_of_indicator_is_zero_on_the_set():
    # f = 0 on the set and f >= 0, so the set minimizes f^2 and 0 is a
    # subgradient there; the indicator's own oracle is not consulted.
    f = PowerComp(0.5, Indicator(Ball([0.0, 0.0], 1.0)))
    for x in ([0.5, 0.0], [1.0, 0.0]):
        for strategy in STRATEGIES:
            assert np.array_equal(subgradient(f, x, strategy), [0.0, 0.0])
        assert np.array_equal(f.gradient(as_vector(x)), [0.0, 0.0])


def test_scale_requires_positive_factor():
    with pytest.raises(InvalidSpec):
        Scale(0.0, NegLog())
    with pytest.raises(InvalidSpec):
        Scale(-1.0, NegLog())


def test_normpow_requires_p_at_least_one():
    with pytest.raises(InvalidSpec):
        NormPow(0.5, dim=2)
