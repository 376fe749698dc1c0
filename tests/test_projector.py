import math
import warnings

import numpy as np
import pytest

from subproj import (
    AffineMax,
    Ball,
    Box,
    Dist,
    DomainError,
    Halfspace,
    Hyperbolic,
    InfeasibleWitness,
    LeftCompose,
    Linear,
    NegLog,
    NonFiniteValue,
    NormPow,
    ProjStatus,
    RelaxationOutOfRange,
    SqDist,
    SqrtShift,
    ZeroSubgradient,
    class_t_witness,
    evaluate,
    fejer_gap,
    halfspace_project,
    relax,
    sproj,
    sproj_set,
    subgradient,
)
from subproj.core import as_vector, nonzero_norm2, norm2
from subproj.projector import _cut


def catalog():
    """(function, domain sampler, feasible-point sampler) triples."""
    rng = np.random.default_rng(30)
    ball = Ball([0.0, 0.0], 1.0)
    box = Box([-1.0, -1.0], [1.0, 1.0])
    hs = Halfspace([1.0, 2.0], 0.5)
    a = math.sqrt(3.0)  # level boundary of Hyperbolic(2)
    return [
        (Linear([0.5, -1.0]),
         lambda: rng.standard_normal(2) * 3.0,
         lambda: Linear([0.5, -1.0]).level_set_project(rng.standard_normal(2) * 3.0)),
        (Dist(ball), lambda: rng.standard_normal(2) * 3.0,
         lambda: ball.project(rng.standard_normal(2) * 3.0)),
        (Dist(hs), lambda: rng.standard_normal(2) * 3.0,
         lambda: hs.project(rng.standard_normal(2) * 3.0)),
        (Dist(box), lambda: rng.standard_normal(2) * 3.0,
         lambda: box.project(rng.standard_normal(2) * 3.0)),
        (SqDist(ball), lambda: rng.standard_normal(2) * 3.0,
         lambda: ball.project(rng.standard_normal(2) * 3.0)),
        (NormPow(2.0, dim=2), lambda: rng.standard_normal(2) * 3.0,
         lambda: np.zeros(2)),
        (NormPow(1.0, dim=2), lambda: rng.standard_normal(2) * 3.0,
         lambda: np.zeros(2)),
        (AffineMax([([1.0], 1.0), ([2.0], 1.0)]),
         lambda: rng.standard_normal(1) * 3.0,
         lambda: np.array([rng.uniform(-5.0, -1.0)])),
        (NegLog(), lambda: np.array([rng.uniform(0.05, 10.0)]),
         lambda: np.array([rng.uniform(1.0, 10.0)])),
        (SqrtShift(2.0), lambda: np.array([rng.uniform(0.05, 10.0)]),
         lambda: np.array([rng.uniform(4.0, 10.0)])),
        (Hyperbolic(2.0), lambda: rng.standard_normal(1) * 4.0,
         lambda: np.array([rng.uniform(-a, a)])),
    ]


# -- halfspace projection -------------------------------------------------------

def test_halfspace_project_examples():
    assert np.allclose(halfspace_project([1.0, 2.0], [0.0, 1.0], 2.0), [1.0, 0.0])
    x = np.array([0.4, -1.2])
    assert np.array_equal(halfspace_project(x, [3.0, 1.0], -3.0), x)
    got = halfspace_project([0.5], [-2.0], 0.693147)
    assert got[0] == pytest.approx(0.846574, abs=1e-6)


def test_halfspace_project_saturates_constraint():
    rng = np.random.default_rng(31)
    for _ in range(200):
        x = rng.standard_normal(3) * 2.0
        u = rng.standard_normal(3)
        fx = rng.uniform(0.01, 4.0)
        p = halfspace_project(x, u, fx)
        assert float(np.dot(p - x, u)) + fx == pytest.approx(0.0, abs=1e-10)


def test_halfspace_project_zero_subgradient():
    with pytest.raises(ZeroSubgradient):
        halfspace_project([1.0], [0.0], 1.0)


# -- single-valued projection -----------------------------------------------------

def test_sproj_closed_form_examples():
    out = sproj(NegLog(), 0.5)
    assert out.point[0] == pytest.approx(0.5 - 0.5 * math.log(0.5), abs=1e-12)
    assert out.status is ProjStatus.PROJECTED

    assert sproj(AffineMax([([1.0], 1.0), ([2.0], 1.0)]), 0.7).point[0] == pytest.approx(-0.5)
    assert np.allclose(sproj(Dist(Ball([0, 0], 1.0)), [2.0, 0.0]).point, [1.0, 0.0])
    assert np.allclose(sproj(NormPow(2.0, dim=2), [3.0, 4.0]).point, [1.5, 2.0])


def test_sproj_outside_domain():
    with pytest.raises(DomainError):
        sproj(NegLog(), -1.0)


def test_sproj_step_recovers_value():
    for f, sampler, _ in catalog():
        for _ in range(60):
            x = sampler()
            out = sproj(f, x)
            if out.status is ProjStatus.PROJECTED:
                recovered = float(np.dot(x - out.point, out.subgradient_used))
                assert recovered == pytest.approx(out.f_value, rel=1e-10, abs=1e-12)
            else:
                assert out.subgradient_used is None
                assert np.array_equal(out.point, x)


def test_fixed_point_characterization():
    for f, sampler, _ in catalog():
        for _ in range(150):
            x = sampler()
            out = sproj(f, x)
            assert (out.status is ProjStatus.FIXED) == (evaluate(f, x) <= 0.0)


def test_projector_jump_at_kink():
    # Both one-sided limits exist at the kink but disagree: no continuous selection.
    f = AffineMax([([1.0], 1.0), ([2.0], 1.0)])
    assert sproj(f, -0.01).point[0] == pytest.approx(-1.0, abs=1e-9)
    assert sproj(f, 0.01).point[0] == pytest.approx(-0.5, abs=1e-9)


# -- set-valued projection --------------------------------------------------------

def test_sproj_set_corner_images():
    f = AffineMax([([1.0, 0.0], 1.0), ([0.0, 1.0], 1.0)])
    got = sproj_set(f, [0.0, 0.0], 3)
    want = {(-1.0, 0.0), (0.0, -1.0), (-1.0, -1.0)}
    assert {tuple(np.round(p, 12)) for p in got} == want


def test_sproj_set_1d_interval():
    f = AffineMax([([1.0], 1.0), ([2.0], 1.0)])
    got = {float(p[0]) for p in sproj_set(f, 0.0, 2)}
    assert got == {-1.0, -0.5}


def test_sproj_set_fixed_is_singleton():
    got = sproj_set(NegLog(), 2.0, 7)
    assert len(got) == 1
    assert got[0][0] == 2.0


def test_sproj_set_images_bounded():
    f = AffineMax([([1.0, 0.0], 1.0), ([0.0, 1.0], 1.0)])
    x = np.zeros(2)
    fx = evaluate(f, x)
    us = f.subdifferential_sample(x, 200)
    min_norm = min(np.linalg.norm(u) for u in us)
    radius = np.linalg.norm(x) + fx / min_norm
    for p in sproj_set(f, x, 200):
        assert np.linalg.norm(p) <= radius + 1e-12


# -- relaxation -------------------------------------------------------------------

def test_relax_examples():
    x, p = np.array([2.0, 0.0]), np.array([1.0, 0.0])
    assert np.array_equal(relax(x, p, 1.0), p)
    assert np.array_equal(relax(x, p, 0.0), x)
    assert np.allclose(relax(x, p, 1.5), [0.5, 0.0])
    with pytest.raises(RelaxationOutOfRange):
        relax(x, p, 2.5)
    with pytest.raises(RelaxationOutOfRange):
        relax(x, p, -0.1)


# -- operator class certificates ---------------------------------------------------

def test_class_t_witness_examples():
    # f(x) <= 0 makes the witness product exactly zero
    assert class_t_witness(NegLog(), 3.0, 2.0) == 0.0

    got = class_t_witness(Linear([0.0, 1.0]), [1.0, 2.0], [5.0, -1.0])
    assert got == pytest.approx(-2.0, abs=1e-12)

    g = 0.5 - 0.5 * math.log(0.5)
    got = class_t_witness(NegLog(), 0.5, 1.0)
    assert got == pytest.approx((1.0 - g) * (0.5 - g), abs=1e-12)
    assert got <= 0.0


def test_class_t_witness_rejects_infeasible():
    with pytest.raises(InfeasibleWitness):
        class_t_witness(NegLog(), 0.5, 0.9)


def test_class_t_witness_rejects_non_finite_witness_values():
    # phi(t) is NaN for t > 0.5, so the value is NaN at distance > 0.5 from the ball.
    f = LeftCompose(lambda t: math.nan if t > 0.5 else t, lambda t: 1.0,
                    Dist(Ball([0.0, 0.0], 1.0)))
    with pytest.raises(NonFiniteValue, match="LeftCompose value is NaN"):
        class_t_witness(f, [1.2, 0.0], [5.0, 0.0])
    with pytest.raises(InfeasibleWitness):
        class_t_witness(NegLog(), 2.0, -1.0)  # f(y) = +inf


def test_class_t_witness_nonpositive_over_catalog():
    for f, sampler, feas in catalog():
        for _ in range(80):
            x, y = sampler(), feas()
            w = class_t_witness(f, x, y)
            assert w <= 1e-12 * (1.0 + float(np.dot(x, x)))


def test_fejer_gap_examples():
    x = np.array([2.0, 0.0])
    assert fejer_gap(x, x, [0.5, 0.5]) == 0.0
    assert fejer_gap(x, [1.0, 0.0], [0.0, 0.0]) == pytest.approx(2.0)
    g = 0.5 - 0.5 * math.log(0.5)
    got = fejer_gap([0.5], [g], [1.0])
    assert got == pytest.approx(0.25 - (g - 0.5) ** 2 - (g - 1.0) ** 2, abs=1e-12)
    assert got == pytest.approx(0.1063, abs=5e-5)


def test_quasi_nonexpansiveness_over_catalog():
    for f, sampler, feas in catalog():
        for _ in range(150):
            x, y = sampler(), feas()
            p = sproj(f, x).point
            gap = fejer_gap(x, p, y)
            assert gap >= -1e-12 * (1.0 + float(np.dot(x, x)))


def test_relaxed_iterates_stay_quasi_nonexpansive():
    for f, sampler, feas in catalog():
        for _ in range(60):
            x, y = sampler(), feas()
            p = sproj(f, x).point
            for alpha in (0.25, 0.5, 0.75, 1.0):
                z = relax(x, p, alpha)
                lhs = float(np.dot(z - y, z - y))
                rhs = (float(np.dot(x - y, x - y))
                       - alpha * (2.0 - alpha) * float(np.dot(p - x, p - x)))
                assert lhs <= rhs + 1e-10


def test_cutting_halfspace_contains_level_set():
    for f, sampler, feas in catalog():
        for _ in range(80):
            x = sampler()
            if evaluate(f, x) <= 0.0:
                continue
            u = subgradient(f, x)
            fx = evaluate(f, x)
            for _ in range(5):
                y = feas()
                assert float(np.dot(y - x, u)) + fx <= 1e-9


def test_distance_lower_bound_over_catalog():
    for f, sampler, _ in catalog():
        for _ in range(100):
            x = sampler()
            fx = evaluate(f, x)
            if fx <= 0.0:
                continue
            u = subgradient(f, x)
            d = np.linalg.norm(x - f.level_set_project(x))
            assert fx / np.linalg.norm(u) <= d + 1e-9


@pytest.mark.parametrize("f, x", [
    (Linear([1e160]), [1e160]),
    (Dist(Halfspace([1e100], 0.0)), [1e250]),
    (AffineMax([([1.0], 0.0), ([1e160], 0.0)]), [1e160]),
], ids=["linear", "dist-halfspace", "affinemax"])
def test_overflowing_inner_product_is_out_of_domain_without_a_warning(f, x):
    # <x, u> overflows to +inf; the value is then outside the effective domain,
    # and the inner product itself must not warn on the way there.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="outside the effective domain"):
            sproj(f, x)


# -- the cut's check of its normal ------------------------------------------------

def cut_checking_u_first(x, u, fx):
    """The cut as it was: u through as_vector before its squared norm is taken."""
    u = as_vector(u, dim=x.size)
    t = fx / nonzero_norm2(norm2(u), ZeroSubgradient,
                           "zero subgradient with positive function value")
    return x - t * u, t


def cut_outcome(cut, x, u):
    """The cut's point and step scale, or the type and message of its error."""
    try:
        point, t = cut(np.array(x, dtype=float), u, 2.0)
    except Exception as exc:  # noqa: BLE001 -- the error itself is the outcome compared
        return type(exc), str(exc)
    return point.tobytes(), t.hex()


@pytest.mark.parametrize("x, u", [
    ([1.0, 2.0], np.array([math.nan, 1.0])),
    ([1.0, 2.0], np.array([math.inf, 1.0])),
    ([1.0, 2.0], np.array([-math.inf, 1.0])),
    ([1.0, 2.0], np.array([math.inf, -math.inf])),
    ([1.0, 2.0], [math.nan, 1.0]),
    ([1.0, 2.0], np.array([1.0, 2.0, 3.0])),
    ([1.0, 2.0], np.array([math.nan, 2.0, 3.0])),
    ([1.0, 2.0], np.array([1.0])),
    ([1.0, 2.0], np.array([[1.0, 2.0]])),
    ([1.0, 2.0], np.array([])),
    ([1.0, 2.0], np.array([0.0, 0.0])),
    ([1.0, 2.0], np.array([1e200, 1e200])),
    ([1.0, 2.0], np.array([3.0, -4.0])),
    ([1.0, 2.0], np.array([3, -4])),
    ([1.0, 2.0], np.array([0.1, -4.0], dtype=np.float32)),
    ([1.0, 2.0], [0.1, -4.0]),
    ([1.0], np.array(math.nan)),
    ([1.0], np.array(math.inf)),
    ([1.0], np.float64(-math.inf)),
    ([1.0], np.array(3.0)),
    ([1.0], 3.0),
    ([1.0], np.array([3.0, 1.0])),
], ids=["nan", "inf", "-inf", "inf-minus-inf", "nan-list", "long", "long-nan", "short",
        "2-d", "empty", "zero", "overflowing-norm", "plain", "int", "float32", "list",
        "0-d-nan", "0-d-inf", "0-d-scalar-minus-inf", "0-d", "python-float", "dim-1-long"])
def test_cut_checks_its_normal_as_before(x, u):
    # A finite ||u||^2 vouches for u's entries; every other u raises, or cuts, as
    # it did when as_vector checked each u first.
    assert cut_outcome(_cut, x, u) == cut_outcome(cut_checking_u_first, x, u)


def test_an_overflowing_cut_norm_leaves_the_point_with_a_zero_step_scale():
    point, t = _cut(np.array([1.0, 2.0]), np.array([1e200, -1e200]), 2.0)
    assert t == 0.0
    assert point.tolist() == [1.0, 2.0]
