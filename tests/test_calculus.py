import math

import numpy as np
import pytest

from subproj import (
    AffineMax,
    Ball,
    ConvexComb,
    Dist,
    DomainError,
    FunctionSpec,
    InconsistentMinimizer,
    Indicator,
    InfConv,
    JointSelectionUnavailable,
    LEAST_INDEX,
    LeftCompose,
    Linear,
    NegLog,
    Point,
    NonFiniteValue,
    NonMonotonePhi,
    NormPow,
    NotDifferentiableHere,
    NotPositiveHere,
    NotScaledOrthogonal,
    PowerComp,
    RightLinear,
    Scale,
    SqDist,
    SumPair,
    ZeroSubgradient,
    acceleration_gap,
    concentric_ball_pair,
    evaluate,
    sproj,
    sproj_convexcomb,
    sproj_infconv,
    sproj_leftcompose,
    sproj_moreau,
    sproj_power,
    sproj_rightlinear,
    sproj_scale,
    sproj_sum,
)


def random_rotation(rng, d):
    q, r = np.linalg.qr(rng.standard_normal((d, d)))
    return q * np.sign(np.diag(r))


# -- scaling ---------------------------------------------------------------------

def test_scale_examples():
    base = sproj(NegLog(), 0.5).point
    assert np.allclose(sproj_scale(3.7, NegLog(), 0.5).point, base, atol=1e-12)
    assert np.allclose(sproj_scale(1.0, NegLog(), 0.5).point, base, atol=1e-15)
    ball = Dist(Ball([0, 0], 1.0))
    assert np.allclose(sproj_scale(0.01, ball, [2.0, 0.0]).point, [1.0, 0.0], atol=1e-12)


def test_scale_outcome_reports_scaled_data():
    out = sproj_scale(2.0, NegLog(), 0.5)
    assert out.f_value == pytest.approx(2.0 * math.log(2.0))
    assert out.subgradient_used[0] == pytest.approx(-4.0)


def test_scale_invariance_random():
    rng = np.random.default_rng(40)
    fns = [
        (NegLog(), lambda: np.array([rng.uniform(0.05, 5.0)])),
        (Dist(Ball([0, 0], 1.0)), lambda: rng.standard_normal(2) * 3.0),
        (NormPow(2.0, dim=2), lambda: rng.standard_normal(2) * 3.0),
    ]
    for f, sampler in fns:
        for _ in range(120):
            lam = 10.0 ** rng.uniform(-3, 3)
            x = sampler()
            a = sproj_scale(lam, f, x).point
            b = sproj(f, x).point
            assert np.linalg.norm(a - b) <= 1e-10 * (1.0 + np.linalg.norm(x))


# -- left composition --------------------------------------------------------------

CUBE = (lambda t: t ** 3, lambda t: 3.0 * t * t)


def test_leftcompose_identity_phi():
    ident = (lambda t: t, lambda t: 1.0)
    x = np.array([0.5])
    assert np.allclose(sproj_leftcompose(ident, NegLog(), x), sproj(NegLog(), x).point)


def test_leftcompose_cube_example():
    got = sproj_leftcompose(CUBE, NegLog(), 0.5)
    # displacement ratio for t^3 is 1/3
    assert got[0] == pytest.approx(0.5 + (0.5 - 0.5 * math.log(0.5) - 0.5) / 3.0, abs=1e-12)
    assert got[0] == pytest.approx(0.615525, abs=1e-6)


def test_leftcompose_fixed_region():
    x = np.array([2.0])
    assert np.array_equal(sproj_leftcompose(CUBE, NegLog(), x), x)


def test_leftcompose_matches_composed_spec():
    rng = np.random.default_rng(41)
    for f, sampler in [
        (NegLog(), lambda: np.array([rng.uniform(0.05, 0.95)])),
        (Dist(Ball([0, 0], 1.0)), lambda: rng.standard_normal(2) * 4.0),
        (NormPow(2.0, dim=3), lambda: rng.standard_normal(3)),
    ]:
        composed = LeftCompose(*CUBE, f)
        for _ in range(60):
            x = sampler()
            if evaluate(f, x) <= 0.0:
                continue
            direct = sproj_leftcompose(CUBE, f, x)
            via_spec = sproj(composed, x).point
            assert np.linalg.norm(direct - via_spec) <= 1e-9 * (1.0 + np.linalg.norm(x))


def test_leftcompose_needs_positive_slope():
    falling = (lambda t: -t, lambda t: -1.0)
    with pytest.raises(NonMonotonePhi):
        sproj_leftcompose(falling, NegLog(), 0.5)


def test_leftcompose_rejects_kinks():
    f = AffineMax([([1.0], 1.0), ([2.0], 1.0)])
    with pytest.raises(NotDifferentiableHere):
        sproj_leftcompose(CUBE, f, 0.0)


# -- power rule ---------------------------------------------------------------------

def test_power_rule_examples():
    ball = Dist(Ball([0, 0], 1.0))
    assert np.allclose(sproj_power(1.0, ball, [3.0, 0.0]),
                       sproj(ball, [3.0, 0.0]).point)
    assert np.allclose(sproj_power(0.5, ball, [3.0, 0.0]), [2.0, 0.0], atol=1e-12)
    got = sproj_power(2.0, NormPow(1.0, dim=1), 2.0)
    assert got[0] == pytest.approx(-2.0, abs=1e-12)


def test_power_rule_matches_composed_spec():
    rng = np.random.default_rng(42)
    ball = Dist(Ball([0, 0], 1.0))
    for alpha in (0.25, 0.5, 1.0, 2.0, 4.0):
        composed = PowerComp(alpha, ball)
        for _ in range(60):
            x = rng.standard_normal(2) * 4.0
            if evaluate(ball, x) <= 0.0:
                continue
            direct = sproj_power(alpha, ball, x)
            via_spec = sproj(composed, x).point
            expected = (1.0 - alpha) * x + alpha * sproj(ball, x).point
            assert np.linalg.norm(direct - expected) <= 1e-10 * (1.0 + np.linalg.norm(x))
            assert np.linalg.norm(via_spec - expected) <= 1e-10 * (1.0 + np.linalg.norm(x))


# -- right linear composition ----------------------------------------------------------

def test_rightlinear_identity():
    f = NormPow(2.0, dim=2)
    y = np.array([1.0, 1.0])
    assert np.allclose(sproj_rightlinear(np.eye(2), f, y), sproj(f, y).point)


def test_rightlinear_rotation_example():
    rot90 = np.array([[0.0, -1.0], [1.0, 0.0]])
    got = sproj_rightlinear(rot90, Linear([0.0, 1.0]), [2.0, 3.0])
    assert np.allclose(got, [0.0, 3.0], atol=1e-12)


def test_rightlinear_scaled_identity_example():
    got = sproj_rightlinear(2.0 * np.eye(2), NormPow(2.0, dim=2), [1.0, 1.0])
    assert np.allclose(got, [0.5, 0.5], atol=1e-12)


def test_rightlinear_random_scaled_rotations():
    rng = np.random.default_rng(43)
    fns = [NormPow(2.0, dim=3), Dist(Ball([0.0, 0.0, 0.0], 1.0)), Linear([1.0, -2.0, 0.5])]
    for _ in range(50):
        c = rng.uniform(0.2, 3.0)
        L = c * random_rotation(rng, 3)
        alpha = c * c
        f = fns[rng.integers(len(fns))]
        y = rng.standard_normal(3) * 2.0
        direct = sproj_rightlinear(L, f, y)
        composed = sproj(RightLinear(L, f), y).point
        pulled = (L.T @ sproj(f, L @ y).point) / alpha
        assert np.linalg.norm(direct - pulled) <= 1e-9 * (1.0 + np.linalg.norm(y))
        assert np.linalg.norm(composed - pulled) <= 1e-9 * (1.0 + np.linalg.norm(y))


def test_rightlinear_rejects_general_matrices():
    with pytest.raises(NotScaledOrthogonal):
        sproj_rightlinear(np.array([[1.0, 0.3], [0.0, 1.0]]), NormPow(2.0, dim=2), [1.0, 1.0])


class LinearImage(FunctionSpec):
    """f o L for an arbitrary matrix L, with subgradients L^T u(Lx)."""

    def __init__(self, L, f):
        self.L, self.inner, self.dim = L, f, L.shape[1]

    def value(self, x):
        return self.inner.value(self.L @ x)

    def subgradient(self, x, strategy=LEAST_INDEX):
        return self.L.T @ self.inner.subgradient(self.L @ x, strategy)


def test_general_linear_image_identity():
    # For arbitrary L the pulled-back projection and the projection of the
    # composed function are linked by an exact correction identity.
    rng = np.random.default_rng(44)
    f = NormPow(2.0, dim=3)
    for _ in range(40):
        L = rng.standard_normal((3, 3))
        y = rng.standard_normal(3) * 2.0
        comp = LinearImage(L, f)
        if evaluate(comp, y) <= 0.0:
            continue
        u = f.subgradient(L @ y)
        lu = L.T @ u
        lhs = L.T @ sproj(f, L @ y).point
        gy = sproj(comp, y).point
        rhs = L.T @ (L @ y) - (float(np.dot(lu, lu)) / float(np.dot(u, u))) * (y - gy)
        assert np.linalg.norm(lhs - rhs) <= 1e-9 * (1.0 + np.linalg.norm(lhs))


# -- convex combination and sum -----------------------------------------------------

def affine_pair():
    """Shared-slope affine pair: joint selection is the common slope everywhere."""
    u = np.array([1.0, 0.0])
    f = AffineMax([(u, -2.0)])
    g = AffineMax([(u, 2.0)])
    return f, g, (lambda x: u)


def test_convexcomb_concentric_balls():
    f, g, joint = concentric_ball_pair(1.0, 2.0)
    got = sproj_convexcomb(0.5, f, g, joint, [4.0, 0.0])
    assert np.allclose(got, [1.5, 0.0], atol=1e-12)
    x = np.array([0.3, 0.2])
    assert np.array_equal(sproj_convexcomb(0.5, f, g, joint, x), x)
    with pytest.raises(JointSelectionUnavailable):
        sproj_convexcomb(0.5, f, g, joint, [1.5, 0.0])


def test_convexcomb_matches_combined_spec():
    rng = np.random.default_rng(45)
    f, g, joint = concentric_ball_pair(1.0, 2.0)
    spec = ConvexComb(0.4, f, g, joint)
    for _ in range(200):
        x = rng.standard_normal(2) * rng.uniform(0.1, 4.0)
        n = np.linalg.norm(x)
        if 1.0 < n < 2.0:
            continue
        table = sproj_convexcomb(0.4, f, g, joint, x)
        direct = sproj(spec, x).point
        assert np.linalg.norm(table - direct) <= 1e-10 * (1.0 + n)


def test_convexcomb_split_equivalence_both_directions():
    rng = np.random.default_rng(46)
    f, g, joint = affine_pair()
    for alpha in (0.3, 0.5, 0.7):
        spec = ConvexComb(alpha, f, g, joint)
        seen_mixed = seen_split = False
        for _ in range(300):
            x = rng.standard_normal(2) * 3.0
            fx, gx = evaluate(f, x), evaluate(g, x)
            if fx <= 0.0 and gx <= 0.0:
                continue
            table = sproj_convexcomb(alpha, f, g, joint, x)
            direct = sproj(spec, x).point
            assert np.linalg.norm(table - direct) <= 1e-10 * (1.0 + np.linalg.norm(x))
            comb = alpha * sproj(f, x).point + (1.0 - alpha) * sproj(g, x).point
            splits = np.linalg.norm(table - comb) <= 1e-10 * (1.0 + np.linalg.norm(x))
            assert splits == (fx * gx >= 0.0)
            seen_mixed |= fx * gx < 0.0
            seen_split |= fx * gx >= 0.0
        assert seen_mixed and seen_split


def test_convexcomb_mixed_sign_row():
    # f <= 0 < g with the combination positive: the correction is -alpha*f*u/|u|^2.
    u = np.array([1.0, 0.0])
    f = AffineMax([(u, -2.0)])   # f(x) = x1 - 2
    g = AffineMax([(u, 2.0)])    # g(x) = x1 + 2
    joint = lambda x: u
    alpha = 0.25
    x = np.array([1.0, 0.7])     # f = -1 <= 0 < 3 = g, h = 0.25*(-1)+0.75*3 = 2 > 0
    got = sproj_convexcomb(alpha, f, g, joint, x)
    comb = alpha * sproj(f, x).point + (1.0 - alpha) * sproj(g, x).point
    assert np.allclose(got - comb, -alpha * (-1.0) * u, atol=1e-12)


@pytest.mark.parametrize("alpha, lo, hi, combination_positive", [
    pytest.param(0.2, -2.0, 1.2, False, id="combination-nonpositive"),
    pytest.param(0.75, -1.0, 2.0, True, id="combination-positive"),
])
def test_convexcomb_rows_with_f_positive_and_g_not(alpha, lo, hi, combination_positive):
    # f = x1 + 2 > 0 >= x1 - 2 = g on (-2, 2]; the combination is x1 + 4 alpha - 2.
    u = np.array([1.0, 0.0])
    f = AffineMax([(u, 2.0)])
    g = AffineMax([(u, -2.0)])
    joint = lambda x: u
    spec = ConvexComb(alpha, f, g, joint)
    rng = np.random.default_rng(47)
    for _ in range(100):
        x = np.array([rng.uniform(lo, hi), rng.standard_normal()])
        hx = evaluate(spec, x)
        assert evaluate(f, x) > 0.0 >= evaluate(g, x)
        assert (hx > 0.0) == combination_positive
        direct = sproj(spec, x)
        assert direct.fixed != combination_positive
        table = sproj_convexcomb(alpha, f, g, joint, x)
        assert np.linalg.norm(table - direct.point) <= 1e-10 * (1.0 + np.linalg.norm(x))


def test_sum_concentric_balls():
    f, g, joint = concentric_ball_pair(1.0, 2.0)
    got = sproj_sum(f, g, joint, [4.0, 0.0])
    assert np.allclose(got, [1.5, 0.0], atol=1e-12)


def test_sum_of_equal_functions_is_projection():
    rng = np.random.default_rng(47)
    ball = Dist(Ball([0, 0], 1.0))
    joint = lambda x: ball.subgradient(x)
    for _ in range(50):
        x = rng.standard_normal(2) * 3.0
        if evaluate(ball, x) <= 0.0:
            continue
        got = sproj_sum(ball, ball, joint, x)
        assert np.allclose(got, sproj(ball, x).point, atol=1e-12)


def test_sum_min_correction():
    u = np.array([1.0, 0.0])
    f = AffineMax([(u, -2.0)])
    g = AffineMax([(u, 2.0)])
    joint = lambda x: u
    x = np.array([1.0, 0.0])     # f = -1, g = 3, |u| = 1
    got = sproj_sum(f, g, joint, x)
    mean = 0.5 * sproj(f, x).point + 0.5 * sproj(g, x).point
    assert np.allclose(got, mean + 0.5 * u, atol=1e-12)
    # agreement with the projection of the summed spec under the doubled selection
    spec = SumPair(f, g, joint)
    assert np.allclose(got, sproj(spec, x).point, atol=1e-12)


# -- inf-convolution ----------------------------------------------------------------

def test_infconv_trivial_and_split_cases():
    u = np.array([1.0, 0.0])
    f = AffineMax([(u, -2.0)])
    g = AffineMax([(u, -4.0)])
    # minimizing f(y) + g(x - y) over y for shared-slope affine pieces is
    # location free: any y gives f(y) + g(x - y) = <x,u> - 6.
    minimizer = lambda x: 0.5 * x
    joint = lambda x: u
    x_feas = np.array([3.0, 0.0])     # value -3 <= 0, both partial values <= 0
    assert np.array_equal(sproj_infconv(f, g, minimizer, joint, x_feas), x_feas)

    x_pos = np.array([8.0, 0.0])      # f(y) = 2 > 0 and g(x - y) = 0 boundary
    got = sproj_infconv(f, g, minimizer, joint, x_pos)
    partial = (sproj(f, 0.5 * x_pos).point + sproj(g, 0.5 * x_pos).point)
    assert np.allclose(got, partial, atol=1e-12)


def test_infconv_moreau_cross_check():
    ball = Ball([0.0, 0.0], 1.0)
    ind = Indicator(ball)
    half_sq = Scale(0.5, NormPow(2.0, dim=2))
    minimizer = lambda x: ball.project(x)
    joint = lambda x: x - ball.project(x)
    rng = np.random.default_rng(48)
    for _ in range(60):
        x = rng.standard_normal(2) * 3.0
        if np.linalg.norm(x) <= 1.0:
            continue
        got = sproj_infconv(ind, half_sq, minimizer, joint, x)
        want = sproj_moreau(ind, 1.0, x)
        assert np.linalg.norm(got - want) <= 1e-9


def test_infconv_spec_projects_like_the_formula_bit_for_bit():
    ball = Ball([0.0, 0.0], 1.0)
    ind = Indicator(ball)
    half_sq = Scale(0.5, NormPow(2.0, dim=2))
    minimizer = lambda x: ball.project(x)
    joint = lambda x: x - ball.project(x)
    spec = InfConv(ind, half_sq, minimizer, joint)
    rng = np.random.default_rng(48)
    for _ in range(60):
        x = rng.standard_normal(2) * 3.0
        if np.linalg.norm(x) <= 1.0:
            continue
        assert np.array_equal(sproj(spec, x).point,
                              sproj_infconv(ind, half_sq, minimizer, joint, x))


def test_infconv_audits_minimizer():
    f = Scale(0.5, NormPow(2.0, dim=2))
    g = Scale(0.5, NormPow(2.0, dim=2))
    bad_minimizer = lambda x: np.array(x)  # true argmin is x/2
    joint = lambda x: 0.5 * x
    with pytest.raises(InconsistentMinimizer):
        sproj_infconv(f, g, bad_minimizer, joint, [4.0, 0.0])


# -- acceleration ---------------------------------------------------------------------

def test_acceleration_gap_examples():
    ball = Dist(Ball([0, 0], 1.0))
    assert acceleration_gap(ball, 1.0, [3.0, 0.0]) == pytest.approx(0.0, abs=1e-12)
    assert acceleration_gap(ball, 0.5, [3.0, 0.0]) == pytest.approx(-2.0, abs=1e-12)
    with pytest.raises(NotPositiveHere):
        acceleration_gap(ball, 0.5, [0.2, 0.0])


def test_acceleration_reach_and_proximity():
    rng = np.random.default_rng(49)
    ball_set = Ball([0.0, 0.0], 1.0)
    f = Dist(ball_set)
    for _ in range(100):
        x = rng.standard_normal(2) * rng.uniform(1.5, 5.0)
        if evaluate(f, x) <= 0.0:
            continue
        alpha = rng.uniform(0.05, 1.0)
        gap = acceleration_gap(f, alpha, x)
        assert gap <= 1e-12
        gx = sproj(f, x).point
        gax = (1.0 - 1.0 / alpha) * x + (1.0 / alpha) * gx
        reach_diff = np.linalg.norm(x - gx) - np.linalg.norm(x - gax)
        assert reach_diff == pytest.approx(gap, abs=1e-9)
        p = ball_set.project(x)
        assert np.linalg.norm(gx - p) <= np.linalg.norm(gax - p) + 1e-12


# -- broken oracles end as named errors ------------------------------------------------

def nan_off_ball():
    """A broken oracle: the value is NaN outside the unit ball."""
    return LeftCompose(lambda t: math.nan if t > 0.0 else t, lambda t: 1.0,
                       Dist(Ball([0.0, 0.0], 1.0)))


X = [3.0, 0.0]
PHI = (lambda t: t, lambda t: 1.0)
FINE = Dist(Ball([0.0, 0.0], 2.0))


def along_x(x):
    return np.array([1.0, 0.0])


@pytest.mark.parametrize("call", [
    pytest.param(lambda f: sproj_leftcompose(PHI, f, X), id="leftcompose"),
    pytest.param(lambda f: sproj_power(0.5, f, X), id="power"),
    pytest.param(lambda f: sproj_convexcomb(0.5, f, FINE, along_x, X), id="convexcomb-f"),
    pytest.param(lambda f: sproj_convexcomb(0.5, FINE, f, along_x, X), id="convexcomb-g"),
    pytest.param(lambda f: sproj_sum(f, FINE, along_x, X), id="sum-f"),
    pytest.param(lambda f: sproj_sum(FINE, f, along_x, X), id="sum-g"),
    pytest.param(lambda f: sproj_infconv(f, FINE, lambda x: x, along_x, X), id="infconv-f"),
    pytest.param(lambda f: sproj_infconv(FINE, f, lambda x: 0.0 * x, along_x, X), id="infconv-g"),
    pytest.param(lambda f: acceleration_gap(f, 0.5, X), id="acceleration-gap"),
])
def test_nan_value_raises_nonfinite(call):
    with pytest.raises(NonFiniteValue, match="LeftCompose value is NaN"):
        call(nan_off_ball())


CONSTANT = AffineMax([([0.0, 0.0], 1.0)])  # f = 1 everywhere, gradient 0


def zero(x):
    return np.zeros(2)


@pytest.mark.parametrize("call", [
    pytest.param(lambda: sproj_leftcompose(PHI, CONSTANT, X), id="leftcompose"),
    pytest.param(lambda: sproj_convexcomb(0.5, CONSTANT, CONSTANT, zero, X), id="convexcomb"),
    pytest.param(lambda: sproj_sum(CONSTANT, CONSTANT, zero, X), id="sum"),
    pytest.param(lambda: sproj_infconv(CONSTANT, CONSTANT, lambda x: 0.5 * x, zero, X),
                 id="infconv"),
    pytest.param(lambda: acceleration_gap(CONSTANT, 0.5, [1.0, 2.0]), id="acceleration-gap"),
])
def test_zero_normal_at_positive_value_raises(call):
    with pytest.raises(ZeroSubgradient, match="zero subgradient with positive function value"):
        call()


def test_infconv_outside_the_domain_raises():
    # The supplied split puts y = 2x outside the ball, so f(y) + g(x - y) = +inf.
    with pytest.raises(DomainError, match="cannot project from outside the effective domain"):
        sproj_infconv(Indicator(Ball([0.0, 0.0], 1.0)), SqDist(Point([0.0, 0.0])),
                      lambda x: 2.0 * x, lambda x: np.array([1.0, 0.0]), [3.0, 0.0])


def test_power_rule_evaluates_f_once():
    calls = []

    class CountingDist(Dist):
        def value(self, x):
            calls.append(x)
            return super().value(x)

    f = CountingDist(Ball([0.0, 0.0], 1.0))
    for x in ([3.0, 0.0], [0.2, 0.0]):
        calls.clear()
        sproj_power(0.5, f, x)
        assert len(calls) == 1
