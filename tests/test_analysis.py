import math

import numpy as np
import pytest

from subproj import (
    AffineMax,
    Ball,
    DimensionMismatch,
    Dist,
    EmptySample,
    FunctionSpec,
    Halfspace,
    Hyperbolic,
    LeftCompose,
    Linear,
    NegLog,
    NoLevelSetOracle,
    NonFiniteValue,
    NormPow,
    NotPositiveHere,
    Scale,
    SeqVerdict,
    SqDist,
    SqrtShift,
    ZeroFunctionValue,
    ZeroSubgradient,
    acceleration_gap,
    dist_bound_check,
    evaluate,
    fd_jacobian,
    lipschitz_bound,
    monotonicity_probe,
    seq_lab,
    sproj,
    sproj_deriv_1d,
    sproj_jacobian,
)


# -- Jacobian of the projector ---------------------------------------------------

def test_jacobian_neglog():
    got = sproj_jacobian(NegLog(), [0.5])
    assert got[0, 0] == pytest.approx(math.log(2.0), abs=1e-12)
    # cross-check with the derivative of the closed form x - x ln x
    assert got[0, 0] == pytest.approx(-math.log(0.5), abs=1e-12)


def test_jacobian_linear_is_orthogonal_complement_projector():
    u = np.array([1.0, 2.0])
    got = sproj_jacobian(Linear(u), [3.0, 1.0])
    want = np.eye(2) - np.outer(u, u) / float(u @ u)
    assert np.allclose(got, want, atol=1e-12)


def interior_positive_points(f, rng, count=20):
    """Points with f(x) > 0 at distance >= 0.1 from the level boundary."""
    out = []
    while len(out) < count:
        if f.dim == 1:
            x = np.array([rng.uniform(-6.0, 6.0)])
        else:
            x = rng.standard_normal(f.dim) * 3.0
        fx = evaluate(f, x)
        if fx == math.inf or fx <= 0.0:
            continue
        try:
            boundary_dist = np.linalg.norm(x - f.level_set_project(x))
        except NoLevelSetOracle:
            boundary_dist = fx
        if boundary_dist >= 0.1:
            out.append(x)
    return out


def smooth_positive_cases(rng):
    return [
        (NegLog(), [np.array([rng.uniform(0.1, 0.8)]) for _ in range(20)]),
        (SqrtShift(2.0), [np.array([rng.uniform(0.2, 3.5)]) for _ in range(20)]),
        (Hyperbolic(2.0),
         [np.array([rng.choice([-1.0, 1.0]) * rng.uniform(2.0, 6.0)]) for _ in range(20)]),
        (NormPow(2.0, dim=3), interior_positive_points(NormPow(2.0, dim=3), rng)),
        (SqDist(Ball([0.0, 0.0], 1.0)),
         interior_positive_points(SqDist(Ball([0.0, 0.0], 1.0)), rng)),
        (Linear([0.8, -0.4]), interior_positive_points(Linear([0.8, -0.4]), rng)),
    ]


def test_jacobian_matches_finite_differences():
    rng = np.random.default_rng(70)
    for f, points in smooth_positive_cases(rng):
        for x in points:
            exact = sproj_jacobian(f, x)
            approx = fd_jacobian(lambda z: sproj(f, z).point, x)
            scale = 1.0 + np.max(np.abs(exact))
            assert np.max(np.abs(exact - approx)) <= 1e-6 * scale


def test_jacobian_requires_positive_value():
    with pytest.raises(NotPositiveHere):
        sproj_jacobian(NegLog(), [2.0])


class FlatOne(FunctionSpec):
    """f = 1 with gradient ``u`` and Hessian ``h``, zero by default; a zero u is C^2 data
    no convex f has where f > 0, and a non-finite or misshapen u or h is a broken oracle."""

    def __init__(self, dim=2, u=None, h=None):
        self.dim = dim
        self.u = np.zeros(dim) if u is None else u
        self.h = np.zeros((dim, dim)) if h is None else h

    def value(self, x):
        return 1.0

    def subgradient(self, x, strategy=None):
        return self.u

    def hessian(self, x):
        return self.h


class FlatAt(FlatOne):
    """FlatOne with the value ``v``."""

    def __init__(self, v, u, h):
        super().__init__(len(u), np.array(u, dtype=float), np.array(h, dtype=float))
        self.v = v

    def value(self, x):
        return self.v


def test_a_jacobian_whose_last_coefficient_overflows_is_formed_without_it():
    # f(x) / ||u||^2 = 1e300 is finite and 2 f(x) / ||u||^4 = 2e310 is not.  Linear has
    # H = 0, so the term it scales is 0 and the Jacobian I - u u^T / ||u||^2 is 0; the
    # coefficient times that zero term gave [[nan]] with a RuntimeWarning.
    assert sproj_jacobian(Linear([1e-5]), [1e295]).tolist() == [[0.0]]
    # With H = 1 the Jacobian is 1 - 1 - t + 2 t = t = 1e300 (f = 1e290, ||u||^2 = 1e-10),
    # and with H = 1e10 it is beyond the doubles.
    got = sproj_jacobian(FlatAt(1e290, [1e-5], [[1.0]]), [0.0])
    assert got.shape == (1, 1) and got[0, 0] == pytest.approx(1e300, rel=1e-15)
    with pytest.raises(NonFiniteValue, match=r"^the projector Jacobian at f\(x\) = 1\.000e\+290, "
                                             r"\|\|u\|\|\^2 = 1\.000e-10 overflows$"):
        sproj_jacobian(FlatAt(1e290, [1e-5], [[1e10]]), [0.0])
    # A finite coefficient whose Jacobian still overflows (t H = 1e10 * 1e300) raises too,
    # where it returned [[-inf]] with a RuntimeWarning.
    with pytest.raises(NonFiniteValue, match="projector Jacobian"):
        sproj_jacobian(FlatAt(1e10, [1.0], [[1e300]]), [0.0])


def test_the_jacobian_keeps_its_bits_where_its_last_coefficient_is_finite():
    rng = np.random.default_rng(32)
    for f in (NegLog(), Hyperbolic(2.0), SqDist(Ball([0.5, -1.0], 2.0)),
              Dist(Ball([0.5, -1.0], 2.0)), Linear([1e-5, 3e-6])):
        for x in (rng.standard_normal(f.dim) * 10.0 ** rng.uniform(-3, 5) for _ in range(40)):
            if f.dim == 1:
                x = np.abs(x) * 1e-3
            fx = f.value(x)
            if not 0.0 < fx < math.inf:
                continue
            u, h = f.gradient(x), f.hessian(x)
            n2 = float(u @ u)
            want = (np.eye(f.dim) - np.outer(u, u) / n2 - (fx / n2) * h
                    + (2.0 * fx / (n2 * n2)) * np.outer(u, h @ u))
            assert sproj_jacobian(f, x).tobytes() == want.tobytes()


@pytest.mark.parametrize("call", [
    pytest.param(lambda: sproj_jacobian(FlatOne(), [1.0, 2.0]), id="jacobian"),
    pytest.param(lambda: sproj_deriv_1d(FlatOne(dim=1), 1.0), id="deriv-1d"),
    # f = 1 everywhere with gradient 0, so inf ||grad f||^2 is zero.
    pytest.param(lambda: lipschitz_bound(AffineMax([([0.0, 0.0], 1.0)]), [[1.0, 2.0]], 1.0),
                 id="lipschitz-2d"),
    pytest.param(lambda: lipschitz_bound(AffineMax([([0.0], 1.0)]), [[1.0]], 1.0),
                 id="lipschitz-1d"),
])
def test_zero_gradient_at_positive_value_raises(call):
    with pytest.raises(ZeroSubgradient, match="zero subgradient with positive function value"):
        call()


@pytest.mark.parametrize("normal, error, message", [
    pytest.param(lambda dim: np.full(dim, math.nan), ValueError, "vector entries must be finite",
                 id="nan"),
    pytest.param(lambda dim: np.ones(dim + 1), DimensionMismatch,
                 "expected dimension {dim}, got {longer}", id="long"),
])
@pytest.mark.parametrize("dim, call", [
    pytest.param(2, lambda f: sproj_jacobian(f, [3.0, 0.0]), id="jacobian"),
    pytest.param(1, lambda f: sproj_deriv_1d(f, 3.0), id="deriv-1d"),
    pytest.param(2, lambda f: lipschitz_bound(f, [[3.0, 0.0], [0.0, 4.0]], 1.0), id="lipschitz"),
    pytest.param(2, lambda f: dist_bound_check(f, [3.0, 0.0]), id="distbound"),
    pytest.param(2, lambda f: acceleration_gap(f, 0.5, [3.0, 0.0]), id="acceleration-gap"),
])
def test_broken_gradient_raises_as_in_sproj(dim, call, normal, error, message):
    # A NaN entry or one entry too many: sproj refuses such a cut normal, and so
    # must every diagnostic that divides by its squared length.
    f = FlatOne(dim, normal(dim))
    message = message.format(dim=dim, longer=dim + 1)
    for run in (lambda: sproj(f, np.full(dim, 3.0)), lambda: call(f)):
        with pytest.raises(error) as info:
            run()
        assert type(info.value) is error
        assert str(info.value) == message


@pytest.mark.parametrize("h, error, message", [
    pytest.param(lambda dim: np.full((dim, dim), math.nan), NonFiniteValue,
                 "FlatOne Hessian is not finite", id="nan"),
    pytest.param(lambda dim: np.eye(dim + 1), DimensionMismatch,
                 "FlatOne Hessian has shape ({n}, {n}), expected ({dim}, {dim})", id="wide"),
])
@pytest.mark.parametrize("dim, call", [
    pytest.param(2, lambda f: sproj_jacobian(f, [3.0, 0.0]), id="jacobian"),
    pytest.param(1, lambda f: sproj_deriv_1d(f, 3.0), id="deriv-1d"),
])
def test_broken_hessian_raises_a_named_error(dim, call, h, error, message):
    # A NaN Hessian once gave a NaN Jacobian, and a wide one numpy's bare matmul
    # error, or in one dimension its corner entry.
    with pytest.raises(error) as info:
        call(FlatOne(dim, np.ones(dim), h(dim)))
    assert type(info.value) is error
    assert str(info.value) == message.format(dim=dim, n=dim + 1)


# -- one-dimensional derivative -----------------------------------------------------

def test_deriv_1d_identity_region():
    assert sproj_deriv_1d(NegLog(), 2.0) == 1.0


def test_deriv_1d_neglog_value():
    got = sproj_deriv_1d(NegLog(), 0.5)
    assert got == pytest.approx(math.log(2.0), abs=1e-12)
    # finite differences of the closed form x - x ln x
    h = 1e-6
    fd = ((0.5 + h) - (0.5 + h) * math.log(0.5 + h)
          - (0.5 - h) + (0.5 - h) * math.log(0.5 - h)) / (2 * h)
    assert got == pytest.approx(fd, abs=1e-8)


def test_deriv_1d_linear_positive_side_is_flat():
    assert sproj_deriv_1d(Linear([2.0]), 1.0) == 0.0


def test_deriv_1d_zero_level_raises():
    with pytest.raises(ZeroFunctionValue):
        sproj_deriv_1d(NegLog(), 1.0)


def test_deriv_1d_agrees_with_jacobian():
    rng = np.random.default_rng(71)
    for f, xs in [
        (NegLog(), [0.1, 0.4, 0.9]),
        (SqrtShift(2.0), [0.3, 1.0, 3.0]),
        (Hyperbolic(2.0), [2.0, -2.5, 4.0]),
    ]:
        for x in xs:
            d = sproj_deriv_1d(f, x)
            j = sproj_jacobian(f, np.array([float(x)]))[0, 0]
            assert d == pytest.approx(j, abs=1e-10)


# -- Lipschitz bounds -----------------------------------------------------------------

def test_lipschitz_bound_hyperbolic():
    rng = np.random.default_rng(72)
    f = Hyperbolic(2.0)
    samples = [np.array([rng.uniform(2.0, 4.0)]) for _ in range(80)]
    bound = lipschitz_bound(f, samples, beta=1.0)  # f'' <= 1 everywhere
    assert np.isfinite(bound)
    for _ in range(200):
        a, b = samples[rng.integers(80)], samples[rng.integers(80)]
        if a[0] == b[0]:
            continue
        q = abs(sproj(f, a).point[0] - sproj(f, b).point[0]) / abs(a[0] - b[0])
        assert q <= bound + 1e-9


def test_lipschitz_bound_linear_multidim():
    f = Linear([1.0, 0.0])
    samples = [np.array([1.0, t]) for t in np.linspace(-2, 2, 9)]
    assert lipschitz_bound(f, samples, beta=0.0) == pytest.approx(2.0)
    rng = np.random.default_rng(73)
    for _ in range(100):
        a = np.array([rng.uniform(0.5, 3.0), rng.uniform(-2, 2)])
        b = np.array([rng.uniform(0.5, 3.0), rng.uniform(-2, 2)])
        q = np.linalg.norm(sproj(f, a).point - sproj(f, b).point) / np.linalg.norm(a - b)
        assert q <= 2.0 + 1e-9


def test_lipschitz_bound_blows_up_near_sqrt_singularity():
    # eta - sqrt(x) has unbounded projector slope near 0; the bound grows with
    # the sample window while still dominating sampled quotients.
    f = SqrtShift(2.0)
    xs = [np.array([t]) for t in (1e-6, 2e-6, 4e-6)]
    beta = max(0.25 * t[0] ** -1.5 for t in xs)  # sup f'' over the window
    bound = lipschitz_bound(f, xs, beta=beta)
    assert bound > 100.0
    q = abs(sproj(f, xs[0]).point[0] - sproj(f, xs[2]).point[0]) / abs(xs[0][0] - xs[2][0])
    assert q > 100.0
    assert q <= bound + 1e-9


def test_lipschitz_bound_validation():
    with pytest.raises(EmptySample):
        lipschitz_bound(NegLog(), [], beta=1.0)
    with pytest.raises(NotPositiveHere):
        lipschitz_bound(NegLog(), [np.array([2.0])], beta=1.0)


def test_lipschitz_bound_overflowing_squared_slope_leaves_the_floor():
    # f'^2 = 1e320 is +inf, so sup f / inf f'^2 * beta is 0 and the 1-D bound is its floor.
    assert lipschitz_bound(Linear([1e160]), [[1e-300]], beta=1.0) == 1.0


# -- monotonicity ----------------------------------------------------------------------

def test_monotonicity_of_metric_projection():
    rng = np.random.default_rng(74)
    f = Dist(Ball([0.0, 0.0], 1.0))
    pairs = [(rng.standard_normal(2) * 3.0, rng.standard_normal(2) * 3.0)
             for _ in range(300)]
    report = monotonicity_probe(f, pairs)
    assert report.worst_inner >= -1e-12
    assert report.worst_margin >= -1e-12
    assert report.positive_pairs > 0


def test_monotonicity_of_averaged_projection():
    rng = np.random.default_rng(75)
    f = SqDist(Ball([0.0, 0.0], 1.0))
    pairs = [(rng.standard_normal(2) * 3.0, rng.standard_normal(2) * 3.0)
             for _ in range(300)]
    report = monotonicity_probe(f, pairs)
    assert report.worst_inner >= -1e-12


def test_monotonicity_equal_points():
    f = Dist(Ball([0.0, 0.0], 1.0))
    x = np.array([2.0, 1.0])
    report = monotonicity_probe(f, [(x, x)])
    assert report.worst_inner == 0.0


# -- sequential lab ----------------------------------------------------------------------

def test_seq_lab_scaled_family_is_feasible_limit():
    f = NegLog()
    report = seq_lab(lambda n: Scale(1.0 + 1.0 / n, f), f, 2.0, n_steps=400)
    assert report.verdict is SeqVerdict.FEASIBLE_LIMIT
    assert report.tail_deviation == 0.0


def test_seq_lab_shifted_family_converges_pointwise():
    u = np.array([0.6, 0.8])
    f = AffineMax([(u, 0.0)])
    x = 2.0 * u  # f(x) = 2
    report = seq_lab(lambda n: AffineMax([(u, -1.0 / n)]), f, x, n_steps=400)
    assert report.verdict is SeqVerdict.POINTWISE_LIMIT
    # deviation decays exactly like (1/n)/||u||
    n_tail = np.arange(301, 401)
    assert report.tail_deviation == pytest.approx(1.0 / 301.0, abs=1e-12)
    assert np.allclose(report.deviations[300:], (1.0 / n_tail), atol=1e-12)


@pytest.mark.parametrize("n_steps", [0, -3])
def test_seq_lab_refuses_an_empty_horizon(n_steps):
    f = NegLog()
    with pytest.raises(EmptySample, match="need at least one step"):
        seq_lab(lambda n: Scale(1.0 + 1.0 / n, f), f, 2.0, n_steps=n_steps)


def test_seq_lab_alternating_family_keeps_a_gap():
    u = np.array([0.0, 1.0])
    f = AffineMax([(u, 0.0)])
    x = np.array([0.3, 1.0])  # f(x) = 1
    fam = lambda n: AffineMax([(u, -2.0 if n % 2 == 0 else 0.0)])
    report = seq_lab(fam, f, x, n_steps=400)
    assert report.verdict is SeqVerdict.PERSISTENT_GAP
    assert report.gap_floor == pytest.approx(1.0)
    assert report.recurrent_deviation >= 0.9 * report.gap_floor


def test_seq_lab_evaluates_each_member_once_per_step():
    calls = []

    class CountingDist(Dist):
        def value(self, x):
            calls.append(x)
            return super().value(x)

    f = Dist(Ball([0.0, 0.0], 1.0))
    seq_lab(lambda n: CountingDist(Ball([0.0, 0.0], 1.0 + 1.0 / n)), f, [3.0, 4.0], n_steps=50)
    assert len(calls) == 50


# -- distance lower bound -------------------------------------------------------------------

def test_dist_bound_examples():
    lhs, rhs = dist_bound_check(NegLog(), 0.5)
    assert lhs == pytest.approx(0.5 * math.log(2.0), abs=1e-12)
    assert rhs == pytest.approx(0.5, abs=1e-12)

    f = Dist(Ball([0.0, 0.0], 1.0))
    lhs, rhs = dist_bound_check(f, [2.5, 0.0])
    assert lhs == pytest.approx(rhs, abs=1e-12)  # tight for distance functions

    lhs, rhs = dist_bound_check(Linear([0.0, 1.0]), [0.0, 3.0])
    assert lhs == pytest.approx(3.0, abs=1e-12)
    assert rhs == pytest.approx(3.0, abs=1e-12)


def test_dist_bound_never_exceeds_distance():
    rng = np.random.default_rng(76)
    cases = [
        (NegLog(), lambda: np.array([rng.uniform(0.05, 0.95)])),
        (SqrtShift(2.0), lambda: np.array([rng.uniform(0.05, 3.9)])),
        (Hyperbolic(2.0), lambda: np.array([rng.uniform(1.8, 6.0)])),
        (Dist(Halfspace([1.0, 1.0], 0.0)), lambda: rng.standard_normal(2) * 3.0),
        (SqDist(Ball([0.0, 0.0], 1.0)), lambda: rng.standard_normal(2) * 3.0),
        (NormPow(2.0, dim=2), lambda: rng.standard_normal(2) * 3.0),
        (AffineMax([([1.0], 1.0), ([2.0], 1.0)]), lambda: np.array([rng.uniform(-0.9, 3.0)])),
    ]
    for f, sampler in cases:
        for _ in range(100):
            x = sampler()
            if evaluate(f, x) <= 0.0:
                continue
            lhs, rhs = dist_bound_check(f, x)
            assert lhs <= rhs + 1e-9


def test_dist_bound_requires_oracle_and_positive_value():
    f = AffineMax([([1.0, 0.0], 1.0), ([0.0, 1.0], 1.0)])
    with pytest.raises(NoLevelSetOracle):
        dist_bound_check(f, [1.0, 1.0])
    with pytest.raises(NotPositiveHere):
        dist_bound_check(NegLog(), 2.0)


def test_dist_bound_zero_subgradient_at_positive_value_raises():
    constant = AffineMax([([0.0, 0.0], 1.0)])  # f = 1 everywhere, subgradient 0
    with pytest.raises(ZeroSubgradient, match="zero subgradient with positive function value"):
        dist_bound_check(constant, [1.0, 2.0])


# -- broken oracles end as named errors ------------------------------------------------

@pytest.mark.parametrize("dim, call", [
    pytest.param(2, lambda f: sproj_jacobian(f, [3.0, 0.0]), id="jacobian"),
    pytest.param(1, lambda f: sproj_deriv_1d(f, 3.0), id="deriv-1d"),
    pytest.param(2, lambda f: lipschitz_bound(f, [[3.0, 0.0]], 1.0), id="lipschitz"),
    pytest.param(2, lambda f: dist_bound_check(f, [3.0, 0.0]), id="distbound"),
])
def test_nan_value_raises_nonfinite(dim, call):
    # phi(t) is NaN for t > 0, so the value is NaN outside the unit ball.
    f = LeftCompose(lambda t: math.nan if t > 0.0 else t, lambda t: 1.0,
                    Dist(Ball(np.zeros(dim), 1.0)))
    with pytest.raises(NonFiniteValue, match="LeftCompose value is NaN"):
        call(f)
