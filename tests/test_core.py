import math

import numpy as np
import pytest

from subproj import (
    DegenerateMoreau,
    DimensionMismatch,
    Halfspace,
    Linear,
    ZeroSubgradient,
    ZeroVector,
    as_vector,
    fd_gradient,
    fd_jacobian,
    halfspace_project,
    inv,
    inv_jacobian,
    sproj_moreau,
)
from subproj.core import _audit, _probe_block


def test_inv_simple_values():
    assert np.allclose(inv([0.5, 0.0]), [2.0, 0.0])
    assert np.allclose(inv([1.0, 0.0]), [1.0, 0.0])
    # (3, 4): divide by 25
    assert np.allclose(inv([3.0, 4.0]), [0.12, 0.16], atol=1e-15)


def test_inv_rejects_zero_vector():
    with pytest.raises(ZeroVector):
        inv([0.0, 0.0])
    with pytest.raises(ZeroVector):
        inv([1e-15, 0.0])


@pytest.mark.parametrize("call, error, message", [
    pytest.param(lambda: inv([0.0, 0.0]), ZeroVector,
                 "inv is undefined at (numerically) zero vectors", id="inv"),
    pytest.param(lambda: inv_jacobian([0.0, 0.0]), ZeroVector,
                 "inv_jacobian is undefined at (numerically) zero vectors", id="inv-jacobian"),
    pytest.param(lambda: halfspace_project([1.0, 2.0], [0.0, 0.0], 1.0), ZeroSubgradient,
                 "zero subgradient with positive function value", id="halfspace-project"),
    # prox moves 1e10 by 1e-20, which rounds away: a zero displacement at envelope 1e-10.
    pytest.param(lambda: sproj_moreau(Linear([1e-20]), 1.0, [1e10]), DegenerateMoreau,
                 "positive envelope with a vanishing proximal displacement", id="moreau"),
    pytest.param(lambda: Halfspace([0.0, 0.0], 1.0), ValueError,
                 "halfspace normal must be nonzero", id="halfspace"),
])
def test_zero_length_guards_name_their_error(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert str(info.value) == message


def test_inv_involution_across_scales():
    rng = np.random.default_rng(42)
    for _ in range(1000):
        d = rng.integers(1, 6)
        direction = rng.standard_normal(d)
        direction /= np.linalg.norm(direction)
        x = direction * 10.0 ** rng.uniform(-6, 6)
        back = inv(inv(x))
        assert np.linalg.norm(back - x) <= 1e-10 * np.linalg.norm(x)


def test_inv_norm_reciprocity():
    rng = np.random.default_rng(7)
    for _ in range(200):
        x = rng.standard_normal(3) * 10.0 ** rng.uniform(-3, 3)
        prod = np.linalg.norm(inv(x)) * np.linalg.norm(x)
        assert abs(prod - 1.0) <= 1e-12


def test_inv_jacobian_closed_forms():
    assert np.allclose(inv_jacobian([1.0, 0.0]), [[-1.0, 0.0], [0.0, 1.0]])
    assert np.allclose(inv_jacobian([2.0, 0.0]), [[-0.25, 0.0], [0.0, 0.25]])


def test_inv_jacobian_matches_finite_differences():
    rng = np.random.default_rng(3)
    for _ in range(50):
        d = rng.integers(1, 5)
        x = rng.standard_normal(d)
        x *= rng.uniform(0.1, 10.0) / np.linalg.norm(x)
        exact = inv_jacobian(x)
        approx = fd_jacobian(inv, x)
        scale = 1.0 + np.max(np.abs(exact))
        assert np.max(np.abs(exact - approx)) <= 1e-6 * scale


def test_fd_jacobian_identity_and_constant():
    x = np.array([0.3, -1.2, 2.0])
    assert np.allclose(fd_jacobian(lambda z: z, x), np.eye(3), atol=1e-11)
    c = np.array([1.0, 2.0, 3.0])
    assert np.allclose(fd_jacobian(lambda z: c, x), np.zeros((3, 3)))


def test_fd_gradient_quadratic():
    f = lambda z: float(z @ z)
    x = np.array([1.0, -2.0, 0.5])
    assert np.allclose(fd_gradient(f, x), 2 * x, atol=1e-9)


def test_fd_gradient_rejects_a_non_finite_probe():
    with pytest.raises(ValueError, match="vector entries must be finite"):
        fd_gradient(lambda z: float("inf") if z[0] > 0.0 else 0.0, [0.0])


def test_as_vector_validation():
    assert as_vector(2.0).shape == (1,)
    with pytest.raises(ValueError):
        as_vector([np.nan, 1.0])
    with pytest.raises(ValueError):
        as_vector([np.inf])
    with pytest.raises(DimensionMismatch):
        as_vector([1.0, 2.0], dim=3)
    with pytest.raises(DimensionMismatch):
        as_vector(np.zeros((2, 2)))


def _probes(x, seed, dim):
    """The points the audit probes around y = 0, recorded through an objective that never wins."""
    seen = []
    _audit(lambda z: seen.append(z) or 1.0, np.zeros(dim), 0.0, x, seed, ZeroVector, "")
    return seen


@pytest.mark.parametrize("seed", [314159, 271828])
@pytest.mark.parametrize("dim", [1, 2, 20, 64])
def test_audit_probes_the_points_of_eight_separate_draws(seed, dim):
    # One (8, dim) block from the seed gives the numbers that eight draws of
    # dim values gave, so the audit probes what it always probed.
    x = np.linspace(-1.0, 2.0, dim)
    rng = np.random.default_rng(seed)
    scale = 1.0 + np.sqrt(np.vdot(x, x))
    expected = [0.0 + scale * rng.standard_normal(dim) for _ in range(8)]
    assert all(np.array_equal(p, q) for p, q in zip(_probes(x, seed, dim), expected, strict=True))


@pytest.mark.parametrize("seed", [314159, 271828])
@pytest.mark.parametrize("dim", [1, 20])
def test_audit_draws_each_probe_block_once_and_read_only(seed, dim):
    block = _probe_block(seed, dim)
    assert _probe_block(seed, dim) is block
    assert np.array_equal(block, np.random.default_rng(seed).standard_normal((8, dim)))
    assert not block.flags.writeable
    with pytest.raises(ValueError):
        block[0, 0] = 0.0


@pytest.mark.parametrize("x", [[1e160], [3e200, -4e200], [1e300, 1e300]])
def test_audit_scale_stays_finite_where_the_norm_overflows(x):
    probes = _probes(np.array(x), 314159, len(x))
    scale = 1.0 + math.hypot(*x)  # overflow-free
    first = np.random.default_rng(314159).standard_normal(len(x))
    assert np.allclose(probes[0], scale * first, rtol=1e-15, atol=0.0)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("y", [[1e308, -1e308], [1.7976931348623157e308, 0.0], [1e160, 0.0]])
def test_audit_halves_the_scale_of_a_competitor_that_overflows(y):
    # Each competitor stays: where y + scale * d_k has an entry beyond the
    # largest double, d_k's scale is halved until it has none.  At 1e160
    # ||y|| overflows, so each competitor is checked, and none is halved.
    y = np.array(y)
    seen = []
    _audit(lambda z: seen.append(z.copy()) or 1.0, y, 0.0, y, 314159, ZeroVector, "")
    block = _probe_block(314159, 2)
    scale = 1.0 + math.hypot(*y)
    assert len(seen) == 8
    for z, d in zip(seen, block):
        assert np.all(np.isfinite(z))
        with np.errstate(over="ignore"):
            s = next(s for s in (scale * 0.5 ** k for k in range(2000))
                     if np.all(np.isfinite(y + s * d)))
            assert np.array_equal(z, y + s * d)


@pytest.mark.parametrize("y, x", [([math.inf, 0.0], [0.0, 0.0]),
                                  ([math.nan, 0.0], [0.0, 0.0]),
                                  ([0.0, 0.0], [math.inf, 1.0])])  # a NaN scale
def test_audit_leaves_a_competitor_that_no_scale_makes_finite(y, x):
    # Halving such a competitor's scale would never end.
    import signal

    def stuck(signum, frame):
        raise AssertionError("the audit did not return")

    seen = []
    previous = signal.signal(signal.SIGALRM, stuck)
    signal.alarm(10)
    try:
        with np.errstate(invalid="ignore"):
            _audit(lambda z: seen.append(z.copy()) or 1.0, np.array(y), 0.0, np.array(x),
                   314159, ZeroVector, "")
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert len(seen) == 8
    assert all(not np.all(np.isfinite(z)) for z in seen)


@pytest.mark.parametrize("value, message", [(-1.0, "audit by 1.000e+00"),
                                            (math.nan, "audit by nan")])
def test_audit_fails_a_winning_or_nan_competitor(value, message):
    with pytest.raises(ZeroVector) as exc:
        _audit(lambda z: value, np.zeros(2), 0.0, np.zeros(2), 1, ZeroVector, "audit")
    assert str(exc.value) == message


def test_audit_tolerates_a_competitor_within_its_margin():
    _audit(lambda z: -0.9e-8, np.zeros(2), 0.0, np.zeros(2), 1, ZeroVector, "audit")
