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
