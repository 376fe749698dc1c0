"""Building a problem checks each of its vectors with one reduction, and refuses the same
inputs as checking them entry by entry.

``core.as_vector`` proves a vector finite from its sum of squares, a finite sum having
only finite terms, and tests the entries one by one only where that sum is not finite.
``Halfspace`` keeps that sum as its ``_n2``, and ``AffineMax`` checks all its slopes as
one block.  The references below are the entry-by-entry checks written plainly.
"""

import math
import sys

import numpy as np
import pytest

from subproj import AffineMax, DimensionMismatch, Dist, Halfspace, NonFiniteValue, Problem, solve
from subproj import functions
from subproj.core import _vector_n2, as_vector, norm, norm2, scaled_norm


def plain_vector(x, dim=None):
    """as_vector, with every entry tested for finiteness."""
    v = np.asarray(x, dtype=float)
    if v.ndim == 0:
        v = v.reshape(1)
    if v.ndim != 1 or v.size < 1:
        raise DimensionMismatch(f"expected a 1-D vector, got shape {v.shape}")
    if not np.isfinite(v).all():
        raise ValueError("vector entries must be finite")
    if dim is not None and v.size != dim:
        raise DimensionMismatch(f"expected dimension {dim}, got {v.size}")
    return v


def outcome(call, *args):
    """(the returned array's dtype, shape and bytes) or (the error's type and message)."""
    try:
        v = call(*args)
    except Exception as e:  # noqa: BLE001 - the error itself is compared
        return type(e), str(e)
    return v.dtype, v.shape, v.tobytes()


INPUTS = [
    [1.0, -2.0, 3.5],
    [1e200, -1e200],  # the squares overflow, and the fallback passes every entry
    [1e300] * 4,
    [5e-324, -0.0, 0.0],  # -0.0 is kept, and the squares underflow
    np.array([1, 2, 3], dtype=np.int64),
    np.array([0.1, 0.2], dtype=np.float32),
    np.arange(8.0)[::2],  # a strided view
    2.0,
    [float("nan")],
    [1.0, float("inf")],
    [float("-inf"), 1.0],
    [1e200, float("nan")],
    [float("inf"), float("-inf")],
    [[1.0, 2.0]],
    [],
    [1.0, 2.0],
]


@pytest.mark.parametrize("x", INPUTS, ids=range(len(INPUTS)))
@pytest.mark.parametrize("dim", [None, 2])
def test_as_vector_returns_and_raises_what_the_entrywise_check_does(x, dim):
    assert outcome(as_vector, x, dim) == outcome(plain_vector, x, dim)


@pytest.mark.parametrize("x", [[float("nan")], [1.0, float("inf")], [float("-inf")],
                               [1e200, float("nan")], [1e300, float("inf")]])
def test_as_vector_refuses_a_non_finite_entry_with_its_message(x):
    with pytest.raises(ValueError, match="^vector entries must be finite$"):
        as_vector(x)


def test_as_vector_accepts_entries_whose_squares_overflow():
    x = np.array([1e200, -1e200, 3.0])
    v, n2 = _vector_n2(x)
    assert v is x and n2 == math.inf


def test_as_vector_keeps_negative_zero_and_the_array():
    x = np.array([-0.0, 1.0])
    assert as_vector(x) is x
    assert math.copysign(1.0, as_vector([-0.0])[0]) == -1.0


@pytest.mark.parametrize("x", [[3.0, 4.0], [1e200, 1e200], [1e-170, 2e-170], [5e-324],
                               [-0.0, 1.0]])
def test_the_sum_that_checks_a_vector_is_its_norm2(x):
    v, n2 = _vector_n2(x)
    assert n2.hex() == norm2(v).hex()


# -- Halfspace: its squared length is the check's sum, its length safely scaled ----------

NORMALS = [[3.0, 4.0], [0.3, -1.7, 2.9], [1e160], [1e200, -1e200], [1e-160], [3e-162, 4e-162],
           [1e-200, 1e-150]]


@pytest.mark.parametrize("normal", NORMALS, ids=range(len(NORMALS)))
def test_halfspace_takes_its_squared_length_from_the_check(normal):
    h = Halfspace(normal, 1.0)
    assert h._n2.hex() == norm2(as_vector(normal)).hex()


@pytest.mark.parametrize("normal", NORMALS, ids=range(len(NORMALS)))
def test_halfspace_length_is_the_plain_root_at_ordinary_scale_and_scaled_beyond(normal):
    h = Halfspace(normal, 1.0)
    if sys.float_info.min <= h._n2 < math.inf:
        assert h._length.hex() == math.sqrt(h._n2).hex()
    else:
        exact = math.hypot(*normal)  # correctly rounded
        assert h._length == pytest.approx(exact, rel=4 * 2.0 ** -52, abs=0.0)


def test_halfspace_distance_where_the_squared_length_overflows():
    # ||a||^2 = 1e320 is +inf: the distance used to be 1e60 / inf = 0.0 outside the set.
    h = Halfspace([1e160], 0.0)
    assert not h.contains(np.array([1e-100]))
    assert h.distance(np.array([1e-100])) == pytest.approx(1e-100, rel=4 * 2.0 ** -52, abs=0.0)


def test_halfspace_distance_where_the_squared_length_is_subnormal():
    # ||a||^2 = 2.5e-323 rounds to a multiple of 2**-1074, and its root was 0.6% short.
    h = Halfspace([3e-162, 4e-162], 0.0)
    assert h.distance(np.array([1.0, 0.0])) == pytest.approx(0.6, rel=4 * 2.0 ** -52, abs=0.0)


def test_a_solve_on_an_overflowing_normal_raises_instead_of_converging():
    # The distance used to read 0.0 at x0 = [1.0], and the solve returned Converged
    # there; the true distance is 1.0, and the projection is undefined in doubles.
    p = Problem(dimension=1, functions=[Dist(Halfspace([1e160], 0.0))], x0=[1.0])
    with pytest.raises(NonFiniteValue, match="^Halfspace normal's squared length overflows"):
        solve(p)


def test_scaled_norm_at_extreme_scales():
    assert scaled_norm([1e200, 1e200]) == pytest.approx(math.sqrt(2.0) * 1e200, rel=1e-15, abs=0.0)
    assert scaled_norm([1e-170, 0.0]) == 1e-170
    x = np.random.default_rng(3).standard_normal(16)
    assert scaled_norm(x) == pytest.approx(norm(x), rel=1e-15, abs=0.0)


# -- AffineMax: one block of slopes, and the per-piece path only for its errors ----------

def plain_affine_max(pieces):
    """(slopes, offsets) of AffineMax, piece by piece, as a vector each."""
    slopes = [plain_vector(a) for a, _ in pieces]
    offsets = [float(b) for _, b in pieces]
    if any(a.size != slopes[0].size for a in slopes):
        raise DimensionMismatch("all pieces must share one dimension")
    return np.array(slopes), offsets


rng = np.random.default_rng(34)
PIECES = {
    "arrays": list(zip(rng.standard_normal((64, 20)), rng.standard_normal(64))),
    "lists": [([1, 2], 0), ([3.5, -4.0], 1.5)],
    "float32": [(np.array([0.1, 0.2], dtype=np.float32), 0.0), ([0.3, 0.4], 1.0)],
    "squares-overflow": [([1e200, 1e200], 0.0), ([1.0, 2.0], 0.0)],
    "negative-zero": [([-0.0, 1.0], 0.0), ([5e-324, -0.0], 0.0)],
    "scalars-1d": [(1.0, 0.0), (-2.0, 1.0)],
    "mixed-scalar-1d": [(1.0, 0.0), ([2.0], 1.0)],
    "ragged": [([1.0, 2.0], 0.0), ([1.0], 0.0)],
    "ragged-then-nan": [([1.0, 2.0], 0.0), ([float("nan")], 0.0)],
    "nan": [([1.0, 2.0], 0.0), ([float("nan"), 0.0], 0.0)],
    "inf": [([float("inf"), 2.0], 0.0), ([1.0, 0.0], 0.0)],
    "2d-slope": [([[1.0, 2.0]], 0.0), ([[1.0, 2.0]], 0.0)],
    "empty-slope": [([], 0.0)],
    "text": [(["a"], 0.0)],
    "bad-offset": [([1.0], "x")],
    "ragged-bad-offset": [([1.0, 2.0], 0.0), ([1.0], "x")],
    "not-a-pair": [([1.0],)],
}


def affine_outcome(build, pieces):
    try:
        slopes, offsets = build(pieces)
    except Exception as e:  # noqa: BLE001 - the error itself is compared
        return type(e), str(e)
    return slopes.dtype, slopes.shape, slopes.tobytes(), [b.hex() for b in offsets]


@pytest.mark.parametrize("name", PIECES)
def test_affinemax_keeps_the_per_piece_slopes_and_errors(name):
    def built(pieces):
        f = AffineMax(pieces)
        return f.slopes, f.offsets
    assert affine_outcome(built, PIECES[name]) == affine_outcome(plain_affine_max, PIECES[name])


def test_a_valid_affinemax_checks_its_slopes_as_one_block(monkeypatch):
    # The per-piece path costs one as_vector per piece: a guard that counts, so that
    # the path cannot come back unnoticed.
    calls = []
    monkeypatch.setattr(functions, "as_vector", lambda *a: calls.append(a) or as_vector(*a))
    f = AffineMax(PIECES["arrays"])
    assert calls == [] and f.slopes.shape == (64, 20)
    AffineMax(PIECES["scalars-1d"])  # the per-piece path, where the spy counts
    assert len(calls) == 2


@pytest.mark.parametrize("offset", [float("nan"), float("inf"), -math.inf, 10 ** 400],
                         ids=["nan", "inf", "-inf", "huge-int"])
def test_affinemax_refuses_a_non_finite_offset(offset):
    with pytest.raises(ValueError, match="^AffineMax offset must be finite$"):
        AffineMax([([1.0], 0.0), ([2.0], offset)])


def test_affinemax_takes_offsets_whose_sum_overflows():
    f = AffineMax([([1.0], 1e308), ([2.0], 1e308), ([3.0], -1e308)])
    assert f.offsets == [1e308, 1e308, -1e308]
