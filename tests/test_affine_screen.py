"""The affine screen gives what the per-row oracles give, bit for bit.

``core.AffineRows`` evaluates many affine rows with one matrix-vector product,
whose sums may differ from a per-row ``np.vdot`` in the last bits, and brackets
each oracle value by a rounding bound.  The solver's block and ``AffineMax``
compute exactly every row the bound cannot settle.  These properties check the
bound itself, then the block against the plain loop over all constraints (the
residual, every value the solve uses, and the error raised) and ``AffineMax``
against its per-piece formula, at scales from 1e-150 to 1e150.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subproj import (
    CENTROID,
    LEAST_INDEX,
    AffineMax,
    Ball,
    Dist,
    EndpointK,
    FunctionSpec,
    Halfspace,
    Linear,
    Problem,
    ZeroSubgradient,
    residual,
    solve,
)
from subproj.core import SCREEN_MAX, SCREEN_MIN_ROWS, AffineRows, norm2
from subproj.feasibility import _AffineBlock, _values
from subproj.functions import _GRADIENT, ACTIVE_TOL

SUBNORMALS = [5e-324, -5e-324, 2.2e-310, -1e-320]


@st.composite
def vectors(draw, n, scale):
    """A length-n vector of normal draws times ``scale``, with some -0.0 and subnormal entries."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    v = rng.standard_normal(n) * scale
    for k in draw(st.lists(st.integers(0, n - 1), max_size=3)):
        v[k] = -0.0
    for k in draw(st.lists(st.integers(0, n - 1), max_size=3)):
        v[k] = draw(st.sampled_from(SUBNORMALS))
    return v


def twin(data, a):
    """a with one entry moved by an ulp: a row whose value nearly ties with a's, so that
    the block product and the per-row dot product may order the two differently."""
    a = a.copy()
    k = data.draw(st.integers(0, a.size - 1))
    a[k] = np.nextafter(a[k], data.draw(st.sampled_from([math.inf, -math.inf])))
    return a


def normals(n, scale):
    """vectors(n, scale) with a nonzero squared length, as a Halfspace needs."""
    return vectors(n, scale).map(lambda a: a if norm2(a) > 0.0 else np.full(n, scale))


scales = st.integers(-150, 150).map(lambda k: 10.0 ** k)


@settings(max_examples=150, deadline=None)
@given(data=st.data(), n=st.integers(1, 40), m=st.integers(SCREEN_MIN_ROWS, 20), x_scale=scales,
       row_scale=scales)
def test_bounds_bracket_each_row_as_its_oracle_computes_it(data, n, m, x_scale, row_scale):
    x = data.draw(vectors(n, x_scale))
    halfspaces, linears = [], []
    for _ in range(m):
        a = data.draw(normals(n, row_scale))
        b = float(data.draw(st.floats(-2.0, 2.0))) * row_scale * x_scale
        halfspaces.append(Halfspace(a, b))
        linears.append(Linear(a))
    for specs, raw in [
        (halfspaces, lambda h: (float(np.vdot(x, h.normal)) - h.offset) / np.sqrt(h._n2)),
        (linears, lambda f: float(np.vdot(x, f.u))),
    ]:
        rows = [(s, s.affine_row()) for s in specs]
        # Only rows within the screen's range: one longer row would leave the whole block
        # unscreened (see the example test below), and this checks the bound.
        rows = [(s, row) for s, row in rows
                if row is not None and norm2(row[0]) < SCREEN_MAX ** 2 and abs(row[1]) < SCREEN_MAX]
        if not rows:
            continue
        block = AffineRows(np.array([r for _s, (r, _c) in rows]),
                           np.array([c for _s, (_r, c) in rows]))
        bounds = block.bounds(x)
        if bounds is None:
            assert len(rows) < SCREEN_MIN_ROWS or not np.linalg.norm(x) < SCREEN_MAX * (1 - 1e-15)
            continue
        _g, lo, hi = bounds
        for k, (s, _row) in enumerate(rows):
            assert lo[k] <= raw(s) <= hi[k]


class Constant(FunctionSpec):
    """An oracle with a fixed value, such as NaN or +inf, to reach the loop's errors."""

    def __init__(self, dim, v):
        self.dim, self.v = dim, v

    def value(self, x):
        return self.v


def outcome(run):
    try:
        return run()
    except Exception as exc:  # noqa: BLE001 -- the error itself is the outcome compared
        return type(exc), str(exc)


@settings(max_examples=300, deadline=None)
@given(data=st.data(), n=st.integers(1, 12), m=st.integers(4, 16), x_scale=scales,
       row_scale=scales, on_boundary=st.lists(st.booleans(), min_size=16, max_size=16),
       twins=st.booleans(),
       extras=st.lists(st.sampled_from(["ball", "linear", "huge-normal", "nan", "inf"]),
                       max_size=4),
       at=st.integers(0, 100))
def test_block_matches_the_plain_loop(data, n, m, x_scale, row_scale, on_boundary, twins, extras,
                                      at):
    x = data.draw(vectors(n, x_scale))
    fs = []
    for k in range(m):
        a = data.draw(normals(n, row_scale))
        # A row exactly on the boundary has excess 0 at x, where its sign is hardest to tell.
        b = (float(np.vdot(x, a)) if on_boundary[k]
             else float(data.draw(st.floats(-3.0, 3.0))) * row_scale * x_scale)
        fs.append(Dist(Halfspace(a, b)))
    if twins:
        fs += [Dist(Halfspace(twin(data, f.set.normal), f.set.offset)) for f in fs]
    for kind in extras:
        if kind == "ball":
            f = Dist(Ball(data.draw(vectors(n, x_scale)), x_scale))
        elif kind == "linear":
            f = Linear(data.draw(vectors(n, row_scale)))
        elif kind == "huge-normal":
            # ||normal||^2 overflows: this row stays with its own oracle (a FOUND item).
            f = Dist(Halfspace([1e160] + [0.0] * (n - 1), 0.0))
        else:
            f = Constant(n, math.nan if kind == "nan" else math.inf)
        fs.insert(at % (len(fs) + 1), f)
    p = Problem(dimension=n, functions=fs, x0=np.zeros(n))
    # inf / inf in Halfspace.distance warns where the huge normal meets a large x.
    with np.errstate(invalid="ignore"):
        plain = outcome(lambda: _values(p, x))
        screened = outcome(lambda: _AffineBlock(p).values(x))
    if isinstance(plain[0], type):
        assert screened == plain
        return
    (res, values), (res_s, values_s) = plain, screened
    assert res_s.hex() == res.hex()
    for v, v_s in zip(values, values_s, strict=True):
        # NaN: left to the visit.  A positive value is used as it is, so it
        # must be exact; a value proved <= 0 is used only through its sign.
        if v_s == v_s and (v_s > 0.0 or v > 0.0):
            assert v_s.hex() == v.hex()


class CountedDist(Dist):
    """A Dist that records its value calls.  It defines its row beside its value, so
    the screen trusts the row."""

    def __init__(self, s, calls):
        super().__init__(s)
        self.calls = calls

    def value(self, x):
        self.calls.append(self)
        return super().value(x)

    def affine_row(self):
        return super().affine_row()


def test_block_settles_most_rows_by_the_bound():
    # 64 halfspaces in R^64 at a point off most of them: the block computes
    # only the rows that could hold the largest value.
    rng = np.random.default_rng(3)
    A = rng.standard_normal((64, 64))
    calls = []
    fs = [CountedDist(Halfspace(A[k], 1.0), calls) for k in range(64)]
    p = Problem(dimension=64, functions=fs, x0=np.zeros(64))
    x = rng.standard_normal(64)
    res, values = _AffineBlock(p).values(x)
    assert res == max(f.set.distance(x) for f in fs) > 0.0
    assert 1 <= len(calls) <= 3
    assert sum(v != v for v in values) > 0  # some rows of unsettled sign are left to the visit


def test_one_row_out_of_range_leaves_the_whole_block_to_the_plain_loop():
    # A Linear with ||u|| >= SCREEN_MAX joins the block's rows, so the block
    # steps aside as a whole rather than keep that row as an "other".
    rng = np.random.default_rng(5)
    fs = [Dist(Halfspace(rng.standard_normal(6), 1.0)) for _ in range(SCREEN_MIN_ROWS + 2)]
    fs.insert(3, Linear([2.0 ** 500] + [0.0] * 5))
    p = Problem(dimension=6, functions=fs, x0=np.zeros(6))
    block = _AffineBlock(p)
    assert len(block.index) == len(fs) and block.others == []
    assert not block.rows.used
    for x in [rng.standard_normal(6), -rng.standard_normal(6) * 1e-3, np.zeros(6)]:
        res, values = _values(p, x)
        res_b, values_b = block.values(x)
        assert res_b.hex() == res.hex()
        assert [v.hex() for v in values_b] == [v.hex() for v in values]


class Shifted(Linear):
    """A Linear that overrides its value and inherits its affine row."""

    def value(self, x):
        return float(np.vdot(x, self.u)) + 3.0


class PaddedHalfspace(Halfspace):
    """A Halfspace that overrides its distance and inherits its affine row."""

    def distance(self, x):
        return super().distance(x) + 0.5


def test_a_row_is_not_trusted_for_a_value_that_a_subclass_overrides():
    # The screen once proved Shifted's row <= 0 at [0, -1] and never called its
    # value, 2.0 there, so the solve stopped after 1 iteration as Converged.
    fs = [Linear(np.array([1.0, 0.0]) * (k + 1)) for k in range(9)]
    fs.append(Shifted(np.array([0.0, 1.0])))
    p = Problem(dimension=2, functions=fs, x0=[1.0, -1.0], max_iter=50)
    x, trace = solve(p)
    assert trace.status == "Converged"
    assert np.array_equal(x, [0.0, -3.0])
    assert residual(p, x) == trace.final_residual == 0.0
    assert _AffineBlock(p).others == [(9, fs[9])]


def test_a_set_row_is_not_trusted_for_a_distance_that_a_subclass_overrides():
    # The padded distance is at least 0.5, and inside its halfspace its
    # subgradient is 0: the plain loop meets that there.  The screen once
    # proved its row <= 0 and returned Converged at a true residual of 0.5.
    rng = np.random.default_rng(1)
    fs = [Dist(Halfspace(rng.standard_normal(3), 1.0)) for _ in range(9)]
    fs.append(Dist(PaddedHalfspace(np.array([0.0, 0.0, 1.0]), 0.0)))
    p = Problem(dimension=3, functions=fs, x0=[0.0, 0.0, 3.0], max_iter=50)
    with pytest.raises(ZeroSubgradient):
        solve(p)
    assert fs[9].affine_row() is None and fs[0].affine_row() is not None
    assert _AffineBlock(p).others == [(9, fs[9])]


# -- AffineMax ---------------------------------------------------------------------------

STRATEGIES = [LEAST_INDEX, CENTROID, EndpointK(1), _GRADIENT]


def reference_affinemax(f, x):
    """The per-piece formula: value, active pieces, and each strategy's pick (or its error)."""
    vals = [float(np.vdot(a, x)) + b for a, b in f.pieces]
    top = max(vals)
    cut = top - ACTIVE_TOL * (1.0 + abs(top))
    active = [i for i, v in enumerate(vals) if v >= cut]
    picks = [outcome(lambda s=s: s.pick([f.slopes[i] for i in active])) for s in STRATEGIES]
    return top, active, picks


def assert_same_affinemax(f, x):
    top, active, picks = reference_affinemax(f, x)
    assert f.value(x).hex() == top.hex()
    assert f.active_indices(x) == active
    for s, pick in zip(STRATEGIES, picks):
        got = outcome(lambda s=s: f.subgradient(x, s))
        if isinstance(pick, tuple):
            assert got == pick
        else:
            assert got.tobytes() == pick.tobytes()


@settings(max_examples=150, deadline=None)
@given(data=st.data(), n=st.integers(1, 24), pieces=st.integers(1, 40), x_scale=scales,
       row_scale=scales, repeats=st.lists(st.integers(0, 39), max_size=4))
def test_affinemax_matches_the_per_piece_formula(data, n, pieces, x_scale, row_scale, repeats):
    x = data.draw(vectors(n, x_scale))
    slopes = [data.draw(vectors(n, row_scale)) for _ in range(pieces)]
    offsets = [float(data.draw(st.floats(-3.0, 3.0))) * row_scale * x_scale
               for _ in range(pieces)]
    # Repeated pieces tie exactly; their twins nearly.
    for k in repeats:
        slopes += [slopes[k % pieces], twin(data, slopes[k % pieces])]
        offsets += [offsets[k % pieces]] * 2
    assert_same_affinemax(AffineMax(list(zip(slopes, offsets))), x)


@settings(max_examples=300, deadline=None)
@given(data=st.data(), n=st.integers(1, 8), x_scale=scales, ulps=st.integers(-3, 3),
       others=st.integers(0, 12))
def test_affinemax_at_the_active_cut(data, n, x_scale, ulps, others):
    # Piece 1 is piece 0 lowered to within a few ulps of the ACTIVE_TOL cut.
    x = data.draw(vectors(n, x_scale))
    a = data.draw(vectors(n, 1.0))
    top = float(np.vdot(a, x))
    gap = ACTIVE_TOL * (1.0 + abs(top))
    for _ in range(abs(ulps)):
        gap = float(np.nextafter(gap, math.inf if ulps > 0 else 0.0))
    slopes = [a, a + 0.0] + [data.draw(vectors(n, 1.0)) for _ in range(others)]
    offsets = [0.0, -gap] + [top - 1.0 - float(np.vdot(s, x)) for s in slopes[2:]]
    assert_same_affinemax(AffineMax(list(zip(slopes, offsets))), x)


@pytest.mark.parametrize("pieces, x", [
    # distinct slopes meeting at x: an exact tie between different pieces
    ([([1.0, 0.0], 0.0), ([0.0, 1.0], 0.0), ([-1.0, -1.0], 0.0)], [2.0, 2.0]),
    ([([1.0, 0.0], 1.0), ([0.0, 1.0], 1.0)], [0.0, 0.0]),
    # 0.0 and -0.0 tie: the first of them is the value
    ([([1.0], 0.0), ([-1.0], 0.0)], [-0.0]),
    ([([-1.0], -0.0), ([1.0], 0.0)], [0.0]),
    # constant pieces (zero slopes)
    ([([0.0, 0.0], 1.0), ([0.0, 0.0], 1.0)], [3.0, -4.0]),
])
def test_affinemax_exact_ties(pieces, x):
    assert_same_affinemax(AffineMax(pieces), np.array(x))
