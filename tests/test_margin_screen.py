"""The margin screen skips only what the plain loop would find <= 0.

An atom's radius oracle (``_bind_margin()``), asked at x where its value
v = ``value(x)`` is <= 0, returns a radius rho: the computed value is <= 0 at
every point within rho of x.  The solve keeps, per constraint, rho less a bound
on each step since, and skips the constraint while some is left.  These tests
check the radii of every atom and set that states one, at scales from 1e-150 to
1e150 and at points exactly rho away along the direction that leaves soonest;
the block against the plain loop along random walks, and that it asks a radius
only at a value it computed, never of the constraint just cut at lambda <= 1,
and trusts each set once per solve; the rounding guards of the budgets in exact
arithmetic; and that a subclass, an instance or a class that replaces ``value``
is never skipped.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from subproj import (
    AffineMax,
    Ball,
    Box,
    Dist,
    Explicit,
    FunctionSpec,
    Halfspace,
    Indicator,
    Linear,
    MoreauEnv,
    NegLog,
    NonFiniteValue,
    Point,
    PowerComp,
    Problem,
    RightLinear,
    Scale,
    SqDist,
    SubprojError,
    ZeroSubgradient,
    hessian,
    residual,
    solve,
    sproj_deriv_1d,
)
from subproj.core import SCREEN_MIN_ROWS, dot, norm
from subproj.feasibility import _AffineBlock, _evaluate, _values
from subproj.functions import _margin_oracle

SOUND = settings(max_examples=60, deadline=None, database=None)


def exact_distance(z, x) -> float:
    """||z - x|| rounded up from its exact square."""
    d2 = sum((Fraction(a) - Fraction(b)) ** 2 for a, b in zip(z.tolist(), x.tolist()))
    if d2 == 0:
        return 0.0
    # Square roots of d2 scaled near 1, so that no square below 2**-1074 underflows.
    e = (d2.numerator.bit_length() - d2.denominator.bit_length()) // 2
    r = math.ldexp(math.sqrt(float(d2 / Fraction(4) ** e)), e)
    while Fraction(r) ** 2 < d2:
        r = math.nextafter(r, math.inf)
    return r


def farthest(x, d, rho):
    """A point x + t d, t <= rho, at most rho from x exactly and as near rho as rounding allows."""
    inside, outside = 0.0, rho  # x + inside d is within rho; beyond outside, none is
    t = rho
    for _ in range(3):  # step back by the excess, then bisect what is left
        e = exact_distance(x + t * d, x)
        if e <= rho:
            inside = t
            break
        outside = t
        t -= 2.0 * (e - rho) + math.ulp(t)
        if t <= 0.0:
            break
    while inside < (mid := 0.5 * (inside + outside)) < outside:
        if exact_distance(x + mid * d, x) <= rho:
            inside = mid
        else:
            outside = mid
    return x + inside * d


def unit(v):
    return v / np.linalg.norm(v)


def probes(x, rho, worst, rng):
    """Points within rho of x: exactly rho along each worst direction and its opposite,
    and along random directions, and random points inside."""
    dirs = [unit(w) for w in worst if np.linalg.norm(w) > 0.0]
    dirs += [-w for w in dirs]
    dirs += [unit(rng.standard_normal(x.size)) for _ in range(4)]
    pts = [farthest(x, d, rho) for d in dirs]
    pts += [farthest(x, unit(rng.standard_normal(x.size)), rho * rng.uniform()) for _ in range(4)]
    return pts


def radius(f, x):
    """f's radius at x as the block asks it: through the oracle the block binds, at the
    value f computes there, where <= 0."""
    margin = _margin_oracle(f)
    v = f.value(x)
    return margin(x, v) if margin is not None and v <= 0.0 else 0.0


def check_margin(f, x, worst, rng):
    """The value is <= 0 within f's radius at x."""
    rho = radius(f, x)
    assert rho >= 0.0
    if rho > 0.0:
        for z in probes(x, rho, worst, rng):
            assert f.value(z) <= 0.0
    return rho


def check_depth(s, x, worst, rng):
    """A set's depth: within it distance is 0.0, contains holds and project returns the point."""
    depth = s._depth(x)
    assert depth >= 0.0
    if depth > 0.0:
        for z in probes(x, depth, worst, rng):
            assert s.distance(z) == 0.0 and s.contains(z)
            assert s.project(z).tobytes() == z.tobytes()
    return depth


scales = st.integers(-150, 150).map(lambda k: 10.0 ** k)
seeds = st.integers(0, 2**32 - 1)


def depth(rng, size=None):
    """A depth fraction: uniform in [0, 1) half the time, else 1e-16 to 1e-10, where
    the rounding of a radius decides whether a point at that depth stays inside."""
    if rng.uniform() < 0.5:
        return rng.uniform(0.0, 1.0, size)
    return 10.0 ** -rng.uniform(10.0, 16.0, size)


def inside_ball(rng, n, scale):
    """A ball at scale and a point inside it, at a random depth."""
    c = rng.standard_normal(n) * scale
    r = rng.uniform(0.5, 2.0) * scale
    x = c + unit(rng.standard_normal(n)) * r * (1.0 - depth(rng))
    return Ball(c, r), x, [x - c]


def inside_halfspace(rng, n, scale):
    a = rng.standard_normal(n) * 10.0 ** rng.integers(-3, 4)
    x = rng.standard_normal(n) * scale
    b = float(np.vdot(x, a)) + 2.0 * depth(rng) * np.linalg.norm(a) * scale
    return Halfspace(a, b), x, [a]


def inside_box(rng, n, scale):
    # Bounds of unlike magnitudes, so that x - lo and hi - x round either way.
    lo = -rng.uniform(0.1, 2.0, n) * scale * 10.0 ** rng.integers(-20, 1, n)
    hi = rng.uniform(0.1, 2.0, n) * scale * 10.0 ** rng.integers(-20, 1, n)
    x = lo + (hi - lo) * rng.uniform(0.0, 1.0, n)
    k = int(rng.integers(n))
    x[k] = lo[k] + (hi[k] - lo[k]) * depth(rng)
    k = int(np.argmin(np.minimum(x - lo, hi - x)))
    return Box(lo, hi), x, [np.eye(n)[k]]


SETS = [inside_ball, inside_halfspace, inside_box]


@seed(22)
@SOUND
@given(s=seeds, n=st.integers(1, 6), scale=scales, kind=st.sampled_from(SETS))
def test_a_set_depth_keeps_every_point_inside(s, n, scale, kind):
    rng = np.random.default_rng(s)
    S, x, worst = kind(rng, n, scale)
    check_depth(S, x, worst, rng)


@seed(27)
@SOUND
@given(s=seeds, n=st.integers(1, 6), scale=st.integers(-545, -525).map(lambda k: 2.0 ** k),
       kind=st.sampled_from(SETS))
def test_a_set_depth_keeps_every_point_inside_where_squares_underflow(s, n, scale, kind):
    # Near 2**-537 a squared entry of x - c rounds to a multiple of 2**-1074 and may
    # round up, so the computed distance to the centre can exceed the exact one by
    # far more than the relative shrink of a radius; core._REACH_TINY covers that.
    rng = np.random.default_rng(s)
    S, x, worst = kind(rng, n, scale)
    check_depth(S, x, worst, rng)


@seed(23)
@SOUND
@given(s=seeds, n=st.integers(1, 6), scale=scales, kind=st.sampled_from(SETS),
       atom=st.sampled_from(["dist", "sqdist", "powercomp", "moreau"]))
def test_an_atom_on_a_set_keeps_its_value_at_most_0_within_its_radius(s, n, scale, kind, atom):
    rng = np.random.default_rng(s)
    S, x, worst = kind(rng, n, scale)
    f = {"dist": lambda: Dist(S), "sqdist": lambda: SqDist(S),
         "powercomp": lambda: PowerComp(rng.uniform(0.2, 3.0), SqDist(S)),
         "moreau": lambda: MoreauEnv(rng.uniform(0.1, 10.0) * scale, Indicator(S))}[atom]()
    assert check_margin(f, x, worst, rng) == S._depth(x)


@seed(25)
@SOUND
@given(s=seeds, n=st.integers(1, 6), pieces=st.integers(SCREEN_MIN_ROWS, 24), scale=scales,
       row_scale=st.integers(-3, 3).map(lambda k: 10.0 ** k))
def test_affinemax_keeps_every_piece_at_most_0_within_its_radius(s, n, pieces, scale, row_scale):
    rng = np.random.default_rng(s)
    A = rng.standard_normal((pieces, n)) * row_scale
    x = rng.standard_normal(n) * scale
    b = -(A @ x) - 2.0 * depth(rng, pieces) * np.linalg.norm(A, axis=1) * scale
    f = AffineMax(list(zip(A, b)))
    check_margin(f, x, list(A), rng)


def test_affinemax_radius_stops_short_where_the_computed_top_is_rounded_down():
    # Offsets that cancel the computed a_i . x to within a few roundings of it: the
    # computed top is then below 0 by about that much, while the exact values differ
    # from it by the dot product's own rounding, up to n u ||a|| ||x||.  A radius of
    # -top / length with no slack reaches points where a piece computes > 0; the draws
    # hold some, and the radius AffineRows.reach states, with its slack, reaches none.
    witnesses = 0
    for s in range(300):
        rng = np.random.default_rng(s)
        A = rng.standard_normal((8, 20))
        x = rng.standard_normal(20)
        tiny = 2.0 ** -52 * np.linalg.norm(A, axis=1) * np.linalg.norm(x)
        f = AffineMax([(a, -(dot(a, x) + t)) for a, t in zip(A, tiny * rng.uniform(0.0, 4.0, 8))])
        top = f.value(x)
        if not top < 0.0:
            continue
        rho, unslacked = radius(f, x), -top / f._rows._worst[2]
        z = farthest(x, unit(A[max(range(8), key=lambda i: f._piece(i, x))]), unslacked)
        if f.value(z) > 0.0:
            d2 = sum((Fraction(p) - Fraction(q)) ** 2 for p, q in zip(z.tolist(), x.tolist()))
            assert Fraction(rho) ** 2 < d2 <= Fraction(unslacked) ** 2
            witnesses += 1
            if witnesses == 3:
                return
    pytest.fail(f"{witnesses} of 3 points within the unslacked radius compute > 0")


@pytest.mark.parametrize("inner", [
    Linear([1.0, -2.0]),
    AffineMax([([1.0, 0.0], -1e-13), ([0.0, 1.0], -1e-13)] * 4),  # 8 pieces: it has a radius
], ids=["linear", "affinemax"])
def test_a_power_of_an_inner_that_can_go_negative_states_no_margin(inner):
    # The inner value -1e-13 counts as a base of 0, but a point nearby has a value
    # below -1e-12, where the plain loop raises NegativeBaseError: no skip may hide it.
    f = PowerComp(0.5, inner)
    x = np.zeros(2)
    assert f.value(x).hex() == (0.0).hex() and radius(f, x) == 0.0
    if not isinstance(inner, Linear):
        assert radius(inner, x) > 0.0


def test_atoms_without_a_radius_state_none():
    x = np.array([0.25, -0.5])
    ball = Ball([0.0, 0.0], 4.0)
    for f in [Linear([1.0, 2.0]), Dist(Point([0.25, -0.5])), SqDist(Point([0.25, -0.5])),
              Scale(2.0, Dist(ball)), RightLinear([[0.0, 2.0], [-2.0, 0.0]], Dist(ball)),
              AffineMax([([1.0, 0.0], -1.0), ([0.0, 1.0], -1.0)])]:  # too few pieces
        assert f.value(x) <= 0.0 and radius(f, x) == 0.0


# -- the block against the plain loop -------------------------------------------------------

def mixed_problem(rng, n, scale):
    S = [kind(rng, n, scale)[0] for kind in SETS]
    L = np.linalg.qr(rng.standard_normal((n, n)))[0] * 2.0
    fs = [Dist(S[0]), SqDist(S[1]), Scale(2.0, Dist(S[2])), PowerComp(0.5, Dist(S[0])),
          MoreauEnv(scale, Indicator(S[2])), RightLinear(L, Dist(Ball(L @ S[0].center,
                                                                      2.0 * S[0].radius))),
          AffineMax([(a, -scale) for a in rng.standard_normal((8, n))]), Linear(rng.standard_normal(n))]
    return Problem(dimension=n, functions=fs, x0=np.zeros(n))


@seed(26)
@settings(max_examples=40, deadline=None, database=None)
@given(s=seeds, n=st.integers(1, 5), scale=scales)
def test_the_block_gives_the_plain_loop_residual_along_a_walk(s, n, scale):
    # Steps of every size, from far inside the sets to across them: a skipped
    # constraint holds 0.0 where the plain loop computes a value <= 0, and every
    # other value, and the residual, keep their bits.
    rng = np.random.default_rng(s)
    p = mixed_problem(rng, n, scale)
    block = _AffineBlock(p)
    x = p.functions[0].set.center.copy()
    skipped = 0
    for k in range(40):
        step = unit(rng.standard_normal(n)) * scale * 10.0 ** rng.uniform(-12, 0.5)
        x_next = x + step
        res, values = _values(p, x_next)
        res_b, values_b = block.values(x_next, float(np.linalg.norm(x_next - x)))
        assert res_b.hex() == res.hex()
        for i, (v, v_b) in enumerate(zip(values, values_b)):
            if i in block.margins and v_b == 0.0 and v != 0.0:
                assert v <= 0.0
                skipped += 1
            else:
                assert v_b.hex() == v.hex()
        x = x_next
    assert len(p.functions) - 1 not in block.margins  # Linear states no radius


def spy_values(p, block, log):
    """Log each value that the block computes for a constraint with a margin, after the
    block has resolved its margins, as ("value", i, x, v)."""
    for i in block.margins:
        f = p.functions[i]

        def value(x, i=i, oracle=f.value):
            v = oracle(x)
            log.append(("value", i, x.tobytes(), v))
            return v

        f.value = value


def test_the_mixed_walk_skips_constraints():
    # Without skips the walk above would prove nothing about the budgets.
    rng = np.random.default_rng(5)
    p = mixed_problem(rng, 3, 1.0)
    block = _AffineBlock(p)
    calls = []
    spy_values(p, block, calls)
    x = p.functions[0].set.center.copy()
    for _ in range(20):
        step = unit(rng.standard_normal(3)) * 1e-6
        block.values(x + step, float(np.linalg.norm(step)))
        x = x + step
    assert len(calls) < 20 * len(block.margins) / 2


def test_the_block_asks_a_radius_only_at_a_value_it_just_computed_at_most_0():
    # A radius speaks for the value that ``value`` computed at the same x, and only
    # where that value is <= 0; every such value gets a radius.
    rng = np.random.default_rng(11)
    p = mixed_problem(rng, 3, 1.0)
    block = _AffineBlock(p)
    log = []
    spy_values(p, block, log)
    for i, m in list(block.margins.items()):
        block.margins[i] = (lambda x, v, m=m, i=i:
                            log.append(("margin", i, x.tobytes(), v)) or m(x, v))
    x = p.functions[0].set.center.copy()
    for _ in range(60):
        step = unit(rng.standard_normal(3)) * 10.0 ** rng.uniform(-6.0, 0.5)
        block.values(x + step, float(np.linalg.norm(step)))
        x = x + step
    asked = [k for k, entry in enumerate(log) if entry[0] == "margin"]
    for k in asked:
        _, i, at, v = log[k]
        assert k > 0 and log[k - 1][:3] == ("value", i, at)
        assert log[k - 1][3].hex() == v.hex() and v <= 0.0
    computed = [k for k, entry in enumerate(log) if entry[0] == "value"]
    assert [k for k in computed if log[k][3] <= 0.0] == [k - 1 for k in asked]
    assert asked and any(log[k][3] > 0.0 for k in computed)


class AskedDist(Dist):
    """A Dist that owns its value and its radius method and logs both on the class, as
    (kind, id, x bytes, value)."""

    log = []

    def value(self, x):
        v = Dist.value(self, x)
        AskedDist.log.append(("value", id(self), x.tobytes(), v))
        return v

    def _bind_margin(self):
        depth = Dist._bind_margin(self)

        def margin(x, v):
            AskedDist.log.append(("margin", id(self), x.tobytes(), v))
            return depth(x, v)
        return margin


def test_the_constraint_just_cut_at_lambda_at_most_1_is_never_asked(monkeypatch):
    # x_{n+1} = x + lam (G x - x) with lam <= 1 lies outside the interior of the cutting
    # halfspace, which holds lev f: no radius exists there, so none is asked.  Every other
    # value <= 0 computed at a new iterate is asked, the cut one too at lam = 1.5.  Two
    # tangent balls and a small one at their contact point, in an order that pairs every
    # constraint with every relaxation.
    monkeypatch.setattr(AskedDist, "log", [])
    fs = [AskedDist(Ball([0.0, 0.0], 1.0)), AskedDist(Ball([2.0, 0.0], 1.0)),
          AskedDist(Ball([1.0, 0.0], 0.1))]
    p = Problem(dimension=2, functions=fs, x0=[5.0, 5.0], control=Explicit([0, 1, 2, 0, 1]),
                relaxation=[0.5, 1.0, 1.5], tol=1e-6, max_iter=400)
    _x, trace = solve(p)
    log = AskedDist.log
    at_x0 = p.x0.tobytes()
    iterates = list(dict.fromkeys(entry[2] for entry in log if entry[2] != at_x0))
    moved = [row for row in trace.rows if row.step_norm > 0.0]
    assert len(iterates) == len(moved)
    seen = {"cut at 1.5 asked": 0, "cut at most 1 at most 0": 0, "other asked": 0}
    for at, row in zip(iterates, moved):
        cut = id(fs[row.index])
        computed = [entry for entry in log if entry[0] == "value" and entry[2] == at]
        asked = {entry[1] for entry in log if entry[0] == "margin" and entry[2] == at}
        assert cut in {entry[1] for entry in computed}
        expected = {k for _kind, k, _at, v in computed
                    if v <= 0.0 and (row.lam > 1.0 or k != cut)}
        assert asked == expected
        seen["cut at 1.5 asked"] += row.lam == 1.5 and cut in asked
        seen["cut at most 1 at most 0"] += row.lam <= 1.0 and any(
            k == cut and v <= 0.0 for _kind, k, _at, v in computed)
        seen["other asked"] += row.lam <= 1.0 and bool(asked - {cut})
    assert {row.lam for row in moved} == {0.5, 1.0, 1.5}
    assert min(seen.values()) >= 10, seen


def test_each_set_is_trusted_once_per_solve(monkeypatch):
    # The block resolves the set's ownership when it binds its radius, not at each ask:
    # a set under Dist, SqDist, an Indicator in an envelope and a Dist in a power.
    import subproj.functions as functions

    asks = {}
    trusted = functions._trusted

    def counted(obj, fast, *oracles):
        if fast == "_depth" and not isinstance(obj, FunctionSpec):
            asks[id(obj)] = asks.get(id(obj), 0) + 1
        return trusted(obj, fast, *oracles)

    monkeypatch.setattr(functions, "_trusted", counted)
    rng = np.random.default_rng(4)
    w = rng.normal(0.0, 0.3, 3)
    sets = [Ball(w + 0.3, 1.0), Box(w - 1.0, w + 1.0), Ball(w - 0.2, 0.8),
            Halfspace([1.0, 2.0, -1.0], float(np.vdot([1.0, 2.0, -1.0], w)) + 0.5),
            Ball(w + [1.0, 0.0, 0.0], 1.0), Ball(w - [1.0, 0.0, 0.0], 1.0)]
    fs = [MoreauEnv(1.0, Indicator(sets[0])), Dist(sets[1]), SqDist(sets[2]),
          PowerComp(0.5, Dist(sets[3])), Dist(sets[4]), Dist(sets[5])]
    p = Problem(dimension=3, functions=fs, x0=w + 5.0 * rng.standard_normal(3),
                relaxation=[1.0, 1.5, 1.2], tol=1e-4, max_iter=500)
    _x, trace = solve(p)
    assert trace.iterations == 500
    assert asks == {id(s): 1 for s in sets}


# -- the rounding guards of the budgets --------------------------------------------------------

def test_a_budget_after_a_step_is_at_most_what_is_exactly_left():
    # fl(b - s) rounds above the exact b - s about half the time; the budget kept is
    # shrunk after the subtraction, so that no skip outlasts the radius it came from.
    rng = np.random.default_rng(26)
    f = Dist(Ball([0.0], 1.0))
    margins = {0: f._bind_margin()}
    rounded_up = 0
    for _ in range(2000):
        b = 10.0 ** rng.uniform(-6.0, 6.0)
        s = b * rng.uniform(0.0, 1.0)
        budget = {0: b}
        _evaluate([(0, f)], np.zeros(1), [1.0], margins, budget, s)
        exact = Fraction(b) - Fraction(s)
        assert exact > 0 and Fraction(budget[0]) <= exact
        rounded_up += Fraction(b - s) > exact
    assert rounded_up > 100


@pytest.mark.parametrize("n", [2, 5, 20])
def test_a_step_is_spent_at_no_less_than_its_exact_length(n):
    # The computed norm of a step understates its exact length about half the time;
    # the block stretches it, so that a budget is spent at least as fast as it runs out.
    rng = np.random.default_rng(n)
    block = _AffineBlock(Problem(dimension=n, functions=[Dist(Ball(np.zeros(n), 1.0))],
                                 x0=np.zeros(n)))
    understated = 0
    for _ in range(1000):
        d = rng.standard_normal(n) * 10.0 ** rng.uniform(-5.0, 5.0)
        exact = sum(Fraction(v) ** 2 for v in d.tolist())
        assert Fraction(norm(d) * block._stretch + block._tiny) ** 2 >= exact
        understated += Fraction(norm(d)) ** 2 < exact
    assert understated > 100
    # Steps near 2**-560 and below, whose squared entries underflow: there the
    # computed norm loses most of the length, or all of it, which only _tiny covers.
    lost = 0
    for _ in range(200):
        d = rng.standard_normal(n) * 2.0 ** rng.uniform(-580.0, -530.0)
        exact = sum(Fraction(v) ** 2 for v in d.tolist())
        assert Fraction(norm(d) * block._stretch + block._tiny) ** 2 >= exact
        lost += norm(d) == 0.0
    assert lost > 20


# -- what the screen must not trust ----------------------------------------------------------

class PaddedDist(Dist):
    """A Dist that pads its value and inherits its margin."""

    def value(self, x):
        return super().value(x) + 1.0


def test_a_padded_subclass_is_never_skipped():
    # Deep inside its ball, the inherited margin would prove the padded value
    # <= 0 and the solve would stop as Converged.  Its value is computed instead:
    # at least 1 with a zero subgradient inside the ball, which the plain loop meets.
    fs = [Dist(Ball([0.0, 0.0], 10.0)), PaddedDist(Ball([0.0, 0.0], 5.0)),
          Dist(Ball([1.0, 0.0], 10.0))]
    p = Problem(dimension=2, functions=fs, x0=[12.0, 0.0], max_iter=50)
    assert list(_AffineBlock(p).margins) == [0, 2]
    with pytest.raises(ZeroSubgradient):
        solve(p)


def test_an_instance_value_is_evaluated_by_both_screens():
    # Nine Linear rows and one whose instance value adds 3: the affine screen
    # once proved its row <= 0 at [0, -1] and returned Converged at residual 2.0.
    fs = [Linear(np.array([1.0, 0.0]) * (k + 1)) for k in range(9)]
    g = Linear(np.array([0.0, 1.0]))
    g.value = lambda x: float(np.vdot(x, g.u)) + 3.0
    fs.append(g)
    p = Problem(dimension=2, functions=fs, x0=[1.0, -1.0], max_iter=50)
    x, trace = solve(p)
    assert trace.status == "Converged"
    assert np.array_equal(x, [0.0, -3.0])
    assert residual(p, x) == trace.final_residual == 0.0
    # The margin screen: a Dist whose instance value is padded states no radius.
    h = Dist(Ball([0.0, 0.0], 5.0))
    h.value = lambda x: Dist.value(h, x) + 1.0
    block = _AffineBlock(Problem(dimension=2, functions=[Dist(Ball([0.0, 0.0], 9.0)), h],
                                 x0=[0.0, 0.0]))
    assert list(block.margins) == [0]


@pytest.mark.parametrize("oracle", ["distance", "contains", "project"])
def test_a_set_that_overrides_what_its_depth_speaks_for_gives_no_depth(oracle):
    # A set atom's radius rests on the distance being 0.0, contains holding and
    # project fixing each point within the set's depth; a set class that replaces
    # any of them is not vouched for, even with the same answers.
    Own = type("Own", (Ball,), {oracle: lambda self, x: getattr(Ball, oracle)(self, x)})
    x = np.array([0.1, 0.0])
    for atom in (Dist, SqDist, Indicator):
        assert radius(atom(Ball([0.0, 0.0], 2.0)), x) > 0.0
        f = atom(Own([0.0, 0.0], 2.0))
        assert f.value(x) == 0.0 and radius(f, x) == 0.0


def test_an_inner_with_its_own_closed_form_gives_no_radius():
    # An envelope's radius rests on the closed form fixing every point within it,
    # so a subclass that replaces the closed form is not vouched for, even where
    # its map is the same projection.
    class OwnProjection(Indicator):
        def _prox_map(self):
            return lambda gamma, x: self.set.project(x)

    x = np.array([0.1, 0.0])
    ball = Ball([0.0, 0.0], 2.0)
    assert radius(MoreauEnv(1.0, Indicator(ball)), x) > 0.0
    f = MoreauEnv(1.0, OwnProjection(ball))
    assert f.value(x).hex() == MoreauEnv(1.0, Indicator(ball)).value(x).hex()
    assert radius(f, x) == 0.0


class LoweredIndicator(FunctionSpec):
    """-1 on a ball and +inf outside: prox-friendly (its prox is the projection), with
    a radius of its own, and negative."""

    def __init__(self, ball):
        self.set, self.dim = ball, ball.dim

    def value(self, x):
        return -1.0 if self.set.contains(x) else math.inf

    def _prox_map(self):
        return lambda gamma, x: self.set.project(x)

    def _bind_margin(self):
        return self.set._depth


def test_the_envelope_of_an_inner_that_can_go_negative_states_no_radius():
    # The envelope's radius rests on every audit competitor being >= 0, which
    # only a nonnegative inner promises.
    f = LoweredIndicator(Ball([0.0, 0.0], 2.0))
    x = np.array([0.1, 0.0])
    assert not f.nonnegative and f.value(x) == -1.0 and radius(f, x) > 0.0
    env = MoreauEnv(1.0, f)
    assert env.value(x) == -1.0 and radius(env, x) == 0.0


def test_an_oracle_replaced_on_its_own_class_is_evaluated(monkeypatch):
    # Dist still owns both value and _bind_margin, so the margin is trusted; the value
    # it speaks for is computed all the same, and its NaN is met.  A margin that
    # stood in for the value would end this solve as Converged at [2, 0].
    value = Dist.value

    def broken(self, x):
        return math.nan if self.set.radius == 10.0 and x[0] > 1.0 else value(self, x)

    monkeypatch.setattr(Dist, "value", broken)
    p = Problem(dimension=2, functions=[Dist(Ball([0.0, 0.0], 10.0)), Dist(Ball([3.0, 0.0], 1.0))],
                x0=[0.0, 0.0], max_iter=50)
    with pytest.raises(NonFiniteValue) as info:
        solve(p)
    assert str(info.value) == "Dist value is NaN"


def test_an_oracle_assigned_to_a_subclass_after_its_first_check_is_evaluated():
    # Nine Linear rows and one row of a subclass whose value is assigned only after
    # the subclass was trusted once.  A verdict kept for the class, and not for its
    # functions, once proved that row <= 0 at [0, -1] and returned Converged with
    # final_residual 0.0 where residual reads 2.0.
    class Sub(Linear):
        pass

    fs = [Linear(np.array([1.0, 0.0])) for _ in range(9)] + [Sub(np.array([0.0, 1.0]))]
    p = Problem(dimension=2, functions=fs, x0=[1.0, -1.0], max_iter=50)
    x, trace = solve(p)
    assert trace.status == "Converged" and np.array_equal(x, [0.0, -1.0])
    Sub.value = lambda self, x: float(np.vdot(x, self.u)) + 3.0
    x, trace = solve(p)
    assert trace.status == "Converged"
    assert np.array_equal(x, [0.0, -3.0])
    assert residual(p, x) == trace.final_residual == 0.0


# -- NegLog's Hessian --------------------------------------------------------------------------

@pytest.mark.parametrize("call", [lambda: hessian(NegLog(), [1e-200]),
                                  lambda: sproj_deriv_1d(NegLog(), 1e-200),
                                  lambda: hessian(NegLog(), [1e-160])],
                         ids=["hessian", "deriv-1d", "hessian-subnormal-square"])
def test_an_overflowing_neglog_hessian_raises_a_named_error(call):
    with pytest.raises(NonFiniteValue) as info:
        call()
    assert isinstance(info.value, SubprojError)
    assert str(info.value).startswith("NegLog Hessian")


def test_neglog_hessian_keeps_its_value():
    assert hessian(NegLog(), [0.5])[0, 0] == 4.0
    assert hessian(NegLog(), [3e-100])[0, 0].hex() == (1.0 / (3e-100 * 3e-100)).hex()
