import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, seed, settings
from hypothesis import strategies as st

from subproj import Ball, Box, Halfspace, NonFiniteValue, Point, project_set


def sample_sets():
    return [
        Ball([0.0, 0.0], 1.0),
        Ball([1.5, -0.3], 2.2),
        Halfspace([0.0, 1.0], 0.0),
        Halfspace([2.0, -1.0], 0.7),
        Box([-1.0, -1.0], [1.0, 1.0]),
        Box([0.0, -2.5], [0.1, 4.0]),
        Point([0.3, 0.4]),
    ]


def test_projection_examples():
    assert np.allclose(project_set(Ball([0, 0], 1.0), [2.0, 0.0]), [1.0, 0.0])
    assert np.allclose(project_set(Halfspace([0, 1], 0.0), [1.0, 2.0]), [1.0, 0.0])
    assert np.allclose(project_set(Box([-1, -1], [1, 1]), [3.0, 0.5]), [1.0, 0.5])
    assert np.allclose(project_set(Point([1.0, 2.0]), [9.0, 9.0]), [1.0, 2.0])


def test_projection_idempotent_and_contained():
    rng = np.random.default_rng(11)
    for s in sample_sets():
        for _ in range(300):
            x = rng.standard_normal(2) * rng.uniform(0.1, 50.0)
            p = s.project(x)
            assert s.contains(p)
            assert np.array_equal(s.project(p), p)


def test_projection_firmly_nonexpansive():
    rng = np.random.default_rng(12)
    for s in sample_sets():
        for _ in range(300):
            x = rng.standard_normal(2) * 5.0
            y = rng.standard_normal(2) * 5.0
            px, py = s.project(x), s.project(y)
            lhs = float(np.dot(px - py, px - py))
            rhs = float(np.dot(px - py, x - y))
            assert lhs <= rhs + 1e-12


def test_distance_matches_projection():
    rng = np.random.default_rng(13)
    for s in sample_sets():
        for _ in range(200):
            x = rng.standard_normal(2) * 5.0
            assert s.distance(x) == pytest.approx(np.linalg.norm(x - s.project(x)), abs=1e-12)


def test_construction_validation():
    with pytest.raises(ValueError):
        Ball([0, 0], 0.0)
    with pytest.raises(ValueError):
        Halfspace([0.0, 0.0], 1.0)
    with pytest.raises(ValueError):
        Box([1.0, 0.0], [0.0, 1.0])


def eager_halfspace_project(s, x):
    """Halfspace.project with its pad computed up front, before the first membership check."""
    excess = float(np.vdot(x, s.normal)) - s.offset
    if excess <= 0.0:
        return np.array(x, dtype=float)
    t = excess / s._n2
    p = x - t * s.normal
    pad = 4.0 * 2.0 ** -52 * (abs(s.offset) + np.sqrt(float(np.vdot(x, x))) * s._length) / s._n2
    while float(np.vdot(p, s.normal)) > s.offset:
        p = x - (t + pad) * s.normal
        pad *= 2.0
    return p


def test_halfspace_pads_only_a_step_left_outside_and_keeps_its_bits():
    # The pad is read only where the plain step leaves the point outside; there the
    # padded loop runs, and its result is the eager formula's, inside the halfspace.
    rng = np.random.default_rng(29)
    padded = 0
    for _ in range(400):
        n = int(rng.integers(1, 6))
        s = Halfspace(rng.standard_normal(n) * 10.0 ** rng.integers(-3, 4),
                      float(rng.standard_normal()) * 10.0 ** rng.integers(-3, 4))
        x = rng.standard_normal(n) * 10.0 ** rng.integers(-3, 4)
        excess = float(np.vdot(x, s.normal)) - s.offset
        if excess > 0.0:
            plain = x - (excess / s._n2) * s.normal
            padded += float(np.vdot(plain, s.normal)) > s.offset
        p = s.project(x)
        assert p.tobytes() == eager_halfspace_project(s, x).tobytes()
        assert s.contains(p)
    assert padded >= 20


# -- the projection where its padded step scale underflows ------------------------------

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("code, printed", [
    ("print(Halfspace([1e150], 0.0).project(np.array([1e-200])).tolist())", "[0.0]"),
    ("out = sproj(Dist(Halfspace([1e150], 0.0)), [1e-300])\n"
     "print(out.status.value, out.point.tolist())", "projected [0.0]"),
    ("x, t = solve(Problem(dimension=1, functions=[Dist(Halfspace([1e150], 0.0))],\n"
     "                     x0=[1e-300], tol=1e-310))\n"
     "print(t.status, t.iterations, x.tolist())", "Converged 1 [0.0]"),
], ids=["project", "sproj", "solve"])
def test_halfspace_project_ends_where_its_step_scale_underflows(code, printed):
    # t = excess / ||a||^2 and the pad both underflow to 0 here, and the padded loop
    # used to double a zero pad forever; a subprocess lets the test fail, not hang.
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src")] + os.environ.get("PYTHONPATH", "").split(os.pathsep)))
    run = subprocess.run(
        [sys.executable, "-W", "error", "-c",
         "import numpy as np\nfrom subproj import *\n" + code],
        capture_output=True, text=True, timeout=60, env=env)
    assert run.returncode == 0, run.stderr
    assert run.stdout == printed + "\n"


def test_halfspace_with_an_overflowing_normal_refuses_to_project():
    # ||a||^2 = 1e320 is +inf, and the projection used to come back as [nan].
    with pytest.raises(NonFiniteValue, match="^Halfspace normal's squared length overflows"):
        Halfspace([1e160], 0.0).project(np.array([1.0]))


def sqrt_bounds(q):
    """Floats just below and above the square root of a nonnegative Fraction."""
    if q == 0:
        return Fraction(0), Fraction(0)
    k = (q.numerator.bit_length() - q.denominator.bit_length()) // 2
    r = Fraction(math.sqrt(float(q / Fraction(4) ** k))) * Fraction(2) ** k
    return r * (1 - Fraction(1, 2 ** 50)), r * (1 + Fraction(1, 2 ** 50))


def scaled(draw, lo, hi):
    """0.0 one time in four, else a double of either sign with its exponent in [lo, hi]."""
    if draw(st.integers(0, 3)) == 0:
        return 0.0
    sign = draw(st.sampled_from([-1.0, 1.0]))
    return sign * math.ldexp(draw(st.floats(0.5, 1.0)), draw(st.integers(lo, hi)))


@st.composite
def edge_cases(draw):
    n = draw(st.integers(1, 5))
    a = [scaled(draw, -536, 510) for _ in range(n - 1)]
    a.append(math.ldexp(draw(st.floats(0.5, 1.0)), draw(st.integers(-536, 510))))
    x = [scaled(draw, -1074, 1000) for _ in range(n)]
    # b = <x, a> less an excess at most 60 binades below it, so that x lies outside.
    dot = float(np.vdot(x, a))
    low = -1074 if dot == 0.0 else max(math.frexp(dot)[1] - 60, -1074)
    excess = math.ldexp(draw(st.floats(0.5, 1.0)), draw(st.integers(low, low + 64)))
    b = dot - excess
    return a, x, b if math.isfinite(b) else 0.0


@seed(31)
@settings(max_examples=400, deadline=None, database=None)
@given(edge_cases())
def test_the_underflow_branch_lands_in_the_set_at_the_distance(case):
    # Halfspace._edge, the branch alone, on any finite x outside the set: it returns a
    # point of the set whose distance from x is distance(x) within the bound its
    # docstring states, checked in exact arithmetic; or it raises NonFiniteValue, and
    # then the true projection is beyond the doubles.
    a, x, b = case
    h = Halfspace(a, b)
    x = np.array(x)
    excess = float(np.vdot(x, h.normal)) - h.offset
    assume(0.0 < excess < math.inf and h._n2 < math.inf)
    exact_n2 = sum(Fraction(v) ** 2 for v in a)
    exact_excess = sum(Fraction(u) * Fraction(v) for u, v in zip(x, a)) - Fraction(b)
    try:
        p = h._edge(x, excess)
    except NonFiniteValue:
        true = [Fraction(u) - exact_excess / exact_n2 * Fraction(v) for u, v in zip(x, a)]
        assert max(map(abs, true)) > Fraction(sys.float_info.max)
        return
    assert np.isfinite(p).all() and h.contains(p)
    d = Fraction(h.distance(x))
    length = sqrt_bounds(exact_n2)[0]
    size = sqrt_bounds(sum(Fraction(v) ** 2 for v in x))[1]
    n, u, tiny = len(a), Fraction(1, 2 ** 53), Fraction(1, 2 ** 1074)
    e = (n + 2) * (8 * u + tiny / exact_n2)
    bound = e * (d + size + abs(Fraction(b)) / length) + 4 * (n + 2) * tiny * (1 + 1 / length)
    moved = sum((Fraction(v) - Fraction(w)) ** 2 for v, w in zip(p, x))
    assert max(d - bound, 0) ** 2 <= moved <= (d + bound) ** 2
