import math
import tracemalloc
import warnings
from types import BuiltinFunctionType, MethodType

import numpy as np
import pytest

from subproj import (
    Ball,
    ControlSequence,
    ConvexSet,
    DegenerateMoreau,
    DimensionMismatch,
    Dist,
    FunctionSpec,
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
from subproj import core
from subproj.core import _audit, _probe_block, _trusted


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


def _bits(v: float) -> str:
    return v.hex() if v == v else "nan"


@pytest.mark.parametrize("n", [1, 2, 3, 20, 64, 200])
def test_dot_is_vdot_bit_for_bit_from_1e_minus_300_to_1e300(n):
    # One C routine behind both, so every bit agrees, also where a product or the sum
    # underflows or overflows; norm2 and norm are the same inner product of x with x.
    rng = np.random.default_rng(2800 + n)
    scales = 10.0 ** rng.uniform(-300.0, 300.0, (2000, 2))
    for sa, sb in scales:
        a, b = rng.standard_normal(n) * sa, rng.standard_normal(n) * sb
        got = core.dot(a, b)
        assert type(got) is float
        assert _bits(got) == _bits(float(np.vdot(a, b)))
        assert _bits(core.norm2(a)) == _bits(float(np.vdot(a, a)))
        assert _bits(core.norm(a)) == _bits(math.sqrt(float(np.vdot(a, a))))


def test_dot_overflows_to_inf_silently_and_propagates_nan():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert core.dot(np.array([1e200, 1.0]), np.array([1e200, 1.0])) == math.inf
        assert core.dot(np.array([-1e200]), np.array([1e200])) == -math.inf
        assert core.norm2(np.array([1e200, 1e200])) == math.inf
        assert core.norm(np.array([1e200, 1e200])) == math.inf
        assert math.isnan(core.dot(np.array([math.nan, 1.0]), np.ones(2)))
        assert math.isnan(core.norm(np.array([1.0, math.nan])))


def test_dot_calls_numpys_c_vdot_past_its_dispatcher():
    # np.vdot is an __array_function__ dispatcher in front of a C builtin; where numpy
    # exposes no builtin behind it, the kernel falls back on np.vdot itself.
    wrapped = getattr(np.vdot, "__wrapped__", None)
    if wrapped is None:
        assert core._vdot is np.vdot
    else:
        assert core._vdot is wrapped
        assert type(core._vdot) is BuiltinFunctionType


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


@pytest.mark.parametrize("y, x, scale", [([math.inf, 0.0], [0.0, 0.0], 1.0),
                                         ([math.nan, 0.0], [0.0, 0.0], 1.0),
                                         ([0.0, 0.0], [math.inf, 1.0], math.nan)])
def test_audit_keeps_the_full_scale_of_a_competitor_that_no_scale_makes_finite(y, x, scale):
    # Halving would end at s = 0 and probe y itself; the competitor keeps its scale.
    seen = []
    with np.errstate(invalid="ignore"):
        _audit(lambda z: seen.append(z.copy()) or 1.0, np.array(y), 0.0, np.array(x),
               314159, ZeroVector, "")
    expected = np.array(y) + scale * _probe_block(314159, 2)
    assert all(np.array_equal(z, e, equal_nan=True) for z, e in zip(seen, expected, strict=True))


@pytest.mark.parametrize("value, message", [(-1.0, "audit by 1.000e+00"),
                                            (math.nan, "audit by nan")])
def test_audit_fails_a_winning_or_nan_competitor(value, message):
    with pytest.raises(ZeroVector) as exc:
        _audit(lambda z: value, np.zeros(2), 0.0, np.zeros(2), 1, ZeroVector, "audit")
    assert str(exc.value) == message


def test_audit_tolerates_a_competitor_within_its_margin():
    _audit(lambda z: -0.9e-8, np.zeros(2), 0.0, np.zeros(2), 1, ZeroVector, "audit")


class _OwnValue(Linear):
    def value(self, x):
        return super().value(x)


class _OwnRow(Linear):
    def affine_row(self):
        return super().affine_row()


class _OwnBoth(_OwnValue):
    def affine_row(self):
        return super().affine_row()


class _OwnDistance(Halfspace):
    def distance(self, x):
        return super().distance(x)


class _OwnAtom(FunctionSpec):
    """A new atom, defined outside the package, with its own value and row."""

    dim = 1

    def value(self, x):
        return float(x[0])

    def affine_row(self):
        return np.ones(1), 0.0


# A class outside the package is evaluated by its own oracles, whatever it defines.
@pytest.mark.parametrize("obj, fast, trusted, on_class", [
    (Linear([1.0]), "affine_row", True, {}),
    (_OwnValue([1.0]), "affine_row", False, {}),  # the row was written for Linear.value
    (_OwnRow([1.0]), "affine_row", False, {}),
    (_OwnBoth([1.0]), "affine_row", False, {}),
    (Halfspace([1.0], 0.0), "affine_row", True, {}),
    (_OwnDistance([1.0], 0.0), "affine_row", False, {}),
    # Rows that were asked against two oracles: the class alone decides.
    (_OwnRow([1.0]), "_bind_margin", False, {}),
    (_OwnValue([1.0]), "_bind_margin", False, {}),
    (_OwnAtom(), "affine_row", False, {}),
    (type("Near", (Linear,), {"__module__": "subprojects"})([1.0]), "affine_row", False, {}),
    # A library oracle replaced on its own class, as a tracer's wrapper is, is the
    # function the class holds.
    (Linear([1.0]), "affine_row", True,
     {"value": lambda self, x, value=Linear.value: value(self, x)}),
], ids=["linear", "own-value", "own-row", "own-both", "halfspace", "own-distance",
        "two-oracles", "one-of-two-overridden", "own-atom", "near-name", "class-value"])
def test_a_fast_path_is_trusted_only_on_the_packages_own_classes(monkeypatch, obj, fast,
                                                                  trusted, on_class):
    for name, func in on_class.items():
        monkeypatch.setattr(type(obj), name, func)
    assert _trusted(obj, fast) is trusted


@pytest.mark.parametrize("name, value", [
    ("affine_row", lambda: (np.ones(1), 1.0)), ("value", lambda x: 1.0),
    ("_prox_map", lambda: None),
], ids=["instance-row", "instance-value", "instance-second-oracle"])
def test_an_oracle_cannot_be_assigned_on_a_library_instance(name, value):
    # A library atom is slotted: no instance attribute can shadow the oracle that its
    # row speaks for, so the class check alone decides.  A subclass defined elsewhere
    # takes the attribute, and is not trusted.
    f = Linear([1.0])
    with pytest.raises(AttributeError):
        setattr(f, name, value)
    assert _trusted(f, "affine_row") and getattr(f, name).__func__ is getattr(Linear, name)
    own = _OwnRow([1.0])
    setattr(own, name, value)
    assert not _trusted(own, "affine_row")


# The three fast paths of a solve (the affine row, the radius and the fused cut
# normal), each with the oracles it stands in for.
_FAST_PATHS = [("affine_row", ("value",)), ("_bind_margin", ("value",)),
               ("_cut_normal", ("subgradient", "value"))]


@pytest.mark.parametrize("fast, oracles", _FAST_PATHS, ids=["row", "radius", "cut-normal"])
def test_a_method_cannot_be_borrowed_from_another_instance(fast, oracles):
    # g.value = h.value would keep the class's own function, but bound to h, on another
    # halfspace: g's row, radius or cut normal would speak for h's oracle.  A function
    # of its own bound to g itself would too.  Neither can be assigned.
    for name in (fast, *oracles):
        for borrowed in ("other instance", "other function"):
            g, h = Dist(Halfspace([1.0, 0.0], 0.0)), Dist(Halfspace([0.0, 1.0], 3.0))
            assert _trusted(g, fast)
            method = getattr(type(g), name)
            with pytest.raises(AttributeError):
                setattr(g, name, getattr(h, name) if borrowed == "other instance" else
                        MethodType(lambda self, *args, method=method: method(self, *args), g))
            bound = getattr(g, name)
            assert _trusted(g, fast), (name, borrowed)
            assert bound.__self__ is g and bound.__func__ is method, (name, borrowed)


def test_a_fast_path_that_only_the_instance_defines_is_not_trusted():
    # No class defines the name: the instance cannot take it, and asking raises nothing.
    g = Dist(Halfspace([1.0, 0.0], 0.0))
    with pytest.raises(AttributeError):
        g.own_row = MethodType(lambda self: None, g)
    assert not _trusted(g, "own_row")


def _package_classes(base):
    """base and every subclass of it, at any depth, defined in a module of the package."""
    found, todo = [], [base]
    while todo:
        cls = todo.pop()
        found += [cls] if cls.__module__.startswith("subproj.") else []
        todo += cls.__subclasses__()
    return found


def test_no_instance_of_a_package_atom_set_or_control_has_a_dict():
    # _trusted lets the class decide because no instance of a package class can shadow
    # a method: one class without __slots__, here or in its bases, would void that.
    classes = [cls for base in (FunctionSpec, ConvexSet, ControlSequence)
               for cls in _package_classes(base)]
    names = {cls.__name__ for cls in classes}
    assert {"Dist", "AffineMax", "MoreauEnv", "InfConv", "Halfspace", "Point",
            "QuasiCyclic", "Explicit"} <= names and len(classes) >= 30
    assert [cls.__name__ for cls in classes if cls.__dictoffset__ != 0] == []
    for obj in (Dist(Halfspace([1.0], 0.0)), Halfspace([1.0], 0.0), Linear([1.0])):
        with pytest.raises(TypeError):
            vars(obj)
    # A subclass defined elsewhere has a dict, as the check expects.
    assert type("Own", (Dist,), {}).__dictoffset__ != 0


def test_trust_builds_no_instance_dict():
    # Reading obj.__dict__ built one per checked object, 62 B for a Dist on CPython 3.11.
    fs = [Dist(Ball([0.0, 0.0], 1.0)) for _ in range(1000)]
    for fast, _oracles in _FAST_PATHS:  # a first ask of each, outside the count
        _trusted(Dist(Ball([0.0, 0.0], 1.0)), fast)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for f in fs:
            for fast, _oracles in _FAST_PATHS:
                _trusted(f, fast)
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert grown < 8 * len(fs)



def test_a_trust_verdict_is_drawn_once_per_class():
    # The verdict is kept per (class, fast path): a second object of the class asks the
    # class nothing again.  Own is a fresh class, so its first ask cannot hit.
    Own = type("Own", (Linear,), {})
    misses = core._class_trusted.cache_info().misses
    assert not any(_trusted(Own([float(k)]), "affine_row") for k in range(5))
    assert core._class_trusted.cache_info().misses == misses + 1
    assert not _trusted(Own([1.0]), "_bind_margin")
    assert core._class_trusted.cache_info().misses == misses + 2
