"""Relaxed quasi-cyclic subgradient projection solver for convex feasibility.

Given functions f_1 .. f_m whose zero sublevel sets intersect, the iteration

    x_{n+1} = x_n + lam_n (G_{f_{i(n)}} x_n - x_n),   lam_n in [eps, 2 - eps],

visits the constraints in the order prescribed by a control sequence in which
every index recurs within a bounded window.  Distances to any feasible point
are nonincreasing along the run (Fejer monotonicity), and the solver stops once
the residual max_i [f_i(x)]_+ drops to the tolerance or the iteration budget
runs out.  A solve is single threaded and fully deterministic: the same
problem produces a bit-identical trace.

The convergence theory behind the iteration assumes each f_i is finite
everywhere with subdifferentials bounded on bounded sets; the solver checks
the finiteness structurally and records the boundedness assumption in the
trace, since it cannot be verified numerically for user-supplied oracles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import count, cycle, islice
from numbers import Integral, Real
from typing import Iterator, Optional, Sequence

import numpy as np

from .core import AffineRows, _trusted, as_vector, finite_float, norm
from .errors import (
    DomainError,
    InvalidControl,
    InvalidSpec,
    NonFiniteValue,
    RelaxationOutOfRange,
    StalledStep,
)
from .functions import INF, LEAST_INDEX, FunctionSpec, SelectionStrategy, _margin_oracle
from .projector import _cut

# Below this step scale a positive residual can no longer move the iterate.
STALL_FLOOR = 1e-300

TRACE_ASSUMPTION = "subdifferentials-bounded-on-bounded-sets"


# ---------------------------------------------------------------------------
# control sequences
# ---------------------------------------------------------------------------

class ControlSequence:
    """Order in which constraint indices are visited.

    A control defines one method, ``_stream(m)``: the endless index sequence
    for m functions, with its phase.  ``indices`` is a view of the sequence,
    and the solver walks it.
    """

    window_bounds: Optional[list[int]] = None  # None: every index need only appear

    def _stream(self, m: int) -> tuple[Iterator[int], Optional[int]]:
        """``(stream, phase)``: the endless index sequence for m functions, checked
        before the first index, and a phase Q such that index n depends only on
        n mod Q and the waits n - (last visit of i), or None if none is known."""
        raise NotImplementedError(
            f"{type(self).__name__} defines no _stream(m); a control defines that one "
            "method, and indices(m, horizon) is a view of it")

    def indices(self, m: int, horizon: int) -> list[int]:
        """The first ``horizon`` indices."""
        return list(islice(self._stream(m)[0], horizon))

    def windows(self, m: int) -> list[Optional[int]]:
        """Declared window bound per index (None when only presence is required)."""
        if self.window_bounds is None:
            return [None] * m
        if m != len(self.window_bounds):
            raise InvalidControl(
                f"{len(self.window_bounds)} window bounds for {m} functions")
        return list(self.window_bounds)


def _integers(values: Sequence[int], what: str) -> list[int]:
    """``values`` as a list of ints, raising InvalidControl on any that is not an integer."""
    out = list(values)
    # type(v) is int first: the ABC check alone costs ten times as much.
    if not all(type(v) is int or isinstance(v, Integral) and not isinstance(v, bool)
               for v in out):
        raise InvalidControl(f"{what} must be integers")
    return [int(v) for v in out]


def _window_bounds(window_bounds: Sequence[int]) -> list[int]:
    """Declared window bounds as ints, raising InvalidControl on any below 1."""
    bounds = _integers(window_bounds, "window bounds")
    if any(w < 1 for w in bounds):
        raise InvalidControl("window bounds must be >= 1")
    return bounds


@lru_cache(maxsize=16)
def _turns(windows: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
    """The order in which QuasiCyclic visits the indices of each distinct window.

    ``heads[j]`` is the first index of the j-th distinct window ``bounds[j]``,
    and ``after[i]`` the index of i's window visited after i: the next larger
    one, or the smallest after the largest.  Cached, so that the two streams of
    a solve, validation's and the run's, group the windows once; the tuples
    are shared, and a schedule copies the heads it moves.
    """
    groups: dict[int, list[int]] = {}
    for i, w in enumerate(windows):
        groups.setdefault(w, []).append(i)
    after = [0] * len(windows)
    for g in groups.values():
        for a, b in zip(g, g[1:] + g[:1]):
            after[a] = b
    return tuple(g[0] for g in groups.values()), tuple(groups), tuple(after)


class Cyclic(ControlSequence):
    """0, 1, ..., m-1, 0, 1, ...; every index recurs within a window of m."""

    def _stream(self, m):
        return cycle(range(m)), m

    def windows(self, m):
        return [m] * m

    def __repr__(self):
        return "Cyclic()"


class QuasiCyclic(ControlSequence):
    """Deterministic schedule honoring per-index window bounds M_i.

    At each step the index with the largest normalized waiting time
    (steps since last visit divided by its window) is chosen, ties broken by
    longest absolute wait and then by smallest index.  The produced sequence
    is validated against the declared windows before a solve runs.

    Among indices that share a window, the largest key belongs to the one
    that has waited longest, the smallest index first; once visited it has
    waited least.  So the indices of one window are visited in turn, in
    increasing order, and a step compares only the next index of each
    distinct window, whose last visit it keeps, starting from the first
    window's.  The next index depends only on the waits, so its phase is 1.
    """

    def __init__(self, window_bounds: Sequence[int]):
        self.window_bounds = _window_bounds(window_bounds)

    def _stream(self, m):
        return self._schedule(m, tuple(self.windows(m))), 1

    @staticmethod
    def _schedule(m, windows):
        heads, bounds, after = _turns(windows)
        heads = list(heads)  # moved at every step
        del windows  # the frame keeps only what a step reads
        last = [-1] * m
        due = [-1] * len(heads)  # the last visit of each distinct window's head
        rest = range(1, len(heads))
        for n in count():
            best, wait, j = heads[0], n - due[0], 0
            ratio = wait / bounds[0]
            for k in rest:
                r = (n - due[k]) / bounds[k]
                if r >= ratio:  # the wait is formed again only for a contender
                    w = n - due[k]
                    if r > ratio or w > wait or w == wait and heads[k] < best:
                        best, ratio, wait, j = heads[k], r, w, k
            yield best
            last[best] = n
            heads[j] = i = after[best]
            due[j] = last[i]

    def __repr__(self):
        return f"QuasiCyclic(window_bounds={self.window_bounds})"


class Explicit(ControlSequence):
    """A user-given index list, repeated to cover the horizon.

    Optional declared windows are validated against the produced sequence;
    without them only presence of every index over the horizon is required.
    """

    def __init__(self, index_list: Sequence[int], window_bounds: Optional[Sequence[int]] = None):
        self.index_list = _integers(index_list, "explicit indices")
        if not self.index_list:
            raise InvalidControl("the index list must be nonempty")
        self.window_bounds = None if window_bounds is None else _window_bounds(window_bounds)

    def _stream(self, m):
        if any(i < 0 or i >= m for i in self.index_list):
            raise InvalidControl("explicit index out of range")
        return cycle(self.index_list), len(self.index_list)

    def __repr__(self):
        return f"Explicit(index_list={self.index_list}, window_bounds={self.window_bounds})"


@dataclass(frozen=True)
class ControlViolation:
    """A window of the control sequence missing the required index."""

    index: int
    window_start: int
    window_len: int

    def __str__(self):
        return (f"index {self.index} missing from window "
                f"[{self.window_start}, {self.window_start + self.window_len - 1}]")


def validate_control(control: ControlSequence, m: int, horizon: int) -> list[ControlViolation]:
    """Scan every admissible window over the horizon; violations are data, not errors.

    The scan walks the control's indices once and keeps only each index's
    last visit; the violations come sorted by index and start.  An index
    outside [0, m) raises InvalidControl, naming the index and its step.

    The control's phase Q says that index n depends only on n mod Q and the
    waits n - last[i], so the walk finds where the stream repeats by cycle
    detection on that state.  It keeps two checkpoints, each a copy of
    ``last`` after some c indices: Brent's, taken at c = 1, 2, 4, ... (Brent,
    BIT 20(2), 1980), and a finer one, retaken every ``step`` indices from Q
    on, step being Q times a power of two that doubles while 16 step <= c.
    Where the stream starts to repeat at step T, Brent's copy may lie almost
    2T in, the finer one about T/8 past T; the finer one finds only a period
    of at most one step, and Brent's any other, as before.

    A match against either checkpoint is a period.  Say that after k indices,
    with k - c a multiple of Q, each index's last visit lies k - c after the
    copy's.  Then each wait k - last[i] equals the wait c - saved[i] at c,
    and k mod Q equals c mod Q, so index k is index c.  Visiting it at k and
    at c leaves the waits equal again, so by induction index k + j is index
    c + j for every j >= 0: the stream repeats with period P = k - c from
    some step T <= c on.  Nothing in this rests on how c was chosen.  Brent's
    checkpoint is kept as it was, so the walk finds a period no later than
    with it alone.

    The stream is then walked only over its first L = k + W indices, W the
    largest declared window, when that prefix misses no window (a
    presence-only index: when it appears in the prefix).  A window missed
    anywhere in the horizon is missed within L: one that starts at or after
    T, shifted back by multiples of P to start in [T, T + P), sees the same
    indices and ends before L; one that starts before T ends before T + W.
    Likewise an index present anywhere appears before T + P.  Where the
    prefix misses a window, or the phase is None, the same walk goes on over
    the whole horizon, so the list is always the full scan's.
    """
    if m < 1:
        raise InvalidControl("need at least one function")
    windows = control.windows(m)
    if any(w is not None and w > horizon for w in windows):
        raise ValueError("horizon must cover the largest declared window")
    # A presence-only index has the whole horizon as its window, missed only if it never appears.
    bound = [horizon if w is None else w for w in windows]
    widest = max((w for w in windows if w is not None), default=0)
    stream, phase = control._stream(m)
    # Brent's checkpoint: a copy of last after c indices, and the index visited
    # last before it; waits equal to the copy's need that same index last.
    saved, c, mark = None, 0, -1
    check = horizon if phase is None else 1  # the next step count to take stock at
    # The finer checkpoint, the same after c2 indices, retaken every step indices
    # from Q on; with no phase, at step 0, which the walk never reaches.
    saved2, c2, mark2 = None, 0, -1
    step = retake = 0 if phase is None else phase
    last = [-1] * m
    violations = []
    k = 0
    for i in islice(stream, horizon):
        if not 0 <= i < m:
            raise InvalidControl(f"control index {i} at step {k} is outside [0, {m})")
        if k - last[i] > bound[i]:
            violations.append(ControlViolation(i, last[i] + 1, bound[i]))
        last[i] = k
        k += 1
        if (i == mark and (k - c) % phase == 0
                and all(a - b == k - c for a, b in zip(last, saved))
                or i == mark2 and (k - c2) % phase == 0
                and all(a - b == k - c2 for a, b in zip(last, saved2))):
            # The stream repeats from c or c2 on: take stock of the prefix W indices later.
            mark = mark2 = -1
            phase, check, retake = None, min(horizon, k + widest), 0
        if k == retake:
            saved2, c2, mark2 = last[:], k, i
            while step * 16 <= k:
                step *= 2
            retake = k + step
        if k == check:
            if phase is not None:  # a checkpoint
                saved, c, mark, check = last[:], k, i, 2 * k
            elif not violations and all(k - a <= min(b, k) for a, b in zip(last, bound)):
                return []
    for i in range(m):
        if horizon - last[i] > bound[i]:
            violations.append(ControlViolation(i, last[i] + 1, bound[i]))
    violations.sort(key=lambda v: v.index)
    return violations


# ---------------------------------------------------------------------------
# problems and traces
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Problem:
    """A convex feasibility problem: find x with f_i(x) <= 0 for every i.

    Frozen, so that no field can be reassigned past the checks of its construction.
    """

    dimension: int
    functions: list[FunctionSpec]
    x0: np.ndarray
    control: ControlSequence = field(default_factory=Cyclic)
    relaxation: float | Sequence[float] = 1.0
    epsilon: float = 0.05
    selections: SelectionStrategy | Sequence[SelectionStrategy] = LEAST_INDEX
    tol: float = 1e-8
    max_iter: int = 100_000
    feasible_witness: Optional[np.ndarray] = None

    def __post_init__(self):
        # A bool is refused as the problem-file reader refuses it, not taken as 1 or 0.
        for name in ("dimension", "epsilon", "tol", "max_iter"):
            if isinstance(getattr(self, name), (bool, np.bool_)):
                raise InvalidSpec(f"{name} must be a number, not a bool")
        if not self.functions:
            raise InvalidSpec("a problem needs at least one function")
        object.__setattr__(self, "x0", as_vector(self.x0, dim=self.dimension))
        for f in self.functions:
            if f.dim != self.dimension:
                raise InvalidSpec("every function must match the problem dimension")
            if not f.domain_is_full:
                raise InvalidSpec(
                    f"{type(f).__name__} is not finite on the whole space; "
                    "the iteration requires real-valued constraints")
        if not 0.0 < self.epsilon <= 1.0:
            raise InvalidSpec("epsilon must lie in (0, 1]")
        finite_float(self.tol, "tol", InvalidSpec)
        if not isinstance(self.max_iter, Integral):
            raise InvalidSpec("max_iter must be an integer")
        if self.tol <= 0.0 or self.max_iter < 1:
            raise InvalidSpec("tol must be positive and max_iter >= 1")
        if isinstance(self.selections, SelectionStrategy):
            object.__setattr__(self, "selections", [self.selections] * len(self.functions))
        else:
            object.__setattr__(self, "selections", list(self.selections))
            if len(self.selections) != len(self.functions):
                raise InvalidSpec("one selection strategy per function is required")
        object.__setattr__(self, "relaxation", _relaxation(self.relaxation))
        lo, hi = self.epsilon, 2.0 - self.epsilon
        for lam in self._relaxation_base():
            if not lo <= lam <= hi:
                raise RelaxationOutOfRange(
                    f"lambda = {lam} outside [{lo}, {hi}] for epsilon = {self.epsilon}")
        if self.feasible_witness is not None:
            object.__setattr__(self, "feasible_witness",
                               as_vector(self.feasible_witness, dim=self.dimension))

    def _relaxation_base(self) -> list[float]:
        r = self.relaxation
        return [r] if isinstance(r, float) else r

    def relaxation_schedule(self, horizon: int) -> list[float]:
        """First ``horizon`` relaxation values (a finite schedule repeats)."""
        base = self._relaxation_base()
        reps = -(-horizon // len(base))
        return (base * reps)[:horizon]


def _relaxation(value) -> float | list[float]:
    """``value`` as Problem keeps it: a real scalar, a 0-d array too, as a float, and a
    sequence as a nonempty list of floats.  A bool is refused, alone or in a sequence,
    as the problem-file reader refuses it."""
    try:
        values = iter(value)
    except TypeError:  # a scalar, a 0-d array too
        return _lam(value)
    vals = [_lam(v) for v in values]
    if not vals:
        raise InvalidSpec("the relaxation schedule must be nonempty")
    return vals


def _lam(v) -> float:
    if isinstance(v, np.ndarray):
        v = v[()]  # a 0-d array's scalar
    if isinstance(v, bool) or not isinstance(v, Real):
        raise InvalidSpec(f"a relaxation must be a real number, not {v!r}")
    return float(v)


@dataclass(slots=True)
class TraceRow:
    """One executed iteration: x_{n+1} statistics under constraint i(n).

    Slotted: a solve keeps one row per iteration, so the trace is most of the
    memory a long solve holds.  Not frozen: a frozen dataclass sets each field
    through ``object.__setattr__``, which costs a row several times as much to
    build.  A row is therefore mutable and unhashable, like the trace's list.
    """

    n: int
    index: int
    lam: float
    residual: float
    step_norm: float
    dist_to_witness: Optional[float] = None


@dataclass
class SolveTrace:
    """Complete, replayable record of a solve."""

    rows: list[TraceRow]
    status: str  # "Converged" or "MaxIterReached"
    x_final: np.ndarray
    final_residual: float  # the residual at x_final, x0's when no step ran
    assumption: str = TRACE_ASSUMPTION

    @property
    def iterations(self) -> int:
        return len(self.rows)


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def residual(p: Problem, x) -> float:
    """Infeasibility measure max_i [f_i(x)]_+ (zero exactly on the target set)."""
    return _values(p, as_vector(x, dim=p.dimension))[0]


def _values(p: Problem, x: np.ndarray) -> tuple[float, list[float]]:
    """The residual at a checked vector x, with the value f_i(x) of every constraint."""
    values = [0.0] * len(p.functions)
    return _evaluate(enumerate(p.functions), x, values), values


# Shrinks a budget after its subtraction, so that the rounded difference stays at or
# below the exact one: fl(b - s) (1 - 2**-52) rounds to less than b - s where that is
# normal, and a subnormal difference is exact.
_SHRINK = 1.0 - 2.0 ** -52


def _evaluate(rows, x: np.ndarray, values: list[float], margins=None, budget=None,
              spent: float = 0.0, cut: Optional[int] = None) -> float:
    """Store f(x) at values[i] for each (i, f) of rows, in order, and return the largest
    positive one (0.0 if none), raising where a value is +inf or NaN.

    With ``margins``, a constraint i with a margin (``margins[i]``, its radius oracle)
    first takes ``spent``, a bound on the step since it was last reached, off its
    budget ``budget[i]``.  One with budget left is proved <= 0, so it is not
    evaluated and holds 0.0; the others are computed by ``value``, and their new
    budget is the margin's radius where that value is <= 0, else 0.0.  The constraint
    ``cut``, whose relaxed projection at lambda <= 1 gave x, gets 0.0 without an
    ask: x lies on the segment from the last iterate to the projection onto a
    cutting halfspace that contains the constraint's zero sublevel set, so outside
    the halfspace's interior, and no ball around x lies in that sublevel set.
    """
    worst = 0.0
    for i, f in rows:
        margin = margins.get(i) if margins else None
        if margin is not None:
            left = budget[i]
            if left > spent:
                budget[i] = (left - spent) * _SHRINK
                values[i] = 0.0
                continue
        v = f.value(x)
        if margin is not None:
            budget[i] = margin(x, v) if v <= 0.0 and i != cut else 0.0
        if v > worst:
            if v == INF:
                raise DomainError("residual undefined where a constraint is +inf")
            worst = v
        elif v != v:
            raise NonFiniteValue(f"{type(f).__name__} value is NaN")
        values[i] = v
    return worst


class _AffineBlock:
    """The screens of a solve: the constraints that expose an affine row, screened
    together, and a margin budget for each of the others.  It is the one place that
    resolves a constraint's three fast paths, each once per solve under
    ``core._trusted``: its affine row, its radius oracle (``functions._margin_oracle``)
    and, in ``fused[i]``, whether ``solve`` may cut it by ``FunctionSpec._cut_normal``
    from the value it holds, in place of ``subgradient``.

    ``values(x, step)`` gives the residual of ``_values``, bit for bit, and the
    values the solve uses.  The affine screen takes them from one matrix-vector
    product and its rounding bounds (``core.AffineRows``).  An affine constraint
    is computed by its own oracle only where the bounds cannot settle it: where
    it could be the largest value.  Of the others, one proved <= 0 holds its
    negative block value, and one of unsettled sign holds NaN, to be computed
    when the solve visits it.  Oracles are pure, so each computed value is the
    plain loop's.  The other constraints are computed as in ``_values``, in order;
    an affine oracle cannot raise within the screen's range, so any error is the
    plain loop's.  Where the screen is not used (too few affine rows, one row or
    offset, or the iterate, as long as ``core.SCREEN_MAX``), the plain loop runs
    instead.  A row is taken only from a constraint whose ``affine_row`` is
    defined where its ``value`` is, or below (``core._trusted``); one whose class
    overrides ``value`` alone is one of the others.

    The margin screen covers every constraint that the affine screen does not:
    the others, or all of them where the screen is never used.  Each one that states a
    radius (``FunctionSpec._bind_margin``, trusted against ``value``) has a budget: the
    radius its oracle last gave at a value <= 0 from ``value``, less a bound on each
    step since (``_evaluate``).
    The computed step norm of an n-vector difference understates its length by at most
    (n/2 + 3) u and an underflow term, which ``_stretch`` and ``_tiny`` cover.
    A constraint with budget left is <= 0 within its radius, where its value
    raises nothing; it holds 0.0, and its visit is a fixed step.
    """

    def __init__(self, p: Problem):
        self.p = p
        m, n = len(p.functions), p.dimension
        # One byte per constraint (a list of bound methods would hold about 64 B more
        # each), resolved before the row buffer exists, so that its ask adds no peak.
        self.fused = bytes(_trusted(f, "_cut_normal", "subgradient", "value") for f in p.functions)
        # Filled in place, so no second copy of the rows exists; at most m x n
        # doubles, as when every constraint is affine.
        rows = np.empty((m, n))
        offsets = np.empty(m)
        self.index: list[int] = []
        self.others = []
        for i, f in enumerate(p.functions):
            row = f.affine_row() if _trusted(f, "affine_row", "value") else None
            if row is None:
                self.others.append((i, f))
            else:
                k = len(self.index)
                rows[k], offsets[k] = row
                self.index.append(i)
        k = len(self.index)
        if k < m:  # a view would keep all m rows alive
            rows, offsets = rows[:k].copy(), offsets[:k].copy()
        self.rows = AffineRows(rows, offsets)
        self._scatter = np.array(self.index) if self.others else slice(None)
        self.margins = {}
        for i, f in self.others if self.rows.used else enumerate(p.functions):
            margin = _margin_oracle(f)
            if margin is not None:
                self.margins[i] = margin
        self.budget = dict.fromkeys(self.margins, 0.0)
        self._stretch = 1.0 + (n + 10) * 2.0 ** -53
        self._tiny = (n + 8) * 2.0 ** -537

    def values(self, x: np.ndarray, step: float = math.inf,
               cut: Optional[int] = None) -> tuple[float, list[float]]:
        """The residual at x and the values the solve uses, x being ``step`` from the
        last iterate that this block evaluated (any distance, by default), and ``cut``
        the constraint whose step at lambda <= 1 gave x, if any (``_evaluate``)."""
        spent = step * self._stretch + self._tiny
        # An unused screen is not asked: at m = 2 its answer costs a sixth of this call.
        g, hi, contenders = self.rows.screen(x) if self.rows.used else (None, None, None)
        if g is None:
            values = [0.0] * len(self.p.functions)
            return (_evaluate(enumerate(self.p.functions), x, values, self.margins, self.budget,
                              spent, cut), values)
        g[hi > 0.0] = np.nan
        full = np.empty(len(self.p.functions))
        full[self._scatter] = g
        values = full.tolist()
        worst = _evaluate(self.others, x, values, self.margins, self.budget, spent, cut)
        for k in contenders(worst):
            i = self.index[k]
            v = values[i] = self.p.functions[i].value(x)
            if v > worst:
                worst = v
        return worst, values


def _check_control(p: Problem, m: int) -> None:
    """Raise InvalidControl, naming the first five missed windows, where the control
    misses one within max(max_iter, largest declared window) steps.  A function of
    its own, so that nothing of the check stays alive through the run."""
    declared = [w for w in p.control.windows(m) if w is not None]
    violations = validate_control(p.control, m, max([p.max_iter] + declared))
    if violations:
        raise InvalidControl("; ".join(str(v) for v in violations[:5]))


def solve(p: Problem) -> tuple[np.ndarray, SolveTrace]:
    """Run the relaxed quasi-cyclic projection iteration until residual <= tol.

    Raises InvalidControl when the control sequence misses its coverage
    windows over the horizon, StalledStep when a positive residual can no
    longer move the iterate (step size underflow), and NonFiniteValue when an
    iterate overflows.
    """
    m = len(p.functions)
    _check_control(p, m)
    lams = p._relaxation_base()

    witness = p.feasible_witness
    x = np.array(p.x0)
    rows: list[TraceRow] = []
    status = "MaxIterReached"

    res, values = _values(p, x)
    if res <= p.tol:
        return x, SolveTrace([], "Converged", x, res)
    x = x + 0.0  # -0.0 entries become +0.0, as x + lam (G x - x) makes them on any step
    dist = None if witness is None else norm(x - witness)
    # x0 runs the plain loop, which calls every value oracle: the block's affine screen
    # settles a row without calling value, so an oracle replaced on its own class (a
    # Dist.value set to NaN) could go unseen there.  The block is built at the first
    # projected step, before its cut, which reads the block's fused[i].
    block = None

    # Oracles are pure, so the values at x hold until the iterate moves: a step
    # on a satisfied constraint (G x = x) leaves x, and everything measured at
    # it, as it is.
    for n, i in zip(range(p.max_iter), p.control._stream(m)[0]):
        lam = lams[n % len(lams)]
        fx = values[i]
        if fx != fx:  # a value the block left to the visit
            fx = values[i] = p.functions[i].value(x)
        step = 0.0
        if fx > 0.0:
            if block is None:
                block = _AffineBlock(p)
            f = p.functions[i]
            # Passed straight to _cut: a normal bound to a local would outlive the step.
            point, step_scale = _cut(x, f._cut_normal(x, fx) if block.fused[i]
                                     else f.subgradient(x, p.selections[i]), fx)
            if step_scale < STALL_FLOOR:
                raise StalledStep(
                    f"step size {step_scale:.3e} underflowed at iteration {n}")
            x_next = x + lam * (point - x)
            # x is finite, so a finite step proves x_next finite.
            step = norm(x_next - x)
            if not math.isfinite(step) and not np.isfinite(x_next).all():
                raise NonFiniteValue(f"iteration {n} produced a non-finite iterate")
            # At lam <= 1 the step stops at or short of the cut: f_i has no radius there.
            res, values = block.values(x_next, step, i if lam <= 1.0 else None)
            if witness is not None:
                dist = norm(x_next - witness)
            x = x_next
        # Positional: keyword arguments cost a row twice as much to build.
        rows.append(TraceRow(n, i, lam, res, step, dist))
        if res <= p.tol:
            status = "Converged"
            break

    return x, SolveTrace(rows, status, x, res)
