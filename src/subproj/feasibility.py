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

from dataclasses import dataclass, field
from numbers import Integral
from typing import Optional, Sequence

import numpy as np

from .core import as_vector, finite_float, norm, norm2
from .errors import (
    DomainError,
    InvalidControl,
    InvalidSpec,
    NonFiniteValue,
    RelaxationOutOfRange,
    StalledStep,
)
from .functions import INF, LEAST_INDEX, FunctionSpec, SelectionStrategy
from .projector import ProjStatus, sproj

# Below this step scale a positive residual can no longer move the iterate.
STALL_FLOOR = 1e-300

TRACE_ASSUMPTION = "subdifferentials-bounded-on-bounded-sets"


# ---------------------------------------------------------------------------
# control sequences
# ---------------------------------------------------------------------------

class ControlSequence:
    """Order in which constraint indices are visited."""

    window_bounds: Optional[list[int]] = None  # None: every index need only appear

    def indices(self, m: int, horizon: int) -> list[int]:
        raise NotImplementedError

    def windows(self, m: int) -> list[Optional[int]]:
        """Declared window bound per index (None when only presence is required)."""
        if self.window_bounds is None:
            return [None] * m
        if m != len(self.window_bounds):
            raise InvalidControl(
                f"{len(self.window_bounds)} window bounds for {m} functions")
        return list(self.window_bounds)


def _window_bounds(window_bounds: Sequence[int]) -> list[int]:
    """Declared window bounds as ints, raising InvalidControl on any below 1."""
    bounds = [int(w) for w in window_bounds]
    if any(w < 1 for w in bounds):
        raise InvalidControl("window bounds must be >= 1")
    return bounds


class Cyclic(ControlSequence):
    """0, 1, ..., m-1, 0, 1, ...; every index recurs within a window of m."""

    def indices(self, m, horizon):
        return [n % m for n in range(horizon)]

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
    """

    def __init__(self, window_bounds: Sequence[int]):
        self.window_bounds = _window_bounds(window_bounds)

    def indices(self, m, horizon):
        windows = self.windows(m)
        last = [-1] * m
        out = []
        for n in range(horizon):
            best = max(range(m),
                       key=lambda i: ((n - last[i]) / windows[i], n - last[i], -i))
            out.append(best)
            last[best] = n
        return out

    def __repr__(self):
        return f"QuasiCyclic(window_bounds={self.window_bounds})"


class Explicit(ControlSequence):
    """A user-given index list, repeated to cover the horizon.

    Optional declared windows are validated against the produced sequence;
    without them only presence of every index over the horizon is required.
    """

    def __init__(self, index_list: Sequence[int], window_bounds: Optional[Sequence[int]] = None):
        self.index_list = [int(i) for i in index_list]
        if not self.index_list:
            raise InvalidControl("the index list must be nonempty")
        self.window_bounds = None if window_bounds is None else _window_bounds(window_bounds)

    def indices(self, m, horizon):
        if any(i < 0 or i >= m for i in self.index_list):
            raise InvalidControl("explicit index out of range")
        reps = -(-horizon // len(self.index_list))
        return (self.index_list * reps)[:horizon]

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
    """Scan every admissible window over the horizon; violations are data, not errors."""
    return _scan(control, m, horizon)[1]


def _scan(control: ControlSequence, m: int,
          horizon: int) -> tuple[list[int], list[ControlViolation]]:
    """The control's first ``horizon`` indices and the windows they miss, by index and start."""
    if m < 1:
        raise InvalidControl("need at least one function")
    windows = control.windows(m)
    if any(w is not None and w > horizon for w in windows):
        raise ValueError("horizon must cover the largest declared window")
    # A presence-only index has the whole horizon as its window, missed only if it never appears.
    bound = [horizon if w is None else w for w in windows]
    seq = control.indices(m, horizon)
    last = [-1] * m
    violations = []
    for n, i in enumerate(seq):
        if 0 <= i < m:
            if n - last[i] > bound[i]:
                violations.append(ControlViolation(i, last[i] + 1, bound[i]))
            last[i] = n
    for i in range(m):
        if horizon - last[i] > bound[i]:
            violations.append(ControlViolation(i, last[i] + 1, bound[i]))
    violations.sort(key=lambda v: v.index)
    return seq, violations


# ---------------------------------------------------------------------------
# problems and traces
# ---------------------------------------------------------------------------

@dataclass
class Problem:
    """A convex feasibility problem: find x with f_i(x) <= 0 for every i."""

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
        if not self.functions:
            raise InvalidSpec("a problem needs at least one function")
        self.x0 = as_vector(self.x0, dim=self.dimension)
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
            self.selections = [self.selections] * len(self.functions)
        else:
            self.selections = list(self.selections)
            if len(self.selections) != len(self.functions):
                raise InvalidSpec("one selection strategy per function is required")
        lo, hi = self.epsilon, 2.0 - self.epsilon
        for lam in self._relaxation_base():
            if not lo <= lam <= hi:
                raise RelaxationOutOfRange(
                    f"lambda = {lam} outside [{lo}, {hi}] for epsilon = {self.epsilon}")
        if self.feasible_witness is not None:
            self.feasible_witness = as_vector(self.feasible_witness, dim=self.dimension)

    def _relaxation_base(self) -> list[float]:
        if isinstance(self.relaxation, (int, float)):
            return [float(self.relaxation)]
        vals = [float(v) for v in self.relaxation]
        if not vals:
            raise InvalidSpec("the relaxation schedule must be nonempty")
        return vals

    def relaxation_schedule(self, horizon: int) -> list[float]:
        """First ``horizon`` relaxation values (a finite schedule repeats)."""
        base = self._relaxation_base()
        reps = -(-horizon // len(base))
        return (base * reps)[:horizon]


@dataclass(frozen=True, slots=True)
class TraceRow:
    """One executed iteration: x_{n+1} statistics under constraint i(n).

    Slotted: a solve keeps one row per iteration, so the trace is most of the
    memory a long solve holds.
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
    assumption: str = TRACE_ASSUMPTION

    @property
    def iterations(self) -> int:
        return len(self.rows)

    @property
    def final_residual(self) -> float:
        return self.rows[-1].residual if self.rows else float("nan")


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def residual(p: Problem, x) -> float:
    """Infeasibility measure max_i [f_i(x)]_+ (zero exactly on the target set)."""
    x = as_vector(x, dim=p.dimension)
    worst = 0.0
    for f in p.functions:
        v = f.value(x)
        if v > worst:
            if v == INF:
                raise DomainError("residual undefined where a constraint is +inf")
            worst = v
        elif v != v:
            raise NonFiniteValue(f"{type(f).__name__} value is NaN")
    return worst


def solve(p: Problem) -> tuple[np.ndarray, SolveTrace]:
    """Run the relaxed quasi-cyclic projection iteration until residual <= tol.

    Raises InvalidControl when the control sequence misses its coverage
    windows over the horizon, and StalledStep when a positive residual can no
    longer move the iterate (step size underflow).
    """
    m = len(p.functions)
    declared = [w for w in p.control.windows(m) if w is not None]
    idx, violations = _scan(p.control, m, max([p.max_iter] + declared))
    if violations:
        raise InvalidControl("; ".join(str(v) for v in violations[:5]))
    lams = p._relaxation_base()

    witness = p.feasible_witness
    x = np.array(p.x0)
    rows: list[TraceRow] = []
    status = "MaxIterReached"

    if residual(p, x) <= p.tol:
        return x, SolveTrace([], "Converged", x)

    for n, i in zip(range(p.max_iter), idx):
        f = p.functions[i]
        out = sproj(f, x, p.selections[i])
        if out.status is ProjStatus.PROJECTED:
            step_scale = out.f_value / norm2(out.subgradient_used)
            if step_scale < STALL_FLOOR:
                raise StalledStep(
                    f"step size {step_scale:.3e} underflowed at iteration {n}")
        lam = lams[n % len(lams)]
        x_next = x + lam * (out.point - x)
        res = residual(p, x_next)
        rows.append(TraceRow(
            n=n,
            index=i,
            lam=lam,
            residual=res,
            step_norm=norm(x_next - x),
            dist_to_witness=None if witness is None else norm(x_next - witness),
        ))
        x = x_next
        if res <= p.tol:
            status = "Converged"
            break

    return x, SolveTrace(rows, status, x)
