"""Exception hierarchy shared by all modules."""


class SubprojError(Exception):
    """Base class for all errors raised by this package."""


# -- vectors and finite differences ------------------------------------------

class ZeroVector(SubprojError):
    """A vector with norm below the zero threshold where a nonzero one is required."""


class DimensionMismatch(SubprojError):
    """Operands live in spaces of different dimensions."""


# -- function oracles ---------------------------------------------------------

class DomainError(SubprojError):
    """The function value is +inf at the queried point."""


class NonFiniteValue(SubprojError):
    """A function oracle returned NaN, or its arithmetic overflowed a float."""


class EmptySubdifferential(SubprojError):
    """No subgradient can be produced at the queried point."""


class NotDifferentiableHere(SubprojError):
    """A unique gradient was requested at a point with a multivalued subdifferential."""


class NotTwiceDifferentiable(SubprojError):
    """No Hessian oracle is available at the queried point."""


class NegativeBaseError(SubprojError):
    """A fractional power was applied to a function that is negative at the point."""


class NonMonotonePhi(SubprojError):
    """The outer scalar map has nonpositive slope where a positive one is required."""


class NotScaledOrthogonal(SubprojError):
    """The matrix does not satisfy L^T L = L L^T = alpha*I."""


class JointSelectionUnavailable(SubprojError):
    """The joint subgradient selection is undefined at the queried point."""


class InconsistentMinimizer(SubprojError):
    """A user-supplied minimizer oracle failed its optimality audit."""


class UnsupportedAtom(SubprojError):
    """The operation is not defined for this kind of function."""


class InvalidSpec(SubprojError):
    """A function or problem description violates a construction-time requirement."""


# -- projector ----------------------------------------------------------------

class ZeroSubgradient(SubprojError):
    """A zero subgradient was supplied at a point with positive function value."""


class RelaxationOutOfRange(SubprojError):
    """A relaxation parameter lies outside the admissible interval."""


class InfeasibleWitness(SubprojError):
    """The supposed witness point has positive function value."""


# -- prox ---------------------------------------------------------------------

class DegenerateMoreau(SubprojError):
    """Positive envelope value with a vanishing proximal displacement."""


class ProxAuditFailed(SubprojError):
    """A closed-form proximal point lost to a competitor in the optimality audit."""


# -- feasibility solver -------------------------------------------------------

class InvalidControl(SubprojError):
    """The control sequence fails its coverage requirement."""


class StalledStep(SubprojError):
    """The projection step size underflowed while the residual is still positive."""


# -- analysis -----------------------------------------------------------------

class NotPositiveHere(SubprojError):
    """The operation requires a point with positive function value."""


class ZeroFunctionValue(SubprojError):
    """The one-dimensional derivative is undefined on the zero level set."""


class EmptySample(SubprojError):
    """An empty sample set was supplied."""


class NoLevelSetOracle(SubprojError):
    """No exact projection onto the zero sublevel set is available."""


# -- command line -------------------------------------------------------------

class SchemaError(SubprojError):
    """A problem file failed schema validation."""
