"""Exception types shared across the library."""


class SchemeLabError(Exception):
    """Base class for all schemelab errors."""


class AxiomViolation(SchemeLabError):
    """A color matrix is not a coherent configuration."""


class AxiomS1Violated(AxiomViolation):
    """A color mixes diagonal and off-diagonal pairs."""


class AxiomS2Violated(AxiomViolation):
    """The transpose of some color is not a single color."""


class AxiomS3Violated(AxiomViolation):
    """A triple intersection count is not constant on some color.

    Carries the triple (r, s, t) and two witness pairs of t together with
    their differing counts.
    """

    def __init__(self, message, triple=None, pairs=None, counts=None):
        super().__init__(message)
        self.triple = triple
        self.pairs = pairs
        self.counts = counts


class NotAScheme(SchemeLabError):
    """Operation requires a homogeneous configuration (single fiber)."""


class NotEquivalenced(SchemeLabError):
    """Operation requires an equivalenced scheme."""


class BadRelationId(SchemeLabError):
    """Relation id out of range or of the wrong kind for the operation."""


class SearchBudgetExceeded(SchemeLabError):
    """Backtracking search exceeded its node budget."""


class TooLarge(SchemeLabError):
    """Input exceeds a desk-scale size cap."""


class RankTooLarge(SchemeLabError):
    """Rank exceeds the cap for full enumeration."""


class OrderDoesNotDivide(SchemeLabError):
    """Requested multiplicative subgroup order does not divide q - 1."""


class NotAnAffinePlane(SchemeLabError):
    """Supplied line set violates an affine-plane axiom."""


class NotAGroup(SchemeLabError):
    """Supplied Cayley table is not a group table."""


class ConstructionFailed(SchemeLabError):
    """A constructor's internal consistency check failed."""


class DecompositionUnstable(SchemeLabError):
    """Numerical Wedderburn decomposition failed validation on all retries."""


class ConditionsFail(SchemeLabError):
    """The splitting-set conditions required by the explicit extension fail.

    ``u``, ``v`` (and ``w`` for the triple condition) identify the failing
    relations; callers may fall back to the coherent-closure method.
    """

    def __init__(self, u, v, w=None):
        names = f"u={u}, v={v}" + (f", w={w}" if w is not None else "")
        which = "triple" if w is not None else "pair"
        super().__init__(f"splitting-set {which} condition fails at {names}")
        self.u = u
        self.v = v
        self.w = w


class ValidationFailed(SchemeLabError):
    """A construction that is guaranteed correct produced an invalid result.

    This is a bug trap, not an expected runtime outcome.
    """


class NotCoherent(SchemeLabError):
    """A fusion of colors is not a coherent configuration."""


class NotAnAlgebraicAutomorphism(SchemeLabError):
    """A color bijection does not preserve the intersection numbers."""


class ValencyTooSmall(SchemeLabError):
    """Affine recognition requires every non-diagonal valency to be >= 3."""


class SchemeFileError(SchemeLabError):
    """A scheme file could not be parsed or failed validation."""
