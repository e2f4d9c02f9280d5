"""Error types shared across the library.

Every error carries a stable machine-readable ``name`` so CLI reports and
callers can branch on the failure kind without parsing messages.
"""


class BraidRepError(Exception):
    """Base class for all library errors.  Each subclass's name is its class
    name."""

    name = "Error"

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls.name = cls.__name__


class ZeroSubstitution(BraidRepError):
    """Evaluation at 0 requested where a negative power of t occurs, or a
    substitution that would make a generator image singular."""


class NotDivisible(BraidRepError):
    """Exact division requested but the divisor does not divide the dividend."""


class IndexOutOfRange(BraidRepError):
    """Braid letter index outside 1..strands-1."""


class NotInvertible(BraidRepError):
    """Matrix has no inverse in its scalar domain."""


class ClusterAmbiguous(BraidRepError):
    """Eigenvalue clustering found a chain of gaps straddling the threshold,
    so no consistent grouping exists at this tolerance."""


class ClosureDiverged(BraidRepError):
    """Algebra closure failed to stabilize within the iteration cap; this
    signals numerical trouble, not a mathematical verdict."""


class GenericDisagreement(BraidRepError):
    """Random specializations of a symbolic matrix disagreed on an invariant
    that should be generic."""


class NotScalar(BraidRepError):
    """A matrix expected to be a scalar multiple of the identity is not."""


class WitnessInvalid(BraidRepError):
    """Supplied eigenvector witness fails its defining relations."""


class NotEigenvalue(BraidRepError):
    """Supplied scalar is not an eigenvalue of the matrix at this tolerance."""


class ZeroScalar(BraidRepError):
    """Scalar twist by 0 requested; the result would leave the general
    linear group."""


class NoDominantEigenvalue(BraidRepError):
    """Parameter recovery needs an eigenvalue of multiplicity degree-2 and
    none (or more than one) exists."""


class DegenerateU(BraidRepError):
    """Recovered deformation parameter lies at an excluded degenerate value
    (0 or 1) within tolerance."""


class NotIrreducible(BraidRepError):
    """Classification requires an irreducible input and the irreducibility
    test failed."""


class IrreducibilityUndecided(BraidRepError):
    """A complex span closure stopped short of degree^2, and neither
    Norton's test nor the subspace search found an invariant subspace that
    passes the invariance check; or the closure is full beside such a
    subspace.  The numeric closure can under-count, so it alone never
    reports a complex input reducible."""


class RelationFailure(BraidRepError):
    """Generator images do not satisfy the braid relations at tolerance."""


class NumericOverflow(BraidRepError):
    """Finite complex generators whose products overflow the float range in
    every adjacent braid relation, so that the relations cannot be checked.
    It is not a relation failure: the relations may hold, as they do for
    the standard family at u = 1e200, where u^2 is beyond the range."""


class SchemaError(BraidRepError):
    """Malformed JSON input: wrong shape, unknown domain, or bad entry."""
