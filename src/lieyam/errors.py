"""Exception taxonomy shared by all lieyam modules."""


class LieyamError(Exception):
    """Base class for all package-specific errors."""


class DimMismatchError(LieyamError):
    """Operands have incompatible dimensions."""


class PolynomialEntriesError(LieyamError):
    """Operation requires rational entries but a polynomial was found."""


class SingularMatrixError(LieyamError):
    """Matrix inversion requested for a singular matrix."""


class AntisymmetryError(LieyamError):
    """Structure-constant tensor violates a required antisymmetry."""


class InvalidRepresentationError(LieyamError):
    """Input fails the representation conditions."""


class UnsupportedDegreeError(LieyamError):
    """Direct coboundary formulas are only implemented at low degree."""


class NotInSubcomplexError(LieyamError):
    """A semidirect cochain does not lie in the lifted subspace.

    Carries a witness: the evaluation tuple where reconstruction failed.
    """

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class NotNijenhuisError(LieyamError):
    """Operator pair fails the Nijenhuis-structure conditions; carries the failing report."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class NotCompatibleError(LieyamError):
    """Operator pair is not compatible."""


class ConsequenceViolatedError(LieyamError):
    """A theorem conclusion failed on validated premises.

    Either an implementation bug or a falsifying instance; never silently
    corrected.
    """


class InternalConsistencyError(LieyamError):
    """A derived identity failed although its premises hold."""


class IncompatibleCrossCheckError(InternalConsistencyError):
    """Closed-form compatibility verdict disagrees with sampled combinations."""


class DualRouteDisagreementError(InternalConsistencyError):
    """Two supposedly equivalent formulations of a check disagree."""


class PreconditionFailedError(LieyamError):
    """An eagerly checked precondition failed; carries its failing report or
    witness, if any."""

    def __init__(self, message, which=None, report=None, witness=None):
        super().__init__(message)
        self.which = which
        self.report = report
        self.witness = witness


class NotSymmetricError(LieyamError):
    """Bilinear form is not symmetric."""


class NotSkewError(LieyamError):
    """Two-tensor is not skew-symmetric."""


class ParseError(LieyamError):
    """Input file failed to parse."""


class BadRationalError(ParseError):
    """String is not a valid rational 'p' or 'p/q'."""


class ConflictingEntryError(ParseError):
    """Duplicate structure-constant entries with inconsistent values."""
