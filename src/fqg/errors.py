"""Exception types shared across the workbench."""


class FqgError(Exception):
    """Base class for all workbench errors."""


class NotSelfAdjoint(FqgError):
    pass


class NotInvertible(FqgError):
    pass


class NotUnitary(FqgError):
    pass


class NotFaithful(FqgError):
    pass


class ShapeMismatch(FqgError):
    pass


class DimensionMismatch(FqgError):
    pass


class NotAGroup(FqgError):
    pass


class NonUniqueHaar(FqgError):
    pass


class HaarNotFaithful(FqgError):
    pass


class NoCharacterBlock(FqgError):
    pass


class NotInvolutive(FqgError):
    pass


class NotInjective(FqgError):
    pass


class NotStarHom(FqgError):
    pass


class NotBlockPreserving(FqgError):
    pass


class NeitherAutoNorAnti(FqgError):
    pass


class ConventionMismatch(FqgError):
    pass


class PreconditionFailed(FqgError):
    pass


class ClassificationUnstable(FqgError):
    pass


class PentagonFailed(FqgError):
    pass


class LegMismatch(FqgError):
    pass


class NotSimpleTensor(FqgError):
    pass


class CommutantViolation(FqgError):
    pass


class SpectrumFullCircle(FqgError):
    pass


class NotInLieAlgebra(FqgError):
    pass


class NotCStarAlgebra(FqgError):
    pass


class WedderburnRetry(FqgError):
    """A randomised Wedderburn step was unlucky; retried with fresh randomness."""


class ParseError(FqgError):
    pass


class ResourceLimit(FqgError):
    """The computation needs more memory than the process can allocate."""
