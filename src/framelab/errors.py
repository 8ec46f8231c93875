"""Exception taxonomy shared by all framelab modules."""


class FramelabError(Exception):
    """Base class for all framelab errors."""


class NonFiniteEntry(FramelabError):
    """A matrix or vector contains NaN or Inf."""


class InvalidExponent(FramelabError):
    """Schatten exponent p < 1."""


class RankDeficient(FramelabError):
    """Smallest singular value is below the rank threshold.

    Raised by a submatrix scan, it carries the offending column subset,
    ``examined``, the number of subsets scanned up to and including it, and
    ``certificate``, the refuted certificate (worst condition number inf).
    """

    def __init__(self, message, subset=None, examined=None, certificate=None):
        super().__init__(message)
        self.subset = subset
        self.examined = examined
        self.certificate = certificate


class ShapeMismatch(FramelabError):
    """Operands have incompatible shapes."""


class InvalidRowSet(FramelabError):
    """Harmonic frame row selection is repeated or out of range."""


class NoSuchSet(FramelabError):
    """No difference set exists for the requested parameters."""


class InvalidProbability(FramelabError):
    """Probability outside its admissible interval."""


class LengthMismatch(FramelabError):
    """Coefficient or mask length does not match the frame size."""


class TooLarge(FramelabError):
    """Instance exceeds the exact-enumeration budget."""


class InvalidDimension(FramelabError):
    """Ambient dimension too small for the requested statistic."""


class OutOfRange(FramelabError):
    """Scalar parameter outside its documented domain."""


class BudgetExceeded(FramelabError):
    """Search or enumeration budget exceeded."""


class IllConditioned(FramelabError):
    """Linear solve refused: condition number above the limit."""

    def __init__(self, message, cond=None):
        super().__init__(message)
        self.cond = cond


class Singular(FramelabError):
    """Linear solve refused: matrix is numerically singular."""


class UnsupportedDistribution(FramelabError):
    """Probe coefficient distribution is not one of the supported kinds."""


class ConfigInvalid(FramelabError):
    """Experiment configuration failed validation.

    Carries the path of the offending field (e.g. "params.keep_prob").
    """

    def __init__(self, message, field=None):
        super().__init__(message)
        self.field = field
