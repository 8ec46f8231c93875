"""Exception taxonomy shared by all framelab modules.

One class names one condition, whichever module refuses: a parameter out
of its domain is ``OutOfRange``, operands of the wrong shape are
``ShapeMismatch``, an enumeration or search over its cap is
``BudgetExceeded``.  A new refusal reuses the class of its condition
rather than adding one.
"""


class FramelabError(Exception):
    """Base class for all framelab errors."""


class NonFiniteEntry(FramelabError):
    """A matrix or vector contains NaN or Inf."""


class RankDeficient(FramelabError):
    """Smallest singular value is below the rank threshold.

    Raised by a submatrix scan, it carries ``certificate``, the refuted
    certificate: worst condition number inf at the offending column subset,
    counting the subsets scanned up to and including it.
    """

    def __init__(self, message, certificate=None):
        super().__init__(message)
        self.certificate = certificate


class ShapeMismatch(FramelabError):
    """Operands have incompatible shapes."""


class NoSuchSet(FramelabError):
    """No difference set exists for the requested parameters."""


class OutOfRange(FramelabError):
    """A parameter outside its documented domain."""


class BudgetExceeded(FramelabError):
    """Search or enumeration budget exceeded."""


class IllConditioned(FramelabError):
    """Linear solve refused: condition number above the limit."""

    def __init__(self, message, cond=None):
        super().__init__(message)
        self.cond = cond


class Singular(FramelabError):
    """Linear solve refused: matrix is numerically singular."""


class ConfigInvalid(FramelabError):
    """Experiment configuration failed validation.

    Carries the path of the offending field (e.g. "params.keep_prob").
    """

    def __init__(self, message, field=None):
        super().__init__(message)
        self.field = field
