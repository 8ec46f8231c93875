"""One exception class per refusal, whichever module refuses."""

import numpy as np
import pytest

import framelab
from framelab import errors, rng
from framelab import (
    BudgetExceeded,
    OutOfRange,
    ShapeMismatch,
    SignEnsemble,
    build_dictionary,
    circulant_dictionary,
    contraction_check,
    deterministic_unit_vector,
    exact_error_expectation,
    harmonic_frame,
    worst_condition,
)
from framelab.erasure import analysis_coefficients

KEPT = {"FramelabError", "ConfigInvalid", "NonFiniteEntry", "RankDeficient", "ShapeMismatch",
        "NoSuchSet", "OutOfRange", "BudgetExceeded", "IllConditioned", "Singular"}


@pytest.mark.parametrize("cls, refusals", [
    (OutOfRange, {
        "harmonic M < n": lambda: harmonic_frame(4, 2),
        "real harmonic M too small": lambda: harmonic_frame(2, 2, real=True),
    }),
    (OutOfRange, {
        "circulant n < 2": lambda: circulant_dictionary(1),
        "harmonic n < 1": lambda: harmonic_frame(0, 1),
    }),
    (ShapeMismatch, {
        "analysis x": lambda: analysis_coefficients(harmonic_frame(2, 4), np.ones(3)),
        "dictionary x": lambda: build_dictionary(circulant_dictionary(2), np.ones(3)),
    }),
    (BudgetExceeded, {
        "exact masks": lambda: exact_error_expectation(
            harmonic_frame(2, rng.ENUM_LIMIT + 1), deterministic_unit_vector(2, 1)),
        "exact signs": lambda: SignEnsemble(count=rng.ENUM_LIMIT + 1, exact=True),
        "contraction": lambda: contraction_check([np.ones(2)] * 17, np.zeros(17), 1.0),
        "subset scan": lambda: worst_condition(harmonic_frame(2, 40), 20),   # C(40, 20)
    }),
], ids=["domain", "dimension", "length", "budget"])
def test_same_condition_raises_same_class(cls, refusals):
    for name, refuse in refusals.items():
        with pytest.raises(framelab.FramelabError) as exc:
            refuse()
        assert type(exc.value) is cls, (name, type(exc.value).__name__)


def test_error_classes_are_the_ten_kept():
    defined = {name for name, obj in vars(errors).items()
               if isinstance(obj, type) and issubclass(obj, Exception)}
    assert defined == KEPT
    for name in KEPT:
        assert getattr(framelab, name) is getattr(errors, name)
