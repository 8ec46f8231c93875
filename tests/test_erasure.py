import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from framelab import (
    BudgetExceeded,
    ErasureMask,
    OutOfRange,
    ShapeMismatch,
    deterministic_unit_vector,
    exact_error_expectation,
    harmonic_frame,
    mc_error_estimate,
    reconstruct,
    redundancy_sweep,
    scaled_onb_frame,
)
from framelab import erasure
from framelab.erasure import analysis_coefficients, per_trial_errors
from framelab.frames import renormalize, difference_set_etf, find_difference_set


def all_masks(M, keep_prob=0.5):
    for pattern in range(1 << M):
        kept = np.array([(pattern >> j) & 1 for j in range(M)], dtype=bool)
        yield ErasureMask(kept=kept, keep_prob=keep_prob)


# ---------------------------------------------------------------------------
# masks
# ---------------------------------------------------------------------------

def test_mask_rejects_bad_prob():
    for p in (0.0, -0.1, 1.5):
        with pytest.raises(OutOfRange):
            ErasureMask(kept=np.ones(10, dtype=bool), keep_prob=p)


# ---------------------------------------------------------------------------
# reconstruction
# ---------------------------------------------------------------------------

def test_reconstruct_perfect_channel():
    for f in (scaled_onb_frame(3, 2), harmonic_frame(4, 11)):
        x = deterministic_unit_vector(f.n, 5)
        coeffs = analysis_coefficients(f, x)
        mask = ErasureMask(kept=np.ones(f.M, dtype=bool), keep_prob=1.0)
        y = reconstruct(f, coeffs, mask)
        assert np.linalg.norm(y - x) <= 1e-12 * np.linalg.norm(x)


def test_reconstruct_hand_case():
    # keep only the sqrt(2) e1 coefficient at keep_prob 1/2: y = 2 e1
    f = scaled_onb_frame(2, 1)
    x = np.array([1.0, 0.0])
    coeffs = analysis_coefficients(f, x)
    mask = ErasureMask(kept=np.array([True, False]), keep_prob=0.5)
    y = reconstruct(f, coeffs, mask)
    assert np.allclose(y, [2.0, 0.0], atol=1e-14)
    assert np.linalg.norm(x - y) == pytest.approx(1.0, abs=1e-14)


def test_reconstruct_nothing_kept():
    f = scaled_onb_frame(2, 1)
    x = np.array([0.3, -0.4])
    coeffs = analysis_coefficients(f, x)
    mask = ErasureMask(kept=np.zeros(2, dtype=bool), keep_prob=0.5)
    y = reconstruct(f, coeffs, mask)
    assert np.allclose(y, 0.0)
    assert np.linalg.norm(x - y) == pytest.approx(np.linalg.norm(x))


def test_reconstruct_validation():
    f = scaled_onb_frame(2, 1)
    mask = ErasureMask(kept=np.ones(2, dtype=bool), keep_prob=1.0)
    with pytest.raises(ShapeMismatch):
        reconstruct(f, np.zeros(3), mask)
    with pytest.raises(ShapeMismatch):
        reconstruct(f, np.zeros(2), ErasureMask(kept=np.ones(3, dtype=bool), keep_prob=1.0))
    unit = renormalize(f, "unit")
    with pytest.raises(OutOfRange):
        reconstruct(unit, np.zeros(2), mask)


# ---------------------------------------------------------------------------
# exact enumeration
# ---------------------------------------------------------------------------

def test_exact_hand_values():
    assert exact_error_expectation(scaled_onb_frame(2, 1), [1.0, 0.0]) == pytest.approx(1.0, abs=1e-12)
    assert exact_error_expectation(scaled_onb_frame(2, 2), [1.0, 0.0]) == pytest.approx(0.5, abs=1e-12)


def test_exact_zero_input():
    assert exact_error_expectation(scaled_onb_frame(2, 2), [0.0, 0.0]) == 0.0


def test_exact_budget():
    with pytest.raises(BudgetExceeded):
        exact_error_expectation(harmonic_frame(2, 21), [1.0, 0.0])


def test_exact_matches_direct_mask_loop():
    # oracle: reconstruct through the public mask API, one mask at a time
    f = harmonic_frame(2, 6)
    x = deterministic_unit_vector(2, 1)
    coeffs = analysis_coefficients(f, x)
    total = 0.0
    for mask in all_masks(f.M):
        y = reconstruct(f, coeffs, mask)
        total += np.linalg.norm(x - y)
    assert exact_error_expectation(f, x) == pytest.approx(total / 2**f.M, abs=1e-13)


def test_unbiasedness_over_all_masks():
    # E(y) = x exactly when averaging over every equiprobable mask
    for f in (scaled_onb_frame(2, 2), harmonic_frame(3, 9)):
        x = deterministic_unit_vector(f.n, 4)
        coeffs = analysis_coefficients(f, x)
        acc = np.zeros(f.n, dtype=complex)
        for mask in all_masks(f.M):
            acc += reconstruct(f, coeffs, mask)
        mean_y = acc / 2**f.M
        assert np.max(np.abs(mean_y - x)) <= 1e-12


def test_error_identity_sign_form():
    # ||y - x|| equals ||(1/M) sum eps_j <z_j,x> z_j|| with eps_j = 2 theta_j - 1
    f = harmonic_frame(3, 6)
    x = deterministic_unit_vector(3, 9)
    coeffs = analysis_coefficients(f, x)
    for mask in all_masks(f.M):
        y = reconstruct(f, coeffs, mask)
        eps = 2.0 * mask.kept.astype(float) - 1.0
        alt = (f.array * (eps * coeffs)[None, :]).sum(axis=1) / f.M
        assert abs(np.linalg.norm(y - x) - np.linalg.norm(alt)) <= 1e-12


# ---------------------------------------------------------------------------
# Monte Carlo estimator
# ---------------------------------------------------------------------------

def test_mc_matches_exact_within_stderr():
    f = scaled_onb_frame(2, 2)
    x = np.array([1.0, 0.0])
    exact = exact_error_expectation(f, x)
    report = mc_error_estimate(f, x, trials=4000, seed=12)
    assert abs(report.mean_error - exact) <= 3 * report.stderr


def test_mc_epsilon_formula():
    f = harmonic_frame(16, 1024)
    x = deterministic_unit_vector(16, 0)
    report = mc_error_estimate(f, x, trials=10, seed=0)
    assert report.epsilon == pytest.approx(math.sqrt(16 * math.log(16) / 1024), rel=1e-12)
    assert report.epsilon == pytest.approx(0.2081386, abs=1e-6)


def test_mc_deterministic():
    f = harmonic_frame(2, 8)
    x = deterministic_unit_vector(2, 3)
    a = mc_error_estimate(f, x, trials=2000, seed=42)
    b = mc_error_estimate(f, x, trials=2000, seed=42)
    assert a == b  # bit-identical dataclass comparison


def test_mc_rejects_subnormal_keep_prob_before_any_trial(monkeypatch):
    def no_trials(*args):
        raise AssertionError("a trial ran")

    monkeypatch.setattr(erasure.rng, "mc_values", no_trials)
    x = deterministic_unit_vector(4, 0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")   # a RuntimeWarning would fail the test
        with pytest.raises(OutOfRange, match="overflow"):
            mc_error_estimate(harmonic_frame(4, 8), x, 10, 0, keep_prob=5e-324)


def test_reconstruct_rejects_subnormal_keep_prob():
    f = harmonic_frame(4, 8)
    mask = ErasureMask(kept=np.ones(8, dtype=bool), keep_prob=5e-324)
    with pytest.raises(OutOfRange, match="overflow"):
        reconstruct(f, analysis_coefficients(f, np.ones(4)), mask)


def test_mc_rejects_small_dimension():
    f = scaled_onb_frame(1, 4)
    with pytest.raises(OutOfRange):
        mc_error_estimate(f, np.array([1.0]), trials=10, seed=0)


def test_trial_order_independence():
    # each trial's error is a pure function of (seed, trial index)
    f = harmonic_frame(2, 8)
    x = deterministic_unit_vector(2, 3)
    batch = per_trial_errors(f, x, trials=64, seed=9)
    single = np.array([per_trial_errors(f, x, trials=t + 1, seed=9)[-1]
                       for t in reversed(range(64))])[::-1]
    assert np.array_equal(batch, single)


def test_scale_equivariance_exact_power_of_two():
    f = harmonic_frame(2, 8)
    x = deterministic_unit_vector(2, 3)
    base = per_trial_errors(f, x, trials=100, seed=5)
    doubled = per_trial_errors(f, 2.0 * x, trials=100, seed=5)
    assert np.array_equal(2.0 * base, doubled)


@settings(max_examples=20, deadline=None)
@given(st.floats(0.01, 100.0, allow_nan=False, allow_infinity=False))
def test_scale_equivariance_and_ratio_invariance(c):
    f = scaled_onb_frame(2, 2)
    x = np.array([0.6, 0.8])
    a = mc_error_estimate(f, x, trials=50, seed=1)
    b = mc_error_estimate(f, c * x, trials=50, seed=1)
    assert b.mean_error == pytest.approx(c * a.mean_error, rel=1e-12)
    assert b.ratio == pytest.approx(a.ratio, rel=1e-12)


def test_mc_exact_agreement_over_seeds():
    f = harmonic_frame(2, 8)
    x = deterministic_unit_vector(2, 77)
    exact = exact_error_expectation(f, x)
    hits = sum(
        abs((r := mc_error_estimate(f, x, trials=2000, seed=s)).mean_error - exact)
        <= 3 * r.stderr
        for s in range(20)
    )
    assert hits >= 19


def test_generalized_keep_prob_unbiased():
    # E(y) = x also holds at keep_prob != 1/2 with the 1/(qM) weight
    f = scaled_onb_frame(2, 2)
    x = np.array([0.3, -0.7])
    coeffs = analysis_coefficients(f, x)
    q = 0.25
    acc = np.zeros(2)
    weights = []
    for pattern in range(1 << f.M):
        kept = np.array([(pattern >> j) & 1 for j in range(f.M)], dtype=bool)
        prob = q ** kept.sum() * (1 - q) ** (f.M - kept.sum())
        y = reconstruct(f, coeffs, ErasureMask(kept=kept, keep_prob=q))
        acc = acc + prob * y
        weights.append(prob)
    assert math.isclose(sum(weights), 1.0, rel_tol=1e-12)
    assert np.max(np.abs(acc - x)) <= 1e-12


# ---------------------------------------------------------------------------
# redundancy sweep
# ---------------------------------------------------------------------------

def test_sweep_decreasing_and_ordered():
    reports = redundancy_sweep(4, [8, 32, 128], trials=400, seed=2)
    assert [r.M for r in reports] == [8, 32, 128]
    assert reports[0].mean_error > reports[1].mean_error > reports[2].mean_error
    for r in reports:
        assert r.n == 4
        assert r.ratio <= 3.0


def test_sweep_rejects_m_below_n():
    with pytest.raises(OutOfRange):
        redundancy_sweep(8, [4], trials=10, seed=0)


def test_mc_on_etf_recon():
    f = renormalize(difference_set_etf(find_difference_set(7, 3)), "recon")
    x = deterministic_unit_vector(3, 0)
    exact = exact_error_expectation(f, x)
    r = mc_error_estimate(f, x, trials=3000, seed=8)
    assert abs(r.mean_error - exact) <= 3 * r.stderr
