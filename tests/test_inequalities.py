import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from framelab import (
    BudgetExceeded,
    Frame,
    NonFiniteEntry,
    OutOfRange,
    ShapeMismatch,
    SignEnsemble,
    difference_set_etf,
    exact_sign_expectation,
    find_difference_set,
    harmonic_frame,
    khintchine_check,
    khintchine_constant,
    operator_norm,
    operator_norms,
    renormalize,
    rng,
    rudelson_check,
    scaled_onb_frame,
    schatten_norm,
    stirling_bound_check,
)
from framelab import inequalities
from framelab.cli import _fields, main
from framelab.inequalities import _schatten_powers


# ---------------------------------------------------------------------------
# Khintchine constants
# ---------------------------------------------------------------------------

def test_khintchine_constant_values():
    assert khintchine_constant(1) == pytest.approx(2.0, rel=1e-12)
    assert khintchine_constant(2) == pytest.approx(2.0 * 3.0**0.25, rel=1e-12)
    assert khintchine_constant(3) == pytest.approx(2.0 * 15.0 ** (1.0 / 6.0), rel=1e-12)


def test_khintchine_constant_integer_factorial_oracle():
    for m in range(1, 15):
        exact = 2.0 * (math.factorial(2 * m) / (2**m * math.factorial(m))) ** (1.0 / (2 * m))
        assert khintchine_constant(m) == pytest.approx(exact, rel=1e-12)


def test_khintchine_constant_domain():
    for m in (0, -1, 31):
        with pytest.raises(OutOfRange):
            khintchine_constant(m)


# ---------------------------------------------------------------------------
# exact sign expectations
# ---------------------------------------------------------------------------

def test_single_summand_expectation():
    a = np.array([[1.0, 2.0], [0.5, -1.0]])
    assert exact_sign_expectation([a], operator_norms) == pytest.approx(operator_norm(a))


def test_two_equal_rank_one_summands():
    z = np.array([1.0, 2.0])
    zz = np.outer(z, z)
    # half the patterns give ||2 z(x)z|| = 2||z||^2, half give 0
    val = exact_sign_expectation([zz, zz], operator_norms)
    assert val == pytest.approx(float(z @ z), rel=1e-12)


def test_enumeration_budget():
    mats = [np.eye(2)] * 21
    with pytest.raises(BudgetExceeded):
        exact_sign_expectation(mats, operator_norms)


def test_mc_matches_exact_within_stderr():
    rng = np.random.default_rng(8)
    mats = rng.standard_normal((6, 4, 4))
    exact = khintchine_check(mats, 2, SignEnsemble(count=6, exact=True))
    mc = khintchine_check(mats, 2, SignEnsemble(count=6, trials=4000, seed=21))
    assert abs(mc.lhs - exact.lhs) <= 3 * mc.lhs_stderr


def test_mc_exact_agreement_over_seeds():
    rng = np.random.default_rng(17)
    mats = rng.standard_normal((5, 3, 3))
    exact = khintchine_check(mats, 2, SignEnsemble(count=5, exact=True))
    hits = 0
    for seed in range(20):
        mc = khintchine_check(mats, 2, SignEnsemble(count=5, trials=1500, seed=seed))
        hits += abs(mc.lhs - exact.lhs) <= 3 * mc.lhs_stderr
    assert hits >= 19


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
def test_global_negation_invariance(seed):
    rng = np.random.default_rng(seed)
    count = int(rng.integers(1, 7))
    mats = rng.standard_normal((count, 3, 3))
    a = exact_sign_expectation(mats, operator_norms)
    b = exact_sign_expectation(-mats, operator_norms)
    assert a == b


def test_shape_mismatch_rejected():
    with pytest.raises(ShapeMismatch):
        exact_sign_expectation([np.eye(2), np.eye(3)], operator_norms)


# ---------------------------------------------------------------------------
# operator Khintchine inequality
# ---------------------------------------------------------------------------

def test_khintchine_m1_frobenius_identity():
    rng = np.random.default_rng(10)
    mats = rng.standard_normal((7, 5, 4))
    est = khintchine_check(mats, 1, SignEnsemble(count=7, exact=True))
    frob = math.sqrt(sum(float(np.sum(a * a)) for a in mats))
    assert est.lhs == pytest.approx(frob, rel=1e-12)
    assert est.ratio == pytest.approx(0.5, rel=1e-12)


def test_khintchine_single_matrix_ratio():
    a = np.random.default_rng(4).standard_normal((4, 4))
    for m in (1, 2, 3):
        est = khintchine_check([a], m, SignEnsemble(count=1, exact=True))
        assert est.lhs == pytest.approx(schatten_norm(a, 2 * m), rel=1e-12)
        assert est.ratio == pytest.approx(1.0 / khintchine_constant(m), rel=1e-12)


def test_khintchine_exact_8_matrices():
    rng = np.random.default_rng(123)
    mats = rng.standard_normal((8, 6, 6))
    est = khintchine_check(mats, 2, SignEnsemble(count=8, exact=True))
    assert est.exact
    assert est.trials == 256
    assert est.ratio <= 1.0


def test_khintchine_ratio_bounded_sweep():
    rng = np.random.default_rng(2024)
    for _ in range(12):
        count = int(rng.integers(2, 11))
        r, c = int(rng.integers(2, 9)), int(rng.integers(2, 9))
        mats = rng.standard_normal((count, r, c))
        for m in (1, 2, 3):
            est = khintchine_check(mats, m, SignEnsemble(count=count, exact=True))
            assert est.ratio <= 1.0 + 1e-12


def test_khintchine_complex_matrices():
    rng = np.random.default_rng(31)
    mats = rng.standard_normal((5, 4, 4)) + 1j * rng.standard_normal((5, 4, 4))
    est = khintchine_check(mats, 2, SignEnsemble(count=5, exact=True))
    assert est.ratio <= 1.0 + 1e-12


@pytest.mark.parametrize("m", [0, 31])
def test_khintchine_refuses_m_before_averaging(monkeypatch, m):
    def no_average(*args):
        raise AssertionError("the sign average ran")

    monkeypatch.setattr(inequalities, "_sign_average", no_average)
    mats = np.zeros((18, 6, 6))
    with pytest.raises(OutOfRange, match="1..30"):
        khintchine_check(mats, m, SignEnsemble(count=18, exact=True))


def test_khintchine_mc_mode():
    rng = np.random.default_rng(6)
    mats = rng.standard_normal((6, 5, 5))
    exact = khintchine_check(mats, 2, SignEnsemble(count=6, exact=True))
    mc = khintchine_check(mats, 2, SignEnsemble(count=6, trials=3000, seed=9))
    assert not mc.exact
    assert abs(mc.lhs - exact.lhs) <= 4 * mc.lhs_stderr + 1e-12


@pytest.mark.parametrize("m", range(1, 7))
@pytest.mark.parametrize("shape", [(5, 3, 4), (5, 4, 3)], ids=["wide", "tall"])
@pytest.mark.parametrize("complex_mode", [False, True])
def test_schatten_powers_match_singular_values(m, shape, complex_mode):
    stream = np.random.default_rng(m)
    stack = stream.standard_normal(shape)
    if complex_mode:
        stack = stack + 1j * stream.standard_normal(shape)
    want = np.sum(np.linalg.svd(stack, compute_uv=False) ** (2 * m), axis=1)
    assert _schatten_powers(stack, m) == pytest.approx(want, rel=1e-12)


def test_schatten_powers_refuse_nan():
    stack = np.ones((2, 3, 3))
    stack[1, 0, 2] = np.nan
    with pytest.raises(NonFiniteEntry):
        _schatten_powers(stack, 2)


def test_khintchine_count_mismatch():
    with pytest.raises(ShapeMismatch):
        khintchine_check([np.eye(2)] * 3, 1, SignEnsemble(count=4, exact=True))


# ---------------------------------------------------------------------------
# rank-one sign concentration
# ---------------------------------------------------------------------------

def test_rudelson_scaled_onb_exact():
    # every sign pattern gives || sum eps_i n e_i e_i^T || = n
    for n in (4, 8):
        f = scaled_onb_frame(n, 1)
        est = rudelson_check(f, SignEnsemble(count=n, exact=True))
        assert est.lhs == pytest.approx(float(n), rel=1e-12)
        assert est.ratio == pytest.approx(1.0 / math.sqrt(math.log(n)), rel=1e-12)


def test_rudelson_single_vector():
    z = np.array([[0.6], [0.8], [0.0]]) * 2.0
    est = rudelson_check(z, SignEnsemble(count=1, exact=True))
    norm_sq = float(np.sum(z**2))
    assert est.lhs == pytest.approx(norm_sq, rel=1e-12)
    assert est.ratio == pytest.approx(1.0 / math.sqrt(math.log(3)), rel=1e-12)


def test_rudelson_harmonic_mc_ratio():
    f = harmonic_frame(16, 64)
    est = rudelson_check(f, SignEnsemble(count=64, trials=800, seed=3))
    assert est.ratio <= 4.0
    assert est.lhs_stderr > 0.0
    assert est.trials == 800


def test_rudelson_mc_matches_exact():
    f = harmonic_frame(3, 9)
    exact = rudelson_check(f, SignEnsemble(count=9, exact=True))
    mc = rudelson_check(f, SignEnsemble(count=9, trials=3000, seed=14))
    assert abs(mc.lhs - exact.lhs) <= 3 * mc.lhs_stderr


def test_rudelson_needs_dimension_two():
    with pytest.raises(OutOfRange):
        rudelson_check(np.ones((1, 3)), SignEnsemble(count=3, exact=True))


def test_rudelson_deterministic():
    f = harmonic_frame(4, 16)
    a = rudelson_check(f, SignEnsemble(count=16, trials=500, seed=2))
    b = rudelson_check(f, SignEnsemble(count=16, trials=500, seed=2))
    assert a == b


def generic_norms(v, signs):
    """The generic kernel: the top eigenvalue magnitude of each rank-one sum."""
    return operator_norms((v * signs[:, None, :]) @ v.conj().T, hermitian=True)


@pytest.mark.parametrize("normalization", ["recon", "unit"])
@pytest.mark.parametrize("n, M", [(2, 8), (4, 14), (16, 64), (64, 256)])
def test_harmonic_route_matches_generic_kernel(mc_spy, n, M, normalization):
    f = renormalize(harmonic_frame(n, M), normalization)
    est = rudelson_check(f, SignEnsemble(count=M, trials=40, seed=5))
    assert est.route == "harmonic"
    want = generic_norms(f.array, rng.rademacher(rng.uniforms(5, rng.SIGNS, 0, 40, M)))
    np.testing.assert_allclose(mc_spy[-1], want, rtol=1e-12, atol=0.0)
    assert est.lhs == pytest.approx(float(np.mean(want)), rel=1e-12)


@pytest.mark.parametrize("normalization", ["recon", "unit"])
@pytest.mark.parametrize("n, M", [(2, 8), (4, 14)])
def test_exact_harmonic_route_matches_generic_kernel(n, M, normalization):
    f = renormalize(harmonic_frame(n, M), normalization)
    est = rudelson_check(f, SignEnsemble(count=M, exact=True))
    assert est.route == "harmonic"
    signs = np.insert(2.0 * rng.pattern_rows(M - 1) - 1.0, 0, 1.0, axis=1)
    want = float(np.mean(generic_norms(f.array, signs)))
    assert est.lhs == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("make", [
    lambda: harmonic_frame(4, 14, row_set=(0, 1, 2, 4)),
    lambda: harmonic_frame(4, 14, row_set=(1, 2, 3, 4)),
    lambda: harmonic_frame(4, 14, real=True),
    lambda: difference_set_etf(find_difference_set(13, 4)),
    lambda: scaled_onb_frame(4, 3),
], ids=["row-set", "shifted-rows", "real-harmonic", "etf", "scaled-onb"])
def test_other_frames_take_generic_route(mc_spy, make):
    f = make()
    est = rudelson_check(f, SignEnsemble(count=f.M, trials=40, seed=6))
    assert est.route == "generic"
    want = generic_norms(f.array, rng.rademacher(rng.uniforms(6, rng.SIGNS, 0, 40, f.M)))
    np.testing.assert_allclose(mc_spy[-1], want, rtol=1e-12, atol=0.0)
    assert rudelson_check(f, SignEnsemble(count=f.M, exact=True)).route == "generic"
    assert "route" not in _fields(est)


def test_harmonic_frame_off_by_one_ulp_takes_generic_route():
    v = harmonic_frame(4, 14).array.copy()
    v[2, 5] = complex(np.nextafter(v[2, 5].real, 2.0), v[2, 5].imag)
    ens = SignEnsemble(count=14, trials=40, seed=6)
    est = rudelson_check(v, ens)
    assert est.route == "generic"
    assert est.lhs == pytest.approx(rudelson_check(harmonic_frame(4, 14), ens).lhs, rel=1e-12)


@pytest.mark.parametrize("normalization", ["recon", "unit"])
def test_constructed_harmonic_file_takes_harmonic_route(tmp_path, capsys, normalization):
    path = tmp_path / "h.json"
    assert main(["construct", "--kind", "harmonic", "--n", "4", "--M", "14",
                 "--normalization", normalization, "--out", str(path)]) == 0
    capsys.readouterr()
    f = Frame.from_json_dict(json.loads(path.read_text()))
    ens = SignEnsemble(count=14, trials=40, seed=8)
    est = rudelson_check(f, ens)
    assert est.route == "harmonic"
    assert est == rudelson_check(renormalize(harmonic_frame(4, 14), normalization), ens)


# ---------------------------------------------------------------------------
# factorial bound
# ---------------------------------------------------------------------------

def test_stirling_small_values_vs_integer_oracle():
    r1 = stirling_bound_check(1)
    assert r1.lhs == pytest.approx(1.0, rel=1e-12)
    assert r1.rhs == pytest.approx(2.0 * math.sqrt(2.0) / math.e, rel=1e-12)
    assert r1.holds
    r2 = stirling_bound_check(2)
    assert r2.lhs == pytest.approx(3.0, rel=1e-12)
    assert r2.rhs == pytest.approx(math.sqrt(2.0) * (2.0 / math.e) ** 2 * 4.0, rel=1e-12)
    assert r2.holds


def test_stirling_mid_and_large():
    assert stirling_bound_check(10).holds
    assert stirling_bound_check(150).holds
    for m in range(1, 151):
        r = stirling_bound_check(m)
        assert r.holds
        assert math.isfinite(r.lhs) and math.isfinite(r.rhs)


def test_stirling_integer_oracle_all_small_m():
    for m in range(1, 20):
        r = stirling_bound_check(m)
        exact = math.factorial(2 * m) / (2**m * math.factorial(m))
        assert r.lhs == pytest.approx(exact, rel=1e-12)


def test_stirling_domain():
    for m in (0, 151):
        with pytest.raises(OutOfRange):
            stirling_bound_check(m)


def test_sign_ensemble_validation():
    with pytest.raises(BudgetExceeded):
        SignEnsemble(count=21, exact=True)
    with pytest.raises(OutOfRange):
        SignEnsemble(count=4, exact=False, trials=0)
    with pytest.raises(OutOfRange):
        SignEnsemble(count=0, exact=True)
