import math

import numpy as np
import pytest

from framelab import (
    BudgetExceeded,
    IllConditioned,
    OutOfRange,
    ShapeMismatch,
    Singular,
    SignEnsemble,
    build_dictionary,
    check_scaled_isometry,
    circulant_dictionary,
    concentration_estimate,
    contraction_check,
    khintchine_check,
    operator_norms,
    probe_roundtrip,
    recover_coefficients,
    regroup,
)
from framelab import rng
from framelab.cli import _fields


def indicator_family(n):
    """U_j = e_j e_j^T."""
    mats = np.zeros((n, n, n))
    for j in range(n):
        mats[j, j, j] = 1.0
    return mats


# ---------------------------------------------------------------------------
# regrouping
# ---------------------------------------------------------------------------

def test_regroup_indicator_family():
    t = regroup(indicator_family(3))
    for k in range(3):
        expected = np.zeros((3, 3))
        expected[k, k] = 1.0
        assert np.array_equal(t[k], expected)


def test_regroup_is_entry_exact():
    rng0 = np.random.default_rng(0)
    u = rng0.standard_normal((5, 5, 5))
    t = regroup(u)
    for j in range(5):
        for k in range(5):
            assert np.array_equal(t[k][:, j], u[j][:, k])


def test_regroup_involution():
    rng0 = np.random.default_rng(1)
    u = rng0.standard_normal((4, 4, 4))
    assert np.array_equal(regroup(regroup(u)), u)


def test_regroup_rejects_non_square():
    with pytest.raises(ShapeMismatch):
        regroup(np.zeros((3, 3, 4)))
    with pytest.raises(ShapeMismatch):
        regroup(np.zeros((2, 3, 3)))


# ---------------------------------------------------------------------------
# scaled isometry
# ---------------------------------------------------------------------------

def test_isometry_circulant_exact():
    # (1/sqrt(3))**2 is one ulp from 1/3, so "exact" means machine precision
    t = regroup(circulant_dictionary(3))
    for k in range(3):
        assert np.allclose(t[k].T @ t[k], np.eye(3) / 3.0, atol=1e-16, rtol=1e-15)
    rep = check_scaled_isometry(t)
    assert rep.max_residual <= 1e-15
    assert rep.passed


def test_isometry_indicator_family_fails():
    rep = check_scaled_isometry(regroup(indicator_family(4)))
    assert not rep.passed


@pytest.mark.parametrize("complex_", [False, True], ids=["real", "complex"])
def test_isometry_residual_matches_a_per_k_svd(complex_):
    # n = 64 spans several blocks; the doubled T_63 puts the largest residual in the last
    r = np.random.default_rng(5)
    t = r.standard_normal((64, 64, 64))
    if complex_:
        t = t + 1j * r.standard_normal((64, 64, 64))
    t[-1] *= 2.0
    eye = np.eye(64) / 64
    want = max(np.linalg.norm(tk.conj().T @ tk - eye, 2) for tk in t)
    assert check_scaled_isometry(t).max_residual == pytest.approx(want, rel=1e-12)


def test_isometry_scaled_failure_residual():
    n = 4
    u = 2.0 * circulant_dictionary(n)  # T_k* T_k = (4/n) I
    rep = check_scaled_isometry(regroup(u))
    assert rep.max_residual == pytest.approx(3.0 / n, rel=1e-12)
    assert not rep.passed


# ---------------------------------------------------------------------------
# dictionary construction and recovery
# ---------------------------------------------------------------------------

def test_dictionary_circulant_hand_case():
    u = circulant_dictionary(3)
    d = build_dictionary(u, np.array([1.0, 0.0, 0.0]))
    expected = np.array([[0.0, 0.0, 1.0],
                         [1.0, 0.0, 0.0],
                         [0.0, 1.0, 0.0]]) / math.sqrt(3)
    assert np.allclose(d, expected, atol=1e-15)
    _, cond = recover_coefficients(d, np.zeros(3))
    assert cond == pytest.approx(1.0, rel=1e-12)


def test_dictionary_indicators_all_ones():
    d = build_dictionary(indicator_family(4), np.ones(4))
    assert np.array_equal(d, np.eye(4))


def test_dictionary_zero_probe_flagged_downstream():
    u = circulant_dictionary(3)
    d = build_dictionary(u, np.zeros(3))
    assert np.all(d == 0.0)
    with pytest.raises(Singular):
        recover_coefficients(d, np.zeros(3))


def test_dictionary_identity_matches_regrouped_sum():
    # D(x) = sum_k x_k T_k, the column regrouping identity
    rng0 = np.random.default_rng(42)
    for _ in range(50):
        n = int(rng0.integers(2, 7))
        u = rng0.standard_normal((n, n, n))
        x = rng0.standard_normal(n)
        d = build_dictionary(u, x)
        t = regroup(u)
        alt = np.tensordot(x, t, axes=(0, 0))
        assert np.max(np.abs(d - alt)) <= 1e-14


def test_recover_identity_dictionary():
    y = np.array([1.0, -2.0, 0.5])
    lam, cond = recover_coefficients(np.eye(3), y)
    assert np.allclose(lam, y)
    assert cond == pytest.approx(1.0)


def test_recover_ill_conditioned():
    d = np.diag([1.0, 1e-9])
    with pytest.raises(IllConditioned) as exc:
        recover_coefficients(d, np.ones(2), cond_limit=1e6)
    assert exc.value.cond == pytest.approx(1e9, rel=1e-6)


@pytest.mark.parametrize("cond_limit", [float("nan"), 0.5])
def test_recover_rejects_cond_limit_below_one(cond_limit):
    with pytest.raises(OutOfRange, match="cond_limit"):
        recover_coefficients(np.diag([1.0, 1e-9]), np.ones(2), cond_limit=cond_limit)


def test_roundtrip_hand_instance():
    u = circulant_dictionary(3)
    lam = np.array([0.5, -0.25, 1.0])
    result = probe_roundtrip(u, lam, np.array([1.0, 0.0, 0.0]))
    assert result.rel_error <= 1e-12
    assert np.allclose(result.lambda_hat, lam, atol=1e-12)
    assert result.cond == pytest.approx(1.0, rel=1e-12)


def test_roundtrip_zero_lambda():
    u = circulant_dictionary(4)
    x = np.array([1.0, 1.0, -1.0, 1.0])
    result = probe_roundtrip(u, np.zeros(4), x)
    assert result.rel_error == 0.0


def test_roundtrip_checks_probe_length():
    with pytest.raises(ShapeMismatch):
        probe_roundtrip(circulant_dictionary(3), np.ones(3), np.ones(4))


def test_roundtrip_reconstructs_operator():
    rng0 = np.random.default_rng(3)
    u = circulant_dictionary(5)
    lam = rng0.standard_normal(5)
    x = rng0.standard_normal(5)
    result = probe_roundtrip(u, lam, x)
    a = np.tensordot(lam, u, axes=(0, 0))
    a_hat = np.tensordot(result.lambda_hat, u, axes=(0, 0))
    assert np.max(np.abs(a_hat - a)) <= 1e-10 * result.cond


def test_roundtrip_many_seeds_rademacher():
    # unlucky probes surface as IllConditioned/Singular, never as bad answers
    u = circulant_dictionary(64)
    successes = 0
    for seed in range(30):
        lam = rng.substream(seed, rng.COEFFS).standard_normal(64)
        x = rng.substream(seed, rng.PROBE).integers(0, 2, size=64) * 2.0 - 1.0
        try:
            result = probe_roundtrip(u, lam, x, cond_limit=1e6)
        except (IllConditioned, Singular):
            continue
        assert result.cond <= 1e6
        assert result.rel_error <= 1e-10
        successes += 1
    assert successes >= 10


# ---------------------------------------------------------------------------
# concentration of the random dictionary
# ---------------------------------------------------------------------------

def test_concentration_circulant_fft_oracle():
    # per-trial deviation equals max |DFT(symbol)| / sqrt(n) for circulants
    n, trials, seed = 8, 64, 3
    t = regroup(circulant_dictionary(n))
    est = concentration_estimate(t, "rademacher", trials, seed)
    oracle_devs = []
    for trial in range(trials):
        u = rng.uniforms(seed, rng.DISTR, trial, trial + 1, n)[0]   # this trial alone
        x = np.where(u < 0.5, -1.0, 1.0)
        oracle_devs.append(np.max(np.abs(np.fft.fft(x))) / math.sqrt(n))
    assert est.mean_dev == pytest.approx(float(np.mean(oracle_devs)), rel=1e-12)


def test_concentration_n2_exact_enumeration():
    # n = 2: every sign pattern gives deviation sqrt(2), so the mean is exact
    t = regroup(circulant_dictionary(2))
    est = concentration_estimate(t, "rademacher", 500, 11)
    assert est.mean_dev == pytest.approx(math.sqrt(2.0), rel=1e-12)


def test_concentration_zero_family():
    est = concentration_estimate(np.zeros((4, 4, 4)), "rademacher", 50, 0)
    assert est.mean_dev == 0.0


def test_concentration_uniform_distribution():
    t = regroup(circulant_dictionary(8))
    est = concentration_estimate(t, "uniform", 200, 5)
    assert 0.0 < est.mean_dev
    assert est.distribution == "uniform"


def test_concentration_ratio_bounded_over_sizes():
    for n in (4, 16, 64):
        t = regroup(circulant_dictionary(n))
        est = concentration_estimate(t, "rademacher", 300, 17)
        assert est.ratio <= 4.0
        assert est.scale == pytest.approx(math.sqrt(math.log(n)), rel=1e-12)


def test_concentration_validation():
    t = regroup(circulant_dictionary(4))
    with pytest.raises(OutOfRange):
        concentration_estimate(t, "gaussian", 10, 0)
    with pytest.raises(OutOfRange):
        concentration_estimate(t, "rademacher", 0, 0)


def test_concentration_deterministic():
    t = regroup(circulant_dictionary(4))
    a = concentration_estimate(t, "rademacher", 100, 9)
    b = concentration_estimate(t, "rademacher", 100, 9)
    assert a == b


def circulant_stack(first):
    """T_k circulant with first column first[k]: T_k[a, b] = first[k, (a - b) mod n]."""
    i = np.arange(len(first))
    return first[:, (i[:, None] - i) % len(first)]


def generic_devs(t, distribution, trials, seed):
    """The generic kernel on the estimator's uniforms: one norm per dictionary."""
    n = len(t)
    u = rng.uniforms(seed, rng.DISTR, 0, trials, n)
    x = rng.rademacher(u) if distribution == "rademacher" else 2.0 * u - 1.0
    return operator_norms((x @ t.reshape(n, -1)).reshape(trials, n, n))


@pytest.mark.parametrize("family", ["shifts", "real", "complex"])
@pytest.mark.parametrize("n", [3, 4, 9, 64])
@pytest.mark.parametrize("distribution", ["rademacher", "uniform"])
def test_circulant_route_matches_generic_kernel(mc_spy, family, n, distribution):
    stream = np.random.default_rng(n)
    if family == "shifts":
        t = regroup(circulant_dictionary(n))
    else:
        first = stream.standard_normal((n, n))
        if family == "complex":
            first = first + 1j * stream.standard_normal((n, n))
        t = circulant_stack(first)
    est = concentration_estimate(t, distribution, 60, 7)
    assert est.route == "circulant"
    want = generic_devs(t, distribution, 60, 7)
    np.testing.assert_allclose(mc_spy[-1], want, rtol=1e-12, atol=0.0)
    assert est.mean_dev == pytest.approx(float(np.mean(want)), rel=1e-12)


@pytest.mark.parametrize("change", ["ulp-nonzero", "ulp-zero", "indicators"])
def test_non_circulant_families_take_generic_route(mc_spy, change):
    t = regroup(circulant_dictionary(9))
    assert t[4, 2, 6] == 1.0 / 3.0 and t[4, 2, 7] == 0.0
    near = t.copy()
    if change == "ulp-nonzero":   # T_4 holds 1/3 where a - b = 5 mod 9
        near[4, 2, 6] = np.nextafter(near[4, 2, 6], 1.0)
    elif change == "ulp-zero":
        near[4, 2, 7] = np.nextafter(0.0, 1.0)
    else:
        near = regroup(indicator_family(9))
    est = concentration_estimate(near, "uniform", 60, 2)
    assert est.route == "generic"
    np.testing.assert_allclose(mc_spy[-1], generic_devs(near, "uniform", 60, 2),
                               rtol=1e-12, atol=0.0)
    if change != "indicators":   # one ulp moves the mean by rounding only
        circulant = concentration_estimate(t, "uniform", 60, 2)
        assert circulant.route == "circulant"
        assert est.mean_dev == pytest.approx(circulant.mean_dev, rel=1e-12)
    assert "route" not in _fields(est)


# ---------------------------------------------------------------------------
# contraction principle
# ---------------------------------------------------------------------------

def test_contraction_equality_at_uniform_bound():
    vecs = [np.array([1.0, 0.5]), np.array([-0.25, 2.0])]
    rep = contraction_check(vecs, np.array([0.7, 0.7]), 0.7)
    assert rep.holds
    assert rep.lhs == pytest.approx(rep.rhs, rel=1e-12)


def test_contraction_hand_instance():
    rng0 = np.random.default_rng(2)
    vecs = [rng0.standard_normal(2), rng0.standard_normal(2)]
    rep = contraction_check(vecs, np.array([0.5, -0.3]), 0.5)
    assert rep.holds
    assert rep.lhs <= rep.rhs


def test_contraction_on_matrices():
    rng0 = np.random.default_rng(4)
    mats = [rng0.standard_normal((3, 3)) for _ in range(4)]
    rep = contraction_check(mats, np.array([0.9, -0.2, 0.5, 0.1]), 1.0)
    assert rep.holds


def test_contraction_random_sweep():
    rng0 = np.random.default_rng(77)
    for _ in range(30):
        count = int(rng0.integers(2, 11))
        dim = int(rng0.integers(2, 6))
        vecs = [rng0.standard_normal(dim) for _ in range(count)]
        b = float(rng0.uniform(0.2, 2.0))
        x = rng0.uniform(-b, b, size=count)
        assert contraction_check(vecs, x, b).holds


def test_contraction_validation():
    vecs = [np.ones(2)] * 17
    with pytest.raises(BudgetExceeded):
        contraction_check(vecs, np.zeros(17), 1.0)
    with pytest.raises(OutOfRange):
        contraction_check([np.ones(2)], np.array([2.0]), 1.0)
    with pytest.raises(OutOfRange):
        contraction_check([np.ones(2)], np.array([0.5]), float("nan"))


# ---------------------------------------------------------------------------
# circulant family and tuning
# ---------------------------------------------------------------------------

def test_circulant_n2_explicit():
    u = circulant_dictionary(2)
    swap = np.array([[0.0, 1.0], [1.0, 0.0]])
    assert np.allclose(u[0], swap / math.sqrt(2))
    assert np.allclose(u[1], np.eye(2) / math.sqrt(2))


@pytest.mark.parametrize("n", [2, 3, 16, 64])
def test_circulant_equals_stacked_shifts(n):
    # U_j = P^j / sqrt(n), j = 1..n, written as shifted identities
    shifts = np.stack([np.roll(np.eye(n), j, axis=0) for j in range(1, n + 1)]) / math.sqrt(n)
    u = circulant_dictionary(n)
    assert u.dtype == shifts.dtype and u.shape == shifts.shape
    assert u.tobytes() == shifts.tobytes()


def test_circulant_linearly_independent():
    for n in (2, 5, 8):
        u = circulant_dictionary(n)
        rank = np.linalg.matrix_rank(u.reshape(n, n * n))
        assert rank == n


def test_circulant_too_small():
    with pytest.raises(OutOfRange):
        circulant_dictionary(1)


def test_khintchine_route_on_regrouped_family():
    # the Schatten-route bound applies to the regrouped matrices at the
    # even order 2m closest to ln n: 2m = 2 for ln 8 = 2.08
    n, m = 8, 1
    t = regroup(circulant_dictionary(n))
    est = khintchine_check(t, m, SignEnsemble(count=n, exact=True))
    assert est.ratio <= 1.0 + 1e-12
