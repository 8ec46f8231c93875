import math
import re
import tracemalloc
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from framelab import robustness, rng
from framelab import (
    BudgetExceeded,
    DenseMatrix,
    Frame,
    OutOfRange,
    RankDeficient,
    certify,
    difference_set_etf,
    find_difference_set,
    min_cond_bound,
    worst_condition,
)
from framelab.linalg import condition_number


@pytest.fixture(scope="module")
def etf37():
    return difference_set_etf(find_difference_set(7, 3))


@pytest.fixture(scope="module")
def etf413():
    return difference_set_etf(find_difference_set(13, 4))


def gram_condition_oracle(v, subset):
    """Independent route: cond = sqrt(lambda_max / lambda_min) of the subset Gram.

    Uses the smaller Gram side; the larger one is rank-deficient whenever
    the subset is larger than the ambient dimension.
    """
    sub = v[:, list(subset)]
    if sub.shape[1] > sub.shape[0]:
        g = sub @ sub.conj().T
    else:
        g = sub.conj().T @ sub
    lam = np.linalg.eigvalsh(g)
    return math.sqrt(lam[-1] / lam[0])


def sampled_draws(seed, N, K, samples):
    """The subsets sampled mode examines, in draw order.

    Scalar Floyd on row s of the ``SUBSETS`` stream: for c, j in
    enumerate(range(N - K, N)) add d = floor(u[c] (j + 1)), or j when d is
    already picked.
    """
    draws = []
    for u in rng.uniforms(seed, rng.SUBSETS, 0, samples, K).tolist():
        picked = set()
        for c, j in enumerate(range(N - K, N)):
            d = math.floor(u[c] * (j + 1))
            picked.add(j if d in picked else d)
        draws.append(tuple(sorted(picked)))
    return draws


def subset_condition(f, subset):
    """Condition number of the columns ``subset`` of ``f``, one SVD."""
    return condition_number(f.array[:, list(subset)])


def per_subset_scan(f, K, mode="exhaustive", samples=0, seed=0):
    """Reference for the batched scan: one condition_number call per subset.

    Returns ``(worst, worst_subset)``, or ``("deficient", subset, examined)``
    at the first rank-deficient subset in scan order.
    """
    if mode == "exhaustive":
        subsets = combinations(range(f.M), K)
    else:
        subsets = sampled_draws(seed, f.M, K, samples)
    worst, worst_subset = -math.inf, ()
    for examined, subset in enumerate(subsets, 1):
        try:
            c = subset_condition(f, subset)
        except RankDeficient:
            return "deficient", subset, examined
        if c > worst or (c == worst and subset < worst_subset):
            worst, worst_subset = c, subset
    return worst, worst_subset


def exhaustive_oracle(f, K):
    worst = -1.0
    for subset in combinations(range(f.M), K):
        worst = max(worst, gram_condition_oracle(f.array, subset))
    return worst


# ---------------------------------------------------------------------------
# submatrix condition numbers
# ---------------------------------------------------------------------------

def test_full_subset_of_tight_unit_frame(etf37):
    assert subset_condition(etf37, range(7)) == pytest.approx(1.0, abs=1e-9)


def test_submatrix_vs_gram_oracle(etf37):
    for subset in ((0, 1, 2), (1, 3, 5), (0, 2, 4, 6)):
        val = subset_condition(etf37, subset)
        assert val >= 1.0
        assert val == pytest.approx(gram_condition_oracle(etf37.array, subset), rel=1e-9)


def test_submatrix_rank_deficient_reports_subset():
    dup = Frame(n=2, M=3,
                vectors=DenseMatrix(np.array([[1.0, 1.0, 0.0], [0.0, 0.0, 1.0]])),
                normalization="unit")
    with pytest.raises(RankDeficient) as exc:
        worst_condition(dup, 2)
    assert exc.value.certificate.worst_subset == (0, 1)


# ---------------------------------------------------------------------------
# worst-case scan
# ---------------------------------------------------------------------------

def test_worst_full_k(etf37):
    cert = worst_condition(etf37, 7)
    assert cert.worst_cond == pytest.approx(1.0, abs=1e-9)
    assert cert.subsets_examined == 1
    assert cert.mode == "exhaustive"


def test_worst_37_k5_vs_oracle_and_certified_bound(etf37):
    cert = worst_condition(etf37, 5)
    assert cert.subsets_examined == math.comb(7, 5) == 21
    assert cert.worst_cond == pytest.approx(exhaustive_oracle(etf37, 5), rel=1e-9)
    assert cert.worst_cond <= min_cond_bound(2.0 / 7.0) + 1e-6
    assert cert.worst_cond <= 2.1076
    assert cert.p == pytest.approx(2.0 / 7.0)


def test_worst_413_k8_vs_certified_bound(etf413):
    cert = worst_condition(etf413, 8)
    assert cert.subsets_examined == math.comb(13, 8) == 1287
    assert cert.worst_cond <= min_cond_bound(5.0 / 13.0) + 1e-6
    assert cert.worst_cond <= 2.9241


def test_worst_under_certified_bound_all_feasible_p(etf37, etf413):
    # every erasure fraction p = k/N with a feasible K >= n stays under the bound
    for f in (etf37, etf413):
        N = f.M
        for erased in range(1, N):
            K = N - erased
            p = erased / N
            if K < f.n or not 0 < p < 0.5:
                continue
            cond = worst_condition(f, K).worst_cond
            assert cond <= min_cond_bound(p) + 1e-6, (f.kind, K, p)


def test_worst_monotone_in_k_empirically(etf37, etf413):
    for f in (etf37, etf413):
        values = [worst_condition(f, K).worst_cond for K in range(f.n, f.M + 1)]
        assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))


def test_worst_budget_guard(etf37):
    big = Frame(n=2, M=50,
                vectors=DenseMatrix(np.exp(2j * np.pi * np.outer([0, 1], np.arange(50)) / 50)
                                    / math.sqrt(2)),
                normalization="unit")
    with pytest.raises(BudgetExceeded):
        worst_condition(big, 25)


def test_sampled_budget_guard(etf37):
    # refused before any draw, like an exhaustive count over the budget
    with pytest.raises(BudgetExceeded):
        worst_condition(etf37, 4, mode="sampled", samples=robustness.EXHAUSTIVE_BUDGET + 1)


def test_worst_k_range_validation(etf37):
    with pytest.raises(OutOfRange):
        worst_condition(etf37, 2)
    with pytest.raises(OutOfRange):
        worst_condition(etf37, 8)


def test_sampled_below_exhaustive(etf413):
    exact = worst_condition(etf413, 8).worst_cond
    for seed in range(10):
        cert = worst_condition(etf413, 8, mode="sampled", samples=25, seed=seed)
        assert cert.worst_cond <= exact + 1e-12
        assert cert.mode == "sampled"
        assert cert.subsets_examined == 25
        assert len(cert.worst_subset) == 8


def test_sampled_deterministic(etf413):
    a = worst_condition(etf413, 8, mode="sampled", samples=30, seed=5)
    b = worst_condition(etf413, 8, mode="sampled", samples=30, seed=5)
    assert a == b


def test_worst_invariant_under_unimodular_scaling_and_permutation(etf37):
    rng = np.random.default_rng(11)
    phases = np.exp(2j * np.pi * rng.random(7))
    perm = rng.permutation(7)
    scrambled = Frame(n=3, M=7,
                      vectors=DenseMatrix((etf37.array * phases[None, :])[:, perm]),
                      normalization="unit")
    a = worst_condition(etf37, 5).worst_cond
    b = worst_condition(scrambled, 5).worst_cond
    assert b == pytest.approx(a, abs=1e-9)


def test_worst_subset_is_lex_smallest_maximizer(etf37):
    cert = worst_condition(etf37, 5)
    maximizers = [s for s in combinations(range(7), 5)
                  if subset_condition(etf37, s) == cert.worst_cond]
    assert maximizers
    assert cert.worst_subset == min(maximizers)
    assert cert.worst_subset == tuple(sorted(cert.worst_subset))


# ---------------------------------------------------------------------------
# the blocked batched scan
# ---------------------------------------------------------------------------

# blocks of one subset, of a few, and of the default size; the scan's rows
# are small enough here that rng._BLOCK_TRIALS alone sets the block
BLOCK_SIZES = (1, 7, rng._BLOCK_TRIALS)


def repeated_column_frame():
    """Three directions in the plane, four identical copies of each.

    Equal submatrices give bit-equal condition numbers, so the worst case
    is attained by several subsets: (j, 4, 5, 6, 7) for j = 0..3.
    """
    cols = [[math.cos(t), math.sin(t)] for t in (0.0, 0.4, 1.3) for _ in range(4)]
    return Frame(n=2, M=12, vectors=DenseMatrix(np.array(cols).T), normalization="unit")


def duplicate_pair_frame():
    """40 distinct unit vectors in the plane, except columns 26 == 25 and 33 == 32.

    With K = 2 the rank-deficient subsets are (25, 26), at lexicographic
    position 675, and (32, 33); every other pair is well conditioned.
    """
    angles = np.pi * np.arange(40) / 40
    angles[26], angles[33] = angles[25], angles[32]
    cols = np.stack([np.cos(angles), np.sin(angles)])
    return Frame(n=2, M=40, vectors=DenseMatrix(cols), normalization="unit")


@pytest.fixture(scope="module")
def etf413_reference(etf413):
    return {"exhaustive": per_subset_scan(etf413, 8),
            "sampled": per_subset_scan(etf413, 8, "sampled", samples=400, seed=3)}


@pytest.mark.parametrize("size", BLOCK_SIZES)
def test_batched_scan_equals_per_subset_scan(monkeypatch, etf413, etf413_reference, size):
    # bit-identical, not approximately equal, at every block size
    monkeypatch.setattr(rng, "_BLOCK_TRIALS", size)
    exhaustive = worst_condition(etf413, 8)
    sampled = worst_condition(etf413, 8, mode="sampled", samples=400, seed=3)
    assert (exhaustive.worst_cond, exhaustive.worst_subset) == etf413_reference["exhaustive"]
    assert (sampled.worst_cond, sampled.worst_subset) == etf413_reference["sampled"]
    assert exhaustive.subsets_examined == 1287
    assert sampled.subsets_examined == 400


def test_sampled_certificate_unchanged_by_batching(etf413):
    # recorded from per_subset_scan, one condition_number call per subset
    cert = worst_condition(etf413, 8, mode="sampled", samples=300, seed=7)
    assert cert.worst_cond == 1.990117658740282
    assert cert.worst_subset == (1, 2, 3, 5, 6, 7, 9, 10)


@pytest.mark.parametrize("size", BLOCK_SIZES)
def test_exhaustive_repeated_columns_lex_smallest_maximizer(monkeypatch, size):
    f = repeated_column_frame()
    monkeypatch.setattr(rng, "_BLOCK_TRIALS", size)
    cert = worst_condition(f, 5)
    maximizers = [s for s in combinations(range(12), 5)
                  if subset_condition(f, s) == cert.worst_cond]
    assert maximizers == [(j, 4, 5, 6, 7) for j in range(4)]
    assert cert.worst_subset == (0, 4, 5, 6, 7)


@pytest.mark.parametrize("size", [7, 64])
def test_sampled_repeated_columns_tie_across_chunks(monkeypatch, size):
    f = repeated_column_frame()
    worst, _ = per_subset_scan(f, 5)
    draws = sampled_draws(22, 12, 5, 200)
    hits = [i for i, s in enumerate(draws) if subset_condition(f, s) == worst]
    # the tie spans blocks, and a later block holds the smaller subset
    assert hits[0] // size < hits[-1] // size
    assert draws[hits[0]] > draws[hits[-1]] == (0, 4, 5, 6, 7)
    monkeypatch.setattr(rng, "_BLOCK_TRIALS", size)
    cert = worst_condition(f, 5, mode="sampled", samples=200, seed=22)
    assert cert.worst_cond == worst
    assert cert.worst_subset == (0, 4, 5, 6, 7)


@pytest.mark.parametrize("size", BLOCK_SIZES[1:])
def test_certify_reports_first_rank_deficient_subset_past_first_chunk(monkeypatch, size):
    f = duplicate_pair_frame()
    assert list(combinations(range(40), 2)).index((25, 26)) >= size
    monkeypatch.setattr(rng, "_BLOCK_TRIALS", size)
    result = certify(f, C=1e6, K=2)
    assert not result.passed
    assert math.isinf(result.certificate.worst_cond)
    assert result.certificate.worst_subset == (25, 26)
    # sampled mode reports the first rank-deficient subset in draw order
    draws = sampled_draws(3, 40, 2, 2000)
    first = next(i for i, s in enumerate(draws) if s in ((25, 26), (32, 33)))
    assert first >= size
    result = certify(f, C=1e6, K=2, mode="sampled", samples=2000, seed=3)
    assert not result.passed
    assert result.certificate.worst_subset == draws[first]


@pytest.mark.parametrize("size", BLOCK_SIZES)
def test_refuted_certificate_counts_subsets_up_to_the_deficient_one(monkeypatch, size):
    f = duplicate_pair_frame()
    monkeypatch.setattr(rng, "_BLOCK_TRIALS", size)
    result = certify(f, C=1e6, K=2)
    lexicographic = list(combinations(range(40), 2)).index((25, 26)) + 1
    assert result.certificate.subsets_examined == lexicographic == 676
    draws = sampled_draws(2, 40, 2, 2000)
    first = next(i for i, s in enumerate(draws) if s in ((25, 26), (32, 33)))
    result = certify(f, C=1e6, K=2, mode="sampled", samples=2000, seed=2)
    assert result.certificate.subsets_examined == first + 1
    with pytest.raises(RankDeficient) as info:
        worst_condition(f, 2, mode="sampled", samples=2000, seed=2)
    assert info.value.certificate.subsets_examined == first + 1


def test_scan_memory_is_bounded_by_the_block_rule():
    # one subset of ETF(183,14) at K = 181 gathers 40 KB: blocks of 512
    # subsets peaked at 42.6 MB, the block rule keeps about 4 MB of scratch
    f = difference_set_etf(find_difference_set(183, 14))
    tracemalloc.start()
    try:
        cert = worst_condition(f, 181, mode="sampled", samples=600, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert cert.worst_cond == 1.051877293941362   # from per_subset_scan
    assert peak <= 2 * rng._BLOCK_BYTES, peak


def no_second_svd(*args):
    raise AssertionError("the scan decides rank deficiency without a second SVD")


@pytest.mark.parametrize("mode, samples", [("exhaustive", 0), ("sampled", 2000)])
def test_rank_deficient_scan_raises_its_certificate_once(monkeypatch, mode, samples):
    f = duplicate_pair_frame()
    if mode == "exhaustive":
        order = list(combinations(range(40), 2))
    else:
        order = sampled_draws(2, 40, 2, samples)
    first = next(i for i, s in enumerate(order) if s in ((25, 26), (32, 33)))
    monkeypatch.setattr(robustness, "condition_number", no_second_svd)
    with pytest.raises(RankDeficient, match=re.escape(f"columns {order[first]}")) as info:
        worst_condition(f, 2, mode=mode, samples=samples, seed=2)
    cert = certify(f, C=1e6, K=2, mode=mode, samples=samples, seed=2).certificate
    assert info.value.certificate == cert
    assert (cert.worst_cond, cert.worst_subset, cert.subsets_examined, cert.mode) == (
        math.inf, order[first], first + 1, mode)


# ---------------------------------------------------------------------------
# sampled subsets: Floyd's algorithm on Philox rows
# ---------------------------------------------------------------------------

def drawn(seed, N, K, samples):
    return [tuple(s) for block in rng.subset_blocks(seed, N, K, samples, 0)
            for s in block.tolist()]


@pytest.mark.parametrize("N, K", [(21, 15), (21, 21), (21, 20), (7, 1), (10001, 201)])
def test_sampled_subsets_do_not_depend_on_block_size(monkeypatch, N, K):
    expected = sampled_draws(1, N, K, 20 if N > 1000 else 300)
    for size in BLOCK_SIZES:
        monkeypatch.setattr(rng, "_BLOCK_TRIALS", size)
        assert drawn(1, N, K, len(expected)) == expected, size


def test_floyd_draw_stays_below_its_span():
    # the largest uniform, 1 - 2^-53, times j + 1 rounds to below j + 1, so
    # floor(u (j + 1)) lies in [0, j] without a clamp, up to j + 1 = 2^53
    u = 1.0 - 2.0**-53
    spans = [*range(1, 100_001), *(2**e + d for e in range(17, 54) for d in (-1, 0, 1))]
    assert all(math.floor(u * s) == s - 1 for s in spans if s <= 2**53)


def test_sampled_subsets_are_uniform():
    # all C(6, 3) = 20 subsets, 500 expected draws each: the chi-square
    # statistic, 19 degrees of freedom, stays under its 0.999 quantile 43.8
    counts = {s: 0 for s in combinations(range(6), 3)}
    for s in drawn(0, 6, 3, 10_000):
        counts[s] += 1
    assert len(counts) == 20
    assert sum((c - 500) ** 2 / 500 for c in counts.values()) < 43.8


def test_sampled_subsets_are_pinned():
    golden = {
        0: [(1, 2, 3, 4, 6, 8, 9, 11, 12, 14, 15, 16, 17, 18, 20),
            (1, 2, 3, 4, 5, 7, 8, 9, 10, 11, 13, 15, 16, 18, 20)],
        1: [(1, 2, 3, 4, 5, 6, 9, 11, 12, 15, 16, 17, 18, 19, 20),
            (1, 3, 4, 5, 7, 8, 9, 10, 11, 14, 15, 16, 17, 18, 20)],
        2: [(0, 2, 4, 5, 6, 7, 8, 9, 10, 11, 12, 14, 16, 18, 20),
            (2, 3, 4, 6, 7, 8, 11, 12, 13, 14, 15, 16, 17, 18, 20)],
    }
    for seed, subsets in golden.items():
        assert drawn(seed, 21, 15, 2) == subsets


# ---------------------------------------------------------------------------
# the Gram-eigenvalue screen in front of the SVD
# ---------------------------------------------------------------------------

def scan_outcome(f, K, mode, samples, seed):
    """The batched scan's certificate, or its first rank-deficient subset."""
    try:
        cert = worst_condition(f, K, mode=mode, samples=samples, seed=seed)
    except RankDeficient as exc:
        return "deficient", exc.certificate.worst_subset, exc.certificate.subsets_examined
    assert 1 <= cert.subsets_svd <= cert.subsets_examined
    return cert.worst_cond, cert.worst_subset


@st.composite
def small_frames(draw):
    """Unit-norm random frames, N <= 10, with some columns pulled near others.

    A near-copy at distance 1e-14 to 1e-2 (or an exact copy) gives subsets
    whose Gram estimate the screen trusts, does not trust, or that are rank
    deficient.
    """
    n = draw(st.integers(1, 4))
    M = draw(st.integers(n, 10))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    v = gen.standard_normal((n, M))
    if not draw(st.booleans()):
        v = v + 1j * gen.standard_normal((n, M))
    for _ in range(draw(st.integers(0, 3))):
        src, dst = draw(st.integers(0, M - 1)), draw(st.integers(0, M - 1))
        eps = draw(st.sampled_from([0.0, 1e-14, 1e-10, 1e-7, 1e-4, 1e-2]))
        v[:, dst] = v[:, src] + eps * v[:, dst]
    v = v / np.linalg.norm(v, axis=0)
    return Frame(n=n, M=M, vectors=DenseMatrix(v), normalization="unit")


@settings(max_examples=60, deadline=None)
@given(f=small_frames(), data=st.data())
def test_screened_scan_equals_per_subset_scan(f, data):
    # bit-identical to one SVD per subset, in both modes and at every block size
    K = data.draw(st.integers(f.n, f.M))
    seed = data.draw(st.integers(0, 1000))
    for mode, samples in (("exhaustive", 0), ("sampled", 40)):
        expected = per_subset_scan(f, K, mode, samples, seed)
        for size in BLOCK_SIZES:
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(rng, "_BLOCK_TRIALS", size)
                assert scan_outcome(f, K, mode, samples, seed) == expected, (mode, size)


def unit_vectors_at(angles, phases=None):
    """Unit vectors of the plane at ``angles``, times unimodular ``phases``.

    Two of them at angle phi form a submatrix with singular values
    sqrt(1 +- cos phi), so its condition number is cot(phi / 2).
    """
    v = np.stack([np.cos(angles), np.sin(angles)])
    if phases is not None:
        v = v * np.exp(1j * np.asarray(phases))[None, :]
    return Frame(n=2, M=len(angles), vectors=DenseMatrix(v), normalization="unit")


def test_screen_tops_trusted_estimates_only():
    # conditions 999 for (0, 1), 1001 for (0, 2) and about 500 for (1, 2):
    # they straddle 1/sqrt(_SCREEN_FLOOR) = 1000, so (0, 1) is trusted and is
    # the top trusted estimate, while (0, 2) is not trusted
    f = unit_vectors_at(np.array([0.0, 2 * math.atan(1 / 999), -2 * math.atan(1 / 1001)]))
    conds = {s: subset_condition(f, s) for s in combinations(range(3), 2)}
    assert conds[(1, 2)] < conds[(0, 1)] < 1 / math.sqrt(robustness._SCREEN_FLOOR)
    assert 1 / math.sqrt(robustness._SCREEN_FLOOR) < conds[(0, 2)]
    block = np.moveaxis(f.array[:, np.array([(0, 1), (0, 2), (1, 2)])], 1, 0)
    # the untrusted estimate is larger, yet the trusted top still goes to the SVD
    assert robustness._needs_svd(*robustness._estimates(block)).tolist() == [True, True, False]
    for size in BLOCK_SIZES:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(rng, "_BLOCK_TRIALS", size)
            cert = worst_condition(f, 2)
        assert (cert.worst_cond, cert.worst_subset) == per_subset_scan(f, 2)
        assert cert.worst_subset == (0, 2)
    assert worst_condition(f, 2).subsets_svd == 2   # (0, 1) and (0, 2)
    # without the untrusted pair the trusted (0, 1) is the maximum
    g = unit_vectors_at(np.array([0.0, 2 * math.atan(1 / 999), -1.0]))
    cert = worst_condition(g, 2)
    assert (cert.worst_cond, cert.worst_subset) == per_subset_scan(g, 2)
    assert cert.worst_subset == (0, 1)
    assert cert.worst_cond == subset_condition(g, (0, 1))
    # a block of untrusted estimates only goes to the SVD whole, below any floor
    h = unit_vectors_at(np.array([0.0, 1e-4, -1e-4]))
    block = np.moveaxis(h.array[:, np.array([(0, 1), (0, 2), (1, 2)])], 1, 0)
    est, trusted = robustness._estimates(block)
    assert not trusted.any() and not est.any()
    for floor in (-math.inf, 0.0, 5.0, 1e300):
        assert robustness._needs_svd(est, trusted, floor).tolist() == [True, True, True]


def test_screen_is_floored_at_the_worst_value_found_in_earlier_blocks(monkeypatch):
    # conditions about 200 for (0, 1), 1.8 for (0, 2) and 1.9 for (1, 2): with
    # one subset a block, (0, 1) comes first and the later blocks fall below it
    f = unit_vectors_at(np.array([0.0, 0.01, 1.0]))
    monkeypatch.setattr(rng, "_BLOCK_TRIALS", 1)
    cert = worst_condition(f, 2)
    assert (cert.worst_cond, cert.worst_subset) == per_subset_scan(f, 2)
    assert cert.worst_subset == (0, 1)
    assert cert.subsets_svd == 1


@pytest.mark.parametrize("complex_phases", [False, True])
def test_screen_sends_an_ill_conditioned_worst_subset_to_the_svd(complex_phases):
    # columns 1 and 2 are 2e-10 apart: condition about 1e10, far past what the
    # Gram eigenvalues resolve, yet not rank deficient at RANK_TOL
    angles = np.array([0.0, 0.7, 0.7 + 2 * math.atan(1e-10), 1.6, 2.4, 3.0])
    phases = np.linspace(0.0, 5.0, 6) if complex_phases else None
    f = unit_vectors_at(angles, phases)
    expected = per_subset_scan(f, 2)
    assert expected[1] == (1, 2)
    assert 1e9 < expected[0] < 1e11
    for size in BLOCK_SIZES:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(rng, "_BLOCK_TRIALS", size)
            cert = worst_condition(f, 2)
        assert (cert.worst_cond, cert.worst_subset) == expected
    assert certify(f, C=1e11, K=2).passed


# ---------------------------------------------------------------------------
# bound inversion
# ---------------------------------------------------------------------------

def test_min_cond_bound_known_values():
    assert min_cond_bound(2.0 / 7.0) == pytest.approx(
        math.sqrt((7.0 + 2.0 * math.sqrt(10.0)) / 3.0), rel=1e-12
    )
    assert min_cond_bound(5.0 / 13.0) == pytest.approx(2.923988, abs=1e-6)


def test_min_cond_bound_limit_p_to_zero():
    assert min_cond_bound(1e-12) == pytest.approx(1.0, abs=1e-6)


def test_min_cond_bound_domain():
    for p in (0.0, 0.5, -0.1, 0.7):
        with pytest.raises(OutOfRange):
            min_cond_bound(p)


@settings(max_examples=100, deadline=None)
@given(st.floats(1e-6, 0.5 - 1e-6))
def test_min_cond_bound_substitution_oracle(p):
    # plugging C back into 1/2 - C^2/(C^4+1) must recover p, and C >= 1
    c = min_cond_bound(p)
    assert c >= 1.0
    recovered = 0.5 - c**2 / (c**4 + 1.0)
    assert recovered == pytest.approx(p, rel=1e-9, abs=1e-12)


# ---------------------------------------------------------------------------
# certification
# ---------------------------------------------------------------------------

def test_certify_pass_at_certified_bound(etf37):
    # p = 2/7 keeps K = (1 - p) N = 5 of the 7 vectors
    result = certify(etf37, C=min_cond_bound(2.0 / 7.0), K=5)
    assert result.passed
    assert result.certificate.mode == "exhaustive"
    assert result.certificate.K == 5


def refuse_scan(*args):
    raise AssertionError("an impossible C is refused before any scan")


def test_certify_impossible_c(monkeypatch, etf37):
    # no condition number is below 1, so C < 1 (or NaN) decides nothing
    monkeypatch.setattr(robustness, "_scan", refuse_scan)
    for C in (1.0 - 1e-6, 0.5, 0.0, -1.0, math.nan):
        with pytest.raises(OutOfRange, match="C must be >= 1"):
            certify(etf37, C=C, K=5)
    monkeypatch.undo()
    assert certify(etf37, C=1.0, K=7).required_cond == 1.0   # C = 1 is admitted


def test_certify_rank_deficient_fails():
    f = Frame(n=2, M=3,
              vectors=DenseMatrix(np.array([[1.0, 1.0, 0.0], [0.0, 0.0, 1.0]])),
              normalization="unit")
    result = certify(f, C=10.0, K=2)
    assert not result.passed
    assert math.isinf(result.certificate.worst_cond)
    assert result.certificate.worst_subset == (0, 1)


def test_certify_k_range_checked_by_worst_condition(etf37):
    for K in (2, 8):
        with pytest.raises(OutOfRange, match="n <= K <= N"):
            certify(etf37, C=2.0, K=K)


def test_certify_accepts_k_directly(etf413):
    result = certify(etf413, C=3.0, K=8)
    assert result.passed
    assert result.certificate.p == pytest.approx(5.0 / 13.0)
