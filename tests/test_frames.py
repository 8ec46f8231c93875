import dataclasses
import json
import math
import time
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from framelab import (
    BudgetExceeded,
    DenseMatrix,
    DifferenceSet,
    Frame,
    NonFiniteEntry,
    NoSuchSet,
    OutOfRange,
    check_tight,
    coherence,
    difference_set_etf,
    find_difference_set,
    harmonic_frame,
    renormalize,
    scaled_onb_frame,
    welch_bound,
)
from framelab import frames
from framelab.cli import main
from framelab.linalg import gram_matrix


def brute_force_difference_set(N, M):
    """Oracle: scan all M-subsets containing 0 in lexicographic order."""
    for subset in combinations(range(1, N), M - 1):
        cand = (0,) + subset
        counts = [0] * N
        for a in cand:
            for b in cand:
                if a != b:
                    counts[(a - b) % N] += 1
        if all(c == 1 for c in counts[1:]):
            return cand
    return None


def backtracking_difference_set(N, M, node_budget=1_000_000):
    """Oracle: ordered backtracking; the first complete set is the lexicographically smallest.

    Elements are chosen in increasing order and a candidate is accepted only
    if all the new pairwise differences it creates are still unused.  Raises
    BudgetExceeded after ``node_budget`` candidates, since the search time
    grows without a useful bound beyond N = 91.
    """
    used = bytearray(N)  # used[d] = 1 when residue d already appears as a difference
    chosen = [0]
    nodes = 0

    def extend(start):
        nonlocal nodes
        if len(chosen) == M:
            return True
        # not enough residues left to fill the remaining slots
        for cand in range(start, N - (M - len(chosen)) + 1):
            nodes += 1
            if nodes > node_budget:
                raise BudgetExceeded(f"backtracking over {node_budget} candidates")
            new = []
            for d in chosen:
                fwd = (cand - d) % N
                bwd = (d - cand) % N
                if used[fwd] or used[bwd] or fwd == bwd:
                    break
                new += (fwd, bwd)
            else:
                if len(set(new)) != len(new):
                    continue
                for d in new:
                    used[d] = 1
                chosen.append(cand)
                if extend(cand + 1):
                    return True
                chosen.pop()
                for d in new:
                    used[d] = 0
        return False

    return tuple(chosen) if extend(1) else None


# ---------------------------------------------------------------------------
# scaled orthonormal unions
# ---------------------------------------------------------------------------

def test_scaled_onb_basic():
    f = scaled_onb_frame(2, 1)
    assert (f.n, f.M, f.normalization) == (2, 2, "recon")
    assert np.allclose(f.array, math.sqrt(2) * np.eye(2))
    assert np.allclose(f.operator(), 2 * np.eye(2))


def test_scaled_onb_copies():
    f = scaled_onb_frame(2, 2)
    assert f.M == 4
    assert np.allclose(f.operator(), 4 * np.eye(2))


def test_scaled_onb_tightness_exact():
    # residual is a couple of ulps, not an exact zero: (sqrt(n))**2 != n in floats
    f = scaled_onb_frame(3, 1)
    report = check_tight(f)
    assert report.residual <= 1e-15
    assert report.passed


def test_scaled_onb_rejects_bad_args():
    with pytest.raises(OutOfRange):
        scaled_onb_frame(0, 1)
    with pytest.raises(OutOfRange):
        scaled_onb_frame(2, 0)


# ---------------------------------------------------------------------------
# harmonic frames
# ---------------------------------------------------------------------------

def test_harmonic_2_4_explicit_columns():
    f = harmonic_frame(2, 4, row_set=(0, 1))
    # column k should be (1, i**k)
    for k in range(4):
        assert np.allclose(f.array[:, k], [1.0, 1j**k], atol=1e-14)
    assert np.allclose(f.operator(), 4 * np.eye(2), atol=1e-12)


def test_harmonic_2_2_is_dft():
    f = harmonic_frame(2, 2)
    dft = np.array([[1.0, 1.0], [1.0, -1.0]])
    assert np.allclose(f.array, dft, atol=1e-12)
    assert np.allclose(f.operator(), 2 * np.eye(2), atol=1e-12)


def test_harmonic_large_tight():
    f = harmonic_frame(16, 1024)
    assert check_tight(f, tol=1e-10).passed


def test_harmonic_column_norms_exact():
    for n, M in ((2, 4), (3, 9), (16, 64)):
        f = harmonic_frame(n, M)
        norms_sq = np.sum(np.abs(f.array) ** 2, axis=0)
        assert np.max(np.abs(norms_sq - n)) <= 1e-12


def test_harmonic_row_set_validation():
    with pytest.raises(OutOfRange):
        harmonic_frame(2, 4, row_set=(0, 0))
    with pytest.raises(OutOfRange):
        harmonic_frame(2, 4, row_set=(0, 4))
    with pytest.raises(OutOfRange):
        harmonic_frame(4, 3)


def test_harmonic_real_variant():
    for n, M in ((4, 12), (5, 12), (3, 8)):
        f = harmonic_frame(n, M, real=True)
        assert f.vectors.mode == "real"
        assert check_tight(f, tol=1e-10).passed
        norms_sq = np.sum(f.array**2, axis=0)
        assert np.max(np.abs(norms_sq - n)) <= 1e-12


def test_harmonic_real_needs_room():
    with pytest.raises(OutOfRange):
        harmonic_frame(4, 4, real=True)
    with pytest.raises(OutOfRange):
        harmonic_frame(2, 4, real=True, row_set=(0, 1))


# ---------------------------------------------------------------------------
# difference sets
# ---------------------------------------------------------------------------

def test_find_difference_set_7_3_vs_bruteforce():
    ds = find_difference_set(7, 3)
    assert ds.elements == (0, 1, 3)
    assert ds.elements == brute_force_difference_set(7, 3)


def test_find_difference_set_13_4_vs_bruteforce():
    ds = find_difference_set(13, 4)
    assert ds.elements == (0, 1, 3, 9)
    assert ds.elements == brute_force_difference_set(13, 4)


def test_find_difference_set_infeasible_arithmetic():
    with pytest.raises(NoSuchSet):
        find_difference_set(7, 4)


def test_find_difference_set_budget():
    # order 32 = 2**5 is a prime power, so only the N <= 1000 budget refuses it
    with pytest.raises(BudgetExceeded):
        find_difference_set(1057, 33)


@pytest.mark.parametrize("N,M", [(7, 3), (13, 4), (21, 5), (31, 6), (57, 8)])
def test_difference_property_validates(N, M):
    ds = find_difference_set(N, M)
    counts = [0] * N
    for a in ds.elements:
        for b in ds.elements:
            if a != b:
                counts[(a - b) % N] += 1
    assert counts[1:] == [1] * (N - 1)


# every (N, M) with M(M-1) = N-1, N <= 91 and prime-power order M-1
ADMISSIBLE = [(1, 1), (3, 2), (7, 3), (13, 4), (21, 5), (31, 6), (57, 8), (73, 9), (91, 10)]


@pytest.mark.parametrize("N,M", ADMISSIBLE)
def test_singer_matches_backtracking(N, M):
    assert find_difference_set(N, M).elements == backtracking_difference_set(N, M)


def test_backtracking_oracle_is_budgeted():
    with pytest.raises(BudgetExceeded):
        backtracking_difference_set(91, 10, node_budget=1_000)


@pytest.mark.parametrize("N,M", [(43, 7), (111, 11), (157, 13)])
def test_non_prime_power_order_refused_without_search(N, M, monkeypatch):
    def no_search(*args):
        raise AssertionError("a construction was attempted")

    monkeypatch.setattr(frames, "_singer_set", no_search)
    with pytest.raises(NoSuchSet, match="not a prime power"):
        find_difference_set(N, M)


# (757, 28) has the slowest walk within the N <= 1000 budget
@pytest.mark.parametrize("N,M", [(133, 12), (183, 14), (757, 28), (993, 32)])
def test_singer_beyond_backtracking_reach(N, M):
    start = time.perf_counter()
    ds = find_difference_set(N, M)
    assert time.perf_counter() - start < 1.0
    assert ds.elements[0] == 0 and ds.M == M
    assert DifferenceSet(N=N, elements=ds.elements).elements == ds.elements


# every prime power q = p^e <= 31
@pytest.mark.parametrize("p,e", [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2),
                                 (11, 1), (13, 1), (2, 4), (17, 1), (19, 1), (23, 1),
                                 (5, 2), (3, 3), (29, 1), (31, 1)])
def test_raw_singer_set_is_a_difference_set(p, e):
    # the walk's choice of polynomial, checked before the canonical form
    q = p ** e
    D = frames._singer_set(p, e)
    assert DifferenceSet(N=q * q + q + 1, elements=D).M == q + 1


@pytest.mark.parametrize("N,M", [(1, 0), (3, -1), (7, -2), (13, -3)])
def test_nonpositive_set_size_has_no_set(N, M):
    with pytest.raises(NoSuchSet):
        find_difference_set(N, M)


def test_difference_set_type_rejects_fake():
    with pytest.raises(OutOfRange):
        DifferenceSet(N=7, elements=(0, 1, 2))


def _construct_etf(capsys, tmp_path, N, M):
    code = main(["construct", "--kind", "etf", "--N", str(N), "--M", str(M),
                 "--out", str(tmp_path / "etf.json")])
    return code, json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_cli_constructs_etf_183_14(tmp_path, capsys):
    code, doc = _construct_etf(capsys, tmp_path, 183, 14)
    assert code == 0
    assert (doc["result"]["n"], doc["result"]["M"]) == (14, 183)


def test_cli_non_prime_power_order_exits_3(tmp_path, capsys):
    code, doc = _construct_etf(capsys, tmp_path, 111, 11)
    assert code == 3
    assert doc["error"] == "NoSuchSet"
    assert not (tmp_path / "etf.json").exists()


# ---------------------------------------------------------------------------
# difference-set ETFs
# ---------------------------------------------------------------------------

def gram_oracle(f):
    """Independent coherence computation from explicit inner-product loops."""
    v = f.array
    vals = []
    for k in range(f.M):
        for l in range(k + 1, f.M):
            num = abs(np.sum(np.conj(v[:, k]) * v[:, l]))
            den = np.linalg.norm(v[:, k]) * np.linalg.norm(v[:, l])
            vals.append(num / den)
    return max(vals), vals


def test_etf_3_7_coherence_matches_welch():
    f = difference_set_etf(find_difference_set(7, 3))
    oracle, vals = gram_oracle(f)
    assert coherence(f) == pytest.approx(oracle, abs=1e-12)
    assert coherence(f) == pytest.approx(welch_bound(3, 7), abs=1e-9)
    assert coherence(f) == pytest.approx(math.sqrt(2) / 3, abs=1e-9)
    # equiangular: all off-diagonal magnitudes agree
    assert max(vals) - min(vals) <= 1e-9


def test_etf_3_7_tight():
    f = difference_set_etf(find_difference_set(7, 3))
    assert np.allclose(f.operator(), (7.0 / 3.0) * np.eye(3), atol=1e-10)


def test_etf_4_13_coherence():
    f = difference_set_etf(find_difference_set(13, 4))
    assert coherence(f) == pytest.approx(math.sqrt(3) / 4, abs=1e-9)
    # equiangular: every |<f_k, f_l>|, k < l, is the same (unit-norm columns)
    spread = np.abs(gram_matrix(f.vectors))[np.triu_indices(f.M, k=1)]
    assert np.max(spread) - np.min(spread) <= 1e-9


def test_etf_recon_normalization():
    f = renormalize(difference_set_etf(find_difference_set(7, 3)), "recon")
    norms_sq = np.sum(np.abs(f.array) ** 2, axis=0)
    assert np.allclose(norms_sq, 3.0, atol=1e-12)
    assert check_tight(f, tol=1e-10).passed


def planar_difference_sets():
    """Every cyclic (N, M, 1) difference set that ``find_difference_set`` builds."""
    sets, M = [], 1
    while (N := M * (M - 1) + 1) <= frames._N_LIMIT:
        try:
            sets.append(find_difference_set(N, M))
        except NoSuchSet:
            pass
        M += 1
    return sets


def test_difference_set_etf_equals_the_character_table_formula():
    sets = planar_difference_sets()
    assert len(sets) == 19
    assert [(ds.N, ds.M) for ds in (sets[0], sets[-1])] == [(1, 1), (993, 32)]
    for ds in sets:
        # oracle: F[m, k] = exp(2 pi i d_m k / N) / sqrt(M), bit for bit
        d = np.asarray(ds.elements)[:, None]
        k = np.arange(ds.N)[None, :]
        oracle = np.exp(2j * np.pi * (d * k) / ds.N) / math.sqrt(ds.M)
        f = difference_set_etf(ds)
        assert (f.n, f.M, f.normalization, f.kind) == (ds.M, ds.N, "unit", "etf")
        assert f.array.dtype == oracle.dtype
        assert f.array.tobytes() == oracle.tobytes(), (ds.N, ds.M)


# ---------------------------------------------------------------------------
# tightness checks and coherence edge cases
# ---------------------------------------------------------------------------

def test_check_tight_pass_examples():
    assert check_tight(scaled_onb_frame(2, 1)).residual <= 1e-15
    assert check_tight(harmonic_frame(2, 4)).residual <= 1e-12


def test_check_tight_fails_on_non_spanning():
    e1 = np.array([[1.0, 1.0], [0.0, 0.0]])
    f = Frame(n=2, M=2, vectors=DenseMatrix(e1), normalization="unit")
    report = check_tight(f, tol=1e-10)
    assert report.residual == pytest.approx(1.0, abs=1e-12)
    assert not report.passed


def test_coherence_edge_cases():
    onb = Frame(n=2, M=2, vectors=DenseMatrix(np.eye(2)), normalization="unit")
    assert coherence(onb) == 0.0
    dup = Frame(n=2, M=2, vectors=DenseMatrix(np.array([[1.0, 1.0], [0.0, 0.0]])),
                normalization="unit")
    assert coherence(dup) == pytest.approx(1.0)


def test_every_construction_is_tight():
    frames = [
        scaled_onb_frame(2, 1), scaled_onb_frame(5, 3), scaled_onb_frame(64, 2),
        harmonic_frame(2, 4), harmonic_frame(7, 29), harmonic_frame(16, 256),
        harmonic_frame(6, 20, real=True),
        difference_set_etf(find_difference_set(7, 3)),
        difference_set_etf(find_difference_set(13, 4)),
        renormalize(difference_set_etf(find_difference_set(21, 5)), "recon"),
    ]
    for f in frames:
        assert check_tight(f, tol=1e-10).passed, f.kind


def test_renormalize_roundtrip():
    f = difference_set_etf(find_difference_set(7, 3))
    r = renormalize(f, "recon")
    back = renormalize(r, "unit")
    assert np.allclose(back.array, f.array, atol=1e-14)
    assert renormalize(f, "unit") is f


def test_renormalize_unknown_normalization_refused_by_frame():
    with pytest.raises(OutOfRange, match="unknown normalization 'bogus'"):
        renormalize(harmonic_frame(2, 4), "bogus")


def test_frame_json_roundtrip():
    f = harmonic_frame(3, 9)
    back = Frame.from_json_dict(f.to_json_dict())
    assert np.array_equal(back.array, f.array)
    assert (back.n, back.M, back.normalization, back.kind) == (3, 9, "recon", "harmonic")


@pytest.mark.parametrize("kind", [7, None, ["harmonic"]], ids=["number", "null", "list"])
def test_frame_kind_must_be_a_string(kind):
    # a Frame that could not be read back from its own file is refused when built
    with pytest.raises(TypeError, match="kind must be a string"):
        dataclasses.replace(harmonic_frame(2, 5), kind=kind)
    with pytest.raises(TypeError, match="kind must be a string"):
        Frame.from_json_dict(dict(harmonic_frame(2, 5).to_json_dict(), kind=kind))


def test_frame_alpha():
    assert scaled_onb_frame(2, 2).alpha == pytest.approx(0.25)
    f = difference_set_etf(find_difference_set(7, 3))  # unit normalized
    assert f.alpha == pytest.approx(3.0 / 7.0)


def test_frame_rejects_nonfinite_entries():
    doc = harmonic_frame(2, 4).to_json_dict()
    doc["matrix"]["entries"][0] = [float("nan"), 0.0]
    with pytest.raises(NonFiniteEntry):
        Frame.from_json_dict(doc)


def test_frame_rejects_wrong_norms():
    with pytest.raises(OutOfRange):
        Frame(n=2, M=2, vectors=DenseMatrix(np.eye(2)), normalization="recon")


@settings(max_examples=20, deadline=None)
@given(st.integers(2, 6), st.integers(0, 1000))
def test_harmonic_tight_property(n, seed):
    rng = np.random.default_rng(seed)
    M = int(rng.integers(n, 4 * n + 1))
    rows = rng.choice(M, size=n, replace=False)
    f = harmonic_frame(n, M, row_set=tuple(int(r) for r in rows))
    assert check_tight(f, tol=1e-10).passed
