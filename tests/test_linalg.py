import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from framelab import (
    DenseMatrix,
    NonFiniteEntry,
    OutOfRange,
    RankDeficient,
    ShapeMismatch,
    condition_number,
    condition_numbers,
    difference_set_etf,
    find_difference_set,
    frame_operator,
    harmonic_frame,
    operator_norm,
    operator_norms,
    scaled_onb_frame,
    schatten_norm,
    singular_values,
)


def random_matrix(seed, rows=4, cols=5, complex_mode=False):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((rows, cols))
    if complex_mode:
        a = a + 1j * rng.standard_normal((rows, cols))
    return a


# ---------------------------------------------------------------------------
# singular values
# ---------------------------------------------------------------------------

def test_svd_diagonal():
    assert np.allclose(singular_values(np.diag([3.0, 4.0])), [4.0, 3.0])


def test_svd_identity():
    assert np.allclose(singular_values(np.eye(2)), [1.0, 1.0])


def test_svd_etf_rows_all_equal():
    # oracle: tightness forces F F* = (N/M) I, so every singular value is
    # sqrt(N/M)
    f = difference_set_etf(find_difference_set(7, 3))
    ff = f.array @ f.array.conj().T
    assert np.allclose(ff, (7.0 / 3.0) * np.eye(3), atol=1e-12)
    s = singular_values(f.array)
    assert np.allclose(s, math.sqrt(7.0 / 3.0), rtol=1e-10)


def test_svd_rejects_nonfinite():
    with pytest.raises(NonFiniteEntry):
        singular_values(np.array([[1.0, np.nan], [0.0, 1.0]]))
    with pytest.raises(NonFiniteEntry):
        singular_values(np.array([[np.inf, 0.0], [0.0, 1.0]]))


def test_svd_rejects_bad_shapes():
    with pytest.raises(ShapeMismatch):
        singular_values(np.zeros(3))
    with pytest.raises(ShapeMismatch):
        singular_values(np.zeros((0, 3)))


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000))
def test_svd_squares_sum_to_frobenius(seed):
    a = random_matrix(seed, complex_mode=seed % 2 == 0)
    s = singular_values(a)
    frob_sq = float(np.sum(np.abs(a) ** 2))
    assert math.isclose(float(np.sum(s**2)), frob_sq, rel_tol=1e-10)


def test_svd_scaled_unitary_rows():
    # rows of c*U with U having orthonormal rows: all values equal c
    rng = np.random.default_rng(3)
    q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
    u = 2.5 * q[:3]
    assert np.allclose(singular_values(u), 2.5, rtol=1e-10)


# ---------------------------------------------------------------------------
# operator norm
# ---------------------------------------------------------------------------

def test_operator_norm_diagonal():
    assert operator_norm(np.diag([3.0, 4.0])) == pytest.approx(4.0)


def test_operator_norm_rank_one():
    z = np.array([1.0, 1.0])
    assert operator_norm(np.outer(z, z)) == pytest.approx(2.0, rel=1e-12)


def test_operator_norm_sign_circulant_dft_oracle():
    # circulant matrix norm equals the largest DFT magnitude of its symbol
    eps = np.array([1.0, 1.0, -1.0, 1.0])
    n = eps.size
    circ = np.empty((n, n))
    for i in range(n):
        for j in range(n):
            circ[i, j] = eps[(i - j) % n]
    oracle = float(np.max(np.abs(np.fft.fft(eps)))) / math.sqrt(n)
    assert operator_norm(circ / math.sqrt(n)) == pytest.approx(oracle, rel=1e-12)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10_000))
def test_operator_norm_random_circulants_dft_oracle(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 9))
    symbol = rng.choice([-1.0, 1.0], size=n)
    circ = np.empty((n, n))
    for i in range(n):
        for j in range(n):
            circ[i, j] = symbol[(i - j) % n]
    oracle = float(np.max(np.abs(np.fft.fft(symbol)))) / math.sqrt(n)
    assert operator_norm(circ / math.sqrt(n)) == pytest.approx(oracle, rel=1e-12)


# ---------------------------------------------------------------------------
# Schatten norms
# ---------------------------------------------------------------------------

def test_schatten_frobenius_diagonal():
    assert schatten_norm(np.diag([3.0, 4.0]), 2) == pytest.approx(5.0, rel=1e-12)


def test_schatten_identity_any_even_order():
    for m in (1, 2, 4):
        n = 5
        assert schatten_norm(np.eye(n), 2 * m) == pytest.approx(
            n ** (1.0 / (2 * m)), rel=1e-12
        )


def test_schatten_direct_evaluation():
    v = schatten_norm(np.diag([1.0, 2.0, 2.0]), 4)
    assert v == pytest.approx(33.0**0.25, rel=1e-12)


def test_schatten_rejects_p_below_one():
    for p in (0.5, float("nan")):   # NaN is not >= 1 either
        with pytest.raises(OutOfRange):
            schatten_norm(np.eye(2), p)


def test_schatten_zero_matrix():
    assert schatten_norm(np.zeros((3, 3)), 3) == 0.0


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000))
def test_schatten_nonincreasing_in_p(seed):
    a = random_matrix(seed)
    values = [schatten_norm(a, p) for p in (1, 2, 4, 8)]
    for lo, hi in zip(values[1:], values[:-1]):
        assert lo <= hi * (1 + 1e-12)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 6))
def test_schatten_brackets_operator_norm(seed, m):
    a = random_matrix(seed)
    top = operator_norm(a)
    s2m = schatten_norm(a, 2 * m)
    k = min(a.shape)
    assert top <= s2m * (1 + 1e-12)
    assert s2m <= k ** (1.0 / (2 * m)) * top * (1 + 1e-12)


# ---------------------------------------------------------------------------
# condition number
# ---------------------------------------------------------------------------

def test_condition_identity():
    assert condition_number(np.eye(3)) == pytest.approx(1.0)


def test_condition_diagonal():
    assert condition_number(np.diag([4.0, 2.0])) == pytest.approx(2.0)


def test_condition_full_etf_is_one():
    f = difference_set_etf(find_difference_set(7, 3))
    assert condition_number(f.array) == pytest.approx(1.0, abs=1e-10)


def test_condition_rank_deficient():
    with pytest.raises(RankDeficient):
        condition_number(np.array([[1.0, 1.0], [1.0, 1.0]]))
    with pytest.raises(RankDeficient):
        condition_number(np.zeros((2, 2)))


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000),
       st.floats(0.01, 100.0, allow_nan=False, allow_infinity=False))
def test_condition_scale_invariant(seed, c):
    a = random_matrix(seed, 4, 4)
    base = condition_number(a)
    scaled = condition_number(c * a)
    assert math.isclose(base, scaled, rel_tol=1e-10)


def test_condition_numbers_match_one_matrix_calls():
    # bit-identical: each matrix of the stack gets the same LAPACK call
    stack = np.stack([random_matrix(s, 3, 6, complex_mode=True) for s in range(9)])
    batched = condition_numbers(stack)
    assert batched.shape == (9,)
    assert [float(c) for c in batched] == [condition_number(m) for m in stack]


def test_condition_numbers_inf_where_rank_deficient():
    stack = np.stack([np.diag([4.0, 2.0]), np.ones((2, 2)), np.zeros((2, 2)),
                      np.diag([1.0, 1e-13])])
    assert condition_numbers(stack).tolist() == [2.0, math.inf, math.inf, math.inf]


def test_condition_numbers_rejects_nonfinite_and_bad_shapes():
    with pytest.raises(NonFiniteEntry):
        condition_numbers(np.array([[[1.0, np.nan], [0.0, 1.0]]]))
    with pytest.raises(ShapeMismatch):
        condition_numbers(np.eye(2))
    with pytest.raises(ShapeMismatch):
        condition_numbers(np.zeros((3, 0, 2)))


def svd_top(stack):
    return np.array([np.linalg.svd(m, compute_uv=False)[0] for m in stack])


@pytest.mark.parametrize("rows, cols", [(3, 6), (6, 3), (5, 5)])
@pytest.mark.parametrize("complex_mode", [False, True])
def test_operator_norms_match_per_matrix_svd(rows, cols, complex_mode):
    stack = np.stack([random_matrix(s, rows, cols, complex_mode) for s in range(12)])
    got = operator_norms(stack)
    assert got.shape == (12,)
    assert np.allclose(got, svd_top(stack), rtol=1e-13, atol=0.0)


@pytest.mark.parametrize("complex_mode", [False, True])
def test_operator_norms_hermitian_match_per_matrix_svd(complex_mode):
    # indefinite Hermitian stacks: the norm is max(-lambda_min, lambda_max)
    a = np.stack([random_matrix(s, 5, 5, complex_mode) for s in range(12)])
    herm = a + a.conj().swapaxes(1, 2)
    herm[0] = -np.diag([5.0, 1.0, 0.0, 0.0, 2.0])   # the negative end wins
    expected = svd_top(herm)
    assert expected[0] == 5.0
    assert np.allclose(operator_norms(herm, hermitian=True), expected, rtol=1e-13, atol=0.0)
    assert np.allclose(operator_norms(herm), expected, rtol=1e-13, atol=0.0)


def test_operator_norms_zero_and_rank_deficient():
    z = np.array([1.0, -2.0, 0.5])
    stack = np.stack([np.zeros((3, 3)), np.outer(z, z), np.outer(z, [1.0, 1.0, 0.0])])
    assert operator_norms(stack)[0] == 0.0
    assert operator_norms(stack[:1], hermitian=True)[0] == 0.0
    assert np.allclose(operator_norms(stack), svd_top(stack), rtol=1e-13, atol=0.0)
    assert operator_norms(stack[1:2], hermitian=True)[0] == pytest.approx(z @ z, rel=1e-13)


def test_operator_norms_rejects_nonfinite_and_bad_shapes():
    for hermitian in (False, True):
        with pytest.raises(NonFiniteEntry):
            operator_norms(np.array([[[1.0, np.nan], [np.nan, 1.0]]]), hermitian=hermitian)
        with pytest.raises(ShapeMismatch):
            operator_norms(np.eye(2), hermitian=hermitian)
        with pytest.raises(ShapeMismatch):
            operator_norms(np.zeros((3, 0, 2)), hermitian=hermitian)


# ---------------------------------------------------------------------------
# frame operator
# ---------------------------------------------------------------------------

def test_frame_operator_scaled_onb():
    f = scaled_onb_frame(2, 1)
    assert np.allclose(frame_operator(f), 2.0 * np.eye(2), atol=1e-12)


def test_frame_operator_harmonic_direct_sum_oracle():
    f = harmonic_frame(2, 4, row_set=(0, 1))
    # oracle: accumulate the outer products one column at a time
    acc = np.zeros((2, 2), dtype=complex)
    for k in range(4):
        z = f.array[:, k]
        acc += np.outer(z, z.conj())
    assert np.allclose(acc, 4.0 * np.eye(2), atol=1e-12)
    assert np.allclose(frame_operator(f), acc, atol=1e-12)


def test_frame_operator_single_vector():
    z = np.array([[1.0], [2.0]])
    assert np.allclose(frame_operator(z), [[1.0, 2.0], [2.0, 4.0]])


# ---------------------------------------------------------------------------
# DenseMatrix carrier and JSON codec
# ---------------------------------------------------------------------------

def test_dense_matrix_mode_and_shape():
    m = DenseMatrix(np.eye(2))
    assert (m.rows, m.cols, m.mode) == (2, 2, "real")
    c = DenseMatrix(np.eye(2) * (1 + 0j))
    assert c.mode == "complex"


def test_dense_matrix_immutable():
    m = DenseMatrix(np.eye(2))
    with pytest.raises(ValueError):
        m.data[0, 0] = 5.0


def test_dense_matrix_json_roundtrip_real():
    m = DenseMatrix(np.array([[1.0, 2.0], [3.0, 4.0]]))
    d = m.to_json_dict()
    assert d["mode"] == "real"
    assert d["entries"][1] == [2.0, 0.0]
    back = DenseMatrix.from_json_dict(d)
    assert np.array_equal(back.data, m.data)


def test_dense_matrix_json_roundtrip_complex():
    m = DenseMatrix(np.array([[1.0 + 2.0j, 0.0], [0.0, -1.0j]]))
    back = DenseMatrix.from_json_dict(m.to_json_dict())
    assert np.array_equal(back.data, m.data)


def test_dense_matrix_rejects_nonfinite():
    for bad in (np.nan, np.inf, -np.inf, complex(0.0, np.nan)):
        with pytest.raises(NonFiniteEntry):
            DenseMatrix(np.array([[1.0, bad], [0.0, 1.0]]))
    good = DenseMatrix(np.eye(2)).to_json_dict()
    for entry in ([np.nan, 0.0], [0.0, np.inf]):
        with pytest.raises(NonFiniteEntry):
            DenseMatrix.from_json_dict(dict(good, entries=[entry] + good["entries"][1:]))


def test_dense_matrix_json_rejects_bad_input():
    good = DenseMatrix(np.eye(2)).to_json_dict()
    bad = dict(good)
    bad["entries"] = bad["entries"][:-1]
    with pytest.raises(ValueError):
        DenseMatrix.from_json_dict(bad)
    bad = dict(good)
    bad["entries"] = [[1.0, 0.5]] + bad["entries"][1:]
    with pytest.raises(ValueError):
        DenseMatrix.from_json_dict(bad)  # real mode with imaginary part
    bad = dict(good)
    bad["extra"] = 1
    with pytest.raises(ValueError):
        DenseMatrix.from_json_dict(bad)


@pytest.mark.parametrize("entries", [
    7, "entries", {"0": [1.0, 0.0]}, None,
    [[1.0], [0.0, 0.0], [0.0, 0.0], [1.0, 0.0]],         # ragged
    [[1.0], [0.0], [0.0], [1.0]],                         # one number each
    [[1.0, 0.0, 0.0]] * 4,                                # three numbers each
    [["1.0", 0.0], [0.0, 0.0], [0.0, 0.0], [1.0, 0.0]],   # a string
    [[None, 0.0], [0.0, 0.0], [0.0, 0.0], [1.0, 0.0]],
    [[[1.0, 0.0]], [0.0, 0.0], [0.0, 0.0], [1.0, 0.0]],   # nested too deep
    [[True, 0.0], [2.0, 0.0], [0.0, 0.0], [1.0, 0.0]],    # a boolean among numbers
    [[1.0, 0.0], [0.0, False], [0.0, 0.0], [1.0, 0.0]],
])
def test_dense_matrix_json_rejects_malformed_entries(entries):
    doc = dict(DenseMatrix(np.eye(2)).to_json_dict(), entries=entries)
    with pytest.raises(ValueError, match=r"\[re, im\] pairs"):
        DenseMatrix.from_json_dict(doc)


def test_dense_matrix_json_accepts_integer_entries():
    doc = dict(DenseMatrix(np.eye(2)).to_json_dict(),
               entries=[[1, 0], [0, 0], [0, 0], [2, 0]])
    assert np.array_equal(DenseMatrix.from_json_dict(doc).data, np.diag([1.0, 2.0]))
