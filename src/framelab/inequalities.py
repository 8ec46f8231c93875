"""Empirical checks of Bernoulli sign inequalities for matrices.

Two classical bounds are estimated over random sign vectors
(epsilon_j = +-1 with probability 1/2 each):

* the rank-one concentration bound

      E || sum_i eps_i z_i (x) z_i ||
          <= C sqrt(ln n) max_i ||z_i|| ||sum_i z_i (x) z_i||**(1/2),

  reported with C fixed to 1 so the ratio estimates the absolute constant;

* the operator Khintchine inequality in Schatten 2m-norms,

      (E || sum_j eps_j A_j ||_{C_2m}^{2m})**(1/(2m))
          <= C_m max( ||(sum A_j* A_j)^(1/2)||_{C_2m},
                      ||(sum A_j A_j*)^(1/2)||_{C_2m} ),

  with C_m = 2 ((2m)! / (2^m m!))**(1/(2m)).

Both bounds are averaged through one block kernel per check, which maps a
(B, count) block of sign rows to B values, fed from one of two row sources.
Small instances are enumerated exactly: the first sign is fixed to +1 (every
functional here is even) and the other count - 1 signs are 2 b - 1 of the
0/1 rows b of ``rng.pattern_values``.  Larger ones are estimated by seeded
Monte Carlo on ``rng.mc_values``: trial t takes eps = ``rng.rademacher(u)``
of its own row u of the ``SIGNS`` stream.  The related factorial bound
(2m)!/(2^m m!) <= sqrt(2) (2/e)^m m^m is checked in the log domain.

A block's sums are reduced together: the rank-one sums S(eps) =
sum_i eps_i z_i z_i* are Hermitian, so ``linalg.operator_norms`` takes their
top eigenvalue magnitude.  A harmonic frame takes its own kernel, chosen by
the exact test ``frames.harmonic_rows`` with rows 0..n-1: v ==
harmonic_frame(n, M).array * s bit for bit, s = v[0, 0].real (both
normalizations, and frames read back from files).  Then S(eps)[a, b] =
c[(a - b) mod M] with c = s^2 M ifft(eps) is Hermitian Toeplitz, so
J S J = conj(S) for the exchange matrix J, and with the unitary
Q = (I + iJ)/sqrt(2) the similar Q^H S Q is the real symmetric matrix
A[a, b] = Re c[(a - b) mod M] - Im c[(a + b - n + 1) mod M], built from
2n - 1 values of c by two sliding-window views and handed to a real
eigensolve.  Row-set and real harmonic frames, ETFs and every other input
take the generic kernel, which forms each S(eps).  The Khintchine power
sum_j sigma_j^(2m) is the trace tr(G^m) of each sum's Gram matrix G on its
smaller side, from a few batched matrix products per block instead of an SVD
per pattern.  The averages move only by rounding (about 1e-15 relative)
against a per-pattern loop, as do the two kernels'.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import rng
from .errors import BudgetExceeded, OutOfRange, ShapeMismatch
from .frames import harmonic_rows
from .linalg import _finite_stack, as_array, operator_norm, operator_norms


@dataclass(frozen=True)
class SignEnsemble:
    """How to average over sign patterns: exact enumeration or seeded MC."""

    count: int
    exact: bool = False
    trials: int = 0
    seed: int = 0

    def __post_init__(self):
        if self.count < 1:
            raise OutOfRange("count must be >= 1")
        if self.exact:
            if self.count > rng.ENUM_LIMIT:
                raise BudgetExceeded(
                    f"exact enumeration limited to count <= {rng.ENUM_LIMIT}, got {self.count}"
                )
        elif self.trials < 1:
            raise OutOfRange("Monte Carlo mode needs trials >= 1")


def _sign_average(ensemble: SignEnsemble, row_bytes: int, kernel):
    """Mean, stderr and pattern count of ``kernel`` over the ensemble's signs.

    ``kernel`` maps (B, count) sign rows to B values and needs ``row_bytes``
    of scratch per row.  Exact mode fixes the first sign to +1; its stderr is 0.
    """
    if ensemble.exact:
        values = rng.pattern_values(ensemble.count - 1, row_bytes,
                                    lambda b: kernel(np.insert(2.0 * b - 1.0, 0, 1.0, axis=1)))
        return float(np.mean(values)), 0.0, 1 << ensemble.count
    mean, stderr = rng.mean_stderr(rng.mc_values(
        ensemble.seed, rng.SIGNS, ensemble.trials, ensemble.count, row_bytes,
        lambda u: kernel(rng.rademacher(u))))
    return mean, stderr, ensemble.trials


@dataclass(frozen=True)
class InequalityEstimate:
    lhs: float
    lhs_stderr: float
    rhs: float
    ratio: float
    trials: int
    exact: bool
    # which kernel ran, not part of the estimate: "harmonic" or "generic"
    route: str = field(default="generic", compare=False)


def khintchine_constant(m: int) -> float:
    """C_m = 2 ((2m)! / (2^m m!))**(1/(2m)), evaluated through log-gamma."""
    if not 1 <= m <= 30:
        raise OutOfRange(f"m must be in 1..30, got {m}")
    return 2.0 * math.exp(_log_odd_factorial(m) / (2 * m))


def _log_odd_factorial(m: int) -> float:
    """ln (2m)! / (2^m m!), the log of 1 * 3 * ... * (2m - 1), through log-gamma."""
    return math.lgamma(2 * m + 1) - m * math.log(2.0) - math.lgamma(m + 1)


def _stack(summands) -> np.ndarray:
    arrays = [np.asarray(a) for a in summands]
    if not arrays:
        raise ShapeMismatch("need at least one summand")
    shape = arrays[0].shape
    if any(a.shape != shape for a in arrays):
        raise ShapeMismatch("all summands must share one shape")
    return np.stack(arrays)


def _sums_kernel(stack: np.ndarray, functional):
    """Kernel mapping (B, count) sign rows to functional of their B sums."""
    flat = stack.reshape(len(stack), -1)
    return lambda signs: functional((signs @ flat).reshape(-1, *stack.shape[1:]))


def exact_sign_expectation(summands, functional) -> float:
    """Average functional(sum_j eps_j S_j) over all 2^count sign patterns.

    ``functional`` is batched: it maps a (B, *shape) stack of sums to their
    B values.  It must be even (f(-X) = f(X), true of every norm), which lets
    the enumeration fix the first sign and halve the work.
    """
    stack = _stack(summands)
    ens = SignEnsemble(count=len(stack), exact=True)
    return _sign_average(ens, 2 * stack[0].nbytes, _sums_kernel(stack, functional))[0]


def _schatten_powers(stack: np.ndarray, m: int) -> np.ndarray:
    """sum_j sigma_j^(2m) of each matrix in a (B, r, c) stack, as traces tr(G^m).

    G is the Gram matrix on the smaller side; tr(G^m) = tr(P Q) with
    P = G^ceil(m/2) and Q = G^floor(m/2), and as Q is Hermitian that trace
    is the entrywise sum of conj(P) Q.
    """
    stack = _finite_stack(stack)
    h = stack.conj().swapaxes(1, 2)
    g = stack @ h if stack.shape[1] <= stack.shape[2] else h @ stack
    p = np.linalg.matrix_power(g, (m + 1) // 2)
    q = np.linalg.matrix_power(g, m // 2)
    return np.einsum("bij,bij->b", p.conj(), q).real


def _psd_half_schatten(s: np.ndarray, m: int) -> float:
    """||S^(1/2)||_{C_2m} for PSD S, via eigenvalues: (sum lambda^m)**(1/(2m))."""
    lam = np.clip(np.linalg.eigvalsh(s), 0.0, None)
    return float(np.sum(lam**m)) ** (1.0 / (2 * m))


def khintchine_check(matrices, m: int, ensemble: SignEnsemble) -> InequalityEstimate:
    """Compare both sides of the operator Khintchine inequality.

    lhs is (E || sum eps_j A_j ||_{C_2m}^{2m})**(1/(2m)); rhs multiplies
    C_m by the larger of the two square-root Schatten terms, computed from
    eigenvalues of the PSD sums without forming matrix square roots.
    """
    c_m = khintchine_constant(m)   # refuses m outside 1..30 before any pattern runs
    stack = _stack(matrices)
    if stack.ndim != 3:
        raise ShapeMismatch("summands must be matrices")
    if ensemble.count != stack.shape[0]:
        raise ShapeMismatch(
            f"ensemble.count = {ensemble.count} != number of matrices {stack.shape[0]}"
        )
    mean_pow, se_pow, trials = _sign_average(
        ensemble, 3 * stack[0].nbytes,
        _sums_kernel(stack, lambda sums: _schatten_powers(sums, m)))
    lhs = mean_pow ** (1.0 / (2 * m))
    lhs_stderr = se_pow * lhs / (2 * m * mean_pow) if mean_pow > 0 else 0.0
    left_sum = np.einsum("jki,jkl->il", stack.conj(), stack)   # sum A_j* A_j
    right_sum = np.einsum("jik,jlk->il", stack, stack.conj())  # sum A_j A_j*
    rhs = c_m * max(
        _psd_half_schatten(left_sum, m), _psd_half_schatten(right_sum, m)
    )
    ratio = lhs / rhs if rhs > 0 else 0.0
    return InequalityEstimate(lhs=lhs, lhs_stderr=lhs_stderr, rhs=rhs,
                              ratio=ratio, trials=trials, exact=ensemble.exact)


def _harmonic_kernel(v: np.ndarray):
    """The harmonic kernel when v == harmonic_frame(n, M).array * v[0, 0].real, else None."""
    n, M = v.shape
    if harmonic_rows(v) != tuple(range(n)):
        return None
    s = v[0, 0].real
    k = (np.arange(2 * n - 1) - n + 1) % M
    mats = rng.block_buffer((n, n))   # each block's A, built in one reused buffer

    def kernel(signs):
        c = (s * s * M) * np.fft.ifft(signs, axis=1)
        w = sliding_window_view(c[:, k], n, axis=1)   # w[:, a, b] = c[(a + b - n + 1) mod M]
        return operator_norms(np.subtract(w.real[:, :, ::-1], w.imag, out=mats(len(signs))),
                              hermitian=True)
    return kernel


def rudelson_check(vectors, ensemble: SignEnsemble) -> InequalityEstimate:
    """Compare E || sum eps_i z_i (x) z_i || with sqrt(ln n) max||z|| ||sum z (x) z||^(1/2).

    ``vectors`` is anything with n x M columns (Frame, DenseMatrix, ndarray).
    The rhs takes the absolute constant to be 1, so the ratio is a direct
    estimate of that constant.
    """
    v = as_array(vectors)
    n, M = v.shape
    if n < 2:
        raise OutOfRange(f"need n >= 2 so that ln(n) > 0, got n = {n}")
    if ensemble.count != M:
        raise ShapeMismatch(f"ensemble.count = {ensemble.count} != M = {M}")
    vh = v.conj().T
    kernel = _harmonic_kernel(v)
    if kernel is None:
        lhs, lhs_stderr, trials = _sign_average(
            ensemble, (n * M + 3 * n * n) * v.itemsize,
            lambda signs: operator_norms((v * signs[:, None, :]) @ vh, hermitian=True))
    else:   # the FFT and c, then A (in a reused buffer), its LAPACK copy and workspace
        lhs, lhs_stderr, trials = _sign_average(ensemble, 32 * (M + n * n), kernel)
    max_norm = float(np.max(np.linalg.norm(v, axis=0)))
    rhs = math.sqrt(math.log(n)) * max_norm * math.sqrt(operator_norm(v @ v.conj().T))
    ratio = lhs / rhs if rhs > 0 else 0.0
    return InequalityEstimate(lhs=lhs, lhs_stderr=lhs_stderr, rhs=rhs,
                              ratio=ratio, trials=trials, exact=ensemble.exact,
                              route="generic" if kernel is None else "harmonic")


@dataclass(frozen=True)
class StirlingBound:
    m: int
    lhs: float
    rhs: float
    holds: bool


def stirling_bound_check(m: int) -> StirlingBound:
    """Check (2m)!/(2^m m!) <= sqrt(2) (2/e)^m m^m, evaluated in the log domain."""
    if not 1 <= m <= 150:
        raise OutOfRange(f"m must be in 1..150, got {m}")
    log_lhs = _log_odd_factorial(m)
    log_rhs = 0.5 * math.log(2.0) + m * (math.log(2.0) - 1.0) + m * math.log(m)
    holds = log_lhs <= log_rhs + 1e-12
    return StirlingBound(m=m, lhs=math.exp(log_lhs), rhs=math.exp(log_rhs), holds=holds)
