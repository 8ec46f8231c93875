"""Matrix probing: recover a structured matrix from one matrix-vector product.

A matrix A = sum_j lambda_j U_j in the span of n known n x n matrices is
determined by n numbers.  Applying both sides to a probe vector x gives
A x = D lambda with the dictionary D = [U_1 x | ... | U_n x], so lambda is
recovered by a single n x n solve whose stability is governed by cond(D).

Regrouping the same data by column index instead of matrix index yields
matrices T_k (column j of T_k is column k of U_j) with the identity
D = sum_k x_k T_k.  When every T_k satisfies T_k* T_k = (1/n) I (columns
orthogonal with norm 1/sqrt(n)), the deviation of a randomly probed
dictionary from its mean concentrates like sqrt(ln n), which
``concentration_estimate`` measures empirically.  The cyclic-shift family
U_j = P^j / sqrt(n) realizes the scaled-isometry hypothesis exactly.

``concentration_estimate`` runs its trials in blocks on ``rng.mc_values``:
trial t maps its own row u of the ``DISTR`` stream to ``rng.rademacher(u)``
or to the uniform 2u - 1, so memory does not grow with the trial count.  The
generic kernel forms each block's dictionaries by one matmul and reduces them
by ``linalg.operator_norms``.  A circulant family, tested exactly (every
T_k == first[k][(i - j) mod n] bit for bit, first = T[:, :, 0], one k at a
time), takes its own: every D(x) is then circulant with first column
x @ first, which the DFT diagonalizes (Gray, "Toeplitz and Circulant
Matrices: A Review", 2006), so ||D(x)|| = max |fft(x @ first)|.  A family off
by one ulp in one entry takes the generic kernel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import rng
from .errors import (BudgetExceeded, IllConditioned, OutOfRange, RankDeficient,
                     ShapeMismatch, Singular)
from .linalg import as_array, condition_number, operator_norms
from .inequalities import exact_sign_expectation

RADEMACHER = "rademacher"
UNIFORM = "uniform"

_CONTRACTION_LIMIT = 16

# Largest residual || T_k* T_k - (1/n) I || that passes as a scaled isometry.
_ISOMETRY_TOL = 1e-10

# Trials per generic concentration block, at least.  Each block reads the whole
# (n, n*n) family once, so blocks sized by scratch alone (2 trials at n = 256,
# where the family is 128 MB) ran 3x slower than blocks of 16.
_MIN_BLOCK = 16


def _family_stack(U) -> np.ndarray:
    """Coerce a sequence of n matrices (each n x n) to an (n, n, n) stack."""
    if isinstance(U, np.ndarray) and U.ndim == 3:
        stack = U
    else:
        stack = np.stack([as_array(u) for u in U])
    count, r, c = stack.shape
    if not (count == r == c):
        raise ShapeMismatch(
            f"need n matrices of shape n x n, got {count} of shape {r} x {c}"
        )
    return stack


def regroup(U) -> np.ndarray:
    """Regroup by columns: T_k[:, j] = U_j[:, k].  An exact involution."""
    stack = _family_stack(U)
    return np.ascontiguousarray(np.transpose(stack, (2, 1, 0)))


@dataclass(frozen=True)
class IsometryReport:
    max_residual: float
    passed: bool


def check_scaled_isometry(T) -> IsometryReport:
    """Max over k of || T_k* T_k - (1/n) I ||, passed when at most ``_ISOMETRY_TOL``.

    The residuals are Hermitian: one batched ``eigvalsh`` per block of about 4 MB of T_k.
    """
    stack = _family_stack(T)
    n = stack.shape[0]
    blocks = (stack[lo:hi] for lo, hi in rng.trial_ranges(n, 3 * stack[0].nbytes))
    residual = max(operator_norms(t.conj().swapaxes(1, 2) @ t - np.eye(n) / n,
                                  hermitian=True).max() for t in blocks)
    return IsometryReport(max_residual=float(residual),
                          passed=bool(residual <= _ISOMETRY_TOL))


def build_dictionary(U, x) -> np.ndarray:
    """Dictionary D with column j = U_j x."""
    stack = _family_stack(U)
    x = np.asarray(x)
    if x.shape != (stack.shape[0],):
        raise ShapeMismatch(f"probe vector has shape {x.shape}, expected ({stack.shape[0]},)")
    return np.einsum("jik,k->ij", stack, x)


def recover_coefficients(D, y, cond_limit: float = 1e8):
    """Solve D lambda = y by dense LU; returns (lambda, cond(D)).

    Refuses outright when D is numerically singular, and flags probes whose
    dictionary conditioning would destroy the solution's accuracy.
    """
    if not cond_limit >= 1:
        raise OutOfRange(f"cond_limit must be >= 1, got {cond_limit}")
    d = as_array(D)
    if d.shape[0] != d.shape[1]:
        raise ShapeMismatch(f"dictionary must be square, got {d.shape}")
    try:
        cond = condition_number(d)
    except RankDeficient as exc:
        raise Singular(f"dictionary is singular: {exc}") from exc
    if cond > cond_limit:
        raise IllConditioned(
            f"cond(D) = {cond:.3e} exceeds limit {cond_limit:.1e}", cond=cond
        )
    return np.linalg.solve(d, np.asarray(y)), cond


@dataclass(frozen=True)
class RoundtripResult:
    lambda_hat: np.ndarray
    rel_error: float
    cond: float


def probe_roundtrip(U, lam, x, cond_limit: float = 1e8) -> RoundtripResult:
    """Form A = sum lambda_j U_j, observe y = A x, and recover the coefficients."""
    stack = _family_stack(U)
    lam = np.asarray(lam)
    if lam.shape != (stack.shape[0],):
        raise ShapeMismatch(f"lambda has shape {lam.shape}, expected ({stack.shape[0]},)")
    d = build_dictionary(stack, x)   # checks the length of x
    y = np.tensordot(lam, stack, axes=(0, 0)) @ np.asarray(x)
    lam_hat, cond = recover_coefficients(d, y, cond_limit)
    denom = np.linalg.norm(lam)
    rel = float(np.linalg.norm(lam_hat - lam) / denom) if denom > 0 else 0.0
    return RoundtripResult(lambda_hat=lam_hat, rel_error=rel, cond=cond)


@dataclass(frozen=True)
class ConcentrationEstimate:
    n: int
    trials: int
    mean_dev: float
    scale: float
    ratio: float
    distribution: str
    seed: int
    # which kernel ran, not part of the estimate: "circulant" or "generic"
    route: str = field(default="generic", compare=False)


def concentration_estimate(T, distribution: str, trials: int,
                           seed: int) -> ConcentrationEstimate:
    """Mean operator-norm deviation of D = sum x_k T_k from its expectation.

    Coefficients are i.i.d. from a bounded zero-mean distribution
    (|x_k| <= 1), so E(D) = 0 and the deviation is ||D|| itself.  The ratio
    divides by sqrt(ln n).
    """
    if distribution not in (RADEMACHER, UNIFORM):
        raise OutOfRange(
            f"distribution must be one of {sorted((RADEMACHER, UNIFORM))}, "
            f"got {distribution!r}"
        )
    if trials < 1:
        raise OutOfRange("trials must be >= 1")
    stack = _family_stack(T)
    n = stack.shape[0]
    if n < 2:
        raise OutOfRange(f"need n >= 2 so that ln(n) > 0, got n = {n}")
    flat = stack.reshape(n, -1)
    i = np.arange(n)
    shift, first = (i[:, None] - i) % n, stack[:, :, 0]
    circulant = all(np.array_equal(t, c[shift]) for t, c in zip(stack, first))

    def kernel(u):
        x = rng.rademacher(u) if distribution == RADEMACHER else 2.0 * u - 1.0
        if circulant:   # so is D(x), hence normal: its norm is its largest |eigenvalue|
            return np.max(np.abs(np.fft.fft(x @ first, axis=1)), axis=1)
        return operator_norms((x @ flat).reshape(len(u), n, n))

    # the circulant kernel's scratch: x, x @ first, its FFT and their moduli
    row_bytes = 48 * n if circulant else 3 * flat.shape[1] * flat.itemsize
    devs = rng.mc_values(seed, rng.DISTR, trials, n, row_bytes, kernel,
                         min_trials=1 if circulant else _MIN_BLOCK)
    mean_dev = float(np.mean(devs))
    scale = math.sqrt(math.log(n))
    return ConcentrationEstimate(n=n, trials=trials, mean_dev=mean_dev,
                                 scale=scale, ratio=mean_dev / scale,
                                 distribution=distribution, seed=int(seed),
                                 route="circulant" if circulant else "generic")


@dataclass(frozen=True)
class ContractionReport:
    lhs: float
    rhs: float
    holds: bool


def contraction_check(summands, x, b: float) -> ContractionReport:
    """Verify E||sum eps_k x_k f_k|| <= b E||sum eps_k f_k|| by full enumeration.

    ``summands`` may be vectors (Euclidean norm) or matrices (operator
    norm); all coefficients must satisfy |x_k| <= b.  Both sides run on
    ``inequalities.exact_sign_expectation``, which enumerates the sign
    patterns in blocks and takes each block's norms in one batched call.
    """
    arrays = [np.asarray(f) for f in summands]
    count = len(arrays)
    if count > _CONTRACTION_LIMIT:
        raise BudgetExceeded(f"contraction check limited to count <= {_CONTRACTION_LIMIT}")
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (count,):
        raise ShapeMismatch(f"coefficients have shape {x.shape}, expected ({count},)")
    if not b > 0 or np.any(np.abs(x) > b * (1 + 1e-15)):
        raise OutOfRange("need |x_k| <= b with b > 0")
    norm = (lambda s: np.linalg.norm(s, axis=-1)) if arrays[0].ndim == 1 else operator_norms
    lhs = exact_sign_expectation([xk * f for xk, f in zip(x, arrays)], norm)
    rhs = b * exact_sign_expectation(arrays, norm)
    return ContractionReport(lhs=lhs, rhs=rhs, holds=bool(lhs <= rhs * (1 + 1e-12)))


def circulant_dictionary(n: int) -> np.ndarray:
    """The family U_j = P^j / sqrt(n), j = 1..n, P the cyclic shift.

    The regrouped T_k have pairwise-disjoint unit-coordinate columns, so
    T_k* T_k = (1/n) I exactly, and the family is linearly independent
    (the shifts have disjoint supports), making the coefficients
    identifiable.
    """
    if n < 2:
        raise OutOfRange(f"need n >= 2, got {n}")
    # U_j, j = i + 1, holds 1/sqrt(n) at row (k + j) mod n of each column k
    i = np.arange(n)
    family = np.zeros((n, n, n))
    family[i[:, None], (i[:, None] + i + 1) % n, i] = 1.0 / math.sqrt(n)
    return family

