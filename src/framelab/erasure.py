"""Random-erasure transmission channel with unbiased reconstruction.

Protocol: the sender transmits the M inner products <z_j, x> of a
recon-normalized tight frame; each coefficient survives independently
with probability ``keep_prob``.  The receiver forms

    y = 1/(keep_prob * M) * sum over surviving j of <z_j, x> z_j,

which is unbiased (E y = x) for any keep probability and reduces to the
classical 2/M reconstruction at keep_prob = 1/2.  The mean error
E ||x - y|| is compared against the redundancy scale

    epsilon = sqrt(n * ln(n) / M),

reported as the dimensionless ratio mean_error / (epsilon * ||x||).

Exact enumeration (M <= ``rng.ENUM_LIMIT``, keep_prob = 1/2) averages over
all 2^M equiprobable masks by meet in the middle (Horowitz and Sahni, J. ACM
1974): y is linear in the mask, so with lo = M // 2 every error is
||low[i] - high[h]||, low holding x minus the 2^lo partial sums of the first
lo contributions and high the 2^(M - lo) partial sums of the rest.  The
errors are taken by broadcasting over a fixed partition of high into blocks
of about 256 KB of scratch and summed block by block in order, so no array of
2^M errors is built; against the per-mask kernel the mean moves only by
rounding (about 1e-15 relative).

Seeded Monte Carlo runs a mask kernel on the block loop of ``rng``: it feeds
it the masks u < keep_prob from ``rng.mc_values``, u being trial t's own row
of the ``MASK`` stream.  The kernel reconstructs a block's masks by one
stacked (B, 1, M) @ (M, 2n) real-view matmul and takes each error as a stacked
dot product; the masks, y and x - y live in buffers reused from block to
block.  Each mask gets the same BLAS calls whatever block it lands in,
so its error is bit-identical across block sizes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import rng
from .errors import BudgetExceeded, OutOfRange, ShapeMismatch
from .frames import RECON, Frame, harmonic_frame


@dataclass(frozen=True, eq=False)
class ErasureMask:
    """Survival pattern of one transmission: kept[j] is True if coefficient j arrived."""

    kept: np.ndarray
    keep_prob: float

    def __post_init__(self):
        k = np.asarray(self.kept, dtype=bool).copy()
        k.flags.writeable = False
        object.__setattr__(self, "kept", k)
        if not 0.0 < self.keep_prob <= 1.0:
            raise OutOfRange(f"keep_prob must be in (0, 1], got {self.keep_prob}")

    @property
    def M(self) -> int:
        return self.kept.shape[0]


@dataclass(frozen=True)
class ErasureTrialReport:
    """Aggregate reconstruction-error statistics of a Monte Carlo run."""

    n: int
    M: int
    keep_prob: float
    trials: int
    mean_error: float
    stderr: float
    epsilon: float
    input_norm: float
    ratio: float
    seed: int


def analysis_coefficients(f: Frame, x) -> np.ndarray:
    """Transmitted inner products <z_j, x>, conjugate-linear in the frame vector."""
    x = np.asarray(x)
    if x.shape != (f.n,):
        raise ShapeMismatch(f"input has shape {x.shape}, expected ({f.n},)")
    return f.array.conj().T @ x


def reconstruct(f: Frame, coeffs, mask: ErasureMask) -> np.ndarray:
    """Unbiased estimate y = 1/(keep_prob * M) * sum_{kept j} coeffs[j] z_j."""
    if f.normalization != RECON:
        raise OutOfRange("reconstruction requires a recon-normalized frame")
    coeffs = np.asarray(coeffs)
    if coeffs.shape != (f.M,):
        raise ShapeMismatch(f"coeffs length {coeffs.shape} != M = {f.M}")
    if mask.M != f.M:
        raise ShapeMismatch(f"mask length {mask.M} != M = {f.M}")
    weight = _weight(mask.keep_prob, f.M)
    kept = mask.kept
    return weight * (f.array[:, kept] @ coeffs[kept])


def _weight(keep_prob: float, M: int) -> float:
    """The unbiased weight 1/(keep_prob * M), refused where it overflows.

    A subnormal keep_prob such as 5e-324 passes the (0, 1] check but makes
    the weight inf, and every reconstruction inf or NaN.
    """
    weight = 1.0 / (keep_prob * M)
    if not math.isfinite(weight):
        raise OutOfRange(
            f"keep_prob {keep_prob} makes the weight 1/(keep_prob * M) overflow at M = {M}"
        )
    return weight


def _contributions(f: Frame, x, keep_prob: float) -> np.ndarray:
    """Per-coefficient reconstruction contributions: column j is c_j z_j/(q M)."""
    if f.normalization != RECON:
        raise OutOfRange("erasure experiments require a recon-normalized frame")
    _weight(keep_prob, f.M)
    c = analysis_coefficients(f, x)
    return f.array * c[None, :] / (keep_prob * f.M)


def _error_kernel(f: Frame, x, keep_prob: float):
    """Kernel mapping (B, M) float 0/1 masks to their B errors ||x - y||."""
    x = np.asarray(x)
    b = _contributions(f, x, keep_prob)
    # real views: a complex row of length n is a real row of length 2n
    cols = _real_view(np.ascontiguousarray(b.T))        # (M, n or 2n)
    xr = _real_view(x.astype(b.dtype))
    ys, ds = rng.block_buffer((1, len(xr))), rng.block_buffer((len(xr),))

    def kernel(kept):
        y = np.matmul(kept[:, None, :], cols, out=ys(len(kept)))[:, 0, :]
        d = np.subtract(xr, y, out=ds(len(kept)))
        return np.sqrt((d[:, None, :] @ d[:, :, None])[:, 0, 0])

    return kernel


# Scratch of one block of the exact enumeration's differences low[i] - high[h].
# The blocks are summed as they come, so no array of all 2^M errors is built.
_EXACT_BLOCK_BYTES = 1 << 18


def exact_error_expectation(f: Frame, x) -> float:
    """Exact E ||x - y|| at keep_prob 1/2 over all 2^M masks, by meet in the middle.

    Mask i + 2^lo h keeps coefficient j < lo where bit j of i is set and
    coefficient lo + j where bit j of h is set; its error is ||low[i] - high[h]||.
    """
    if f.M > rng.ENUM_LIMIT:
        raise BudgetExceeded(f"exact enumeration limited to M <= {rng.ENUM_LIMIT}, got {f.M}")
    b = _contributions(f, x, 0.5)
    cols = _real_view(np.ascontiguousarray(b.T))        # (M, n or 2n)
    lo = f.M // 2
    low = _real_view(np.asarray(x, dtype=b.dtype)) - rng.pattern_rows(lo) @ cols[:lo]
    high = rng.pattern_rows(f.M - lo) @ cols[lo:]
    step = max(1, _EXACT_BLOCK_BYTES // low.nbytes)
    total = 0.0
    for start in range(0, len(high), step):
        d = low[None, :, :] - high[start:start + step, None, :]
        total += float(np.sum(np.sqrt(np.einsum("hik,hik->hi", d, d))))
    return total / (1 << f.M)


def per_trial_errors(f: Frame, x, trials: int, seed: int,
                     keep_prob: float = 0.5) -> np.ndarray:
    """Reconstruction error of each trial; trial t reads row t of the MASK stream."""
    if f.n < 2:
        raise OutOfRange(f"need n >= 2 so that ln(n) > 0, got n = {f.n}")
    if trials < 1:
        raise OutOfRange(f"trials must be >= 1, got {trials}")
    if not 0.0 < keep_prob <= 1.0:
        raise OutOfRange(f"keep_prob must be in (0, 1], got {keep_prob}")
    kernel = _error_kernel(f, x, keep_prob)
    kept, mask = rng.block_buffer((f.M,), bool), rng.block_buffer((f.M,))

    def errors(u):
        m = mask(len(u))
        m[...] = np.less(u, keep_prob, out=kept(len(u)))
        return kernel(m)

    # scratch per trial, in buffers reused from block to block: the mask as
    # bool and as float64, y and x - y
    return rng.mc_values(seed, rng.MASK, trials, f.M, 9 * f.M + 32 * f.n, errors)


def _real_view(a: np.ndarray) -> np.ndarray:
    return a.view(np.float64) if np.iscomplexobj(a) else a


def mc_error_estimate(f: Frame, x, trials: int, seed: int,
                      keep_prob: float = 0.5) -> ErasureTrialReport:
    """Monte Carlo estimate of E ||x - y|| with the epsilon scale attached."""
    mean, stderr = rng.mean_stderr(per_trial_errors(f, x, trials, seed, keep_prob))
    epsilon = math.sqrt(f.n * math.log(f.n) / f.M)
    input_norm = float(np.linalg.norm(x))
    ratio = mean / (epsilon * input_norm) if input_norm > 0 else 0.0
    return ErasureTrialReport(
        n=f.n, M=f.M, keep_prob=keep_prob, trials=trials,
        mean_error=mean, stderr=stderr, epsilon=epsilon,
        input_norm=input_norm, ratio=ratio, seed=int(seed),
    )


def deterministic_unit_vector(n: int, seed: int) -> np.ndarray:
    """Fixed pseudo-random unit-norm test input, reproducible from the seed."""
    v = rng.substream(seed, rng.INPUT).standard_normal(n)
    return v / np.linalg.norm(v)


def redundancy_sweep(n: int, M_list, trials: int, seed: int,
                     keep_prob: float = 0.5) -> list[ErasureTrialReport]:
    """Run the channel on harmonic frames of growing redundancy, fixed input."""
    x = deterministic_unit_vector(n, seed)
    reports = []
    for M in M_list:
        f = harmonic_frame(n, M)
        reports.append(mc_error_estimate(f, x, trials, seed, keep_prob))
    return reports
