"""Numerical erasure-robustness certificates.

A frame of N vectors is (p, C)-numerically erasure-robust when every
column submatrix that keeps K = (1-p)N of the vectors has condition
number at most C.  At desk scale the worst case is found by exhaustive
enumeration of all C(N, K) subsets; above the enumeration budget a
sampled mode reports a certified lower bound on the worst case instead.

Both modes share one blocked scan.  Subsets are taken in the blocks of
``rng.trial_ranges``, the rule the Monte Carlo and pattern loops use (in
lexicographic order, or in draw order from one ``SUBSETS`` substream), so
the block, not n K, sets the scan's peak memory; each block is gathered as a
(B, n, K) array.  The scan keeps the per-subset contracts:

* every reported value is the one ``linalg.condition_numbers`` (one batched
  SVD, the same LAPACK call per matrix as a lone ``condition_number``)
  gives for that subset alone, so certificates are bit-identical to a
  per-subset scan and do not depend on the block size;
* rank is decided on singular values at ``RANK_TOL``, and the scan stops at
  the first rank-deficient subset in scan order, which ``worst_condition``
  raises with its refuted certificate;
* the lexicographically smallest maximizer wins, across blocks too;
* NaN cannot reach the ``RANK_TOL`` comparison: a ``Frame`` is checked for
  finiteness once, when it is built, and the kernel checks each block.

The SVD runs only on the subsets that can decide the certificate.  A screen
forms each block's Gram matrices G = A A^H (n x n) and takes their
eigenvalues with one batched ``eigvalsh``, at about a third of the cost of
the SVD.  In floating point with unit roundoff u the computed eigenvalues
obey

    |lam~ - lam| <~ c (K + n) u lam_max,

c a modest constant: the Gram product errs by about K u |A| |A|^H and the
Hermitian eigensolver is backward stable to about n u ||G||.  A ``Frame``'s
columns have norm 1 or sqrt(n), so lam_max >= 1 and the entries of G are at
most K n: neither overflow nor underflow can break the bound.

* An estimate is *trusted* when lam~_min > _SCREEN_FLOOR * lam~_max, with
  ``_SCREEN_FLOOR = 1e-6``.  Then lam_min, and with it the estimated
  condition number sqrt(lam~_max / lam~_min), is known to a relative error
  of about c (K + n) u / 1e-6, near 1e-8 at desk sizes.  A rank-deficient
  subset is never trusted: sigma_min <= RANK_TOL * sigma_max puts lam_min
  at 1e-24 lam_max, far below the floor.  Neither is a NaN estimate.
* The SVD runs on every untrusted subset, and on every trusted subset whose
  estimate is at least (1 - _SCREEN_BAND) times the largest *trusted*
  estimate of the block, with ``_SCREEN_BAND = 1e-4``.  The band leaves four
  orders of margin over the estimate's error, so a trusted subset below it
  is provably neither rank deficient nor the block's maximum; it counts as
  -inf.  The top is taken over trusted estimates only, since an untrusted
  estimate may be ``inf`` and would push every trusted subset out.

On the difference-set ETFs the SVD sees well under 1% of the subsets (332 of
54,264 for ETF(21,5) at K = 15).  The worst case is a frame whose every
subset is untrusted: each subset then gets the SVD as before, plus the
screen, about 40% more time.

``min_cond_bound`` inverts the admissibility inequality

    p <= 1/2 - C**2 / (C**4 + 1)

to the smallest C >= 1 covering a given erasure fraction p; difference-set
equiangular tight frames are guaranteed to satisfy the resulting bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations, islice

import numpy as np

from . import rng
from .errors import BudgetExceeded, OutOfRange, RankDeficient
from .frames import Frame
# condition_number stays bound here: perfbench/selftest.py reads it from this module
from .linalg import condition_number, condition_numbers

EXHAUSTIVE = "exhaustive"
SAMPLED = "sampled"

EXHAUSTIVE_BUDGET = 10**6

# The Gram-eigenvalue screen (see the module docstring): an estimate is
# trusted above this lam_min / lam_max, and the SVD runs on trusted subsets
# within this relative band of the block's top trusted estimate.
_SCREEN_FLOOR = 1e-6
_SCREEN_BAND = 1e-4


@dataclass(frozen=True)
class NerCertificate:
    """Worst-case submatrix condition number over kept subsets of size K."""

    N: int
    K: int
    p: float
    worst_cond: float
    worst_subset: tuple[int, ...]
    mode: str
    subsets_examined: int
    # work counter, not part of the certificate: subsets sent to the SVD
    subsets_svd: int = field(default=0, compare=False)


@dataclass(frozen=True)
class CertifyResult:
    passed: bool
    required_cond: float
    certificate: NerCertificate


def _needs_svd(block) -> np.ndarray:
    """Mask of the subsets of a (B, n, K) block that the exact SVD must see.

    The screen of the module docstring: untrusted Gram estimates, and
    trusted ones within ``_SCREEN_BAND`` of the top trusted estimate.
    """
    lam = np.linalg.eigvalsh(block @ block.conj().swapaxes(1, 2))
    lo, hi = lam[:, 0], lam[:, -1]
    trusted = lo > _SCREEN_FLOOR * hi
    need = ~trusted
    if trusted.any():
        est = np.sqrt(hi[trusted] / lo[trusted])
        need[trusted] = est >= (1.0 - _SCREEN_BAND) * est.max()
    return need


def _scan(f: Frame, K: int, subsets, count: int) -> tuple[float, tuple[int, ...], int, int]:
    """``(worst, worst_subset, examined, svd)`` over ``count`` sorted K-tuples.

    Each block of ``rng.trial_ranges`` is gathered as one (B, n, K) array,
    screened by :func:`_needs_svd`, and the subsets that pass go through one
    batched SVD; the others cannot be the maximum and count as ``-inf``.
    Among the maximizers the lexicographically smallest wins, across blocks
    too; ``examined`` counts the subsets scanned, ``svd`` those sent to the
    SVD.  At the first rank-deficient subset in scan order the scan stops
    with ``inf``, that subset and the counts up to and including it.
    """
    a = f.array
    worst, worst_subset = -math.inf, ()
    svd = 0
    # the gathered block, its Gram matrix and eigensolve, and the SVD's copy
    for start, stop in rng.trial_ranges(count, 3 * a[:, :K].nbytes):
        batch = list(islice(subsets, stop - start))
        block = np.moveaxis(a[:, np.array(batch)], 1, 0)
        need = _needs_svd(block)
        conds = np.full(len(batch), -math.inf)
        conds[need] = condition_numbers(block[need])
        deficient = np.flatnonzero(conds == math.inf)
        if deficient.size:
            first = int(deficient[0])
            return (math.inf, batch[first], start + first + 1,
                    svd + int(need[:first + 1].sum()))
        svd += int(need.sum())
        top = float(conds.max())
        best = min(batch[i] for i in np.flatnonzero(conds == top))
        if top > worst or (top == worst and best < worst_subset):
            worst, worst_subset = top, best
    return worst, worst_subset, count, svd


def worst_condition(f: Frame, K: int, mode: str = EXHAUSTIVE,
                    samples: int = 0, seed: int = 0) -> NerCertificate:
    """Worst condition number over size-K column subsets.

    Exhaustive mode enumerates all C(N, K) subsets in lexicographic order
    (the reported worst subset is the lexicographically smallest maximizer);
    sampled mode takes the max over ``samples`` uniform subsets, a lower
    bound on the true worst case, drawn one after another from a single
    ``SUBSETS`` substream.  A rank-deficient subset raises
    :class:`RankDeficient` with the refuted certificate (``worst_cond`` inf).
    """
    N = f.M
    if not f.n <= K <= N:
        raise OutOfRange(f"need n <= K <= N, got K={K}, n={f.n}, N={N}")
    if mode == EXHAUSTIVE:
        count = math.comb(N, K)
        if count > EXHAUSTIVE_BUDGET:
            raise BudgetExceeded(
                f"C({N},{K}) = {count} subsets exceeds budget {EXHAUSTIVE_BUDGET}"
            )
        subsets = combinations(range(N), K)
    elif mode == SAMPLED:
        if samples < 1:
            raise OutOfRange("sampled mode needs samples >= 1")
        count = samples
        stream = rng.substream(seed, rng.SUBSETS)
        subsets = (tuple(sorted(stream.choice(N, size=K, replace=False).tolist()))
                   for _ in range(samples))
    else:
        raise OutOfRange(f"unknown mode {mode!r}")
    worst, worst_subset, examined, svd = _scan(f, K, subsets, count)
    cert = NerCertificate(N=N, K=K, p=1.0 - K / N, worst_cond=worst,
                          worst_subset=worst_subset, mode=mode,
                          subsets_examined=examined, subsets_svd=svd)
    if worst == math.inf:
        raise RankDeficient(f"rank-deficient submatrix at columns {worst_subset}",
                            certificate=cert)
    return cert


def min_cond_bound(p: float) -> float:
    """Smallest C >= 1 with p <= 1/2 - C**2/(C**4 + 1).

    With a = 1/2 - p the inequality becomes a*C**4 - C**2 + a >= 0, whose
    admissible branch is C**2 >= (1 + sqrt(1 - 4 a**2)) / (2 a).
    """
    if not 0.0 < p < 0.5:
        raise OutOfRange(f"p must lie in (0, 1/2), got {p}")
    a = 0.5 - p
    return math.sqrt((1.0 + math.sqrt(1.0 - 4.0 * a * a)) / (2.0 * a))


def certify(f: Frame, C: float, K: int, mode: str = EXHAUSTIVE,
            samples: int = 0, seed: int = 0) -> CertifyResult:
    """Check worst_cond <= C over kept subsets of size K.

    Exhaustive certificates are definitive; sampled ones only mean "not
    refuted".  A rank-deficient submatrix fails with the refuted certificate
    that :func:`worst_condition` raises: worst condition number inf at that
    subset, counting the subsets scanned up to and including it.
    """
    try:
        cert = worst_condition(f, K, mode=mode, samples=samples, seed=seed)
    except RankDeficient as exc:
        cert = exc.certificate
    return CertifyResult(passed=bool(cert.worst_cond <= C),
                         required_cond=float(C), certificate=cert)
