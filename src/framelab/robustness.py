"""Numerical erasure-robustness certificates.

A frame of N vectors is (p, C)-numerically erasure-robust when every
column submatrix that keeps K = (1-p)N of the vectors has condition
number at most C.  At desk scale the worst case is found by exhaustive
enumeration of all C(N, K) subsets; above the enumeration budget a
sampled mode reports a certified lower bound on the worst case instead.

Both modes share one chunked scan.  Subsets are taken in fixed chunks (in
lexicographic order, or in draw order from one ``SUBSETS`` substream), and
each chunk is gathered as a (B, n, K) block.  The scan keeps the per-subset
contracts:

* every reported value is the one ``linalg.condition_numbers`` (one batched
  SVD, the same LAPACK call per matrix as a lone ``condition_number``)
  gives for that subset alone, so certificates are bit-identical to a
  per-subset scan and do not depend on the chunk size;
* rank is decided on singular values at ``RANK_TOL``, and the scan stops at
  the first rank-deficient subset in scan order, which ``worst_condition``
  raises with its refuted certificate;
* the lexicographically smallest maximizer wins, across chunks too;
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
  estimate of the chunk, with ``_SCREEN_BAND = 1e-4``.  The band leaves four
  orders of margin over the estimate's error, so a trusted subset below it
  is provably neither rank deficient nor the chunk's maximum; it counts as
  -inf.  The top is taken over trusted estimates only, since an untrusted
  estimate may be ``inf`` and would push every trusted subset out.

On the difference-set ETFs the SVD sees well under 1% of the subsets (209 of
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
from .linalg import condition_number, condition_numbers

EXHAUSTIVE = "exhaustive"
SAMPLED = "sampled"

EXHAUSTIVE_BUDGET = 10**6

# Subsets per batched SVD.  Larger chunks buy little speed and cost memory:
# an ETF(21,5) K=15 scan peaks at 30.3 MB with one subset per chunk, 30.9 MB
# at 512, 31.7 MB at 1024 and 36.6 MB at 4096 (NumPy 2.4, OpenBLAS 0.3.31).
_SCAN_CHUNK = 512

# The Gram-eigenvalue screen (see the module docstring): an estimate is
# trusted above this lam_min / lam_max, and the SVD runs on trusted subsets
# within this relative band of the chunk's top trusted estimate.
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


def submatrix_condition(f: Frame, subset) -> float:
    """Condition number of the column submatrix indexed by ``subset``."""
    idx = tuple(int(j) for j in subset)
    if len(idx) < 1:
        raise OutOfRange("subset must be nonempty")
    if len(set(idx)) != len(idx) or any(not 0 <= j < f.M for j in idx):
        raise OutOfRange(f"subset indices must be distinct and in [0, {f.M})")
    try:
        return condition_number(f.array[:, idx])
    except RankDeficient as exc:
        raise RankDeficient(
            f"rank-deficient submatrix at columns {tuple(sorted(idx))}",
            subset=tuple(sorted(idx)),
        ) from exc


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


def _scan(f: Frame, subsets) -> tuple[float, tuple[int, ...], int, int]:
    """``(worst, worst_subset, examined, svd)`` over ``subsets``, sorted tuples.

    Each chunk of ``_SCAN_CHUNK`` subsets is gathered as one (B, n, K) block,
    screened by :func:`_needs_svd`, and the subsets that pass go through one
    batched SVD; the others cannot be the maximum and count as ``-inf``.
    Among the maximizers the lexicographically smallest wins, across chunks
    too; ``examined`` counts the subsets scanned, ``svd`` those sent to the
    SVD.  At the first rank-deficient subset in scan order the scan stops
    with ``inf``, that subset and the counts up to and including it.
    """
    a = f.array
    worst, worst_subset = -math.inf, ()
    examined = svd = 0
    subsets = iter(subsets)
    while chunk := list(islice(subsets, _SCAN_CHUNK)):
        block = np.moveaxis(a[:, np.array(chunk)], 1, 0)
        need = _needs_svd(block)
        conds = np.full(len(chunk), -math.inf)
        conds[need] = condition_numbers(block[need])
        deficient = np.flatnonzero(conds == math.inf)
        if deficient.size:
            first = int(deficient[0])
            return (math.inf, chunk[first], examined + first + 1,
                    svd + int(need[:first + 1].sum()))
        examined += len(chunk)
        svd += int(need.sum())
        top = float(conds.max())
        best = min(chunk[i] for i in np.flatnonzero(conds == top))
        if top > worst or (top == worst and best < worst_subset):
            worst, worst_subset = top, best
    return worst, worst_subset, examined, svd


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
        stream = rng.substream(seed, rng.SUBSETS)
        subsets = (tuple(sorted(stream.choice(N, size=K, replace=False).tolist()))
                   for _ in range(samples))
    else:
        raise OutOfRange(f"unknown mode {mode!r}")
    worst, worst_subset, examined, svd = _scan(f, subsets)
    cert = NerCertificate(N=N, K=K, p=1.0 - K / N, worst_cond=worst,
                          worst_subset=worst_subset, mode=mode,
                          subsets_examined=examined, subsets_svd=svd)
    if worst == math.inf:
        raise RankDeficient(f"rank-deficient submatrix at columns {worst_subset}",
                            subset=worst_subset, examined=examined, certificate=cert)
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
