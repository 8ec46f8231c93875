"""Numerical erasure-robustness certificates.

A frame of N vectors is (p, C)-numerically erasure-robust when every
column submatrix that keeps K = (1-p)N of the vectors has condition
number at most C.  At desk scale the worst case is found by exhaustive
enumeration of all C(N, K) subsets; above the enumeration budget a
sampled mode reports a certified lower bound on the worst case instead.

Every route runs one blocked scan.  Subsets come in the blocks of
``rng.trial_ranges``, the rule the Monte Carlo and pattern loops use, so the
block, not n K, sets the scan's peak memory; each is gathered as a (B, n, K)
array.  The scan keeps the per-subset contracts:

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
  estimate is at least (1 - _SCREEN_BAND) times the largest trusted
  estimate of the block or the worst value found so far, whichever is
  larger, with ``_SCREEN_BAND = 1e-4``.  The band leaves four orders of
  margin over the estimate's error, so a trusted subset below it is
  provably neither rank deficient nor the maximum.  The top is taken over
  trusted estimates only, since an untrusted estimate may be ``inf`` and
  would push every trusted subset out.

The worst case is a frame whose every subset is untrusted: each subset then
gets the SVD as before, plus the screen, about 40% more time.

The routes differ only in the blocks they feed the scan: ``combinations``
in lexicographic order, Floyd's draws that ``rng.subset_blocks`` makes from
the rows of the Philox ``SUBSETS`` stream, or, for an exhaustive scan of a
harmonic frame such as a difference-set ETF, rotation orbit representatives
(Vale and Waldron, 2005).  Column k + t of ``harmonic_frame(n, N, r)`` is
D^t times column k, D = diag(omega**r_j) unitary, so the screen sees one
subset per orbit and the SVD every rotation of those it keeps.  A
refutation met there is found again by the lexicographic scan, and
``subsets_svd`` counts both passes.  For ETF(21,5) at K = 15 the
lexicographic scan screens 54,264 subsets and sends 66 to the SVD, the
orbit scan 2,586 and 126.

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
from .frames import Frame, harmonic_rows
# condition_number stays bound here: perfbench/selftest.py reads it from this module
from .linalg import condition_number, condition_numbers

EXHAUSTIVE = "exhaustive"
SAMPLED = "sampled"

EXHAUSTIVE_BUDGET = 10**6

# The Gram-eigenvalue screen (see the module docstring): an estimate is
# trusted above this lam_min / lam_max, and the SVD runs on trusted subsets
# within this relative band of the block's top trusted estimate or the floor.
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
    # work counters, not part of the certificate: subsets sent to the SVD, scan route
    subsets_svd: int = field(default=0, compare=False)
    route: str = field(default="generic", compare=False)


@dataclass(frozen=True)
class CertifyResult:
    passed: bool
    required_cond: float
    certificate: NerCertificate


def _needs_svd(block, floor: float = -math.inf) -> np.ndarray:
    """Mask of the subsets of a (B, n, K) block that the exact SVD must see.

    The screen of the module docstring: untrusted Gram estimates, and
    trusted ones within ``_SCREEN_BAND`` of the top trusted estimate, or of
    ``floor``, a condition number already found, when that is larger.
    """
    lam = np.linalg.eigvalsh(block @ block.conj().swapaxes(1, 2))
    lo, hi = lam[:, 0], lam[:, -1]
    trusted = lo > _SCREEN_FLOOR * hi
    need = ~trusted
    if trusted.any():
        est = np.sqrt(hi[trusted] / lo[trusted])
        need[trusted] = est >= (1.0 - _SCREEN_BAND) * max(est.max(), floor)
    return need


def _scan(a, row: int, blocks, expand=None) -> tuple[float, tuple[int, ...], int | None, int]:
    """``(worst, worst_subset, examined, svd)`` over ``blocks``, (B, K) sorted subsets.

    Each block of columns of ``a`` is gathered, screened by :func:`_needs_svd`
    against the worst value so far, and its kept subsets, or those ``expand``
    maps them to, go through the SVD in ``rng.trial_ranges`` blocks of ``row``
    bytes a subset; ``svd`` counts them.  The lexicographically smallest
    maximizer wins.  The scan stops at the first rank-deficient subset with
    ``inf``, counting up to and including it (``examined`` None after
    ``expand``: that subset has no place in scan order).
    """
    worst, worst_subset, examined, svd = -math.inf, (), 0, 0
    for batch in blocks:
        # named through the SVD: freed sooner, glibc trims and refaults the heap
        block = np.moveaxis(a[:, batch], 1, 0)
        kept = np.flatnonzero(_needs_svd(block, worst))
        members = batch[kept] if expand is None or not kept.size else expand(batch[kept])
        for i, j in rng.trial_ranges(len(members), row):
            conds = condition_numbers(np.moveaxis(a[:, members[i:j]], 1, 0))
            deficient = np.flatnonzero(conds == math.inf)
            if deficient.size:
                k = i + int(deficient[0])
                stop = examined + int(kept[k]) + 1 if expand is None else None
                return math.inf, tuple(members[k].tolist()), stop, svd + k - i + 1
            svd += j - i
            top = float(conds.max())
            best = min(tuple(members[i + x].tolist()) for x in np.flatnonzero(conds == top))
            if top > worst or (top == worst and best < worst_subset):
                worst, worst_subset = top, best
        examined += len(batch)
    return worst, worst_subset, examined, svd


def _orbits(N: int, K: int, row: int):
    """Blocks of rotation-orbit representatives of a harmonic frame, and ``expand``.

    Subsets are N-bit masks.  The least of a mask's N rotations stands for
    its orbit.  It holds column 0, since a mask without it is even and halves
    when rotated one place down, so only the C(N - 1, K - 1) subsets holding
    column 0 are enumerated.  ``expand`` maps them to their distinct rotations.
    """
    t, full = np.arange(N, dtype=np.uint64), np.uint64(2**N - 1)

    def rot(m, s):   # masks m rotated by s places
        return (m << s | m >> (N - s) % N) & full

    def columns(m):  # (B, K): the subsets of masks m
        return np.nonzero(m[:, None] >> t & 1)[1].reshape(-1, K)

    def blocks():
        with0 = math.comb(N - 1, K - 1)
        masks = map(sum, combinations([1 << i for i in range(1, N)], K - 1))
        # a trial is N subsets, about one orbit; a subset's mask, N rotations,
        # columns and screen take under 40 (N + K) + row bytes, so that a
        # block fits even if all its subsets stand for orbits
        for start, stop in rng.trial_ranges(-(-with0 // N), N * (40 * (N + K) + row)):
            start, stop = start * N, min(stop * N, with0)
            m = np.fromiter(islice(masks, stop - start), np.uint64, stop - start) | 1
            reps = columns(m[rot(m[:, None], t).min(axis=1) == m])
            for lo, hi in rng.trial_ranges(len(reps), row):
                yield reps[lo:hi]

    def expand(reps):
        m = (np.uint64(1) << reps.astype(np.uint64)).sum(axis=1, dtype=np.uint64)
        r = np.sort(rot(m[:, None], t), axis=None)
        return columns(r[np.diff(r, prepend=~r[:1]) != 0])

    return blocks(), expand


def worst_condition(f: Frame, K: int, mode: str = EXHAUSTIVE,
                    samples: int = 0, seed: int = 0) -> NerCertificate:
    """Worst condition number over size-K column subsets.

    Exhaustive mode enumerates all C(N, K) subsets in lexicographic order
    (the reported worst subset is the lexicographically smallest maximizer);
    sampled mode takes the max over ``samples`` uniform subsets, a lower
    bound on the true worst case, drawn by :func:`rng.subset_blocks` from
    the rows of the Philox ``SUBSETS`` stream; both modes refuse more than
    ``EXHAUSTIVE_BUDGET`` subsets.  A rank-deficient subset raises
    :class:`RankDeficient` with the refuted certificate (``worst_cond`` inf).
    An exhaustive scan of a harmonic frame with N <= 64, so that a subset's
    mask fits a ``uint64``, screens rotation-orbit representatives first.
    """
    N = f.M
    if not f.n <= K <= N:
        raise OutOfRange(f"need n <= K <= N, got K={K}, n={f.n}, N={N}")
    a, row = f.array, 3 * f.array[:, :K].nbytes   # gathered, Gram eigensolve, SVD copy
    if mode == EXHAUSTIVE:
        count = math.comb(N, K)
        if count > EXHAUSTIVE_BUDGET:
            raise BudgetExceeded(f"C({N},{K}) = {count} subsets exceeds budget "
                                 f"{EXHAUSTIVE_BUDGET}")
        subsets = combinations(range(N), K)
        blocks = (np.array(list(islice(subsets, stop - start)))
                  for start, stop in rng.trial_ranges(count, row))
    elif mode == SAMPLED:
        if samples < 1:
            raise OutOfRange("sampled mode needs samples >= 1")
        if samples > EXHAUSTIVE_BUDGET:
            raise BudgetExceeded(f"{samples} samples exceeds budget {EXHAUSTIVE_BUDGET}")
        count = samples
        blocks = (chunk[i:j] for chunk in rng.subset_blocks(seed, N, K, samples)
                  for i, j in rng.trial_ranges(len(chunk), row))
    else:
        raise OutOfRange(f"unknown mode {mode!r}")
    orbits = mode == EXHAUSTIVE and N <= 64 and harmonic_rows(a) is not None
    worst, svd = math.inf, 0
    if orbits:
        worst, worst_subset, _, svd = _scan(a, row, *_orbits(N, K, row))
        examined = count
    if worst == math.inf:   # the generic route, or a refutation found again in order
        worst, worst_subset, examined, generic = _scan(a, row, blocks)
        svd += generic
    cert = NerCertificate(N=N, K=K, p=1.0 - K / N, worst_cond=worst,
                          worst_subset=worst_subset, mode=mode, subsets_examined=examined,
                          subsets_svd=svd, route="orbits" if orbits else "generic")
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
    subset, counting the subsets scanned up to and including it.  ``C`` below
    1, or NaN, is refused before any scan: no condition number is below 1.
    """
    if not C >= 1:
        raise OutOfRange(f"C must be >= 1, got {C}")
    try:
        cert = worst_condition(f, K, mode=mode, samples=samples, seed=seed)
    except RankDeficient as exc:
        cert = exc.certificate
    return CertifyResult(passed=bool(cert.worst_cond <= C),
                         required_cond=float(C), certificate=cert)
