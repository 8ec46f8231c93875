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

The routes differ only in the blocks they feed the scan and in the screen:
``combinations`` in lexicographic order, Floyd's draws that
``rng.subset_blocks`` makes from the rows of the Philox ``SUBSETS`` stream,
or, for an exhaustive scan of a harmonic frame such as a difference-set ETF,
rotation orbit representatives (Vale and Waldron, 2005).  Column k + t of
``harmonic_frame(n, N, r)`` is D^t times column k, D = diag(omega**r_j)
unitary, so the screen sees one subset per orbit and the SVD every rotation
of those it keeps.  A sampled scan of such a frame walks its draws in draw
order but screens each orbit once, on its least rotation; every other draw
of that orbit reads the estimate from a table, one estimate within the
error bound above of every member's exact spectrum, and each draw the band
keeps goes to the SVD as itself.  A refutation met by the orbit
representatives is found again by the lexicographic scan, screened through
the same table, and ``subsets_svd`` counts both passes.  Both modes take
this ``orbits`` route when N <= 64, so that a subset's mask fits a
``uint64``, and C(N, K) is within the exhaustive budget, which bounds the
table.  For ETF(21,5) at K = 15 the lexicographic scan screens 54,264
subsets and sends 66 to the SVD, the orbit scan 2,586 and 126; 20,000 draws
at seed 1 screen the 2,583 orbits they meet and send 24 draws to the SVD.

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


def _estimates(block) -> tuple[np.ndarray, np.ndarray]:
    """Gram estimates of the condition numbers of a (B, n, K) block, and trust flags.

    The screen of the module docstring.  A trusted estimate is positive, an
    untrusted one is 0.
    """
    lam = np.linalg.eigvalsh(block @ block.conj().swapaxes(1, 2))
    lo, hi = lam[:, 0], lam[:, -1]
    trusted = lo > _SCREEN_FLOOR * hi
    est = np.divide(hi, lo, out=np.zeros(len(lam)), where=trusted)
    return np.sqrt(est, out=est), trusted


def _needs_svd(est, trusted, floor: float = -math.inf) -> np.ndarray:
    """Mask of the subsets of a block that the exact SVD must see: the band rule.

    Untrusted estimates, and trusted ones within ``_SCREEN_BAND`` of the top
    trusted estimate, ``est.max()`` (an untrusted estimate is 0), or of
    ``floor``, a condition number already found, when that is larger.
    """
    return ~trusted | (est >= (1.0 - _SCREEN_BAND) * max(est.max(), floor))


def _scan(a, row: int, blocks, expand=None,
          screen=None) -> tuple[float, tuple[int, ...], int | None, int]:
    """``(worst, worst_subset, examined, svd)`` over ``blocks``, (B, K) sorted subsets.

    Each block is screened by :func:`_needs_svd` against the worst value so
    far, on the estimates and trust flags ``screen(batch)`` gives, by default
    :func:`_estimates` of the gathered (B, n, K) block.  Its kept subsets, or
    those ``expand`` maps them to, go through the SVD in ``rng.trial_ranges``
    blocks of ``row`` bytes a subset; ``svd`` counts them.  The
    lexicographically smallest maximizer wins.  The scan stops at the first
    rank-deficient subset with ``inf``, counting up to and including it
    (``examined`` None after ``expand``: that subset has no place in scan
    order).
    """
    worst, worst_subset, examined, svd = -math.inf, (), 0, 0
    for batch in blocks:
        if screen is None:
            # named through the SVD: freed sooner, glibc trims and refaults the heap
            block = np.moveaxis(a[:, batch], 1, 0)
            screened = _estimates(block)
        else:
            screened = screen(batch)
        kept = np.flatnonzero(_needs_svd(*screened, worst))
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


# Subsets of a harmonic frame with N <= 64 columns as N-bit uint64 masks.
# Column k + t is D^t times column k, D unitary diagonal, so the N rotations
# of a mask share one exact Gram spectrum.
def _masks(subsets) -> np.ndarray:
    """The masks of the (B, K) subsets."""
    return (np.uint64(1) << subsets.astype(np.uint64)).sum(axis=1, dtype=np.uint64)


def _rotations(m, N: int) -> np.ndarray:
    """(B, N): the masks m rotated by 0, ..., N - 1 places."""
    t, m = np.arange(N, dtype=np.uint64), m[:, None]
    return (m << t | m >> (N - t) % N) & np.uint64(2**N - 1)


def _columns(m, N: int, K: int) -> np.ndarray:
    """(B, K): the subsets of the masks m, each of K bits."""
    return np.nonzero(m[:, None] >> np.arange(N, dtype=np.uint64) & 1)[1].reshape(-1, K)


def _distinct(r) -> np.ndarray:
    """The sorted array r without repeats."""
    return r[np.diff(r, prepend=~r[:1]) != 0]


def _orbits(N: int, K: int, row: int):
    """Blocks of rotation-orbit representatives of a harmonic frame, and ``expand``.

    The least of a mask's N rotations stands for its orbit.  It holds column
    0, since a mask without it is even and halves when rotated one place
    down, so only the C(N - 1, K - 1) subsets holding column 0 are
    enumerated.  ``expand`` maps them to their distinct rotations.
    """
    def blocks():
        with0 = math.comb(N - 1, K - 1)
        masks = map(sum, combinations([1 << i for i in range(1, N)], K - 1))
        # a trial is N subsets, about one orbit; a subset's mask, N rotations,
        # columns and screen take under 40 (N + K) + row bytes, so that a
        # block fits even if all its subsets stand for orbits
        for start, stop in rng.trial_ranges(-(-with0 // N), N * (40 * (N + K) + row)):
            start, stop = start * N, min(stop * N, with0)
            m = np.fromiter(islice(masks, stop - start), np.uint64, stop - start) | 1
            reps = _columns(m[_rotations(m, N).min(axis=1) == m], N, K)
            for lo, hi in rng.trial_ranges(len(reps), row):
                yield reps[lo:hi]

    def expand(reps):
        return _columns(_distinct(np.sort(_rotations(_masks(reps), N), axis=None)), N, K)

    return blocks(), expand


class _OrbitScreen:
    """The screen of a harmonic frame's subsets in scan order: one Gram screen per orbit.

    Each subset maps to its orbit's least rotation mask.  An orbit not met
    before is screened on the subset of that mask, so its estimate does not
    depend on which subset met it first or on the blocks; the table, keys
    sorted, holds every orbit's estimate and trust flag for the other subsets.
    """

    def __init__(self, a, K: int):
        self.a, self.N, self.K = a, a.shape[1], K
        self.keys = np.empty(0, np.uint64)
        self.est, self.trusted = np.empty(0), np.empty(0, bool)

    def __call__(self, batch) -> tuple[np.ndarray, np.ndarray]:
        least = _rotations(_masks(batch), self.N).min(axis=1)
        seen = _distinct(np.sort(least))
        at = np.searchsorted(self.keys, seen)
        known = at < len(self.keys)
        known[known] = self.keys[at[known]] == seen[known]
        if not known.all():
            new, at = seen[~known], at[~known]
            reps = _columns(new, self.N, self.K)
            est, trusted = _estimates(np.moveaxis(self.a[:, reps], 1, 0))
            self.keys = np.insert(self.keys, at, new)
            self.est = np.insert(self.est, at, est)
            self.trusted = np.insert(self.trusted, at, trusted)
        at = np.searchsorted(self.keys, least)
        return self.est[at], self.trusted[at]


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
    A scan of a harmonic frame with N <= 64, so that a subset's mask fits a
    ``uint64``, and C(N, K) within the budget takes the ``orbits`` route:
    exhaustive mode screens rotation-orbit representatives first, sampled
    mode screens each orbit among its draws once.  A sampled scan runs as
    asked even where the exhaustive one is admitted, though on this route
    that one is exact and may cost less: ETF(21, 5) at K = 15 takes about
    30 ms exhaustively and 38 ms for 20,000 draws (one BLAS thread).
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
    # subset masks fit a uint64, and a table of orbits fits the budget
    orbits = N <= 64 and math.comb(N, K) <= EXHAUSTIVE_BUDGET and harmonic_rows(a) is not None
    worst, svd = math.inf, 0
    if orbits and mode == EXHAUSTIVE:
        worst, worst_subset, _, svd = _scan(a, row, *_orbits(N, K, row))
        examined = count
    if worst == math.inf:   # scan order, or a refutation found again in order
        screen = _OrbitScreen(a, K) if orbits else None
        worst, worst_subset, examined, generic = _scan(a, row, blocks, screen=screen)
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
