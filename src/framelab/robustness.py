"""Numerical erasure-robustness certificates.

A frame of N vectors is (p, C)-numerically erasure-robust when every
column submatrix that keeps K = (1-p)N of the vectors has condition
number at most C.  At desk scale the worst case is found by exhaustive
enumeration of all C(N, K) subsets; above the enumeration budget a
sampled mode reports a certified lower bound on the worst case instead.

Both modes share one chunked scan.  Subsets are taken in fixed chunks (in
lexicographic order, or in draw order from one ``SUBSETS`` substream), each
chunk is gathered as a (B, n, K) block, and ``linalg.condition_numbers``
reduces it with one batched SVD.  Every matrix of the block gets the same
LAPACK call as a lone ``condition_number`` would, so the certificates are
bit-identical to a per-subset scan and do not depend on the chunk size.  The
scan keeps the per-subset contracts:

* rank is decided on singular values at ``RANK_TOL``, and the first
  rank-deficient subset in scan order is raised by ``submatrix_condition``;
* the lexicographically smallest maximizer wins, across chunks too;
* NaN cannot reach the ``RANK_TOL`` comparison: a ``Frame`` is checked for
  finiteness once, when it is built, and the kernel checks each block.

``min_cond_bound`` inverts the admissibility inequality

    p <= 1/2 - C**2 / (C**4 + 1)

to the smallest C >= 1 covering a given erasure fraction p; difference-set
equiangular tight frames are guaranteed to satisfy the resulting bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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

    def to_json_dict(self) -> dict:
        return {
            "N": self.N,
            "K": self.K,
            "p": self.p,
            "worst_cond": self.worst_cond if math.isfinite(self.worst_cond) else "inf",
            "worst_subset": list(self.worst_subset),
            "mode": self.mode,
            "subsets_examined": self.subsets_examined,
        }


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


def _scan(f: Frame, subsets) -> tuple[float, tuple[int, ...]]:
    """Worst condition number over ``subsets``, sorted index tuples in scan order.

    Each chunk of ``_SCAN_CHUNK`` subsets is gathered as one (B, n, K) block
    and reduced with one batched SVD.  The first rank-deficient subset in
    scan order is raised through :func:`submatrix_condition`, with the number
    of subsets scanned up to and including it as ``examined``; among the
    maximizers the lexicographically smallest wins, across chunks too.
    """
    a = f.array
    worst, worst_subset = -math.inf, ()
    examined = 0
    subsets = iter(subsets)
    while chunk := list(islice(subsets, _SCAN_CHUNK)):
        conds = condition_numbers(np.moveaxis(a[:, np.array(chunk)], 1, 0))
        deficient = np.flatnonzero(conds == math.inf)
        if deficient.size:
            try:
                submatrix_condition(f, chunk[deficient[0]])
            except RankDeficient as exc:
                exc.examined = examined + int(deficient[0]) + 1
                raise
        examined += len(chunk)
        top = float(conds.max())
        best = min(chunk[i] for i in np.flatnonzero(conds == top))
        if top > worst or (top == worst and best < worst_subset):
            worst, worst_subset = top, best
    return worst, worst_subset


def worst_condition(f: Frame, K: int, mode: str = EXHAUSTIVE,
                    samples: int = 0, seed: int = 0) -> NerCertificate:
    """Worst condition number over size-K column subsets.

    Exhaustive mode enumerates all C(N, K) subsets in lexicographic order
    (the reported worst subset is the lexicographically smallest maximizer);
    sampled mode takes the max over ``samples`` uniform subsets, a lower
    bound on the true worst case, drawn one after another from a single
    ``SUBSETS`` substream.
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
        count = samples
        subsets = (tuple(sorted(stream.choice(N, size=K, replace=False).tolist()))
                   for _ in range(samples))
    else:
        raise OutOfRange(f"unknown mode {mode!r}")
    worst, worst_subset = _scan(f, subsets)
    return NerCertificate(N=N, K=K, p=1.0 - K / N, worst_cond=worst,
                          worst_subset=worst_subset, mode=mode,
                          subsets_examined=count)


def min_cond_bound(p: float) -> float:
    """Smallest C >= 1 with p <= 1/2 - C**2/(C**4 + 1).

    With a = 1/2 - p the inequality becomes a*C**4 - C**2 + a >= 0, whose
    admissible branch is C**2 >= (1 + sqrt(1 - 4 a**2)) / (2 a).
    """
    if not 0.0 < p < 0.5:
        raise OutOfRange(f"p must lie in (0, 1/2), got {p}")
    a = 0.5 - p
    return math.sqrt((1.0 + math.sqrt(1.0 - 4.0 * a * a)) / (2.0 * a))


def certify(f: Frame, C: float, p: float | None = None, K: int | None = None,
            mode: str = EXHAUSTIVE, samples: int = 0, seed: int = 0) -> CertifyResult:
    """Check worst_cond <= C over kept subsets of size K (or K = round((1-p)N)).

    Exhaustive certificates are definitive; sampled ones only mean "not
    refuted".  A rank-deficient submatrix fails the certificate with an
    infinite worst condition number at the offending subset; its
    ``subsets_examined`` counts the subsets scanned up to and including it.
    """
    N = f.M
    if (p is None) == (K is None):
        raise OutOfRange("provide exactly one of p or K")
    if K is None:
        K = round((1.0 - p) * N)
    if not f.n <= K <= N:
        raise OutOfRange(f"need n <= K <= N, got K={K}")
    try:
        cert = worst_condition(f, K, mode=mode, samples=samples, seed=seed)
    except RankDeficient as exc:
        cert = NerCertificate(
            N=N, K=K, p=1.0 - K / N, worst_cond=math.inf,
            worst_subset=exc.subset or (), mode=mode,
            subsets_examined=exc.examined or 0,
        )
        return CertifyResult(passed=False, required_cond=float(C), certificate=cert)
    return CertifyResult(passed=bool(cert.worst_cond <= C),
                         required_cond=float(C), certificate=cert)
