"""Construction and validation of finite tight frames.

Three families are built here:

* scaled orthonormal unions: copies of sqrt(n) * e_i, the simplest frame
  satisfying the reconstruction identity x = (1/M) sum <z_j, x> z_j;
* harmonic frames: columns of character tables, equal-norm and tight at
  any redundancy M >= n, with an optional real cosine/sine variant;
* equiangular tight frames obtained by indexing the rows of an N-point
  character table with a cyclic (N, M, 1)-difference set; their coherence
  meets the Welch bound sqrt((N-M)/(M(N-1))).

Difference sets are built algebraically by Singer's construction from the
field GF(q^3), q = M - 1 a prime power, in time polynomial in N, and put
in a canonical form: the lexicographically smallest equivalent set
containing 0.  One walk over powers of x modulo a candidate polynomial both
fills the antilog table and, by its period, shows that x is primitive.
Orders q that are not prime powers have no such set (Gordon, 1994) and are
refused without a search.

Two normalizations are carried explicitly. ``recon`` scales every vector
to squared norm n so that x = (1/M) sum <z_j, x> z_j; ``unit`` scales to
norm 1 so the frame operator is (M/n) I.  Conflating them corrupts both
the erasure experiments and the robustness certificates, hence the flag.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import BudgetExceeded, NoSuchSet, OutOfRange, ShapeMismatch
from .linalg import DenseMatrix, _json_int, frame_operator, gram_matrix, operator_norm

RECON = "recon"
UNIT = "unit"

# Loose construction-time check on column norms; tightness itself is the
# business of check_tight.
_NORM_TOL = 1e-8

# Frame-size budget: the largest modulus N, i.e. the number of ETF vectors.
_N_LIMIT = 1000


@dataclass(frozen=True, eq=False)
class Frame:
    """A collection of M frame vectors for an n-dimensional space.

    ``vectors`` is n x M with column j holding the j-th frame vector.
    """

    n: int
    M: int
    vectors: DenseMatrix
    normalization: str
    kind: str = "custom"

    def __post_init__(self):
        if not isinstance(self.kind, str):
            raise TypeError(f"kind must be a string, got {self.kind!r}")
        if self.normalization not in (RECON, UNIT):
            raise OutOfRange(f"unknown normalization {self.normalization!r}")
        if self.vectors.rows != self.n or self.vectors.cols != self.M:
            raise ShapeMismatch(
                f"vectors shape {(self.vectors.rows, self.vectors.cols)} "
                f"does not match (n, M) = {(self.n, self.M)}"
            )
        norms_sq = np.sum(np.abs(self.vectors.data) ** 2, axis=0)
        target = float(self.n) if self.normalization == RECON else 1.0
        if np.max(np.abs(norms_sq - target)) > _NORM_TOL * max(target, 1.0):
            raise OutOfRange(
                f"column norms violate {self.normalization!r} normalization"
            )

    @property
    def array(self) -> np.ndarray:
        return self.vectors.data

    @property
    def alpha(self) -> float:
        """Tightness constant: x = alpha * sum <z_j, x> z_j for tight frames."""
        return 1.0 / self.M if self.normalization == RECON else self.n / self.M

    def operator(self) -> np.ndarray:
        return frame_operator(self.vectors)

    def json_fields(self) -> dict:
        """:meth:`to_json_dict` with the matrix as :meth:`DenseMatrix.json_fields`."""
        return {
            "n": self.n,
            "M": self.M,
            "normalization": self.normalization,
            "kind": self.kind,
            "matrix": self.vectors.json_fields(),
        }

    def to_json_dict(self) -> dict:
        return {**self.json_fields(), "matrix": self.vectors.to_json_dict()}

    @classmethod
    def from_json_dict(cls, obj: dict) -> "Frame":
        required = {"n", "M", "normalization", "kind", "matrix"}
        if not isinstance(obj, dict) or set(obj) != required:
            raise ValueError(f"frame JSON must have keys {sorted(required)}")
        return cls(
            n=_json_int(obj, "n"),
            M=_json_int(obj, "M"),
            vectors=DenseMatrix.from_json_dict(obj["matrix"]),
            normalization=obj["normalization"],
            kind=obj["kind"],
        )


@dataclass(frozen=True)
class DifferenceSet:
    """A cyclic (N, M, 1) difference set.

    Every nonzero residue mod N occurs exactly once among the pairwise
    differences d_i - d_j (i != j).  Validated on construction.
    """

    N: int
    elements: tuple[int, ...]

    def __post_init__(self):
        elems = tuple(sorted(int(d) for d in self.elements))
        object.__setattr__(self, "elements", elems)
        if len(set(elems)) != len(elems):
            raise OutOfRange("difference set elements must be distinct")
        if any(not 0 <= d < self.N for d in elems):
            raise OutOfRange("difference set elements must lie in [0, N)")
        counts = [0] * self.N
        for i, a in enumerate(elems):
            for j, b in enumerate(elems):
                if i != j:
                    counts[(a - b) % self.N] += 1
        if any(c != 1 for c in counts[1:]):
            raise OutOfRange(f"not a (N={self.N}, M={len(elems)}, 1) difference set")

    @property
    def M(self) -> int:
        return len(self.elements)


def scaled_onb_frame(n: int, copies: int) -> Frame:
    """Union of ``copies`` scaled orthonormal bases: columns sqrt(n) * e_i.

    Direction-major order: the first ``copies`` columns repeat e_1, and so on.
    """
    if n < 1 or copies < 1:
        raise OutOfRange("n and copies must be >= 1")
    cols = np.repeat(np.eye(n), copies, axis=1) * math.sqrt(n)
    return Frame(n=n, M=n * copies, vectors=DenseMatrix(cols),
                 normalization=RECON, kind="scaled-onb")


def harmonic_frame(n: int, M: int, row_set=None, real: bool = False) -> Frame:
    """Equal-norm tight frame from n rows of the M-point character table.

    Column k is z_k with z_k[i] = omega**(k * s_i), omega = exp(2*pi*i/M),
    where s_i ranges over ``row_set`` (defaults to 0..n-1).  Each column has
    squared norm n and the frame operator is M * I by character orthogonality.

    With ``real=True`` conjugate character pairs are replaced by
    sqrt(2)*cos / sqrt(2)*sin rows (plus the constant row when n is odd),
    which requires M > n for even n.
    """
    if n < 1:
        raise OutOfRange("n must be >= 1")
    if M < n:
        raise OutOfRange(f"harmonic frame needs M >= n, got M={M} < n={n}")
    k = np.arange(M)
    if real:
        if row_set is not None:
            raise OutOfRange("row_set is not supported in real mode")
        pairs = n // 2
        # every pair frequency s = 1..pairs needs 0 < 2s < M
        if 2 * pairs >= M:
            raise OutOfRange(f"real harmonic frame needs M > {2 * pairs} for n = {n}")
        rows = []
        if n % 2 == 1:
            rows.append(np.ones(M))
        for s in range(1, pairs + 1):
            theta = 2.0 * np.pi * s * k / M
            rows.append(math.sqrt(2.0) * np.cos(theta))
            rows.append(math.sqrt(2.0) * np.sin(theta))
        cols = np.vstack(rows)
        return Frame(n=n, M=M, vectors=DenseMatrix(cols),
                     normalization=RECON, kind="harmonic-real")
    if row_set is None:
        row_set = tuple(range(n))
    rows = tuple(int(s) for s in row_set)
    if len(rows) != n or len(set(rows)) != n or any(not 0 <= s < M for s in rows):
        raise OutOfRange(f"row_set must be {n} distinct integers in [0, {M}), got {rows}")
    s = np.asarray(rows)[:, None]
    cols = np.exp(2j * np.pi * (s * k[None, :]) / M)
    return Frame(n=n, M=M, vectors=DenseMatrix(cols),
                 normalization=RECON, kind="harmonic")


def harmonic_rows(array: np.ndarray) -> tuple[int, ...] | None:
    """The row set r with array == harmonic_frame(n, M, r).array * array[0, 0].real
    bit for bit, read from the angles of column 1 (column 0 if M = 1); else None."""
    n, M = array.shape
    if not np.iscomplexobj(array) or not np.isfinite(array).all():
        return None
    rows = tuple((np.rint(np.angle(array[:, 1 % M]) * (M / (2 * np.pi))).astype(int) % M).tolist())
    if len(set(rows)) == n and np.array_equal(
            array, harmonic_frame(n, M, rows).array * array[0, 0].real):
        return rows
    return None


def _singer_set(p: int, e: int) -> list[int]:
    """Singer's (q^2+q+1, q+1, 1) difference set for q = p^e.

    With g a primitive element of GF(q^3), the set is the exponents i mod
    q^2+q+1 for which g^i lies in the kernel of the trace
    Tr(y) = y + y^q + y^(q^2) from GF(q^3) to GF(q), a 2-dimensional
    GF(q)-subspace.  Tr(g^i) is read off one antilog table as
    g^i + g^(iq) + g^(iq^2), exponents taken mod q^3 - 1.

    g is x modulo the first x^n + f (n = 3e) whose table-filling walk
    g^(k+1) = x g^k first returns to 1 at step p^n - 1.  With f[0] != 0, x is
    a unit of R = GF(p)[x]/(x^n + f), and its order, which divides
    |R^x| <= p^n - 1, is p^n - 1 exactly when R is a field and x primitive.
    """
    q, n = p ** e, 3 * e
    order = q ** 3 - 1
    one = [1] + [0] * (n - 1)
    antilog = np.empty((order, n), dtype=np.int64)   # row k: coefficients of g^k, g = x
    # tails f by increasing sum f[j] p^j: sparse low-degree tails come first
    for f in (t[::-1] for t in itertools.product(range(p), repeat=n) if t[-1]):
        cur = one
        for k in range(order):
            if k and cur == one:
                break                  # x has order k < p^n - 1: not primitive
            antilog[k] = cur
            top = cur[-1]              # g^(k+1) = x g^k: shift up, x^n -> -f
            cur = [0] + cur[:-1]
            if top:
                cur = [(c - top * fj) % p for c, fj in zip(cur, f)]
        else:
            break
    i = np.arange(q * q + q + 1)
    trace = antilog[i] + antilog[i * q % order] + antilog[i * q * q % order]
    return np.flatnonzero(~(trace % p).any(axis=1)).tolist()


def find_difference_set(N: int, M: int) -> DifferenceSet:
    """Lexicographically smallest (N, M, 1) difference set containing 0.

    A cyclic (N, M, 1) difference set has N = q^2 + q + 1 with order
    q = M - 1.  For a prime power q the set is built by Singer's
    construction (J. Singer, "A theorem in finite projective geometry and
    some applications to number theory", Trans. AMS 43, 1938) and mapped
    to the lexicographically smallest set containing 0 among its images
    t*D + s (t a unit mod N).  Every cyclic planar difference set of
    these small orders is such an image of the Singer set, so this is the
    set an exhaustive lexicographic search finds; the tests check that
    against ordered backtracking for every N <= 91.  No cyclic planar
    difference set of an order q < 2,000,000 that is not a prime power
    exists (D. M. Gordon, "The prime power conjecture is true for
    n < 2,000,000", Electron. J. Combin. 1, 1994), so an order that is not
    a power of its least factor p >= 2 raises ``NoSuchSet`` at once; for
    q = p^e, :func:`_singer_set` finds the field by the period of its walk.
    The orders 0 and 1 give (1, 1) -> {0} and (3, 2) -> {0, 1}.
    """
    if M * (M - 1) != N - 1:
        raise NoSuchSet(
            f"lambda=1 requires M(M-1) = N-1; got {M}*{M - 1} = {M * (M - 1)} != {N - 1}"
        )
    if N > _N_LIMIT:
        raise BudgetExceeded(f"difference sets limited to N <= {_N_LIMIT}")
    if M < 1:
        raise NoSuchSet(f"no (N={N}, M={M}, 1) difference set exists")
    q = M - 1
    if q <= 1:
        return DifferenceSet(N=N, elements=tuple(range(M)))
    p = next(r for r in range(2, q + 1) if q % r == 0)   # the least prime factor
    e = 1
    while p ** e < q:
        e += 1
    if p ** e != q:
        raise NoSuchSet(f"no (N={N}, M={M}, 1) difference set: order {q} is not a prime power")
    D = _singer_set(p, e)
    # an image t*D + s contains 0 exactly when s = -t*d0 for some d0 in D
    best = min(tuple(sorted(t * (d - d0) % N for d in D))
               for t in range(1, N) if math.gcd(t, N) == 1 for d0 in D)
    return DifferenceSet(N=N, elements=best)


def difference_set_etf(ds: DifferenceSet) -> Frame:
    """Equiangular tight frame from a cyclic (N, M, 1) difference set.

    The frame matrix is M x N with F[m, k] = omega**(d_m * k) / sqrt(M),
    omega = exp(2*pi*i/N): the harmonic frame on the rows the difference set
    indexes, with unit columns.  The result is tight
    (F F* = (N/M) I) and equiangular with coherence sqrt(M-1)/M, which
    equals the Welch bound for N vectors in dimension M.  The frame is
    ``unit`` normalized; :func:`renormalize` gives the ``recon`` one.
    """
    return replace(renormalize(harmonic_frame(ds.M, ds.N, row_set=ds.elements), UNIT),
                   kind="etf")


def renormalize(f: Frame, normalization: str) -> Frame:
    """Rescale all frame vectors to the requested normalization.

    An unknown ``normalization`` is refused by the :class:`Frame` it builds.
    """
    if normalization == f.normalization:
        return f
    scale = math.sqrt(f.n) if normalization == RECON else 1.0 / math.sqrt(f.n)
    return Frame(n=f.n, M=f.M, vectors=DenseMatrix(f.array * scale),
                 normalization=normalization, kind=f.kind)


@dataclass(frozen=True)
class TightnessReport:
    residual: float
    passed: bool


def check_tight(f: Frame, tol: float = 1e-10) -> TightnessReport:
    """Operator-norm residual of alpha * (frame operator) - I."""
    s = f.alpha * f.operator() - np.eye(f.n)
    residual = operator_norm(s)
    return TightnessReport(residual=residual, passed=bool(residual <= tol))


def coherence(f: Frame) -> float:
    """Largest normalized off-diagonal Gram magnitude max |<f_k, f_l>| / (|f_k||f_l|)."""
    if f.M < 2:
        raise OutOfRange("coherence needs at least two vectors")
    g = gram_matrix(f.vectors)
    norms = np.sqrt(np.real(np.diag(g)))
    scaled = np.abs(g) / np.outer(norms, norms)
    np.fill_diagonal(scaled, 0.0)
    return float(np.max(scaled))


def welch_bound(n: int, M: int) -> float:
    """Minimum possible coherence of M unit vectors in dimension n."""
    if M <= n:
        return 0.0
    return math.sqrt((M - n) / (n * (M - 1)))
