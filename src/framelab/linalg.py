"""Dense linear-algebra kernel.

Everything downstream (frame construction, erasure simulation, robustness
certificates, sign-inequality estimates) funnels through the handful of
SVD-backed quantities defined here: singular values, operator and Schatten
norms, condition numbers, and frame/Gram operators.  Two stack kernels serve
the batched callers: ``condition_numbers`` (one batched SVD, for rank
decisions) and ``operator_norms`` (one batched Hermitian eigensolve, for the
top singular values the Monte Carlo estimators need).

A single matrix carrier covers both fields: real matrices are stored as
float64, complex ones as complex128, and the ``mode`` flag is derived from
the dtype.  All functions accept a :class:`DenseMatrix`, a plain ndarray,
or anything ``np.asarray`` understands.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NonFiniteEntry, OutOfRange, RankDeficient, ShapeMismatch

REAL = "real"
COMPLEX = "complex"

# Scale-relative cutoff below which a matrix counts as numerically singular.
RANK_TOL = 1e-12


def _canonical_array(values) -> np.ndarray:
    a = np.asarray(values)
    if a.ndim != 2:
        raise ShapeMismatch(f"expected a 2-D matrix, got ndim={a.ndim}")
    if a.shape[0] < 1 or a.shape[1] < 1:
        raise ShapeMismatch(f"matrix dimensions must be positive, got {a.shape}")
    dtype = np.complex128 if np.iscomplexobj(a) else np.float64
    return np.ascontiguousarray(a, dtype=dtype)


@dataclass(frozen=True, eq=False)
class DenseMatrix:
    """Immutable dense matrix, float64 or complex128.

    ``mode`` is ``"real"`` exactly when the storage dtype is real, so the
    invariant "real mode implies zero imaginary parts" holds structurally.
    Entries are finite: NaN or Inf raises :class:`NonFiniteEntry`, so every
    frame and every matrix read from a file is finite from construction on.
    """

    data: np.ndarray

    def __post_init__(self):
        a = _canonical_array(self.data)
        _require_finite(a)
        a = a.copy()
        a.flags.writeable = False
        object.__setattr__(self, "data", a)

    @property
    def rows(self) -> int:
        return self.data.shape[0]

    @property
    def cols(self) -> int:
        return self.data.shape[1]

    @property
    def mode(self) -> str:
        return COMPLEX if np.iscomplexobj(self.data) else REAL

    def json_fields(self) -> dict:
        """:meth:`to_json_dict` with ``entries`` as a (rows*cols, 2) float64 array.

        Row k holds the real and imaginary parts of entry k in row-major
        order; a real matrix has imaginary parts 0.0.
        """
        flat = self.data.ravel()
        return {
            "rows": self.rows,
            "cols": self.cols,
            "mode": self.mode,
            "entries": np.stack((flat.real, flat.imag), axis=1),
        }

    def to_json_dict(self) -> dict:
        """Encode as {"rows", "cols", "mode", "entries": [[re, im], ...]} row-major."""
        doc = self.json_fields()
        doc["entries"] = doc["entries"].tolist()
        return doc

    @classmethod
    def from_json_dict(cls, obj: dict) -> "DenseMatrix":
        required = {"rows", "cols", "mode", "entries"}
        if not isinstance(obj, dict) or set(obj) != required:
            extra = set(obj) - required if isinstance(obj, dict) else set()
            missing = required - set(obj) if isinstance(obj, dict) else required
            raise ValueError(
                f"matrix JSON must have keys {sorted(required)}; "
                f"missing={sorted(missing)} unknown={sorted(extra)}"
            )
        rows, cols, mode = _json_int(obj, "rows"), _json_int(obj, "cols"), obj["mode"]
        if rows < 1 or cols < 1:
            raise ValueError("rows and cols must be positive integers")
        if mode not in (REAL, COMPLEX):
            raise ValueError(f"mode must be 'real' or 'complex', got {mode!r}")
        re, im = _entry_pairs(obj["entries"], rows * cols)
        _require_finite(im)  # a NaN imaginary part is non-finite, not a mode error
        if mode == REAL:
            if np.any(im != 0.0):
                raise ValueError("real-mode matrix has nonzero imaginary entries")
            return cls(re.reshape(rows, cols))
        return cls((re + 1j * im).reshape(rows, cols))


def _entry_pairs(entries, count: int) -> tuple[np.ndarray, np.ndarray]:
    """Real and imaginary parts of ``count`` JSON ``[re, im]`` pairs of real numbers."""
    message = "entries must be a list of [re, im] pairs of real numbers"
    if not isinstance(entries, list):
        raise ValueError(message)
    if len(entries) != count:
        raise ValueError(f"entries length {len(entries)} != rows*cols = {count}")
    try:
        if set(map(len, entries)) == {2}:
            re = np.array(_no_booleans([e[0] for e in entries]))
            im = np.array(_no_booleans([e[1] for e in entries]))
            if re.ndim == im.ndim == 1 and re.dtype.kind in "iuf" and im.dtype.kind in "iuf":
                return re.astype(np.float64), im.astype(np.float64)
    except (TypeError, KeyError, ValueError) as exc:  # a bare number, nested lists
        raise ValueError(message) from exc
    raise ValueError(message)


def _json_int(obj: dict, key: str) -> int:
    """``obj[key]`` if it is a JSON integer, else ValueError: 2.0 and true are not."""
    value = obj[key]
    if type(value) is not int:
        raise ValueError(f"{key} must be an integer, got {value!r}")
    return value


def _no_booleans(values: list) -> list:
    if bool in set(map(type, values)):  # NumPy would cast a JSON true to 1.0
        raise ValueError("a JSON boolean is not a number")
    return values


def as_array(m) -> np.ndarray:
    """Coerce a DenseMatrix, Frame-like object, or array-like to a 2-D ndarray."""
    if isinstance(m, DenseMatrix):
        return m.data
    vectors = getattr(m, "vectors", None)
    if isinstance(vectors, DenseMatrix):
        return vectors.data
    return _canonical_array(m)


def _require_finite(a: np.ndarray):
    if not np.all(np.isfinite(a)):
        raise NonFiniteEntry("matrix contains NaN or Inf entries")


def singular_values(m) -> np.ndarray:
    """All min(rows, cols) singular values, sorted nonincreasing."""
    a = as_array(m)
    _require_finite(a)
    return np.linalg.svd(a, compute_uv=False)


def operator_norm(m) -> float:
    """Largest singular value."""
    return float(singular_values(m)[0])


def schatten_norm(m, p: float) -> float:
    """Schatten p-norm (sum of p-th powers of singular values) ** (1/p).

    Evaluated relative to the largest singular value for stability at
    large p.
    """
    if not p >= 1:
        raise OutOfRange(f"Schatten exponent must satisfy p >= 1, got {p}")
    s = singular_values(m)
    top = float(s[0])
    if top == 0.0:
        return 0.0
    return top * float(np.sum((s / top) ** p)) ** (1.0 / p)


def _finite_stack(stack) -> np.ndarray:
    a = np.asarray(stack)
    if a.ndim != 3 or 0 in a.shape[1:]:
        raise ShapeMismatch(f"expected a (B, r, c) stack with r, c >= 1, got {a.shape}")
    _require_finite(a)
    return a


def operator_norms(stack, hermitian: bool = False) -> np.ndarray:
    """Largest singular value of each matrix in a (B, r, c) stack.

    Hermitian stacks (the caller vouches; only the lower triangle is read)
    take max(-lambda_min, lambda_max) from ``eigvalsh``.  Other stacks take
    sqrt(lambda_max) of the Gram matrix on the smaller side, which keeps the
    top singular value to rounding level; rank decisions, which need the
    small singular values, stay on :func:`condition_numbers`.
    """
    a = _finite_stack(stack)
    if hermitian:
        lam = np.linalg.eigvalsh(a)
        return np.maximum(-lam[:, 0], lam[:, -1])
    ah = a.conj().swapaxes(1, 2)
    gram = ah @ a if a.shape[2] <= a.shape[1] else a @ ah
    return np.sqrt(np.maximum(np.linalg.eigvalsh(gram)[:, -1], 0.0))


def condition_numbers(stack) -> np.ndarray:
    """Condition numbers of a (B, r, c) stack of matrices, one batched SVD.

    Entry b is sigma_max / sigma_min of ``stack[b]``, or ``inf`` where
    sigma_min <= RANK_TOL * sigma_max (numerically rank deficient, the zero
    matrix included).  Rank is decided on singular values, never on squared
    Gram eigenvalues, so ``RANK_TOL`` keeps its full resolution.  Each matrix
    gets the same LAPACK call as it would alone, so a value does not depend
    on the stack it was computed in.
    """
    s = np.linalg.svd(_finite_stack(stack), compute_uv=False)
    smax, smin = s[:, 0], s[:, -1]
    deficient = smin <= RANK_TOL * smax
    return np.divide(smax, smin, out=np.full(len(s), np.inf), where=~deficient)


def condition_number(m) -> float:
    """Ratio of largest to smallest singular value.

    Raises :class:`RankDeficient` when sigma_min <= RANK_TOL * sigma_max,
    so effectively singular inputs surface as errors rather than huge floats.
    """
    c = float(condition_numbers(as_array(m)[None])[0])
    if c == np.inf:
        raise RankDeficient(
            f"matrix is numerically rank deficient (sigma_min <= {RANK_TOL:g} * sigma_max)"
        )
    return c


def frame_operator(m) -> np.ndarray:
    """Sum of outer products sum_j z_j z_j* of the columns of ``m``.

    Accepts a Frame, a DenseMatrix, or an n x M ndarray whose columns are
    the frame vectors; returns the n x n operator.
    """
    v = as_array(m)
    _require_finite(v)
    return v @ v.conj().T


def gram_matrix(m) -> np.ndarray:
    """Gram matrix of the columns of ``m``: G[k, l] = <z_k, z_l>."""
    v = as_array(m)
    _require_finite(v)
    return v.conj().T @ v
