"""Sparse matrices and the product kernels the solver spends its time in.

Matrices are assembled from (row, col, value) triplets or, on the bulk
paths (from_dense, the game's K), straight from index and value arrays,
with duplicate coordinates summed and explicit zeros kept. The stored
entries are recorded in compressed rows as three plain numpy arrays,
built by numpy alone: row pointers, column indices (int32 where they
fit) and values, 12 bytes a stored entry. Products run on a layout
chosen by one rule and built on a matrix's first product, so a matrix
that is never multiplied carries none: a game's A, E1 and E2 are
multiplied only through its K, and build a layout only when multiplied
directly. A matrix whose dense array (8 bytes a cell) is no larger than
its compressed rows, such as a matrix game's K, or is at most
_SMALL_DENSE_BYTES, such as Kuhn poker's K, multiplies as a read-only
dense array, one BLAS product each way, its transpose a view. Any other
matrix multiplies through scipy's compressed rows, sharing the record's
arrays, plus a transposed compressed-row copy, so products against the
transpose run over rows too, which is measurably faster than scipy's
column-layout product on the solver's operators. Instances are
immutable apart from that one-time layout and safe to share between
solves.

spectral_norm estimates the largest singular value, which sets the
solver's step size, by Lanczos on K^T K with numpy alone: importing
scipy's dense or sparse eigensolvers would cost more than a whole
set-up of a small game. Its plain three-term recurrence needs no
reorthogonalization: a Rayleigh quotient, its value is at most the norm.
"""

from __future__ import annotations

import math
import operator
from array import array
from typing import Iterable, NamedTuple

import numpy as np
import scipy.sparse

from .errors import DimensionError, FileFormatError

# np.einsum's kernel, called without np.einsum's dispatch, which costs
# about 1.7 us a call: as long again as a small game's inner product.
# The name is private to numpy, so a numpy without it gets np.einsum,
# the same kernel with the same bits behind that dispatch.
try:
    from numpy._core.multiarray import c_einsum as _einsum
except ImportError:
    _einsum = np.einsum

# A list or tuple [row, col, value]: integer indices and a real value, no bool.
Triplet = tuple[int, int, float]

# Extra margin applied to rel_tol when testing the Ritz residual, so the
# returned value is comfortably inside the advertised accuracy.
_STOP_SAFETY = 0.005
# Most rounds one estimate runs; an estimate that reaches it is not converged.
_MAX_ROUNDS = 5000
# Most Lanczos vectors kept at once; a full basis restarts the iteration.
# Up to 25, eigh solves the tridiagonal by QR steps; above, LAPACK
# switches to divide and conquer, which calls multithreaded BLAS.
_MAX_BASIS = 25
# Largest dense array that multiplies dense whatever its number of stored
# entries. On small operators a product's cost is the call, not the bytes
# read: with three entries a row, a dense product from 20x20 to 64x64
# (32 KB) measured 1.4-2.1 us against 4-7 us through scipy's compressed
# rows, and the two meet near 128x128, between 128 KB and 512 KB.
_SMALL_DENSE_BYTES = 32768


class SparseMatrix:
    """Immutable sparse matrix, with a product layout chosen by one rule.

    The constructor reads triplets, a game file's through from_dict too,
    in one pass; an item that is not a Triplet is a TypeError naming it.
    _indptr, _indices and _data hold the stored entries in compressed
    rows, columns ascending, explicit zeros and summed duplicates
    included; they are what nnz, triplets, to_dict and to_dense read.
    Products use the (forward, transposed) pair _product_layout builds
    on the first product: a read-only dense array and its transposed
    view when 8 * rows * cols <= max(12 * nnz, _SMALL_DENSE_BYTES), that
    is, when a dense product reads no more bytes than a compressed-row
    one or the dense array is small enough for call overhead to rule;
    otherwise a scipy compressed-row matrix over the record's arrays and
    a transposed compressed-row copy.
    """

    __slots__ = ("rows", "cols", "_indptr", "_indices", "_data", "_layout")

    def __init__(self, rows: int, cols: int, triplets: Iterable[Triplet] = ()):
        ri, ci, vals = array("q"), array("q"), array("d")
        add_r, add_c, add_x = ri.append, ci.append, vals.append
        for t in triplets:
            try:
                r, c, x = t
                # the typed buffers refuse any other index or value, but take a bool
                # as an int and a numpy bool as a float; a float value skips the bool tests
                if (type(t) is not list and type(t) is not tuple or r is True or r is False
                        or c is True or c is False or type(x) is not float
                        and (x is True or x is False or x is np.True_ or x is np.False_)):
                    raise TypeError
                add_r(r); add_c(c); add_x(x)
            except (TypeError, ValueError):
                # a value is appended last, so the triplets read so far number len(vals)
                raise TypeError(f"triplet {len(vals)} must be [row, col, value] with integer "
                                "indices and a numeric value") from None
        self._from_arrays(rows, cols, ri, ci, vals)

    def _from_arrays(self, rows, cols, ri, ci, vals) -> "SparseMatrix":
        """Fill this matrix from parallel row, column and value arrays, which it may keep."""
        rows = operator.index(rows)
        cols = operator.index(cols)
        if rows < 1 or cols < 1:
            raise ValueError(f"matrix shape must be at least 1x1, got {rows}x{cols}")
        ri = np.asarray(ri, dtype=np.int64)
        ci = np.asarray(ci, dtype=np.int64)
        vals = np.asarray(vals, dtype=np.float64)
        if len(vals):
            if ri.min() < 0 or ri.max() >= rows or ci.min() < 0 or ci.max() >= cols:
                raise ValueError("triplet index out of bounds")
            if not np.all(np.isfinite(vals)):
                raise ValueError("matrix values must be finite")
            ri, ci, vals = _row_major(ri, ci, vals)
        # scipy's choice too, so a compressed-row product layout shares these arrays
        index = np.int32 if max(len(vals), rows, cols) <= np.iinfo(np.int32).max else np.int64
        self.rows = rows
        self.cols = cols
        self._indptr = np.searchsorted(ri, np.arange(rows + 1)).astype(index)
        self._indices = ci.astype(index)
        self._data = vals
        self._layout = None
        return self

    def _product_layout(self) -> tuple:
        """The (forward, transposed) pair products run on, built on the first product.

        The pair is built whole and then stored in one slot, so no reader
        sees half a layout; two solves racing on a first product build
        equal pairs, and either may be kept.
        """
        layout = self._layout
        if layout is None:
            if 8 * self.rows * self.cols <= max(12 * self.nnz, _SMALL_DENSE_BYTES):
                fwd = self.to_dense()
                fwd.flags.writeable = False
                layout = (fwd, fwd.T)
            else:
                fwd = scipy.sparse.csr_matrix((self._data, self._indices, self._indptr),
                                              shape=self.shape)
                layout = (fwd, fwd.T.tocsr())
            self._layout = layout
        return layout

    @classmethod
    def from_dense(cls, array) -> "SparseMatrix":
        arr = np.asarray(array, dtype=np.float64)
        if arr.ndim != 2:
            raise ValueError("from_dense expects a 2-d array")
        rs, cs = np.nonzero(arr)
        return cls.__new__(cls)._from_arrays(arr.shape[0], arr.shape[1], rs, cs, arr[rs, cs])

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    @property
    def nnz(self) -> int:
        return len(self._data)

    def matvec(self, v) -> np.ndarray:
        v = np.asarray(v, dtype=np.float64)
        if v.shape != (self.cols,):
            raise DimensionError(
                f"matvec expects a vector of length {self.cols}, got shape {v.shape}"
            )
        return self._product_layout()[0] @ v

    def transpose_matvec(self, v) -> np.ndarray:
        v = np.asarray(v, dtype=np.float64)
        if v.shape != (self.rows,):
            raise DimensionError(
                f"transpose_matvec expects a vector of length {self.rows}, got shape {v.shape}"
            )
        return self._product_layout()[1] @ v

    def _coo(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Row, column and value arrays of the stored entries, in row-major order."""
        ptr = self._indptr
        return np.arange(self.rows).repeat(ptr[1:] - ptr[:-1]), self._indices, self._data

    def triplets(self) -> list[Triplet]:
        """Stored entries in row-major order with columns ascending."""
        return list(zip(*(a.tolist() for a in self._coo())))

    def to_dense(self) -> np.ndarray:
        out = np.zeros((self.rows, self.cols))
        r, c, x = self._coo()
        # a flat index scatters faster than a 2-d fancy index
        out.reshape(-1)[r * self.cols + c] = x
        return out

    def to_dict(self) -> dict:
        return {
            "rows": self.rows,
            "cols": self.cols,
            "triplets": [[r, c, x] for r, c, x in self.triplets()],
        }

    @classmethod
    def from_dict(cls, doc, max_shape=None) -> "SparseMatrix":
        """Read a {"rows", "cols", "triplets"} document.

        max_shape, if given, is the largest (rows, cols) the caller can
        back; a larger declared shape is a FileFormatError before anything
        of that shape is allocated.
        """
        if not isinstance(doc, dict):
            raise FileFormatError("sparse matrix must be a JSON object")
        for key in ("rows", "cols", "triplets"):
            if key not in doc:
                raise FileFormatError(f"sparse matrix is missing '{key}'")
        # type() rather than isinstance(): JSON true and false load as bool,
        # which is a subclass of int
        rows, cols, items = doc["rows"], doc["cols"], doc["triplets"]
        if type(rows) is not int or type(cols) is not int:
            raise FileFormatError("sparse matrix 'rows' and 'cols' must be integers")
        if not isinstance(items, list):
            raise FileFormatError("sparse matrix 'triplets' must be a list")
        if max_shape is not None and (rows > max_shape[0] or cols > max_shape[1]):
            raise FileFormatError(f"sparse matrix shape {rows}x{cols} is too large: "
                                  f"the file backs at most {max_shape[0]}x{max_shape[1]}")
        try:
            return cls(rows, cols, items)
        except TypeError as exc:
            raise FileFormatError(str(exc)) from None
        except (ValueError, OverflowError) as exc:
            raise FileFormatError(f"bad sparse matrix: {exc}") from None
        except MemoryError as exc:
            # a declared shape too large to allocate, refused before any memory is taken
            raise FileFormatError(f"sparse matrix shape {rows}x{cols} is too large: {exc}") from None

    def __repr__(self) -> str:
        return f"SparseMatrix({self.rows}x{self.cols}, nnz={self.nnz})"


def _row_major(ri, ci, vals):
    """Entries sorted by row, then column, with duplicates summed in input order.

    Input already in that order, as from_dense, the game's K and every
    file that to_dict writes are, passes linear checks only; any other
    is put in order by one stable sort. A sum that cancels stays an
    explicit zero; one that overflows is a ValueError.
    """
    same_row = ri[1:] == ri[:-1]
    if (ri[1:] < ri[:-1]).any() or (same_row & (ci[1:] < ci[:-1])).any():
        order = np.lexsort((ci, ri))
        ri, ci, vals = ri[order], ci[order], vals[order]
        same_row = ri[1:] == ri[:-1]
    repeat = same_row & (ci[1:] == ci[:-1])
    if not repeat.any():
        return ri, ci, vals
    starts = np.flatnonzero(np.concatenate(([True], ~repeat)))
    # finite duplicates can sum past the largest double: an error, not a warning
    with np.errstate(over="ignore"):
        sums = np.add.reduceat(vals, starts)
    if not np.all(np.isfinite(sums)):
        raise ValueError("matrix values must be finite, and so must the sums of duplicates")
    return ri[starts], ci[starts], sums


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    """The inner product of two vectors, summed on the calling thread.

    OpenBLAS splits a dot product of more than 10,000 entries across its
    threads, so the @ operator's last bits depend on the BLAS thread
    count, and on a busy machine a thread hand-off can stall a call for
    tens of ms; einsum sums in one fixed order on the calling thread.
    """
    return _einsum("i,i->", a, b)


class SpectralEstimate(NamedTuple):
    value: float
    converged: bool
    iterations: int


# huge entries overflow K^T K, which ends the estimate as infinite, not a warning
@np.errstate(over="ignore", invalid="ignore")
def spectral_norm(matrix: SparseMatrix, rel_tol: float = 1e-6) -> SpectralEstimate:
    """Estimate the largest singular value by the Lanczos method.

    Runs Lanczos on the normal matrix K^T K from a fixed random start
    (default_rng(0)), never forming it: each round is one forward and
    one transposed product, and each new vector is orthogonalized
    against the last two only. The basis holds at most _MAX_BASIS
    vectors; a full basis restarts Lanczos from the top Ritz vector.
    The iteration stops once the residual of the top Ritz pair is at
    most _STOP_SAFETY * rel_tol times its Ritz value, or after
    _MAX_ROUNDS rounds, not converged, and returns ||K x|| for the
    normalized top Ritz vector x. That is a Rayleigh quotient, however
    much orthogonality the basis lost, which only repeats converged Ritz
    values (Paige, 1980): up to rounding it never exceeds the true norm,
    and its error is of the order of the squared residual, so it is
    accurate to rounding unless the top two singular values nearly
    coincide.

    The tridiagonal projection is solved every round, except when the
    basis can hold the whole space (at most _MAX_BASIS columns): the
    Krylov space then closes within that many cheap rounds, which run to
    the end before one solve. A round whose new direction is negligible,
    as on a zero matrix or once the Krylov space has closed, is tested at
    once. A round whose new direction is not finite, as when entries
    near 1e78 overflow K^T K, ends the estimate at once as infinite and
    not converged. iterations counts rounds. Deterministic.
    """
    if not (math.isfinite(rel_tol) and rel_tol > 0):
        raise ValueError("rel_tol must be finite and positive")
    tol = _STOP_SAFETY * rel_tol
    size = min(_MAX_BASIS, matrix.cols)
    every_round = size < matrix.cols
    basis = np.empty((size, matrix.cols))
    # the tridiagonal projection of K^T K; eigh reads the lower triangle
    T = np.zeros((size, size))
    q = basis[0]
    q[:] = np.random.default_rng(0).standard_normal(matrix.cols)
    q /= math.sqrt(_dot(q, q))
    j = it = 0
    while True:
        it += 1
        w = matrix.transpose_matvec(matrix.matvec(q))
        T[j, j] = alpha = _dot(q, w)
        w -= alpha * q
        if j:
            w -= T[j, j - 1] * basis[j - 1]
        beta = math.sqrt(_dot(w, w))
        if not math.isfinite(beta):
            return SpectralEstimate(math.inf, False, it)
        j += 1
        # the Ritz residual is at most beta, and the top Ritz value at least alpha
        if every_round or j == size or it == _MAX_ROUNDS or beta <= tol * abs(alpha):
            ritz, vecs = np.linalg.eigh(T[:j, :j])
            converged = beta * abs(float(vecs[-1, -1])) <= tol * abs(float(ritz[-1]))
            if converged or j == size or it == _MAX_ROUNDS:
                x = _einsum("i,ij->j", vecs[:, -1], basis[:j])
                x /= math.sqrt(_dot(x, x))
                if converged or it == _MAX_ROUNDS:
                    Kx = matrix.matvec(x)
                    return SpectralEstimate(math.sqrt(_dot(Kx, Kx)), converged, it)
                q, j = basis[0], 0
                q[:] = x
                continue
        T[j, j - 1] = beta
        q = np.divide(w, beta, out=basis[j])


def build_K(game) -> SparseMatrix:
    """The game's saddle-point operator [[A, -E1^T], [E2, 0]].

    The result has shape (n1 + l2) x (n2 + l1) and its norm sets the
    solver's step size. It is the game's one K, validated and assembled
    on its first use (SequenceFormGame._K), so every call, a solve and
    the evaluators share the same operator; an invalid game raises
    ValidationError.
    """
    return game._K
