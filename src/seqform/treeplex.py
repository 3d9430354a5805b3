"""Sequence-form strategy polytopes.

A player's strategy space is the set {z >= 0, E z = e} whose constraint
matrix encodes a tree of nested simplexes: row 0 pins the root sequence
to probability one, and every later row moves the mass of a parent
sequence onto the sequences extending it at one information set. The
one-row encoding E = (1, ..., 1), e = (1) used by plain matrix games is
recognized as a simplex: one information set hanging off a virtual root
sequence, numbered past the last real one, that carries probability one.

One decoder reads that tree for both validation and the index, with
whole-array operations on E's stored arrays: it counts the -1 and +1
entries of each row and the +1 rows of each column, finds each row's
parent row, and finds every row's depth by pointer jumping, so
validation and the index build take O(nnz + rows * log depth) time. A
game decodes each player's tree once and keeps the result for both.
The decoder also cuts the sets, sorted by depth, into the index's
levels, a simplex's one set a level under its virtual root. Best
response and normalization sweep those levels with whole-array
operations, the same sweep for a simplex and a tree.

Validation reports violations as data rather than raising, so tools can
list everything wrong with a file at once.

The module owns the sequence-form game record and every evaluator of a
strategy pair on it: expected_value, feasibility_residuals and
duality_gap read their products off the game's one operator K, and
simplex_gap is the matrix-game gap on A alone.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

import numpy as np

from .errors import (DimensionError, FeasibilityWarning, FileFormatError,
                     StructureError, ValidationError)
from .sparse import SparseMatrix, _dot

# Largest constraint residual, or most negative entry, duality_gap takes as feasible
_FEAS_TOL = 1e-8
# OpenBLAS sums a dot product of more entries than this across its threads
_DOT_SLICE = 10_000


@dataclass(frozen=True)
class Violation:
    """One structural rule broken by a constraint system."""

    matrix: str
    where: str
    rule: str

    def __str__(self) -> str:
        return f"{self.matrix} {self.where}: {self.rule}"


@dataclass(frozen=True, eq=False)
class SequenceFormGame:
    """Two-person zero-sum game in sequence form.

    A holds payoffs to the maximizing player (player 1), with rows
    indexed by player 1 sequences and columns by player 2 sequences.
    E1, e1 and E2, e2 are the players' realization-plan constraints.
    Construction is permissive; run validate_sequence_form to check the
    structural rules.
    """

    A: SparseMatrix
    E1: SparseMatrix
    E2: SparseMatrix
    e1: np.ndarray
    e2: np.ndarray
    labels: Optional[dict] = None

    def __post_init__(self):
        for name in ("e1", "e2"):
            arr = np.array(getattr(self, name), dtype=np.float64)
            if arr.ndim != 1:
                raise DimensionError(f"{name} must be a vector, got shape {arr.shape}")
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def n1(self) -> int:
        return self.E1.cols

    @property
    def n2(self) -> int:
        return self.E2.cols

    @property
    def l1(self) -> int:
        return self.E1.rows

    @property
    def l2(self) -> int:
        return self.E2.rows

    @functools.cached_property
    def _decoded(self) -> tuple:
        """Each player's (violations, index), read by validation and the indexes."""
        return _decode(self.E1, self.e1, "E1", "e1"), _decode(self.E2, self.e2, "E2", "e2")

    @functools.cached_property
    def _K(self) -> SparseMatrix:
        """The saddle-point operator [[A, -E1^T], [E2, 0]], assembled once.

        The game is validated first, and an invalid one raises
        ValidationError listing every violation, so build_K, a solve and
        the evaluators all read one K that exists only for a valid game.
        K is its stacked blocks A, -E1^T and E2, sorted stably by row, so
        row i < n1 holds A's row i, then E1's column i negated, E1's rows ascending.
        """
        violations = validate_sequence_form(self)
        if violations:
            raise ValidationError(violations)
        n1, n2 = self.n1, self.n2
        (ar, ac, av), (er1, ec1, ev1), (er2, ec2, ev2) = (
            m._coo() for m in (self.A, self.E1, self.E2))
        rows = np.concatenate([ar, ec1, n1 + er2])
        order = np.argsort(rows, kind="stable")
        return SparseMatrix.__new__(SparseMatrix)._from_arrays(
            n1 + self.l2, n2 + self.l1, rows[order],
            # stored columns may be int32, and K's columns run past A's and E2's
            np.concatenate([ac, n2 + er1, ec2], dtype=np.int64)[order],
            np.concatenate([av, -ev1, ev2])[order])

    @functools.cached_property
    def index1(self) -> "TreeplexIndex":
        return _checked_index(*self._decoded[0])

    @functools.cached_property
    def index2(self) -> "TreeplexIndex":
        return _checked_index(*self._decoded[1])

    def to_dict(self) -> dict:
        doc = {
            "n1": self.n1,
            "n2": self.n2,
            "l1": self.l1,
            "l2": self.l2,
            "A": self.A.to_dict(),
            "E1": self.E1.to_dict(),
            "E2": self.E2.to_dict(),
            "e1": [float(x) for x in self.e1],
            "e2": [float(x) for x in self.e2],
        }
        if self.labels is not None:
            doc["labels"] = self.labels
        return doc

    @classmethod
    def from_dict(cls, doc) -> "SequenceFormGame":
        if not isinstance(doc, dict):
            raise FileFormatError("game must be a JSON object")
        for key in ("n1", "n2", "l1", "l2", "A", "E1", "E2", "e1", "e2"):
            if key not in doc:
                raise FileFormatError(f"game is missing '{key}'")
        # A valid treeplex stores an entry in every row and column of E1 and
        # E2, and A is no larger than they make it: a declared shape past
        # those bounds is refused before anything of that shape is allocated.
        E1, E2 = (_read_matrix(doc, k, _backed(doc[k])) for k in ("E1", "E2"))
        A = _read_matrix(doc, "A", (E1.cols, E2.cols))
        for vec in ("e1", "e2"):
            if not isinstance(doc[vec], list) or not all(
                isinstance(x, (int, float)) and not isinstance(x, bool) for x in doc[vec]
            ):
                raise FileFormatError(f"'{vec}' must be a list of numbers")
        declared = (doc["n1"], doc["n2"], doc["l1"], doc["l2"])
        if not all(type(n) is int for n in declared):
            raise FileFormatError("game dimensions 'n1', 'n2', 'l1' and 'l2' must be integers")
        actual = (E1.cols, E2.cols, E1.rows, E2.rows)
        if declared != actual:
            raise FileFormatError(
                f"declared dimensions {declared} do not match matrices {actual}"
            )
        labels = doc.get("labels")
        if labels is not None and not isinstance(labels, dict):
            raise FileFormatError("'labels' must be an object when present")
        # the constructor converts the checked lists, once; only an integer
        # past the largest double can fail there
        try:
            return cls(A=A, E1=E1, E2=E2, e1=doc["e1"], e2=doc["e2"], labels=labels)
        except OverflowError as exc:
            raise FileFormatError(f"'e1' or 'e2' holds a number out of range: {exc}") from None


def _read_matrix(doc, key: str, max_shape: tuple[int, int]) -> SparseMatrix:
    """Read doc[key] by SparseMatrix.from_dict, naming the matrix in its parse errors."""
    try:
        return SparseMatrix.from_dict(doc[key], max_shape)
    except FileFormatError as exc:
        raise FileFormatError(f"{key}: {exc}") from None


def _backed(doc) -> tuple[int, int]:
    """The largest shape a constraint matrix's triplets can back, one entry a row and a column.

    A document without a triplet list backs nothing; from_dict then
    reports what it lacks.
    """
    n = len(doc["triplets"]) if isinstance(doc, dict) and isinstance(doc.get("triplets"), list) else 0
    return n, n


@dataclass(frozen=True)
class TreeplexIndex:
    """Preprocessed view of one player's constraint system.

    Information set i owns the sequences in children[i] and hangs off
    parent_seq[i]; a simplex has a single information set, whose
    parent_seq entry is None. topo orders information sets parents first.
    The level sweeps add one sequence past the last, num_sequences: a
    simplex's set hangs off it as a virtual root of mass one, and a tree
    leaves it at zero. levels, built by the decoder, groups the sets by
    depth, shallowest first, each level in topo order; no set's parent
    sequence lies in its own level or a deeper one, so a sweep treats each
    level with whole-array operations. children is read off the levels on
    first use; == compares num_sequences, simplex, parent_seq and topo.
    """

    num_sequences: int
    simplex: bool
    parent_seq: tuple
    topo: tuple
    levels: tuple["TreeplexLevel", ...] = field(compare=False, repr=False)

    @functools.cached_property
    def children(self) -> tuple:
        blocks = [b for lv in self.levels for b in np.split(lv.seqs, lv.starts[1:])]
        return tuple(tuple(blocks[k].tolist()) for k in np.argsort(self.topo).tolist())


class TreeplexLevel(NamedTuple):
    """The information sets of one depth, flattened into index arrays.

    seqs lists the sets' sequences set after set, each set's block
    starting at starts and sizes long; owner gives, for every entry of
    seqs, the position of its set in the level. parents holds each
    set's parent sequence, the virtual root num_sequences for a simplex.
    """

    parents: np.ndarray
    seqs: np.ndarray
    starts: np.ndarray
    sizes: np.ndarray
    owner: np.ndarray


class BestResponse(NamedTuple):
    value: float
    plan: np.ndarray


class FeasibilityResiduals(NamedTuple):
    feas_x: float
    feas_y: float
    min_x: float
    min_y: float


def _decode(E: SparseMatrix, e, mat: str, vec: str) -> tuple[list[Violation], Optional[TreeplexIndex]]:
    """Read the treeplex that (E, e) encodes, with whole-array passes over E's stored arrays.

    Masks classify the entries; bincounts count each row's -1 and +1
    entries and each column's +1 rows; one gather finds every row's
    parent row; pointer jumping finds every row's depth, and whether it
    reaches row 0, in ceil(log2 depth) rounds. Stable sorts by depth
    order the sets into topo and their +1 entries into the levels. That
    is O(nnz + rows * log depth) time besides the two sorts. Only the
    rows that do not reach row 0 are walked one by one, to name them:
    their parent chains never pass through a row that does.

    Returns the violations, named after mat and vec, and the index, which
    is None whenever a violation was found.
    """
    out = []
    e = np.asarray(e, dtype=np.float64)
    if len(e) != E.rows:
        out.append(Violation(vec, "length", f"must have {E.rows} entries (one per row of {mat}), got {len(e)}"))
    if len(e) >= 1 and e[0] != 1.0:
        out.append(Violation(vec, "[0]", f"first entry must be 1, got {e[0]}"))
    for i in (e[1:].nonzero()[0] + 1).tolist():
        out.append(Violation(vec, f"[{i}]", f"entry must be 0, got {e[i]}"))

    # entries in row-major order, columns ascending within a row
    r, c, v = E._coo()
    plus, neg = v == 1.0, v == -1.0
    plus_rows, plus_cols, parent_seq = r[plus], c[plus], c[neg]
    # any other nonzero entry leaves the +1 and -1 counts short of the nonzeros
    if len(plus_rows) + len(parent_seq) != np.count_nonzero(v):
        bad = ~(plus | neg | (v == 0.0))
        for row, col, val in zip(r[bad].tolist(), c[bad].tolist(), v[bad].tolist()):
            out.append(Violation(mat, f"({row},{col})", f"entries must be -1, 0, or +1, got {val}"))
    num_plus = np.bincount(plus_rows, minlength=E.rows)
    num_neg = np.bincount(r[neg], minlength=E.rows)

    # a single row holding a +1 in every column leaves no room for any other entry
    if E.rows == 1 and num_plus[0] == E.cols:
        return out, None if out else TreeplexIndex(
            num_sequences=E.cols, simplex=True, parent_seq=(None,), topo=(0,),
            levels=_levels(np.array([E.cols]), plus_cols, num_plus, np.ones(1, dtype=np.intp)))

    if num_neg[0] or num_plus[0] != 1 or plus_cols[0] != 0:
        out.append(Violation(mat, "row 0", "root row must contain a single +1 in column 0"))
    broken = (num_neg[1:] != 1) | (num_plus[1:] == 0)
    if broken.any():
        negs, pluses = num_neg.tolist(), num_plus.tolist()
        for row in (broken.nonzero()[0] + 1).tolist():
            if negs[row] != 1:
                out.append(Violation(mat, f"row {row}", f"must contain exactly one -1, found {negs[row]}"))
            if not pluses[row]:
                out.append(Violation(mat, f"row {row}", "must contain at least one +1"))
    num_owners = np.bincount(plus_cols, minlength=E.cols)
    broken = num_owners != 1
    if broken.any():
        owners = num_owners.tolist()
        for col in broken.nonzero()[0].tolist():
            out.append(Violation(mat, f"column {col}", f"must carry exactly one +1, found {owners[col]}"))
    if out:
        return out, None

    # Every row must reach row 0 through the parent-sequence chain. Row 0
    # owns column 0, so up[0] = 0, and each pointer-jumping round doubles
    # the distance every pointer spans. A depth below 2 ** E.rows.bit_length()
    # takes fewer rounds than the cap, so only a row on or below a cycle,
    # which never points at row 0, runs the loop to its end.
    owner = np.empty(E.cols, dtype=np.intp)
    owner[plus_cols] = plus_rows
    up = owner[np.concatenate(([0], parent_seq))]
    jump, depth = up, np.ones(E.rows, dtype=np.intp)
    depth[0] = 0
    for _ in range(E.rows.bit_length() + 1):
        if not jump.any():
            break
        depth += depth[jump]
        jump = jump[jump]
    else:
        # rows on the walk's current path store 1, rows found broken 2
        up, state = up.tolist(), {}
        for start in jump.nonzero()[0].tolist():
            path, row = [], start
            while row not in state:
                state[row] = 1
                path.append(row)
                row = up[row]
            if path:
                rule = "forms a cycle" if state[row] == 1 else "does not reach the root row"
                out.append(Violation(mat, f"row {start}", f"parent chain {rule}"))
                state.update(dict.fromkeys(path, 2))
        return out, None
    topo = depth[1:].argsort(kind="stable")
    # row 0's +1 entry comes first; sorted stably by their row's depth, the
    # other rows' +1 entries list each level's sets' sequences in topo order
    seqs = plus_cols[1:][depth[plus_rows[1:]].argsort(kind="stable")]
    return out, TreeplexIndex(
        num_sequences=E.cols, simplex=False, parent_seq=tuple(parent_seq.tolist()),
        topo=tuple(topo.tolist()),
        levels=_levels(parent_seq[topo], seqs, num_plus[1:][topo], np.bincount(depth[1:])[1:]))


def _levels(parents, seqs, sizes, counts) -> tuple[TreeplexLevel, ...]:
    """Cut the information sets, sorted by depth, into one TreeplexLevel a depth.

    parents and sizes hold each set's parent sequence and number of
    sequences, seqs the sets' sequences set after set, and counts the
    number of sets at each depth.
    """
    cuts = np.cumsum(counts)[:-1]
    return tuple(TreeplexLevel(p, s, np.cumsum(z) - z, z, np.repeat(np.arange(z.size), z))
                 for p, s, z in zip(np.split(parents.astype(np.intp), cuts),
                                    np.split(seqs.astype(np.intp), np.cumsum(sizes)[cuts - 1]),
                                    np.split(sizes, cuts)))


def validate_sequence_form(game: SequenceFormGame) -> list[Violation]:
    """Check the structural rules of a sequence-form game.

    Returns a list of violations, empty when the game is well formed.
    """
    out = game._decoded[0][0] + game._decoded[1][0]
    if game.A.rows != game.E1.cols:
        out.append(Violation("A", "rows", f"must match the {game.E1.cols} player 1 sequences, got {game.A.rows}"))
    if game.A.cols != game.E2.cols:
        out.append(Violation("A", "cols", f"must match the {game.E2.cols} player 2 sequences, got {game.A.cols}"))
    return out


def _checked_index(viols: list[Violation], index) -> TreeplexIndex:
    if viols:
        raise StructureError("; ".join(str(v) for v in viols))
    return index


def build_treeplex_index(E: SparseMatrix, e) -> TreeplexIndex:
    """Compile one player's constraints into a traversable index."""
    e = np.asarray(e, dtype=np.float64)
    if e.ndim != 1:
        raise DimensionError(f"e must be a vector, got shape {e.shape}")
    return _checked_index(*_decode(E, e, "E", "e"))


def best_response(index: TreeplexIndex, gradient, sense: str = "max") -> BestResponse:
    """Optimize a linear functional over the polytope.

    Bottom-up dynamic programming over the information sets, one depth
    level at a time; the returned plan is a deterministic vertex (0/1
    entries) attaining the optimum, with ties broken toward the lowest
    sequence index.

    The value is g . plan summed over 10,000-entry slices, each one
    np.dot on the calling thread, added in order: OpenBLAS splits a
    longer dot product across its threads, whose partial sums would make
    the last bits depend on the thread count. A plan of at most 10,000
    entries takes one np.dot call, the value of np.dot(g, plan) itself.
    """
    if sense not in ("max", "min"):
        raise ValueError(f"sense must be 'max' or 'min', got {sense!r}")
    g = np.asarray(gradient, dtype=np.float64)
    if g.shape != (index.num_sequences,):
        raise DimensionError(
            f"gradient must have length {index.num_sequences}, got shape {g.shape}"
        )
    extreme = np.maximum if sense == "max" else np.minimum
    n = index.num_sequences
    val = np.append(g, 0.0)
    choices = []
    for level in reversed(index.levels):
        vals = val[level.seqs]
        best = extreme.reduceat(vals, level.starts)[level.owner]
        # the first sequence of each set at its optimum, or at a NaN optimum
        hit = (vals == best) | np.isnan(best)
        first = np.minimum.reduceat(np.where(hit, np.arange(vals.size), vals.size), level.starts)
        choice = level.seqs[first]
        choices.append(choice)
        np.add.at(val, level.parents, val[choice])

    plan = np.zeros(n + 1)
    plan[n if index.simplex else 0] = 1.0
    for level, choice in zip(index.levels, reversed(choices)):
        plan[choice] = plan[level.parents]
    plan = plan[:n].copy()
    value = float(np.dot(g[:_DOT_SLICE], plan[:_DOT_SLICE]))
    for start in range(_DOT_SLICE, n, _DOT_SLICE):
        end = start + _DOT_SLICE
        value += float(np.dot(g[start:end], plan[start:end]))
    return BestResponse(value, plan)


def normalize_to_polytope(index: TreeplexIndex, z) -> np.ndarray:
    """Project a nonnegative-clipped vector back onto the polytope.

    Clips negatives, pins the root (a simplex's virtual root) to one, and
    rescales each information set's sequences to carry exactly their
    parent's mass, one depth level at a time from the root down. An
    information set whose entries are all zero splits its parent mass
    uniformly. One whose positive total is too small to divide that mass
    by, or too large to be a double, first divides its entries by their
    largest, then gives each result its fraction of their sum times the
    mass; if the largest is infinite, the mass is split equally over the
    infinite entries. The result is always feasible, and feasible inputs
    pass through unchanged up to roundoff.
    """
    z = np.asarray(z, dtype=np.float64)
    if z.shape != (index.num_sequences,):
        raise DimensionError(
            f"vector must have length {index.num_sequences}, got shape {z.shape}"
        )
    n = index.num_sequences
    w = np.maximum(z, 0.0)
    out = np.zeros(n + 1)
    out[n if index.simplex else 0] = 1.0
    # a total past the largest double, or a positive one too small to divide
    # the mass by, overflows; a zero entry times an infinite scale is NaN
    with np.errstate(over="ignore", invalid="ignore"):
        for level in index.levels:
            mass = out[level.parents]
            part = w[level.seqs]
            # bincount adds each set's entries in order, as a running sum would
            total = np.bincount(level.owner, weights=part, minlength=level.sizes.size)
            spread = total > 0.0
            scale = mass / np.where(spread, total, 1.0)
            share = part * scale[level.owner]
            odd = ~(np.isfinite(total) & np.isfinite(scale))
            if odd.any():
                on = odd[level.owner]
                owner = level.owner[on]
                top = np.maximum.reduceat(part, level.starts)[owner]
                rel = np.where(np.isinf(top), part[on] == top, part[on] / top)
                share[on] = rel / np.bincount(owner, weights=rel, minlength=odd.size)[owner] * mass[owner]
            out[level.seqs] = np.where(spread[level.owner], share,
                                       (mass / level.sizes)[level.owner])
    return out[:n].copy()


def _through_K(game: SequenceFormGame, v, transpose: bool) -> tuple[np.ndarray, np.ndarray]:
    """The two blocks of one product of the game's K with a strategy padded by zeros.

    K (y, 0) = (A y, E2 y) and K^T (x, 0) = (A^T x, -E1 x): y is a
    player 2 strategy, x, with transpose, a player 1 strategy.
    """
    n, m, name = (game.n1, game.n2, "x") if transpose else (game.n2, game.n1, "y")
    v = np.asarray(v, dtype=np.float64)
    if v.shape != (n,):
        raise DimensionError(f"{name} must have length {n}, got shape {v.shape}")
    K = game._K
    padded = np.zeros(K.rows if transpose else K.cols)
    padded[:n] = v
    out = K.transpose_matvec(padded) if transpose else K.matvec(padded)
    return out[:m], out[m:]


def expected_value(game: SequenceFormGame, x, y) -> float:
    """Payoff x^T A y to player 1 under a realization-plan pair.

    A y is read off K (y, 0), one product on the game's one operator.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (game.n1,):
        raise DimensionError(f"x must have length {game.n1}, got shape {x.shape}")
    return float(_dot(x, _through_K(game, y, False)[0]))


def _residuals(game: SequenceFormGame, x, y, neg_E1x, E2y) -> FeasibilityResiduals:
    # e1 + (-E1 x) is exactly the negation of E1 x - e1
    return FeasibilityResiduals(feas_x=float(np.max(np.abs(game.e1 + neg_E1x))),
                                feas_y=float(np.max(np.abs(E2y - game.e2))),
                                min_x=float(np.min(x)), min_y=float(np.min(y)))


def feasibility_residuals(game: SequenceFormGame, x, y) -> FeasibilityResiduals:
    """Constraint residuals (max-norm) and minimum entries of a strategy pair.

    E1 x and E2 y are read off K^T (x, 0) and K (y, 0), two products on
    the game's one operator.
    """
    return _residuals(game, x, y, _through_K(game, x, True)[1], _through_K(game, y, False)[1])


def duality_gap(game: SequenceFormGame, x, y) -> float:
    """Sum of both players' best-response improvements at (x, y).

    Zero exactly at an equilibrium, and an upper bound on how much
    either player can gain by deviating. Meaningful for feasible
    strategies; noticeably infeasible inputs trigger a
    FeasibilityWarning but are still evaluated. Two products on the
    game's K give both the gradients, A y and A^T x, and the constraint
    blocks the warning reads.
    """
    ATx, neg_E1x = _through_K(game, x, True)
    Ay, E2y = _through_K(game, y, False)
    res = _residuals(game, x, y, neg_E1x, E2y)
    if max(res.feas_x, res.feas_y) > _FEAS_TOL or min(res.min_x, res.min_y) < -_FEAS_TOL:
        warnings.warn(
            f"duality gap evaluated at infeasible strategies (residuals {res.feas_x:.3g}, "
            f"{res.feas_y:.3g}, minima {res.min_x:.3g}, {res.min_y:.3g})",
            FeasibilityWarning, stacklevel=2)
    upper = best_response(game.index1, Ay, "max").value
    lower = best_response(game.index2, ATx, "min").value
    return upper - lower


def simplex_gap(A: SparseMatrix, x, y) -> float:
    """Duality gap specialized to matrix games over probability simplexes."""
    return float(np.max(A.matvec(y)) - np.min(A.transpose_matvec(x)))
