"""Seeded game files for the benchmark, and the reference values they are checked against.

Every file is made from the benchmark's seed, outside every timer; the
program under test only ever reads it. The same seed gives the same bytes.

- kuhn: Kuhn poker compiled by seqform's own `to_sequence_form`. It is one
  fixed game, so the seed does not change it; its value is -1/18.
- rm1000: a 1000 x 1000 matrix game with entries from U(-1, 1), the same
  draw as `seqform.random_matrix_game(1000, 1000, seed)`.
- deep: both players own a complete ternary treeplex of depth 8 (3,281
  rows, 9,841 sequences). A is sparse over leaf-sequence pairs: each leaf
  row gets `band` entries in a band of the permuted leaf columns, drawn
  from U(-1, 1) + 0.2. Payoffs whose game value is (near) zero are
  rejected and redrawn, because such games are pure saddles that a single
  row or column decides.

The references for rm1000 and deep are the value of the sequence-form LP
solved by HiGHS (interior point with crossover).
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.optimize import linprog

KUHN_VALUE = -1.0 / 18.0
# A generated deep game must have |value| above this, or it is redrawn.
DEGENERATE_VALUE = 1e-6
DEEP_ATTEMPTS = 8


# epsilon passed to `seqform solve`, full size and in smoke mode; BENCHMARK.json says why each workload
EPSILON = {"kuhn": ("1e-4", "1e-2"), "rm1000": ("3e-3", "1e-2"), "deep": ("3e-3", "1e-2")}


@dataclass
class GameFile:
    """A generated game, its reference value and its sizes."""

    reference: float
    sizes: dict
    attempts: int = 1


def _triplets(m: sp.spmatrix) -> list:
    coo = m.tocsr().tocoo()  # csr then coo: row-major, columns ascending
    return [[r, c, x] for r, c, x in zip(coo.row.tolist(), coo.col.tolist(), coo.data.tolist())]


def _write_game(path, A, E1, e1, E2, e2, labels=None) -> None:
    doc = {
        "n1": E1.shape[1], "n2": E2.shape[1], "l1": E1.shape[0], "l2": E2.shape[0],
        "A": {"rows": A.shape[0], "cols": A.shape[1], "triplets": _triplets(A)},
        "E1": {"rows": E1.shape[0], "cols": E1.shape[1], "triplets": _triplets(E1)},
        "E2": {"rows": E2.shape[0], "cols": E2.shape[1], "triplets": _triplets(E2)},
        "e1": [float(v) for v in e1], "e2": [float(v) for v in e2],
    }
    if labels is not None:
        doc["labels"] = labels
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(doc))
        fh.write("\n")


def _sizes(A, E1, E2) -> dict:
    n1, n2, l1, l2 = E1.shape[1], E2.shape[1], E1.shape[0], E2.shape[0]
    k_nnz = A.nnz + E1.nnz + E2.nnz
    return {
        "n1": n1, "n2": n2, "l1": l1, "l2": l2,
        "nnz_A": int(A.nnz), "nnz_E1": int(E1.nnz), "nnz_E2": int(E2.nnz),
        "K_shape": [n1 + l2, n2 + l1], "nnz_K": int(k_nnz),
        "state_vector": n1 + n2 + l1 + l2,
        # values (8 B) and column indices (4 B) per entry plus row pointers, per layout
        "K_bytes_per_layout_computed": int(k_nnz * 12 + (n1 + l2 + 1) * 4),
    }


def lp_value(A, E1, e1, E2, e2) -> float:
    """Value of max_x min_y x^T A y over both realization-plan polytopes.

    The inner minimum is replaced by its LP dual: maximize e2^T u subject to
    E2^T u <= A^T x, E1 x = e1, x >= 0, u free.
    """
    n1, l2 = A.shape[0], E2.shape[0]
    c = np.concatenate([np.zeros(n1), -np.asarray(e2, dtype=np.float64)])
    a_ub = sp.hstack([-A.T, E2.T]).tocsr()
    a_eq = sp.hstack([E1, sp.csr_matrix((E1.shape[0], l2))]).tocsr()
    res = linprog(c, A_ub=a_ub, b_ub=np.zeros(A.shape[1]), A_eq=a_eq, b_eq=e1,
                  bounds=[(0, None)] * n1 + [(None, None)] * l2, method="highs-ipm")
    if res.status != 0:
        raise RuntimeError(f"reference LP failed: {res.message}")
    return float(-res.fun)


def _simplex_rows(n: int):
    return sp.csr_matrix(np.ones((1, n))), np.ones(1)


def ternary_treeplex(depth: int, branching: int = 3):
    """Constraints of a complete treeplex; sequences are numbered level by level.

    Information set j owns sequences b*j+1 .. b*j+b and hangs off sequence j
    (the empty sequence 0 for j = 0). Returns E, e and the first leaf index.
    """
    infosets = (branching ** depth - 1) // (branching - 1)
    n = 1 + branching * infosets
    rows, cols, vals = [0], [0], [1.0]
    for j in range(infosets):
        rows += [j + 1] * (branching + 1)
        cols += [j] + [branching * j + 1 + a for a in range(branching)]
        vals += [-1.0] + [1.0] * branching
    E = sp.csr_matrix((vals, (rows, cols)), shape=(infosets + 1, n))
    e = np.zeros(infosets + 1)
    e[0] = 1.0
    return E, e, n - branching ** depth


def write_kuhn(path, seed: int, smoke: bool) -> GameFile:
    from seqform.games import kuhn_poker, to_sequence_form

    game, _ = to_sequence_form(kuhn_poker())
    A, E1, E2 = (sp.csr_matrix(m.to_dense()) for m in (game.A, game.E1, game.E2))
    _write_game(path, A, E1, game.e1, E2, game.e2, labels=game.labels)
    return GameFile(KUHN_VALUE, _sizes(A, E1, E2))


def write_rm(path, seed: int, smoke: bool) -> GameFile:
    n = 60 if smoke else 1000
    dense = np.random.default_rng(seed).uniform(-1.0, 1.0, size=(n, n))
    A = sp.csr_matrix(dense)
    E, e = _simplex_rows(n)
    _write_game(path, A, E, e, E, e)
    return GameFile(lp_value(A, E, e, E, e), _sizes(A, E, E))


def deep_payoffs(rng, n: int, first_leaf: int, band: int):
    leaves = n - first_leaf
    p1, p2 = rng.permutation(leaves), rng.permutation(leaves)
    rows = np.repeat(np.arange(leaves), band)
    cols = p2[(p1[rows] + np.tile(np.arange(band), leaves)) % leaves]
    vals = rng.uniform(-1.0, 1.0, rows.size) + 0.2
    return sp.csr_matrix((vals, (rows + first_leaf, cols + first_leaf)), shape=(n, n))


def write_deep(path, seed: int, smoke: bool) -> GameFile:
    depth, band = (3, 4) if smoke else (8, 16)
    E, e, first_leaf = ternary_treeplex(depth)
    n = E.shape[1]
    for attempt in range(DEEP_ATTEMPTS):
        rng = np.random.default_rng(np.random.SeedSequence([seed, attempt]))
        A = deep_payoffs(rng, n, first_leaf, band)
        value = lp_value(A, E, e, E, e)
        if abs(value) > DEGENERATE_VALUE:
            _write_game(path, A, E, e, E, e)
            return GameFile(value, _sizes(A, E, E), attempt + 1)
    raise RuntimeError(f"deep: every one of {DEEP_ATTEMPTS} payoff draws for seed {seed} "
                       f"has a game value within {DEGENERATE_VALUE} of zero")


WRITERS = {"kuhn": write_kuhn, "rm1000": write_rm, "deep": write_deep}
