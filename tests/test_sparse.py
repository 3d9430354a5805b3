"""Sparse matrix construction, products, serialization, and norm estimation."""

import numpy as np
import pytest
import scipy.sparse
from hypothesis import given, settings
from hypothesis import strategies as st

from seqform import (DimensionError, FileFormatError, SequenceFormGame,
                     SolverConfig, SparseMatrix, ValidationError, build_K, init,
                     kuhn_poker, random_matrix_game, simplex_game, solve,
                     spectral_norm, to_sequence_form)
from seqform import sparse as sparse_module
from seqform.oracle import dense_spectral_norm
from conftest import random_efg, random_treeplex, ternary_game


def test_duplicate_triplets_are_summed():
    m = SparseMatrix(2, 3, [(0, 0, 1.0), (0, 0, 2.0), (1, 2, -1.0)])
    assert np.array_equal(m.to_dense(), [[3.0, 0.0, 0.0], [0.0, 0.0, -1.0]])
    assert m.shape == (2, 3)
    assert m.nnz == 2


def test_empty_matrix():
    m = SparseMatrix(3, 2)
    assert m.nnz == 0
    assert np.array_equal(m.matvec([1.0, 2.0]), np.zeros(3))
    assert m.triplets() == []


def test_identity():
    m = SparseMatrix.from_dense(np.eye(3))
    v = np.array([1.0, -2.0, 3.0])
    assert np.array_equal(m.matvec(v), v)
    assert np.array_equal(m.transpose_matvec(v), v)


def test_from_dense_round_trip():
    dense = np.array([[0.0, 1.5], [-2.0, 0.0], [0.0, 0.25]])
    m = SparseMatrix.from_dense(dense)
    assert m.nnz == 3
    assert np.array_equal(m.to_dense(), dense)
    with pytest.raises(ValueError):
        SparseMatrix.from_dense(np.zeros(4))


def test_construction_errors():
    with pytest.raises(ValueError):
        SparseMatrix(0, 1)
    with pytest.raises(ValueError):
        SparseMatrix(2, 2, [(2, 0, 1.0)])
    with pytest.raises(ValueError):
        SparseMatrix(2, 2, [(0, -1, 1.0)])
    with pytest.raises(ValueError):
        SparseMatrix(2, 2, [(0, 0, float("nan"))])
    # a shape is an integer, never truncated from a float
    with pytest.raises(TypeError):
        SparseMatrix(2.7, 3.2)
    # a triplet list reads as a game file's does: an index is never truncated from
    # a float, a bool is not a number, and a triplet has exactly three items
    for bad in [(0.9, 1, 1.0), (0, 0.9, 1.0), (True, 1, 1.0), (0, False, 1.0), (0, 1, True),
                ("1", 1, 1.0), (0, "1", 1.0), (0, 1, "1"), (0, 1), (0, 1, 1.0, 2)]:
        with pytest.raises(TypeError, match="triplet 1 "):
            SparseMatrix(2, 2, [(0, 0, 1.0), bad])
    # so is a numpy bool, which the value buffer would otherwise take as 1.0 or 0.0
    for flag in (np.True_, np.False_):
        with pytest.raises(TypeError, match="triplet 0 "):
            SparseMatrix(2, 2, [(0, 0, flag)])
    with pytest.raises(OverflowError):
        SparseMatrix(2, 2, [(2 ** 63, 0, 1.0)])
    with pytest.raises(OverflowError):
        SparseMatrix(2, 2, [(0, 0, 10 ** 400)])


def test_duplicates_sum_in_input_order_when_rows_arrive_out_of_order():
    # 1.0 is half an ulp of 1e16, so 1e16, 1.0 and -1e16 sum to 0.0 or to 1.0 by
    # their order; the cancelled sum stays stored, an explicit zero
    m = SparseMatrix(2, 1, [(1, 0, 1e16), (0, 0, 1.0), (1, 0, 1.0), (1, 0, -1e16)])
    assert m.triplets() == [(0, 0, 1.0), (1, 0, 0.0)]
    m = SparseMatrix(2, 1, [(1, 0, 1.0), (0, 0, 1.0), (1, 0, 1e16), (1, 0, -1e16)])
    assert m.triplets() == [(0, 0, 1.0), (1, 0, 1.0)]


def test_duplicates_summing_past_the_largest_double_are_refused():
    # finite duplicates whose sum overflows: a typed error, not a warning and an infinite entry
    trips = [(0, 0, 1e308), (1, 1, 1.0), (0, 0, 1e308)]
    with pytest.raises(ValueError, match="finite"):
        SparseMatrix(2, 2, trips)
    with pytest.raises(FileFormatError, match="finite"):
        SparseMatrix.from_dict({"rows": 2, "cols": 2, "triplets": [list(t) for t in trips]})


def test_matvec_matches_dense():
    rng = np.random.default_rng(0)
    dense = rng.standard_normal((7, 5))
    dense[np.abs(dense) < 0.8] = 0.0
    m = SparseMatrix.from_dense(dense)
    v = rng.standard_normal(5)
    u = rng.standard_normal(7)
    assert np.allclose(m.matvec(v), dense @ v, atol=1e-14)
    assert np.allclose(m.transpose_matvec(u), dense.T @ u, atol=1e-14)


def test_matvec_dimension_errors():
    m = SparseMatrix(3, 2)
    with pytest.raises(DimensionError):
        m.matvec([1.0, 2.0, 3.0])
    with pytest.raises(DimensionError):
        m.transpose_matvec([1.0, 2.0])


def is_dense(m):
    return isinstance(m._product_layout()[0], np.ndarray)


def first_cells(rows, cols, count):
    """A rows x cols matrix with the first count of its cells stored, row by row."""
    cells = [(i // cols, i % cols, float(i + 1)) for i in range(count)]
    return SparseMatrix(rows, cols, cells)


def matrix_3x3(count):
    return first_cells(3, 3, count)


# the narrowest 3-row matrix whose dense array is larger than the small-matrix bound
WIDE = sparse_module._SMALL_DENSE_BYTES // 24 + 1


def test_layout_rule_boundary():
    assert sparse_module._SMALL_DENSE_BYTES == 32768
    # past 32 KB, dense exactly when 8 * rows * cols <= 12 * nnz:
    # 3x2048 is 48 KB dense, 4096 stored entries in compressed rows
    assert is_dense(first_cells(3, 2048, 4096))
    assert not is_dense(first_cells(3, 2048, 4095))
    # with few entries, dense exactly up to 32 KB
    assert is_dense(first_cells(1, 4096, 1))
    assert not is_dense(first_cells(1, 4097, 1))
    # so every 3x3 matrix is dense, even with no entries
    assert is_dense(matrix_3x3(5))
    assert is_dense(SparseMatrix(3, 3))


@pytest.mark.parametrize("count", [5, 6, 9])
def test_products_on_both_layouts(count):
    # the 3x3 matrix multiplies dense; padded with zero columns past 32 KB,
    # the same entries multiply through compressed rows
    for m, dense_layout in ((matrix_3x3(count), True), (first_cells(3, WIDE, count), False)):
        assert is_dense(m) == dense_layout
        dense = m.to_dense()
        rng = np.random.default_rng(count)
        for _ in range(5):
            v = rng.standard_normal(m.cols)
            u = rng.standard_normal(m.rows)
            assert np.allclose(m.matvec(v), dense @ v, rtol=0, atol=1e-12)
            assert np.allclose(m.transpose_matvec(u), dense.T @ u, rtol=0, atol=1e-12)
        with pytest.raises(DimensionError):
            m.matvec(np.ones(m.cols + 1))
        with pytest.raises(DimensionError):
            m.transpose_matvec(np.ones(m.rows - 1))
        # a returned vector belongs to the caller
        for product, v in ((m.matvec, np.linspace(-2.0, 1.0, m.cols)),
                           (m.transpose_matvec, np.array([1.0, -2.0, 0.5]))):
            first = product(v)
            expected = first.copy()
            first[:] = 99.0
            assert np.array_equal(product(v), expected)


def random_entries(rng):
    """Shape and triplets in random order, with duplicates and sums that cancel to zero.

    Values are multiples of 1/8, so duplicates sum exactly in any order:
    scipy's order is unspecified. The shapes cover both layouts: up to
    7x7, dense by the small-matrix bound; 3 to 7 rows wide past 32 KB
    with few entries, in compressed rows; and 2 or 3 such rows with every
    cell stored, dense by bytes.
    """
    kind = int(rng.integers(0, 3))
    if kind == 0:
        rows, cols = int(rng.integers(1, 8)), int(rng.integers(1, 8))
    else:
        rows = int(rng.integers(3, 8) if kind == 1 else rng.integers(2, 4))
        cols = int(rng.integers(WIDE, 2 * WIDE))
    if kind == 2:
        ri, ci = np.divmod(np.arange(rows * cols), cols)
    else:
        n = int(rng.integers(0, 30))
        ri, ci = rng.integers(0, rows, n), rng.integers(0, cols, n)
    vals = rng.integers(-16, 17, len(ri)) / 8.0
    dup = rng.integers(0, len(ri), int(rng.integers(0, 10))) if len(ri) else np.zeros(0, int)
    cancel = rng.integers(0, len(ri), int(rng.integers(0, 10))) if len(ri) else np.zeros(0, int)
    ri = np.concatenate([ri, ri[dup], ri[cancel]])
    ci = np.concatenate([ci, ci[dup], ci[cancel]])
    vals = np.concatenate([vals, vals[dup], -vals[cancel]])
    order = rng.permutation(len(ri))
    return rows, cols, ri[order], ci[order], vals[order]


@given(st.integers(0, 10 ** 6))
@settings(max_examples=150, deadline=None)
def test_stored_entries_match_scipy(seed):
    rng = np.random.default_rng(seed)
    rows, cols, ri, ci, vals = random_entries(rng)
    m = SparseMatrix(rows, cols, zip(ri.tolist(), ci.tolist(), vals.tolist()))
    ref = scipy.sparse.coo_matrix((vals, (ri, ci)), shape=(rows, cols)).tocsr()
    ref_rows = np.repeat(np.arange(rows), np.diff(ref.indptr))
    want = list(zip(ref_rows.tolist(), ref.indices.tolist(), ref.data.tolist()))
    assert m.nnz == ref.nnz
    assert m.triplets() == want
    assert m.to_dict() == {"rows": rows, "cols": cols, "triplets": [list(t) for t in want]}
    assert np.array_equal(m.to_dense(), ref.toarray())
    assert is_dense(m) == (8 * rows * cols <= max(12 * m.nnz, 32768))
    dense = m.to_dense()
    v, u = rng.standard_normal(cols), rng.standard_normal(rows)
    assert np.allclose(m.matvec(v), dense @ v, rtol=0, atol=1e-12)
    assert np.allclose(m.transpose_matvec(u), dense.T @ u, rtol=0, atol=1e-12)


def test_layout_choice_keeps_scipy_to_large_sparse_operators(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a scipy sparse matrix was built")

    # every matrix of a Kuhn solve, K included, multiplies dense
    monkeypatch.setattr(scipy.sparse, "coo_matrix", refuse)
    monkeypatch.setattr(scipy.sparse, "csr_matrix", refuse)
    game, _ = to_sequence_form(kuhn_poker())
    assert solve(game, SolverConfig(epsilon=1e-4)).converged
    monkeypatch.undo()
    # a depth-6 treeplex game's K keeps compressed rows, over the record's
    # arrays rather than a copy of them
    K = build_K(ternary_game(6))
    assert (K.shape, K.nnz) == ((1458, 1458), 4007)
    assert not is_dense(K)
    assert np.shares_memory(K._product_layout()[0].data, K._data)
    assert np.shares_memory(K._product_layout()[0].indices, K._indices)


def test_a_solve_multiplies_only_K():
    # A, E1 and E2 are multiplied only through K, so they never build a layout
    games = [to_sequence_form(kuhn_poker())[0], random_matrix_game(50, 40, 0), ternary_game(6)]
    for game in games:
        solve(game, SolverConfig(epsilon=1e-2, max_iter=200, trace_every=50))
        assert [m._layout for m in (game.A, game.E1, game.E2)] == [None, None, None]
        assert game._K._layout is not None


def test_each_game_assembles_K_once():
    for game in (to_sequence_form(kuhn_poker())[0], ternary_game(3)):
        assert build_K(game) is build_K(game) is init(game).K


def test_dense_layout_is_read_only():
    m = matrix_3x3(9)
    assert is_dense(m)
    for arr in m._product_layout():
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0, 0] = 1.0
    # to_dense hands out a fresh, writeable copy
    dense = m.to_dense()
    dense[0, 0] = 100.0
    assert m.to_dense()[0, 0] == 1.0


def test_dense_layout_keeps_the_stored_entries():
    # an explicit zero and a duplicate pair, both on a dense-layout matrix
    m = SparseMatrix(2, 2, [(0, 0, 1.0), (0, 1, 0.0), (1, 0, 2.0), (1, 0, 0.5), (1, 1, 3.0)])
    assert is_dense(m)
    assert m.nnz == 4
    assert m.triplets() == [(0, 0, 1.0), (0, 1, 0.0), (1, 0, 2.5), (1, 1, 3.0)]
    assert m.to_dict()["triplets"] == [[0, 0, 1.0], [0, 1, 0.0], [1, 0, 2.5], [1, 1, 3.0]]
    assert np.array_equal(m.matvec([1.0, 1.0]), [1.0, 5.5])


def test_triplets_row_major():
    m = SparseMatrix(2, 3, [(1, 0, 4.0), (0, 2, 1.0), (0, 1, 2.0)])
    assert m.triplets() == [(0, 1, 2.0), (0, 2, 1.0), (1, 0, 4.0)]


def test_dict_round_trip():
    m = SparseMatrix(2, 2, [(0, 1, 0.5), (1, 0, -1.0)])
    again = SparseMatrix.from_dict(m.to_dict())
    assert again.shape == m.shape
    assert again.triplets() == m.triplets()


def same_record(a, b):
    """Whether two matrices store the same shape and entries, to the bit and the dtype."""
    return a.shape == b.shape and all(
        x.dtype == y.dtype and x.tobytes() == y.tobytes()
        for x, y in ((a._indptr, b._indptr), (a._indices, b._indices), (a._data, b._data)))


# well-formed triplets, Python or numpy, with zeros and duplicates, five times in six,
# else lists and tuples of every kind of item a triplet list can hold by mistake
_INDEX = st.one_of(st.integers(0, 2), st.integers(0, 2).map(np.int64),
                   st.integers(0, 2).map(np.uint8))
_VALUE = st.one_of(st.sampled_from([0, 0.0, 1.0, 0.5, -0.5]), st.floats(-4, 4).map(np.float64))
_GOOD = st.tuples(_INDEX, _INDEX, _VALUE)
_ANY = st.one_of(
    _INDEX, _VALUE, st.floats(), st.booleans(), st.sampled_from(["1", "", None]),
    st.sampled_from([-1, 3, 2 ** 63, 10 ** 400, 1e308, float("inf"), float("nan")]))
_BAD = st.one_of(st.lists(_ANY, min_size=2, max_size=4), st.tuples(_ANY, _ANY, _ANY))
_TRIPLETS = st.lists(st.one_of(_GOOD, _GOOD, _GOOD, _GOOD.map(list), _GOOD.map(list), _BAD),
                     max_size=6)


@given(st.integers(1, 3), st.integers(1, 3), _TRIPLETS)
@settings(max_examples=300, deadline=None)
def test_constructor_and_from_dict_read_a_triplet_list_the_same_way(rows, cols, trips):
    try:
        m = SparseMatrix(rows, cols, trips)
    except (TypeError, ValueError, OverflowError):
        with pytest.raises(FileFormatError):
            SparseMatrix.from_dict({"rows": rows, "cols": cols, "triplets": trips})
        return
    assert same_record(SparseMatrix.from_dict({"rows": rows, "cols": cols, "triplets": trips}), m)
    # triplets() gives Python numbers, which rebuild the record numpy scalars built,
    # explicit zeros and summed duplicates included
    assert same_record(SparseMatrix(rows, cols, m.triplets()), m)


@pytest.mark.parametrize("doc", [
    "not a dict",
    {"rows": 2, "cols": 2},
    {"rows": 2.0, "cols": 2, "triplets": []},
    {"rows": 2, "cols": 2, "triplets": [[0, 0]]},
    {"rows": 2, "cols": 2, "triplets": [[0, 0.5, 1.0]]},
    {"rows": 2, "cols": 2, "triplets": [[5, 0, 1.0]]},
    {"rows": 2, "cols": 2, "triplets": 5},
    {"rows": 2, "cols": 2, "triplets": [[0, 0, "abc"]]},
    {"rows": 2, "cols": 2, "triplets": [[0, 0, None]]},
    {"rows": 2, "cols": 2, "triplets": [[0, 0, [1]]]},
    {"rows": 2, "cols": 2, "triplets": [[0, 0, "1.5"]]},
    {"rows": 2, "cols": 2, "triplets": [[0, 0, True]]},
    {"rows": 2, "cols": 2, "triplets": [[True, 0, 1.0]]},
    {"rows": True, "cols": 2, "triplets": []},
    {"rows": 2, "cols": 2, "triplets": [[10 ** 30, 0, 1.0]]},
    {"rows": 2, "cols": 2, "triplets": [[0, 0, 10 ** 400]]},
    # numpy refuses the 7.11 PiB row-pointer array at once, taking no memory
    {"rows": 10 ** 15, "cols": 1, "triplets": []},
])
def test_from_dict_rejects_malformed(doc):
    with pytest.raises(FileFormatError):
        SparseMatrix.from_dict(doc)


def test_spectral_norm_diagonal():
    est = spectral_norm(SparseMatrix.from_dense([[3.0, 0.0], [0.0, 1.0]]))
    assert est.converged
    assert abs(est.value - 3.0) < 1e-9


def test_spectral_norm_zero_matrix():
    est = spectral_norm(SparseMatrix(4, 4))
    assert est.converged
    assert est.value == 0.0
    # the first round leaves nothing to orthogonalize, whatever the width
    assert est.iterations == 1
    assert spectral_norm(SparseMatrix(3, 100)) == (0.0, True, 1)


def test_spectral_norm_exact_on_rotation_and_pennies():
    # K^T K is the identity for the 1x1 zero game, whose operator is a
    # rotation; the Krylov space closes after one round
    rotation = build_K(simplex_game(SparseMatrix(1, 1)))
    assert spectral_norm(rotation) == (1.0, True, 1)
    pennies = build_K(simplex_game(SparseMatrix.from_dense([[1.0, -1.0], [-1.0, 1.0]])))
    assert spectral_norm(pennies) == (2.0, True, 2)


def test_spectral_norm_krylov_space_closes_early():
    # matching pennies: K is 3x3 and K^T K has eigenvalues 4, 2, 2, so the
    # Krylov space closes after two rounds, before the third column
    pennies = build_K(simplex_game(SparseMatrix.from_dense([[1.0, -1.0], [-1.0, 1.0]])))
    est = spectral_norm(pennies)
    assert est.converged
    assert est.iterations == 2
    assert abs(est.value - 2.0) <= 1e-15


def test_spectral_norm_restarts_a_full_basis():
    # 300 evenly spaced singular values need more rounds than the basis
    # holds, so Lanczos restarts from its top Ritz vector on the way
    m = SparseMatrix.from_dense(np.diag(np.linspace(0.0, 1.0, 300)))
    est = spectral_norm(m)
    assert est.converged
    assert est.iterations > sparse_module._MAX_BASIS
    assert abs(est.value - 1.0) <= 1e-12
    assert est == spectral_norm(m)


def test_spectral_norm_accuracy():
    rng = np.random.default_rng(11)
    dense = rng.standard_normal((12, 9))
    est = spectral_norm(SparseMatrix.from_dense(dense))
    exact = np.linalg.norm(dense, 2)
    assert est.converged
    assert abs(est.value - exact) / exact < 1e-6


@pytest.mark.parametrize("shape", [(12, 9), (9, 12), (70, 80)])
def test_spectral_norm_is_a_rayleigh_quotient(shape):
    # up to _MAX_BASIS (25) columns the Krylov space closes; beyond, every round is tested
    dense = np.random.default_rng(11).standard_normal(shape)
    est = spectral_norm(SparseMatrix.from_dense(dense))
    exact = np.linalg.norm(dense, 2)
    assert est.converged
    assert est.value <= exact * (1 + 1e-15)
    assert (exact - est.value) / exact < 1e-13


def _assert_estimate(matrix, max_rounds):
    # the reference is LAPACK's, since the oracle refuses operators past 64x64
    est = spectral_norm(matrix)
    exact = np.linalg.norm(matrix.to_dense(), 2)
    assert est.converged
    assert est.iterations <= max_rounds
    assert abs(est.value - exact) <= 1e-12 * exact


def test_spectral_norm_plain_recurrence_separates_close_singular_values():
    # s1 = 1 and s2 = 1 - 1e-3 above a 0.97^k tail: the basis loses
    # orthogonality as the top Ritz value converges, which must not stop it
    rng = np.random.default_rng(7)
    U = np.linalg.qr(rng.standard_normal((300, 300)))[0]
    V = np.linalg.qr(rng.standard_normal((300, 300)))[0]
    s = 0.97 ** np.arange(300.0)
    s[:2] = 1.0, 1.0 - 1e-3
    _assert_estimate(SparseMatrix.from_dense((U * s) @ V.T), 40)


@pytest.mark.parametrize("shape", [(25, 25), (60, 40)])
def test_spectral_norm_plain_recurrence_on_rank_three(shape):
    # from a random start the Krylov space holds three eigenvectors and a
    # null vector of K^T K, so it closes after four rounds, on the deferred
    # path (25 columns) and on the every-round path (40)
    rng = np.random.default_rng(7)
    dense = rng.standard_normal((shape[0], 3)) @ rng.standard_normal((3, shape[1]))
    _assert_estimate(SparseMatrix.from_dense(dense), 5)


def test_spectral_norm_plain_recurrence_on_a_treeplex_game():
    _assert_estimate(build_K(ternary_game(5)), 30)


def test_spectral_norm_deterministic():
    m = SparseMatrix.from_dense(np.random.default_rng(3).standard_normal((8, 8)))
    a = spectral_norm(m)
    b = spectral_norm(m)
    assert a == b


def test_spectral_norm_parameter_validation():
    m = SparseMatrix.from_dense(np.eye(2))
    for rel_tol in (0.0, -1.0, np.inf, np.nan):
        with pytest.raises(ValueError, match="finite and positive"):
            spectral_norm(m, rel_tol=rel_tol)


def test_spectral_norm_iteration_budget(monkeypatch):
    # two close singular values force more than one round
    monkeypatch.setattr(sparse_module, "_MAX_ROUNDS", 1)
    m = SparseMatrix.from_dense([[1.0, 0.0], [0.0, 0.999]])
    est = spectral_norm(m)
    assert not est.converged
    assert est.iterations == 1


def test_build_K_dense_layout():
    game = simplex_game(SparseMatrix.from_dense([[1.0, 2.0], [3.0, 4.0]]))
    K = build_K(game)
    assert K.shape == (3, 3)
    assert np.array_equal(K.to_dense(), [
        [1.0, 2.0, -1.0],
        [3.0, 4.0, -1.0],
        [1.0, 1.0, 0.0],
    ])


def test_build_K_matches_oracle_norm():
    game = simplex_game(SparseMatrix.from_dense([[1.0, -1.0], [-1.0, 1.0]]))
    K = build_K(game)
    est = spectral_norm(K)
    exact = dense_spectral_norm(K)
    assert exact == 2.0
    assert abs(est.value - exact) / exact < 1e-6


def test_build_K_rejects_invalid_game():
    game = simplex_game(SparseMatrix.from_dense([[1.0, 2.0], [3.0, 4.0]]))
    bad = type(game)(A=game.A, E1=game.E1, E2=game.E2,
                     e1=np.array([0.9]), e2=game.e2)
    with pytest.raises(ValidationError) as err:
        build_K(bad)
    assert err.value.violations
    assert "e1" in str(err.value)


def stacked_K(game):
    """K assembled block by block, [A; -E1^T; E2] stacked and then sorted into rows."""
    n1, n2 = game.n1, game.n2
    (ar, ac, av), (er1, ec1, ev1), (er2, ec2, ev2) = (
        m._coo() for m in (game.A, game.E1, game.E2))
    return SparseMatrix.__new__(SparseMatrix)._from_arrays(
        n1 + game.l2, n2 + game.l1,
        np.concatenate([ar, ec1, n1 + er2]),
        np.concatenate([ac, n2 + er1, ec2]),
        np.concatenate([av, -ev1, ev2]))


def renumbered_treeplex(rng):
    # every row and sequence but the roots renumbered, so E's columns run out of row order
    E, e = random_treeplex(rng, max_depth=4)
    rows = np.concatenate([[0], 1 + rng.permutation(E.rows - 1)])
    cols = np.concatenate([[0], 1 + rng.permutation(E.cols - 1)])
    return SparseMatrix(E.rows, E.cols,
                        [(int(rows[r]), int(cols[c]), v) for r, c, v in E.triplets()]), e


def renumbered_game(seed):
    rng = np.random.default_rng(seed)
    (E1, e1), (E2, e2) = renumbered_treeplex(rng), renumbered_treeplex(rng)
    # two cells in three stored, explicit zeros among them
    values = rng.integers(-1, 2, (E1.cols, E2.cols)).astype(float)
    values[0, 0] = 0.0
    A = SparseMatrix(E1.cols, E2.cols, [(i, j, values[i, j]) for i in range(E1.cols)
                                        for j in range(E2.cols) if (i + j) % 3 != 2])
    return SequenceFormGame(A=A, E1=E1, E2=E2, e1=e1, e2=e2)


K_GAMES = {
    "kuhn": lambda: to_sequence_form(kuhn_poker())[0],
    **{f"efg{seed}": lambda seed=seed: to_sequence_form(random_efg(np.random.default_rng(seed)))[0]
       for seed in range(6)},
    **{f"ternary{depth}": lambda depth=depth: ternary_game(depth) for depth in (2, 3, 4)},
    "matrix": lambda: random_matrix_game(6, 9, 4),
    **{f"renumbered{seed}": lambda seed=seed: renumbered_game(seed) for seed in range(6)},
}


@pytest.mark.parametrize("name", K_GAMES)
def test_build_K_matches_the_stacked_and_sorted_blocks(name, monkeypatch):
    game = K_GAMES[name]()
    if name.startswith("renumbered"):
        assert 0.0 in game.A._data
    row_major = sparse_module._row_major

    def in_order(ri, ci, vals):
        # each entry strictly after the one before it: rows ascending, then columns
        assert np.all((ri[1:] > ri[:-1]) | (ri[1:] == ri[:-1]) & (ci[1:] > ci[:-1]))
        return row_major(ri, ci, vals)

    monkeypatch.setattr(sparse_module, "_row_major", in_order)
    K = build_K(game)
    monkeypatch.undo()
    assert same_record(K, stacked_K(game))
