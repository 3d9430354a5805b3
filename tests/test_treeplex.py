"""Strategy polytopes: validation, indexing, best response, normalization."""

import dataclasses
import itertools
import os
import subprocess
import sys
import time
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import seqform
from seqform import (DimensionError, FeasibilityWarning, FileFormatError,
                     SequenceFormGame, SolverConfig, SparseMatrix, StructureError,
                     TreeplexIndex, ValidationError, Violation, best_response,
                     build_treeplex_index, duality_gap, expected_value, feasibility_residuals,
                     kuhn_poker, normalize_to_polytope, random_matrix_game, simplex_game,
                     simplex_gap, solve, to_sequence_form, validate_sequence_form)
from seqform.oracle import embed_pure_strategy
from seqform.treeplex import TreeplexLevel
from conftest import random_treeplex, ternary_game


def two_level_treeplex():
    # root seq 0; infoset 1 owns seqs 1,2; infoset 2 hangs off seq 1 with seqs 3,4
    E = SparseMatrix(3, 5, [
        (0, 0, 1.0),
        (1, 0, -1.0), (1, 1, 1.0), (1, 2, 1.0),
        (2, 1, -1.0), (2, 3, 1.0), (2, 4, 1.0),
    ])
    e = np.array([1.0, 0.0, 0.0])
    return E, e


def test_validate_kuhn_is_clean(kuhn):
    _, game, _ = kuhn
    assert validate_sequence_form(game) == []


def test_violation_rendering():
    E = SparseMatrix(2, 2, [(0, 0, 1.0), (1, 0, -1.0)])
    e = np.array([1.0, 0.0])
    game = simplex_game(SparseMatrix(2, 2))
    bad = SequenceFormGame(A=SparseMatrix(2, 2), E1=E, E2=game.E2,
                           e1=e, e2=game.e2)
    messages = [str(v) for v in validate_sequence_form(bad)]
    assert "E1 row 1: must contain at least one +1" in messages
    assert "E1 column 1: must carry exactly one +1, found 0" in messages


def test_e_vector_violations():
    game = simplex_game(SparseMatrix(2, 3))
    bad = SequenceFormGame(A=game.A, E1=game.E1, E2=game.E2,
                           e1=np.array([0.9]), e2=np.array([1.0, 0.5]))
    messages = [str(v) for v in validate_sequence_form(bad)]
    assert any(m.startswith("e1 [0]: first entry must be 1") for m in messages)
    assert any(m.startswith("e2 length:") for m in messages)


def test_entry_value_violation():
    E = SparseMatrix(1, 2, [(0, 0, 1.0), (0, 1, 2.0)])
    game = simplex_game(SparseMatrix(2, 2))
    bad = SequenceFormGame(A=game.A, E1=E, E2=game.E2,
                           e1=np.ones(1), e2=game.e2)
    messages = [str(v) for v in validate_sequence_form(bad)]
    assert any("entries must be -1, 0, or +1" in m for m in messages)


def test_cycle_and_unreachable_violations():
    E = SparseMatrix(4, 4, [
        (0, 0, 1.0),
        (1, 2, -1.0), (1, 1, 1.0),
        (2, 1, -1.0), (2, 2, 1.0),
        (3, 2, -1.0), (3, 3, 1.0),
    ])
    e = np.array([1.0, 0.0, 0.0, 0.0])
    game = simplex_game(SparseMatrix(4, 4))
    bad = SequenceFormGame(A=game.A, E1=E, E2=game.E2, e1=e, e2=game.e2)
    messages = [str(v) for v in validate_sequence_form(bad)]
    assert "E1 row 1: parent chain forms a cycle" in messages
    assert "E1 row 3: parent chain does not reach the root row" in messages


def test_payoff_shape_violations(kuhn):
    _, game, _ = kuhn
    bad = SequenceFormGame(A=SparseMatrix(3, 13), E1=game.E1, E2=game.E2,
                           e1=game.e1, e2=game.e2)
    messages = [str(v) for v in validate_sequence_form(bad)]
    assert messages == ["A rows: must match the 13 player 1 sequences, got 3"]
    bad = SequenceFormGame(A=SparseMatrix(13, 3), E1=game.E1, E2=game.E2,
                           e1=game.e1, e2=game.e2)
    messages = [str(v) for v in validate_sequence_form(bad)]
    assert messages == ["A cols: must match the 13 player 2 sequences, got 3"]


def test_simplex_index():
    E = SparseMatrix(1, 4, [(0, j, 1.0) for j in range(4)])
    index = build_treeplex_index(E, np.ones(1))
    assert index.simplex
    assert index.num_sequences == 4
    assert len(index.topo) == 1
    assert index.children == ((0, 1, 2, 3),)
    assert index.parent_seq == (None,)


def test_index_fields():
    # the index describes the tree alone: nothing names its player
    assert [f.name for f in dataclasses.fields(TreeplexIndex)] == [
        "num_sequences", "simplex", "parent_seq", "topo", "levels"]


def test_a_solve_never_reads_the_children_tuples():
    # children is a cached property read off the levels on first use; no
    # solve step, trace point or restart needs it, so a solve leaves it unbuilt.
    # Each game is new: the shared kuhn fixture's indexes may have been read
    for game in (to_sequence_form(kuhn_poker())[0], ternary_game(4), random_matrix_game(5, 4, 0)):
        report = solve(game, SolverConfig(epsilon=1e-3, trace_every=10))
        assert report.converged and report.restarts
        assert "children" not in vars(game.index1)
        assert "children" not in vars(game.index2)


def test_two_level_index():
    E, e = two_level_treeplex()
    index = build_treeplex_index(E, e)
    assert not index.simplex
    assert index.parent_seq == (0, 1)
    assert index.children == ((1, 2), (3, 4))
    assert index.topo == (0, 1)


def test_kuhn_index_structure(kuhn):
    _, game, _ = kuhn
    idx1, idx2 = game.index1, game.index2
    assert len(idx1.topo) == 6 and len(idx2.topo) == 6
    # player 1's bet-facing infosets hang off the matching check sequence
    assert idx1.parent_seq == (0, 1, 0, 5, 0, 9)
    assert idx1.topo == (0, 2, 4, 1, 3, 5)
    # all of player 2's infosets are reached directly from the root
    assert idx2.parent_seq == (0,) * 6
    assert idx2.topo == (0, 1, 2, 3, 4, 5)


def test_index_rejects_broken_system():
    E = SparseMatrix(2, 3, [(0, 0, 1.0), (1, 0, -1.0), (1, 1, 1.0), (1, 1, 1.0)])
    with pytest.raises(StructureError):
        build_treeplex_index(E, np.array([1.0, 0.0]))
    # e must be a vector, as in a SequenceFormGame
    simplex = SparseMatrix(1, 2, [(0, 0, 1.0), (0, 1, 1.0)])
    for e in (np.ones((1, 1)), 1.0):
        with pytest.raises(DimensionError, match="must be a vector"):
            build_treeplex_index(simplex, e)


def test_each_treeplex_is_decoded_once_per_game(kuhn, monkeypatch):
    import seqform.treeplex as treeplex_module

    calls = []
    decode = treeplex_module._decode
    monkeypatch.setattr(treeplex_module, "_decode",
                        lambda E, e, mat, vec: calls.append(mat) or decode(E, e, mat, vec))
    game = SequenceFormGame.from_dict(kuhn[1].to_dict())
    assert validate_sequence_form(game) == []
    assert validate_sequence_form(game) == []
    # each index is the object the decoder built: one per player
    assert game.index1 is game._decoded[0][1] and game.index2 is game._decoded[1][1]
    assert calls == ["E1", "E2"]
    # a broken player still fails the index build with the violations found
    broken = SequenceFormGame(A=game.A, E1=game.E1, E2=game.E2,
                              e1=np.zeros(game.l1), e2=game.e2)
    assert [str(v) for v in validate_sequence_form(broken)] == [
        "e1 [0]: first entry must be 1, got 0.0"]
    with pytest.raises(StructureError, match="first entry must be 1"):
        broken.index1
    assert broken.index2 is broken._decoded[1][1]
    assert calls == ["E1", "E2", "E1", "E2"]


@given(st.integers(0, 10 ** 6))
@settings(max_examples=40, deadline=None)
def test_topo_orders_parents_first(seed):
    rng = np.random.default_rng(seed)
    E, e = random_treeplex(rng)
    index = build_treeplex_index(E, e)
    owner = {}
    for i, cs in enumerate(index.children):
        for c in cs:
            owner[c] = i
    seen = set()
    for i in index.topo:
        p = index.parent_seq[i]
        assert p is None or p == 0 or owner[p] in seen
        seen.add(i)


# Reference decoder: a direct reading of the rules that rescans the entries
# once per row, so it takes quadratic time. The one-pass decoder in
# seqform.treeplex must agree with it exactly.

def _ref_nonzero_triplets(E):
    return [(r, c, v) for r, c, v in E.triplets() if v != 0.0]


def _ref_is_simplex_row(E):
    if E.rows != 1:
        return False
    entries = _ref_nonzero_triplets(E)
    return len(entries) == E.cols and all(v == 1.0 for _, _, v in entries)


def _ref_player_violations(E, e, mat, vec):
    out = []
    e = np.asarray(e, dtype=np.float64)
    if len(e) != E.rows:
        out.append(Violation(vec, "length", f"must have {E.rows} entries (one per row of {mat}), got {len(e)}"))
    if len(e) >= 1 and e[0] != 1.0:
        out.append(Violation(vec, "[0]", f"first entry must be 1, got {e[0]}"))
    for i in range(1, len(e)):
        if e[i] != 0.0:
            out.append(Violation(vec, f"[{i}]", f"entry must be 0, got {e[i]}"))

    entries = []
    for r, c, v in E.triplets():
        if v not in (-1.0, 0.0, 1.0):
            out.append(Violation(mat, f"({r},{c})", f"entries must be -1, 0, or +1, got {v}"))
        elif v != 0.0:
            entries.append((r, c, v))

    if _ref_is_simplex_row(E):
        return out

    root = [(c, v) for r, c, v in entries if r == 0]
    if root != [(0, 1.0)]:
        out.append(Violation(mat, "row 0", "root row must contain a single +1 in column 0"))

    plus_rows: dict[int, list[int]] = {c: [] for c in range(E.cols)}
    neg_col: dict[int, int] = {}
    for r, c, v in entries:
        if v == 1.0:
            plus_rows[c].append(r)
    for r in range(1, E.rows):
        negs = [c for rr, c, v in entries if rr == r and v == -1.0]
        pos = [c for rr, c, v in entries if rr == r and v == 1.0]
        if len(negs) != 1:
            out.append(Violation(mat, f"row {r}", f"must contain exactly one -1, found {len(negs)}"))
        else:
            neg_col[r] = negs[0]
        if not pos:
            out.append(Violation(mat, f"row {r}", "must contain at least one +1"))
    for c in range(E.cols):
        if len(plus_rows[c]) != 1:
            out.append(Violation(mat, f"column {c}", f"must carry exactly one +1, found {len(plus_rows[c])}"))

    if out:
        return out

    # every row must reach row 0 through the parent-sequence chain
    owner = {c: rs[0] for c, rs in plus_rows.items()}
    status: dict[int, int] = {0: 1}  # 1 = reaches root, 2 = on current path
    for start in range(1, E.rows):
        if start in status:
            continue
        path = []
        r = start
        broken = None
        while r not in status:
            status[r] = 2
            path.append(r)
            r = owner[neg_col[r]]
            if status.get(r) == 2:
                broken = "parent chain forms a cycle"
                break
        if broken is None and status.get(r) != 1:
            broken = "parent chain does not reach the root row"
        for rr in path:
            status[rr] = 1 if broken is None else 3
        if broken is not None:
            out.append(Violation(mat, f"row {start}", broken))
    return out


def _ref_build_treeplex_index(E, e):
    viols = _ref_player_violations(E, np.asarray(e, dtype=np.float64), "E", "e")
    if viols:
        raise StructureError("; ".join(str(v) for v in viols))
    n = E.cols
    if _ref_is_simplex_row(E):
        return _ref_index(num_sequences=n, simplex=True, parent_seq=(None,),
                          children=(tuple(range(n)),), topo=(0,))
    entries = _ref_nonzero_triplets(E)
    infosets = E.rows - 1
    parent_seq = [0] * infosets
    children: list[list[int]] = [[] for _ in range(infosets)]
    owner = {0: 0}
    for r, c, v in entries:
        if r == 0:
            continue
        if v == -1.0:
            parent_seq[r - 1] = c
        else:
            children[r - 1].append(c)
            owner[c] = r
    for cs in children:
        cs.sort()
    depth = {0: 0}

    def row_depth(r: int) -> int:
        chain = []
        while r not in depth:
            chain.append(r)
            r = owner[parent_seq[r - 1]]
        d = depth[r]
        for rr in reversed(chain):
            d += 1
            depth[rr] = d
        return d

    for r in range(1, E.rows):
        row_depth(r)
    topo = tuple(sorted(range(infosets), key=lambda i: (depth[i + 1], i)))
    return _ref_index(num_sequences=n, simplex=False, parent_seq=tuple(parent_seq),
                      children=tuple(tuple(cs) for cs in children), topo=topo)


def _ref_index(num_sequences, simplex, parent_seq, children, topo):
    """The TreeplexIndex of these fields, its levels found by a Python walk of the sets.

    The walk gives each set the depth of its parent sequence plus one,
    in topo order, then groups the sets by depth. The index reads its
    children off those levels; they must be the children given.
    """
    parents = (num_sequences,) if simplex else parent_seq
    seq_depth = [0] * (num_sequences + 1)
    depth = [0] * len(children)
    for i in topo:
        depth[i] = d = seq_depth[parents[i]] + 1
        for c in children[i]:
            seq_depth[c] = d
    levels = []
    for _, group in itertools.groupby(sorted(topo, key=depth.__getitem__), key=depth.__getitem__):
        group = list(group)
        sizes = np.array([len(children[i]) for i in group], dtype=np.intp)
        levels.append(TreeplexLevel(
            parents=np.array([parents[i] for i in group], dtype=np.intp),
            seqs=np.array([c for i in group for c in children[i]], dtype=np.intp),
            starts=np.cumsum(sizes) - sizes, sizes=sizes,
            owner=np.repeat(np.arange(sizes.size), sizes)))
    index = TreeplexIndex(num_sequences=num_sequences, simplex=simplex, parent_seq=parent_seq,
                          topo=topo, levels=tuple(levels))
    assert index.children == children
    return index


def _assert_same_levels(got, want):
    assert len(got) == len(want)
    for level, ref in zip(got, want):
        for a, b in zip(level, ref):
            assert a.dtype == np.intp and np.array_equal(a, b)


def _corrupt(rng, E, e):
    """Apply one random structural corruption to a constraint system."""
    trips = E.triplets()
    e = list(e)
    kind = int(rng.integers(0, 6))
    if kind == 0 and trips:
        trips.pop(int(rng.integers(0, len(trips))))
    elif kind == 1 and trips:
        k = int(rng.integers(0, len(trips)))
        r, c, v = trips[k]
        trips[k] = (r, c, -v)
    elif kind == 2:
        trips.append((int(rng.integers(0, E.rows)), int(rng.integers(0, E.cols)),
                      float(rng.choice([-1.0, 1.0, 2.0]))))
    elif kind == 3 and trips:
        k = int(rng.integers(0, len(trips)))
        r, _, v = trips[k]
        trips[k] = (r, int(rng.integers(0, E.cols)), v)
    elif kind == 4:
        e[int(rng.integers(0, len(e)))] = float(rng.choice([0.0, 1.0, 0.5, -1.0]))
    elif kind == 5:
        e = e[:-1] if len(e) > 1 and rng.random() < 0.5 else e + [0.0]
    return SparseMatrix(E.rows, E.cols, trips), np.array(e)


@given(st.integers(0, 10 ** 6), st.integers(0, 2))
@example(120, 1)  # a cycle, and a row hanging off it that cannot reach the root
@settings(max_examples=300, deadline=None)
def test_decoder_matches_reference(seed, corruptions):
    rng = np.random.default_rng(seed)
    E, e = random_treeplex(rng)
    for _ in range(corruptions):
        E, e = _corrupt(rng, E, e)
    game = SequenceFormGame(A=SparseMatrix(E.cols, E.cols), E1=E, E2=E, e1=e, e2=e)
    expected = _ref_player_violations(E, e, "E1", "e1") + _ref_player_violations(E, e, "E2", "e2")
    assert [str(v) for v in validate_sequence_form(game)] == [str(v) for v in expected]
    try:
        want = _ref_build_treeplex_index(E, e)
    except StructureError as exc:
        with pytest.raises(StructureError) as err:
            build_treeplex_index(E, e)
        assert str(err.value) == str(exc)
        return
    index = build_treeplex_index(E, e)
    assert index == want
    _assert_same_levels(index.levels, want.levels)


def test_decoder_levels_match_the_reference_walk(kuhn):
    _, game, _ = kuhn
    simplex = SparseMatrix(1, 4, [(0, j, 1.0) for j in range(4)])
    t4 = ternary_game(4)
    for E, e in [(simplex, np.ones(1)), (game.E1, game.e1), (game.E2, game.e2), (t4.E1, t4.e1)]:
        _assert_same_levels(build_treeplex_index(E, e).levels, _ref_build_treeplex_index(E, e).levels)
    # a simplex is one level, its set hanging off the virtual root, sequence 4
    (level,) = build_treeplex_index(simplex, np.ones(1)).levels
    assert [a.tolist() for a in level] == [[4], [0, 1, 2, 3], [0], [4], [0, 0, 0, 0]]


def test_validation_and_index_run_in_linear_time():
    # complete ternary treeplex of depth 9, numbered level by level: infoset j
    # owns sequences 3j+1..3j+3 and hangs off sequence j
    infosets = (3 ** 9 - 1) // 2
    trips = [(0, 0, 1.0)]
    for j in range(infosets):
        trips += [(j + 1, j, -1.0)] + [(j + 1, 3 * j + a, 1.0) for a in (1, 2, 3)]
    E = SparseMatrix(infosets + 1, 3 * infosets + 1, trips)
    assert E.shape == (9842, 29524)
    e = np.zeros(E.rows)
    e[0] = 1.0
    game = SequenceFormGame(A=SparseMatrix(E.cols, E.cols), E1=E, E2=E, e1=e, e2=e)
    start = time.perf_counter()
    assert validate_sequence_form(game) == []
    indexes = (game.index1, game.index2)
    elapsed = time.perf_counter() - start
    assert all(len(index.topo) == infosets for index in indexes)
    # linear decoding takes well under 0.1 s here; rescanning the entries per row
    # (the reference decoder above) takes tens of seconds
    assert elapsed < 2.0


def permuted_chain(n, seed=0):
    """A treeplex of n rows that is one chain of one-sequence information sets.

    The set at chain position k >= 1 sits in row rows[k], owns sequence
    seqs[k] and hangs off seqs[k - 1]; rows and sequences are shuffled,
    so no order of E's entries follows the chain.
    """
    rng = np.random.default_rng(seed)
    rows = np.concatenate(([0], 1 + rng.permutation(n - 1))).tolist()
    seqs = np.concatenate(([0], 1 + rng.permutation(n - 1))).tolist()
    trips = [(0, 0, 1.0)]
    for k in range(1, n):
        trips += [(rows[k], seqs[k - 1], -1.0), (rows[k], seqs[k], 1.0)]
    return trips, rows, seqs


def test_chain_of_depth_2_to_the_15_decodes_to_the_reference_index():
    # pointer jumping needs 15 rounds here, within its cap of 17
    n = 2 ** 15
    trips, rows, seqs = permuted_chain(n)
    E = SparseMatrix(n, n, trips)
    e = np.zeros(n)
    e[0] = 1.0
    parent_seq, children = [None] * (n - 1), [None] * (n - 1)
    for k in range(1, n):
        parent_seq[rows[k] - 1] = seqs[k - 1]
        children[rows[k] - 1] = (seqs[k],)
    start = time.perf_counter()
    index = build_treeplex_index(E, e)
    elapsed = time.perf_counter() - start
    want = _ref_index(num_sequences=n, simplex=False, parent_seq=tuple(parent_seq),
                      children=tuple(children), topo=tuple(r - 1 for r in rows[1:]))
    assert index == want
    _assert_same_levels(index.levels, want.levels)
    # the whole-array decode, which cuts 32,767 one-set levels, takes a few
    # tenths of a second here
    assert elapsed < 2.0


def test_chain_closed_into_a_cycle_yields_the_reference_violations():
    # the chain's first set hangs off its last sequence, and one more set,
    # in the last row, hangs off a sequence on that cycle with a sequence of its own
    n = 2 ** 15
    trips, rows, seqs = permuted_chain(n)
    trips = [t for t in trips if t[0] != rows[1] or t[2] != -1.0]
    trips += [(rows[1], seqs[-1], -1.0), (n, seqs[n // 2], -1.0), (n, n, 1.0)]
    E = SparseMatrix(n + 1, n + 1, trips)
    e = np.zeros(n + 1)
    e[0] = 1.0
    game = SequenceFormGame(A=SparseMatrix(n + 1, n + 1), E1=E, E2=E, e1=e, e2=e)
    # the reference walk starts from rows 1, 2, ... in turn: the walk from row 1
    # runs round the whole cycle, and the walk from row n meets it
    expected = ["row 1: parent chain forms a cycle",
                f"row {n}: parent chain does not reach the root row"]
    assert [str(v) for v in validate_sequence_form(game)] == (
        [f"E1 {m}" for m in expected] + [f"E2 {m}" for m in expected])
    with pytest.raises(StructureError, match="row 1: parent chain forms a cycle"):
        game.index1


def test_decoder_reads_the_stored_arrays_not_the_triplets(kuhn, monkeypatch):
    games = [dataclasses.replace(kuhn[1]), ternary_game(4)]

    def refuse(self):
        raise AssertionError("the decoder read E's triplets")

    monkeypatch.setattr(SparseMatrix, "triplets", refuse)
    for game in games:
        assert validate_sequence_form(game) == []
        assert game.index1.num_sequences == game.n1 and game.index2.num_sequences == game.n2


def test_best_response_simplex():
    E = SparseMatrix(1, 3, [(0, j, 1.0) for j in range(3)])
    index = build_treeplex_index(E, np.ones(1))
    br = best_response(index, [1.0, 3.0, 2.0], "max")
    assert br.value == 3.0
    assert np.array_equal(br.plan, [0.0, 1.0, 0.0])
    br = best_response(index, [1.0, 3.0, 2.0], "min")
    assert br.value == 1.0
    assert np.array_equal(br.plan, [1.0, 0.0, 0.0])
    # the sweep's extra root slot is not part of the plan, which owns its memory
    assert br.plan.base is None


def test_best_response_tie_takes_lowest_index():
    E = SparseMatrix(1, 3, [(0, j, 1.0) for j in range(3)])
    index = build_treeplex_index(E, np.ones(1))
    br = best_response(index, [2.0, 0.0, 2.0], "max")
    assert np.array_equal(br.plan, [1.0, 0.0, 0.0])


def test_best_response_two_level():
    E, e = two_level_treeplex()
    index = build_treeplex_index(E, e)
    g = np.array([0.0, 1.0, 5.0, 10.0, 2.0])
    br = best_response(index, g, "max")
    # seq 1 plus the nested infoset is worth 1 + 10, beating seq 2's 5
    assert br.value == 11.0
    assert np.array_equal(br.plan, [1.0, 1.0, 0.0, 1.0, 0.0])
    br = best_response(index, g, "min")
    assert br.value == 3.0
    assert np.array_equal(br.plan, [1.0, 1.0, 0.0, 0.0, 1.0])


def test_best_response_leaves_gradient_alone():
    E, e = two_level_treeplex()
    index = build_treeplex_index(E, e)
    g = np.array([0.0, 1.0, 5.0, 10.0, 2.0])
    best_response(index, g, "max")
    assert np.array_equal(g, [0.0, 1.0, 5.0, 10.0, 2.0])


def test_best_response_value_bits_do_not_depend_on_blas_threads():
    # OpenBLAS splits a dot product of more than 10,000 entries across its
    # threads; 50,000 two-action sets off the root make 100,001 sequences
    code = ("import numpy as np\n"
            "from seqform import SparseMatrix, best_response, build_treeplex_index\n"
            "sets = 50_000\n"
            "n = 2 * sets + 1\n"
            "trip = [(0, 0, 1.0)]\n"
            "for r in range(1, sets + 1):\n"
            "    trip += [(r, 0, -1.0), (r, 2 * r - 1, 1.0), (r, 2 * r, 1.0)]\n"
            "e = np.zeros(sets + 1)\n"
            "e[0] = 1.0\n"
            "index = build_treeplex_index(SparseMatrix(sets + 1, n, trip), e)\n"
            "g = np.random.default_rng(0).standard_normal(n)\n"
            "print(best_response(index, g, 'max').value.hex())\n")
    src = os.path.dirname(os.path.dirname(os.path.abspath(seqform.__file__)))
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join([src, env.get("PYTHONPATH", "")])
        run = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, timeout=120)
        assert run.returncode == 0, run.stderr
        outputs.append(run.stdout)
    assert outputs[0] == outputs[1]


def test_best_response_argument_errors():
    E, e = two_level_treeplex()
    index = build_treeplex_index(E, e)
    with pytest.raises(ValueError):
        best_response(index, np.zeros(5), "argmax")
    with pytest.raises(DimensionError):
        best_response(index, np.zeros(4), "max")


def test_best_response_against_folding_kuhn_opponent(kuhn):
    _, game, seqmap = kuhn
    always_fold = {f"2:{c}:c": 0 for c in "JQK"}
    always_fold.update({f"2:{c}:b": 0 for c in "JQK"})
    y = embed_pure_strategy(seqmap, 2, always_fold)
    br = best_response(game.index1, game.A.matvec(y), "max")
    # betting wins the pot outright against a player who always folds
    assert br.value == 1.0


def test_normalize_simplex():
    E = SparseMatrix(1, 2, [(0, 0, 1.0), (0, 1, 1.0)])
    index = build_treeplex_index(E, np.ones(1))
    assert np.array_equal(normalize_to_polytope(index, [0.2, 0.2]), [0.5, 0.5])
    assert np.array_equal(normalize_to_polytope(index, [-1.0, 3.0]), [0.0, 1.0])
    assert np.array_equal(normalize_to_polytope(index, [0.0, 0.0]), [0.5, 0.5])
    assert normalize_to_polytope(index, [0.2, 0.2]).base is None


def test_normalize_tree():
    E, e = two_level_treeplex()
    index = build_treeplex_index(E, e)
    out = normalize_to_polytope(index, [7.0, 2.0, 2.0, 0.0, 0.0])
    assert np.array_equal(out, [1.0, 0.5, 0.5, 0.25, 0.25])
    out = normalize_to_polytope(index, [1.0, -3.0, 1.0, 1.0, 3.0])
    assert np.array_equal(out, [1.0, 0.0, 1.0, 0.0, 0.0])


def test_normalize_set_whose_total_is_too_small_or_too_large_to_divide_by():
    # 1 / 1e-313 overflows; the set's one positive entry takes all the mass
    E = SparseMatrix(2, 3, [(0, 0, 1.0), (1, 0, -1.0), (1, 1, 1.0), (1, 2, 1.0)])
    index = build_treeplex_index(E, np.array([1.0, 0.0]))
    assert np.array_equal(normalize_to_polytope(index, [1.0, 1e-313, -1.0]), [1.0, 1.0, 0.0])
    # 1e308 + 1e308 overflows; equal entries share the mass equally
    simplex = build_treeplex_index(SparseMatrix(1, 2, [(0, 0, 1.0), (0, 1, 1.0)]), np.ones(1))
    assert np.array_equal(normalize_to_polytope(simplex, [1e308, 1e308]), [0.5, 0.5])
    E, e = two_level_treeplex()
    out = normalize_to_polytope(build_treeplex_index(E, e), [1.0, 1e308, 1e308, 0.0, 0.0])
    assert np.array_equal(out, [1.0, 0.5, 0.5, 0.25, 0.25])
    assert np.array_equal(E.matvec(out), e)


def test_normalize_tree_set_with_an_infinite_entry_splits_its_mass_over_the_infinite_ones():
    E = SparseMatrix(2, 3, [(0, 0, 1.0), (1, 0, -1.0), (1, 1, 1.0), (1, 2, 1.0)])
    index = build_treeplex_index(E, np.array([1.0, 0.0]))
    assert np.array_equal(normalize_to_polytope(index, [1.0, np.inf, 1.0]), [1.0, 1.0, 0.0])
    E, e = two_level_treeplex()
    out = normalize_to_polytope(build_treeplex_index(E, e), [1.0, np.inf, np.inf, np.inf, 1.0])
    assert np.array_equal(out, [1.0, 0.5, 0.5, 0.5, 0.0])
    assert np.array_equal(E.matvec(out), e)


def test_normalize_simplex_with_an_infinite_entry_splits_its_mass_over_the_infinite_ones():
    simplex = build_treeplex_index(SparseMatrix(1, 2, [(0, 0, 1.0), (0, 1, 1.0)]), np.ones(1))
    assert np.array_equal(normalize_to_polytope(simplex, [np.inf, 1.0]), [1.0, 0.0])
    assert np.array_equal(normalize_to_polytope(simplex, [np.inf, np.inf]), [0.5, 0.5])


def test_normalize_dimension_error():
    E, e = two_level_treeplex()
    index = build_treeplex_index(E, e)
    with pytest.raises(DimensionError):
        normalize_to_polytope(index, np.zeros(4))


@given(st.integers(0, 10 ** 6))
@settings(max_examples=40, deadline=None)
def test_normalize_always_feasible(seed):
    rng = np.random.default_rng(seed)
    E, e = random_treeplex(rng)
    index = build_treeplex_index(E, e)
    z = rng.standard_normal(index.num_sequences) * 3.0
    out = normalize_to_polytope(index, z)
    assert np.min(out) >= 0.0
    assert np.max(np.abs(E.matvec(out) - e)) <= 1e-12


@given(st.integers(0, 10 ** 6))
@settings(max_examples=40, deadline=None)
def test_best_response_dominates_feasible_points(seed):
    rng = np.random.default_rng(seed)
    E, e = random_treeplex(rng)
    index = build_treeplex_index(E, e)
    g = rng.standard_normal(index.num_sequences)
    z = normalize_to_polytope(index, rng.random(index.num_sequences))
    hi = best_response(index, g, "max")
    lo = best_response(index, g, "min")
    assert np.max(np.abs(E.matvec(hi.plan) - e)) == 0.0
    assert hi.value >= float(np.dot(g, z)) - 1e-12
    assert lo.value <= float(np.dot(g, z)) + 1e-12


def _reference_best_response(index, g, sense):
    # the set-by-set sweep that the level-by-level best_response replaced
    val = np.array(g, dtype=np.float64)
    choice = [0] * len(index.topo)
    for i in reversed(index.topo):
        best = -1
        for c in index.children[i]:
            if best < 0 or (val[c] > val[best] if sense == "max" else val[c] < val[best]):
                best = c
        choice[i] = best
        p = index.parent_seq[i]
        if p is not None:
            val[p] += val[best]
    plan = np.zeros(index.num_sequences)
    if index.simplex:
        plan[choice[0]] = 1.0
    else:
        plan[0] = 1.0
        for i in index.topo:
            mass = plan[index.parent_seq[i]]
            if mass != 0.0:
                plan[choice[i]] = mass
    return float(np.dot(g, plan)), plan


def _reference_normalize(index, z):
    # the set-by-set sweep that the level-by-level normalize_to_polytope replaced;
    # a simplex is its one set, carrying mass 1
    w = np.maximum(z, 0.0)
    out = np.zeros(index.num_sequences)
    out[0] = 1.0
    for i in index.topo:
        mass = 1.0 if index.simplex else out[index.parent_seq[i]]
        cs = list(index.children[i])
        s = 0.0
        for c in cs:
            s += w[c]  # a running sum, in the order bincount adds
        for c in cs:
            out[c] = w[c] * (mass / s) if s > 0.0 else mass / len(cs)
    return out


@given(st.integers(0, 10 ** 6))
@settings(max_examples=200, deadline=None)
def test_sweeps_match_reference(seed):
    rng = np.random.default_rng(seed)
    E, e = random_treeplex(rng, max_depth=4)
    # renumber every row and sequence but the roots, so no level is a contiguous block
    rows = np.concatenate([[0], 1 + rng.permutation(E.rows - 1)])
    cols = np.concatenate([[0], 1 + rng.permutation(E.cols - 1)])
    if E.rows > 1:
        E = SparseMatrix(E.rows, E.cols, [(int(rows[r]), int(cols[c]), v) for r, c, v in E.triplets()])
    # a simplex this wide sums its set past numpy's pairwise summation's first block
    simplexes = [SparseMatrix(1, n, [(0, j, 1.0) for j in range(n)]) for n in (200, 1000)]
    for E, e in [(E, e)] + [(S, np.ones(1)) for S in simplexes]:
        index = build_treeplex_index(E, e)
        n = index.num_sequences
        # integer gradients tie often, and shared parent sequences sum in sweep order
        for g in (rng.standard_normal(n), rng.integers(-2, 3, n).astype(float)):
            for sense in ("max", "min"):
                br = best_response(index, g, sense)
                value, plan = _reference_best_response(index, g, sense)
                assert br.value == value
                assert np.array_equal(br.plan, plan)
        z = rng.standard_normal(n)
        z[rng.random(n) < 0.3] = 0.0  # some sets with no positive entry split their mass evenly
        assert np.array_equal(normalize_to_polytope(index, z), _reference_normalize(index, z))


def test_feasibility_residuals_exact(kuhn):
    _, game, seqmap = kuhn
    check_down = {f"1:{c}:": 0 for c in "JQK"}
    check_down.update({f"1:{c}:cb": 0 for c in "JQK"})
    fold_down = {f"2:{c}:c": 0 for c in "JQK"}
    fold_down.update({f"2:{c}:b": 0 for c in "JQK"})
    x = embed_pure_strategy(seqmap, 1, check_down)
    y = embed_pure_strategy(seqmap, 2, fold_down)
    res = feasibility_residuals(game, x, y)
    assert res == (0.0, 0.0, 0.0, 0.0)
    x2 = x.copy()
    x2[0] += 0.25
    res = feasibility_residuals(game, x2, y)
    assert res.feas_x == 0.25
    assert res.min_x == 0.0


def test_duality_gap_warns_on_infeasible_input():
    game = random_matrix_game(3, 3, seed=0)
    x = np.full(3, 2.0 / 3.0)
    y = np.full(3, 1.0 / 3.0)
    with pytest.warns(FeasibilityWarning):
        duality_gap(game, x, y)
    # the uniform plan is feasible for both players: no warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        duality_gap(game, y, y)


def test_evaluators_refuse_an_invalid_game(kuhn):
    # each evaluator reads the game's K, which exists only for a valid game
    _, game, _ = kuhn
    x, y = np.zeros(game.n1), np.zeros(game.n2)
    bad_e1 = dataclasses.replace(game, e1=np.concatenate(([0.9], game.e1[1:])))
    with pytest.raises(ValidationError) as err:
        feasibility_residuals(bad_e1, x, y)
    assert [str(v) for v in err.value.violations] == ["e1 [0]: first entry must be 1, got 0.9"]
    narrow = dataclasses.replace(game, A=SparseMatrix(13, 12))
    with pytest.raises(ValidationError) as err:
        expected_value(narrow, x, y)
    assert [str(v) for v in err.value.violations] == [
        "A cols: must match the 13 player 2 sequences, got 12"]


def test_duality_gap_matches_simplex_shortcut():
    game = random_matrix_game(5, 7, seed=4)
    rng = np.random.default_rng(1)
    x = normalize_to_polytope(game.index1, rng.random(5))
    y = normalize_to_polytope(game.index2, rng.random(7))
    gap = duality_gap(game, x, y)
    assert gap == simplex_gap(game.A, x, y)
    assert gap >= 0.0
    # the gap bounds the best unilateral improvement over the played value
    v = expected_value(game, x, y)
    hi = best_response(game.index1, game.A.matvec(y), "max").value
    assert hi - v <= gap + 1e-15


def test_game_dict_round_trip(kuhn):
    _, game, _ = kuhn
    doc = game.to_dict()
    again = SequenceFormGame.from_dict(doc)
    assert again.A.triplets() == game.A.triplets()
    assert again.E1.triplets() == game.E1.triplets()
    assert np.array_equal(again.e2, game.e2)
    assert again.labels == game.labels
    assert (again.n1, again.n2, again.l1, again.l2) == (13, 13, 7, 7)


def test_game_from_dict_errors(kuhn):
    _, game, _ = kuhn
    doc = game.to_dict()
    with pytest.raises(FileFormatError):
        SequenceFormGame.from_dict([])
    missing = dict(doc)
    del missing["E2"]
    with pytest.raises(FileFormatError):
        SequenceFormGame.from_dict(missing)
    mismatched = dict(doc)
    mismatched["n1"] = 12
    with pytest.raises(FileFormatError) as err:
        SequenceFormGame.from_dict(mismatched)
    assert "declared dimensions" in str(err.value)
    # the dimensions are integers, not a float or a bool that compares equal
    # (a matrix game has one constraint row per player)
    for base, key, value in ((doc, "n1", 13.0), (random_matrix_game(2, 3, 0).to_dict(), "l1", True)):
        with pytest.raises(FileFormatError, match="must be integers"):
            SequenceFormGame.from_dict(dict(base, **{key: value}))
    bad_vec = dict(doc)
    bad_vec["e1"] = [1.0, "zero"]
    with pytest.raises(FileFormatError):
        SequenceFormGame.from_dict(bad_vec)
    bad_labels = dict(doc)
    bad_labels["labels"] = ["not", "a", "dict"]
    with pytest.raises(FileFormatError):
        SequenceFormGame.from_dict(bad_labels)
    # A, E1 and E2 each have a triplet 17; a matrix's parse error says whose it is
    bad_index = game.to_dict()
    bad_index["E2"]["triplets"][17][1] = 0.5
    with pytest.raises(FileFormatError, match=r"^E2: triplet 17 "):
        SequenceFormGame.from_dict(bad_index)


def test_e_vector_must_be_one_dimensional():
    game = simplex_game(SparseMatrix(2, 2))
    with pytest.raises(ValueError):
        SequenceFormGame(A=game.A, E1=game.E1, E2=game.E2,
                         e1=np.ones((1, 1)), e2=game.e2)
