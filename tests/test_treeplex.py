"""Strategy polytopes: validation, indexing, best response, normalization."""

import time
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from seqform import (DimensionError, FeasibilityWarning, FileFormatError,
                     SequenceFormGame, SparseMatrix, StructureError,
                     TreeplexIndex, Violation, best_response, build_treeplex_index,
                     duality_gap, expected_value, feasibility_residuals,
                     normalize_to_polytope, random_matrix_game, simplex_game,
                     simplex_gap, validate_sequence_form)
from seqform.oracle import embed_pure_strategy
from conftest import random_treeplex


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
    game = simplex_game(SparseMatrix.zeros(2, 2))
    bad = SequenceFormGame(A=SparseMatrix.zeros(2, 2), E1=E, E2=game.E2,
                           e1=e, e2=game.e2)
    messages = [str(v) for v in validate_sequence_form(bad)]
    assert "E1 row 1: must contain at least one +1" in messages
    assert "E1 column 1: must carry exactly one +1, found 0" in messages


def test_e_vector_violations():
    game = simplex_game(SparseMatrix.zeros(2, 3))
    bad = SequenceFormGame(A=game.A, E1=game.E1, E2=game.E2,
                           e1=np.array([0.9]), e2=np.array([1.0, 0.5]))
    messages = [str(v) for v in validate_sequence_form(bad)]
    assert any(m.startswith("e1 [0]: first entry must be 1") for m in messages)
    assert any(m.startswith("e2 length:") for m in messages)


def test_entry_value_violation():
    E = SparseMatrix(1, 2, [(0, 0, 1.0), (0, 1, 2.0)])
    game = simplex_game(SparseMatrix.zeros(2, 2))
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
    game = simplex_game(SparseMatrix.zeros(4, 4))
    bad = SequenceFormGame(A=game.A, E1=E, E2=game.E2, e1=e, e2=game.e2)
    messages = [str(v) for v in validate_sequence_form(bad)]
    assert "E1 row 1: parent chain forms a cycle" in messages
    assert "E1 row 3: parent chain does not reach the root row" in messages


def test_payoff_shape_violations(kuhn):
    _, game, _ = kuhn
    bad = SequenceFormGame(A=SparseMatrix.zeros(3, 13), E1=game.E1, E2=game.E2,
                           e1=game.e1, e2=game.e2)
    messages = [str(v) for v in validate_sequence_form(bad)]
    assert messages == ["A rows: must match the 13 player 1 sequences, got 3"]


def test_simplex_index():
    E = SparseMatrix(1, 4, [(0, j, 1.0) for j in range(4)])
    index = build_treeplex_index(E, np.ones(1), player=2)
    assert index.simplex
    assert index.num_sequences == 4
    assert index.num_infosets == 1
    assert index.children == ((0, 1, 2, 3),)
    assert index.parent_seq == (None,)
    assert index.player == 2


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
    assert idx1.num_infosets == 6 and idx2.num_infosets == 6
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


def test_each_treeplex_is_decoded_once_per_game(kuhn, monkeypatch):
    import seqform.treeplex as treeplex_module

    calls = []
    decode = treeplex_module._decode
    monkeypatch.setattr(treeplex_module, "_decode",
                        lambda E, e, mat, vec: calls.append(mat) or decode(E, e, mat, vec))
    game = SequenceFormGame.from_dict(kuhn[1].to_dict())
    assert validate_sequence_form(game) == []
    assert validate_sequence_form(game) == []
    assert (game.index1.player, game.index2.player) == (1, 2)
    assert calls == ["E1", "E2"]
    # a broken player still fails the index build with the violations found
    broken = SequenceFormGame(A=game.A, E1=game.E1, E2=game.E2,
                              e1=np.zeros(game.l1), e2=game.e2)
    assert [str(v) for v in validate_sequence_form(broken)] == [
        "e1 [0]: first entry must be 1, got 0.0"]
    with pytest.raises(StructureError, match="first entry must be 1"):
        broken.index1
    assert broken.index2.player == 2
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


def _ref_build_treeplex_index(E, e, player=None):
    viols = _ref_player_violations(E, np.asarray(e, dtype=np.float64), "E", "e")
    if viols:
        raise StructureError("; ".join(str(v) for v in viols))
    n = E.cols
    if _ref_is_simplex_row(E):
        return TreeplexIndex(num_sequences=n, simplex=True, parent_seq=(None,),
                             children=(tuple(range(n)),), topo=(0,), player=player)
    entries = _ref_nonzero_triplets(E)
    num_infosets = E.rows - 1
    parent_seq = [0] * num_infosets
    children: list[list[int]] = [[] for _ in range(num_infosets)]
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
    topo = tuple(sorted(range(num_infosets), key=lambda i: (depth[i + 1], i)))
    return TreeplexIndex(num_sequences=n, simplex=False, parent_seq=tuple(parent_seq),
                         children=tuple(tuple(cs) for cs in children), topo=topo,
                         player=player)


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
    game = SequenceFormGame(A=SparseMatrix.zeros(E.cols, E.cols), E1=E, E2=E, e1=e, e2=e)
    expected = _ref_player_violations(E, e, "E1", "e1") + _ref_player_violations(E, e, "E2", "e2")
    assert [str(v) for v in validate_sequence_form(game)] == [str(v) for v in expected]
    try:
        want = _ref_build_treeplex_index(E, e, player=1)
    except StructureError as exc:
        with pytest.raises(StructureError) as err:
            build_treeplex_index(E, e, player=1)
        assert str(err.value) == str(exc)
        return
    assert build_treeplex_index(E, e, player=1) == want


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
    game = SequenceFormGame(A=SparseMatrix.zeros(E.cols, E.cols), E1=E, E2=E, e1=e, e2=e)
    start = time.perf_counter()
    assert validate_sequence_form(game) == []
    indexes = (game.index1, game.index2)
    elapsed = time.perf_counter() - start
    assert all(index.num_infosets == infosets for index in indexes)
    # linear decoding takes well under 0.1 s here; rescanning the entries per row
    # (the reference decoder above) takes tens of seconds
    assert elapsed < 2.0


def test_best_response_simplex():
    E = SparseMatrix(1, 3, [(0, j, 1.0) for j in range(3)])
    index = build_treeplex_index(E, np.ones(1))
    br = best_response(index, [1.0, 3.0, 2.0], "max")
    assert br.value == 3.0
    assert np.array_equal(br.plan.values, [0.0, 1.0, 0.0])
    br = best_response(index, [1.0, 3.0, 2.0], "min")
    assert br.value == 1.0
    assert np.array_equal(br.plan.values, [1.0, 0.0, 0.0])


def test_best_response_tie_takes_lowest_index():
    E = SparseMatrix(1, 3, [(0, j, 1.0) for j in range(3)])
    index = build_treeplex_index(E, np.ones(1))
    br = best_response(index, [2.0, 0.0, 2.0], "max")
    assert np.array_equal(br.plan.values, [1.0, 0.0, 0.0])


def test_best_response_two_level():
    E, e = two_level_treeplex()
    index = build_treeplex_index(E, e)
    g = np.array([0.0, 1.0, 5.0, 10.0, 2.0])
    br = best_response(index, g, "max")
    # seq 1 plus the nested infoset is worth 1 + 10, beating seq 2's 5
    assert br.value == 11.0
    assert np.array_equal(br.plan.values, [1.0, 1.0, 0.0, 1.0, 0.0])
    br = best_response(index, g, "min")
    assert br.value == 3.0
    assert np.array_equal(br.plan.values, [1.0, 1.0, 0.0, 0.0, 1.0])


def test_best_response_leaves_gradient_alone():
    E, e = two_level_treeplex()
    index = build_treeplex_index(E, e)
    g = np.array([0.0, 1.0, 5.0, 10.0, 2.0])
    best_response(index, g, "max")
    assert np.array_equal(g, [0.0, 1.0, 5.0, 10.0, 2.0])


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
    assert np.array_equal(normalize_to_polytope(index, [0.2, 0.2]).values, [0.5, 0.5])
    assert np.array_equal(normalize_to_polytope(index, [-1.0, 3.0]).values, [0.0, 1.0])
    assert np.array_equal(normalize_to_polytope(index, [0.0, 0.0]).values, [0.5, 0.5])


def test_normalize_tree():
    E, e = two_level_treeplex()
    index = build_treeplex_index(E, e)
    out = normalize_to_polytope(index, [7.0, 2.0, 2.0, 0.0, 0.0]).values
    assert np.array_equal(out, [1.0, 0.5, 0.5, 0.25, 0.25])
    out = normalize_to_polytope(index, [1.0, -3.0, 1.0, 1.0, 3.0]).values
    assert np.array_equal(out, [1.0, 0.0, 1.0, 0.0, 0.0])


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
    out = normalize_to_polytope(index, z).values
    assert np.min(out) >= 0.0
    assert np.max(np.abs(E.matvec(out) - e)) <= 1e-12


@given(st.integers(0, 10 ** 6))
@settings(max_examples=40, deadline=None)
def test_best_response_dominates_feasible_points(seed):
    rng = np.random.default_rng(seed)
    E, e = random_treeplex(rng)
    index = build_treeplex_index(E, e)
    g = rng.standard_normal(index.num_sequences)
    z = normalize_to_polytope(index, rng.random(index.num_sequences)).values
    hi = best_response(index, g, "max")
    lo = best_response(index, g, "min")
    assert np.max(np.abs(E.matvec(hi.plan.values) - e)) == 0.0
    assert hi.value >= float(np.dot(g, z)) - 1e-12
    assert lo.value <= float(np.dot(g, z)) + 1e-12


def _reference_best_response(index, g, sense):
    # the set-by-set sweep that the level-by-level best_response replaced
    val = np.array(g, dtype=np.float64)
    choice = [0] * index.num_infosets
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
    # the set-by-set sweep that the level-by-level normalize_to_polytope replaced
    w = np.maximum(z, 0.0)
    if index.simplex:
        s = float(w.sum())
        return w / s if s > 0.0 else np.full(index.num_sequences, 1.0 / index.num_sequences)
    out = np.zeros(index.num_sequences)
    out[0] = 1.0
    for i in index.topo:
        mass = out[index.parent_seq[i]]
        cs = list(index.children[i])
        s = float(w[cs].sum())
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
    index = build_treeplex_index(E, e)
    n = index.num_sequences
    # integer gradients tie often, and shared parent sequences sum in sweep order
    for g in (rng.standard_normal(n), rng.integers(-2, 3, n).astype(float)):
        for sense in ("max", "min"):
            br = best_response(index, g, sense)
            value, plan = _reference_best_response(index, g, sense)
            assert br.value == value
            assert np.array_equal(br.plan.values, plan)
    z = rng.standard_normal(n)
    z[rng.random(n) < 0.3] = 0.0  # some sets with no positive entry split their mass evenly
    assert np.array_equal(normalize_to_polytope(index, z).values, _reference_normalize(index, z))


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
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        duality_gap(game, x, y, feas_tol=2.0)


def test_duality_gap_matches_simplex_shortcut():
    game = random_matrix_game(5, 7, seed=4)
    rng = np.random.default_rng(1)
    x = normalize_to_polytope(game.index1, rng.random(5)).values
    y = normalize_to_polytope(game.index2, rng.random(7)).values
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


def test_e_vector_must_be_one_dimensional():
    game = simplex_game(SparseMatrix.zeros(2, 2))
    with pytest.raises(ValueError):
        SequenceFormGame(A=game.A, E1=game.E1, E2=game.E2,
                         e1=np.ones((1, 1)), e2=game.e2)
