"""Brute-force reference computations and their guards."""

import numpy as np
import pytest

from seqform import (SizeError, SparseMatrix, StrategyError, build_K,
                     build_treeplex_index, duality_gap, expected_value,
                     simplex_game, to_sequence_form)
from seqform.oracle import (dense_spectral_norm, efg_rollout_value,
                            embed_behavioral_strategy, embed_pure_strategy,
                            enumerate_vertices, solve_2x2)
from conftest import all_pure_strategies, random_efg


def test_simplex_vertices_are_unit_plans():
    E = SparseMatrix(1, 3, [(0, j, 1.0) for j in range(3)])
    index = build_treeplex_index(E, np.ones(1))
    verts = enumerate_vertices(index)
    assert sorted(tuple(v) for v in verts) == [
        (0.0, 0.0, 1.0), (0.0, 1.0, 0.0), (1.0, 0.0, 0.0)]


def test_kuhn_vertex_counts(kuhn):
    _, game, _ = kuhn
    v1 = enumerate_vertices(game.index1)
    v2 = enumerate_vertices(game.index2)
    # player 1's nested infosets collapse combinations; player 2's never do
    assert len(v1) == 27
    assert len(v2) == 64
    for v in v1:
        assert set(np.unique(v)) <= {0.0, 1.0}
        assert np.array_equal(game.E1.matvec(v), game.e1)
    assert len({v.tobytes() for v in v2}) == 64


def test_enumeration_guard():
    # twenty independent binary infosets give 2^20 combinations
    trips = [(0, 0, 1.0)]
    for i in range(20):
        trips.append((i + 1, 0, -1.0))
        trips.append((i + 1, 1 + 2 * i, 1.0))
        trips.append((i + 1, 2 + 2 * i, 1.0))
    E = SparseMatrix(21, 41, trips)
    e = np.zeros(21)
    e[0] = 1.0
    index = build_treeplex_index(E, e)
    with pytest.raises(SizeError):
        enumerate_vertices(index)

    small = build_treeplex_index(
        SparseMatrix(1, 4, [(0, j, 1.0) for j in range(4)]), np.ones(1))
    with pytest.raises(SizeError):
        enumerate_vertices(small, max_combinations=3)


def test_solve_2x2_mixed():
    value, x, y = solve_2x2([[3.0, 1.0], [0.0, 2.0]])
    assert value == 1.5
    assert np.array_equal(x, [0.5, 0.5])
    assert np.array_equal(y, [0.25, 0.75])

    value, x, y = solve_2x2(SparseMatrix.from_dense([[1.0, -1.0], [-1.0, 1.0]]))
    assert value == 0.0
    assert np.array_equal(x, [0.5, 0.5])
    assert np.array_equal(y, [0.5, 0.5])


def test_solve_2x2_pure():
    value, x, y = solve_2x2([[2.0, 2.0], [2.0, 2.0]])
    assert value == 2.0
    assert np.array_equal(x, [1.0, 0.0])
    assert np.array_equal(y, [1.0, 0.0])

    value, x, y = solve_2x2([[1.0, 2.0], [0.0, -1.0]])
    assert value == 1.0
    assert np.array_equal(x, [1.0, 0.0])
    assert np.array_equal(y, [1.0, 0.0])

    value, x, y = solve_2x2([[0.0, -1.0], [1.0, 2.0]])
    assert value == 1.0
    assert np.array_equal(x, [0.0, 1.0])
    assert np.array_equal(y, [1.0, 0.0])


def test_solve_2x2_shape_check():
    with pytest.raises(ValueError):
        solve_2x2(np.zeros((2, 3)))


def test_solve_2x2_solution_has_zero_gap():
    game = simplex_game(SparseMatrix.from_dense([[3.0, 1.0], [0.0, 2.0]]))
    _, x, y = solve_2x2(game.A)
    assert duality_gap(game, x, y) == 0.0


def test_dense_spectral_norm():
    assert dense_spectral_norm(np.diag([3.0, 4.0])) == 4.0
    rng = np.random.default_rng(6)
    dense = rng.standard_normal((8, 6))
    exact = np.linalg.norm(dense, 2)
    assert abs(dense_spectral_norm(dense) - exact) / exact < 1e-12
    assert dense_spectral_norm(SparseMatrix.from_dense(dense)) == dense_spectral_norm(dense)


def test_dense_spectral_norm_guards():
    with pytest.raises(SizeError):
        dense_spectral_norm(SparseMatrix(65, 65))
    with pytest.raises(SizeError):
        dense_spectral_norm(np.zeros((65, 65)))
    with pytest.raises(ValueError):
        dense_spectral_norm(np.zeros(5))


def test_dense_spectral_norm_on_kuhn_operator(kuhn):
    _, game, _ = kuhn
    K = build_K(game)
    assert K.shape == (20, 20)
    assert 2.9 < dense_spectral_norm(K) < 3.0


def test_kuhn_rollout_hand_values(kuhn):
    efg, _, _ = kuhn
    passive1 = {f"1:{c}:": 0 for c in "JQK"}
    passive1.update({f"1:{c}:cb": 0 for c in "JQK"})
    passive2 = {f"2:{c}:c": 0 for c in "JQK"}
    passive2.update({f"2:{c}:b": 0 for c in "JQK"})
    # check-check everywhere: showdowns cancel by symmetry
    assert efg_rollout_value(efg, passive1, passive2) == 0.0
    bettor = dict(passive1)
    for c in "JQK":
        bettor[f"1:{c}:"] = 1
    # always bet against always fold wins the ante every deal; the deal
    # weights are sixths, so the sum is only exact to roundoff
    assert abs(efg_rollout_value(efg, bettor, passive2) - 1.0) < 1e-15


def test_rollout_strategy_errors(kuhn):
    efg, _, _ = kuhn
    pure1 = {f"1:{c}:": 0 for c in "JQK"}
    pure1.update({f"1:{c}:cb": 0 for c in "JQK"})
    with pytest.raises(StrategyError, match="no action assigned"):
        efg_rollout_value(efg, pure1, {})
    bad2 = {f"2:{c}:c": 5 for c in "JQK"}
    bad2.update({f"2:{c}:b": 0 for c in "JQK"})
    with pytest.raises(StrategyError, match="out of range"):
        efg_rollout_value(efg, pure1, bad2)


def test_embedded_pure_strategies_are_vertices(kuhn):
    _, game, seqmap = kuhn
    efg, _, _ = kuhn
    vertex_keys = {v.tobytes() for v in enumerate_vertices(game.index1)}
    plans = set()
    for pure in all_pure_strategies(efg, 1):
        plan = embed_pure_strategy(seqmap, 1, pure)
        plans.add(plan.tobytes())
        assert plan.tobytes() in vertex_keys
    assert plans == vertex_keys


def test_embed_matches_rollout_exactly(kuhn):
    efg, game, seqmap = kuhn
    pure1 = {"1:J:": 1, "1:Q:": 0, "1:K:": 1, "1:J:cb": 0, "1:Q:cb": 1, "1:K:cb": 1}
    pure2 = {"2:J:c": 1, "2:Q:c": 0, "2:K:c": 1, "2:J:b": 0, "2:Q:b": 1, "2:K:b": 1}
    x = embed_pure_strategy(seqmap, 1, pure1)
    y = embed_pure_strategy(seqmap, 2, pure2)
    compiled = expected_value(game, x, y)
    walked = efg_rollout_value(efg, pure1, pure2)
    assert abs(compiled - walked) < 1e-15


def test_embed_matches_rollout_on_random_game():
    efg = random_efg(np.random.default_rng(42))
    game, seqmap = to_sequence_form(efg)
    for pure1 in all_pure_strategies(efg, 1):
        x = embed_pure_strategy(seqmap, 1, pure1)
        for pure2 in all_pure_strategies(efg, 2):
            y = embed_pure_strategy(seqmap, 2, pure2)
            assert expected_value(game, x, y) == efg_rollout_value(efg, pure1, pure2)


def test_embed_behavioral_strategy(kuhn):
    _, game, seqmap = kuhn
    behavior = {
        "1:J:": [2.0 / 3.0, 1.0 / 3.0], "1:Q:": [1.0, 0.0], "1:K:": [0.0, 1.0],
        "1:J:cb": [1.0, 0.0], "1:Q:cb": [1.0 / 3.0, 2.0 / 3.0], "1:K:cb": [0.0, 1.0],
    }
    plan = embed_behavioral_strategy(seqmap, 1, behavior)
    seq1 = game.labels["sequences1"]
    assert plan[0] == 1.0
    assert plan[seq1.index("1:J:/bet")] == 1.0 / 3.0
    assert plan[seq1.index("1:J:cb/fold")] == 2.0 / 3.0
    assert plan[seq1.index("1:Q:cb/call")] == 2.0 / 3.0
    # sequences cut off by a zero-probability action carry no mass
    assert plan[seq1.index("1:K:cb/call")] == 0.0
    assert np.max(np.abs(game.E1.matvec(plan) - game.e1)) < 1e-15


def test_embed_errors(kuhn):
    _, _, seqmap = kuhn
    with pytest.raises(StrategyError, match="no action assigned"):
        embed_pure_strategy(seqmap, 1, {})
    with pytest.raises(StrategyError, match="no probabilities"):
        embed_behavioral_strategy(seqmap, 2, {})
    short = {h: [1.0] for h in (f"2:{c}:{s}" for c in "JQK" for s in "cb")}
    with pytest.raises(StrategyError, match="at least 2"):
        embed_behavioral_strategy(seqmap, 2, short)
