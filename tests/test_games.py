"""Game tree validation, Kuhn poker, and sequence-form compilation."""

import numpy as np
import pytest

from seqform import (Chance, CompileError, Decision, DimensionError,
                     ExtensiveFormGame, SparseMatrix, StructureError,
                     Terminal, best_response, duality_gap, expected_value,
                     kuhn_poker, random_matrix_game, simplex_game,
                     to_sequence_form)
from seqform.games import SequenceEntry
from seqform.oracle import embed_behavioral_strategy, enumerate_vertices

KUHN_VALUE = -1.0 / 18.0


def kuhn_equilibrium_p1(alpha):
    """One-parameter family of optimal player 1 behavior, 0 <= alpha <= 1/3."""
    return {
        "1:J:": [1.0 - alpha, alpha],
        "1:Q:": [1.0, 0.0],
        "1:K:": [1.0 - 3.0 * alpha, 3.0 * alpha],
        "1:J:cb": [1.0, 0.0],
        "1:Q:cb": [2.0 / 3.0 - alpha, alpha + 1.0 / 3.0],
        "1:K:cb": [0.0, 1.0],
    }


KUHN_EQUILIBRIUM_P2 = {
    "2:J:c": [2.0 / 3.0, 1.0 / 3.0],
    "2:Q:c": [1.0, 0.0],
    "2:K:c": [0.0, 1.0],
    "2:J:b": [1.0, 0.0],
    "2:Q:b": [2.0 / 3.0, 1.0 / 3.0],
    "2:K:b": [0.0, 1.0],
}


def test_kuhn_tree_shape(kuhn):
    efg, _, _ = kuhn
    terminals = [n for n in efg.iter_nodes() if isinstance(n, Terminal)]
    assert len(terminals) == 30
    table = efg.validate()
    assert len(table) == 12
    assert all(info.num_actions == 2 for info in table.values())
    assert all(info.num_nodes == 2 for info in table.values())
    assert sum(info.player == 1 for info in table.values()) == 6


def test_kuhn_compiled_dimensions(kuhn):
    _, game, seqmap = kuhn
    assert (game.n1, game.n2, game.l1, game.l2) == (13, 13, 7, 7)
    assert seqmap.num_sequences(1) == 13
    assert seqmap.num_sequences(2) == 13
    assert sorted(seqmap.infoset_rows[0].values()) == [1, 2, 3, 4, 5, 6]
    assert seqmap.sequences[0][0] is None
    assert seqmap.sequences[0][1] == SequenceEntry("1:J:", 0, 0)
    assert game.labels["sequences1"][:5] == [
        "", "1:J:/check", "1:J:/bet", "1:J:cb/fold", "1:J:cb/call"]


def test_kuhn_payoff_entries(kuhn):
    _, game, _ = kuhn
    assert game.A.nnz == 30
    seq1 = game.labels["sequences1"]
    seq2 = game.labels["sequences2"]
    dense = game.A.to_dense()
    # each entry is the terminal payoff weighted by the 1/6 deal probability
    assert dense[seq1.index("1:J:/bet"), seq2.index("2:Q:b/fold")] == 1.0 / 6.0
    assert dense[seq1.index("1:K:/bet"), seq2.index("2:Q:b/call")] == 2.0 / 6.0
    assert dense[seq1.index("1:J:/check"), seq2.index("2:Q:c/check")] == -1.0 / 6.0
    assert dense[seq1.index("1:J:cb/fold"), seq2.index("2:Q:c/bet")] == -1.0 / 6.0


@pytest.mark.parametrize("alpha", [0.0, 0.2, 1.0 / 3.0])
def test_kuhn_equilibrium_certificate(kuhn, alpha):
    _, game, seqmap = kuhn
    x = embed_behavioral_strategy(seqmap, 1, kuhn_equilibrium_p1(alpha))
    y = embed_behavioral_strategy(seqmap, 2, KUHN_EQUILIBRIUM_P2)
    assert abs(expected_value(game, x, y) - KUHN_VALUE) < 1e-15
    assert duality_gap(game, x, y) < 1e-15
    hi = best_response(game.index1, game.A.matvec(y), "max").value
    lo = best_response(game.index2, game.A.transpose_matvec(x), "min").value
    assert abs(hi - KUHN_VALUE) < 1e-15
    assert abs(lo - KUHN_VALUE) < 1e-15


def test_kuhn_equilibrium_guarantee_against_all_vertices(kuhn):
    _, game, seqmap = kuhn
    x = embed_behavioral_strategy(seqmap, 1, kuhn_equilibrium_p1(1.0 / 3.0))
    values = [expected_value(game, x, v) for v in enumerate_vertices(game.index2)]
    assert min(values) >= KUHN_VALUE - 1e-15
    assert min(values) <= KUHN_VALUE + 1e-15


def test_chance_probability_validation():
    with pytest.raises(StructureError, match="sum to"):
        ExtensiveFormGame(Chance(((0.6, Terminal(0.0)), (0.6, Terminal(0.0))))).validate()
    with pytest.raises(StructureError, match="nonnegative"):
        ExtensiveFormGame(Chance(((-0.5, Terminal(0.0)), (1.5, Terminal(0.0))))).validate()
    with pytest.raises(StructureError, match="at least one outcome"):
        ExtensiveFormGame(Chance(())).validate()


def test_decision_validation():
    with pytest.raises(StructureError, match="player must be 1 or 2"):
        ExtensiveFormGame(Decision(3, "s", (("a", Terminal(0.0)),))).validate()
    with pytest.raises(StructureError, match="no actions"):
        ExtensiveFormGame(Decision(1, "s", ())).validate()
    shared = Chance((
        (0.5, Decision(1, "s", (("a", Terminal(0.0)),))),
        (0.5, Decision(2, "s", (("a", Terminal(0.0)),))),
    ))
    with pytest.raises(StructureError, match="shared between players"):
        ExtensiveFormGame(shared).validate()
    uneven = Chance((
        (0.5, Decision(1, "s", (("a", Terminal(0.0)),))),
        (0.5, Decision(1, "s", (("a", Terminal(0.0)), ("b", Terminal(0.0))))),
    ))
    with pytest.raises(StructureError, match="inconsistent action counts"):
        ExtensiveFormGame(uneven).validate()


def test_terminal_and_node_validation():
    with pytest.raises(StructureError, match="finite"):
        ExtensiveFormGame(Terminal(float("inf"))).validate()
    with pytest.raises(StructureError, match="unknown node type"):
        ExtensiveFormGame("boom").validate()


def test_perfect_recall_required():
    merged = Decision(1, "1:again", (("x", Terminal(0.0)), ("y", Terminal(1.0))))
    merged2 = Decision(1, "1:again", (("x", Terminal(2.0)), ("y", Terminal(3.0))))
    root = Decision(1, "1:root", (("a", merged), ("b", merged2)))
    with pytest.raises(CompileError, match="1:again"):
        to_sequence_form(ExtensiveFormGame(root))


def test_payoffs_accumulate_across_chance():
    def branch(win):
        return Decision(1, "p1", (("l", Terminal(win)), ("r", Terminal(0.0))))

    efg = ExtensiveFormGame(Chance(((0.5, branch(1.0)), (0.5, branch(3.0)))))
    game, _ = to_sequence_form(efg)
    assert (game.n1, game.n2) == (3, 1)
    assert np.array_equal(game.A.to_dense(), [[0.0], [2.0], [0.0]])


def test_simplex_game_shapes():
    game = simplex_game(SparseMatrix.zeros(2, 3))
    assert (game.n1, game.n2, game.l1, game.l2) == (2, 3, 1, 1)
    assert np.array_equal(game.E1.to_dense(), [[1.0, 1.0]])
    assert np.array_equal(game.E2.to_dense(), [[1.0, 1.0, 1.0]])
    assert np.array_equal(game.e1, [1.0])
    assert game.index1.simplex and game.index2.simplex


def test_random_matrix_game_determinism():
    a = random_matrix_game(4, 5, seed=9)
    b = random_matrix_game(4, 5, seed=9)
    c = random_matrix_game(4, 5, seed=10)
    assert a.A.triplets() == b.A.triplets()
    assert a.A.triplets() != c.A.triplets()
    assert np.max(np.abs(a.A.to_dense())) <= 1.0
    with pytest.raises(ValueError):
        random_matrix_game(0, 5, seed=0)


def test_expected_value():
    game = simplex_game(SparseMatrix.from_dense([[1.0, 2.0], [3.0, 4.0]]))
    assert expected_value(game, [0.5, 0.5], [0.5, 0.5]) == 2.5
    assert expected_value(game, [1.0, 0.0], [0.0, 1.0]) == 2.0
    with pytest.raises(DimensionError):
        expected_value(game, [1.0], [0.5, 0.5])
    with pytest.raises(DimensionError):
        expected_value(game, [0.5, 0.5], [1.0])

