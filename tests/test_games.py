"""Game tree validation, Kuhn poker, and sequence-form compilation."""

import re
from collections import Counter

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
    _, game, _ = kuhn
    # each of the 30 terminals ends a distinct pair of sequences
    assert game.A.nnz == 30
    for k in (1, 2):
        infosets = game.labels[f"infosets{k}"][1:]
        assert len(set(infosets)) == 6 and all(h.startswith(f"{k}:") for h in infosets)
        # after the empty sequence, two sequences "set/action" per information set
        sequences = game.labels[f"sequences{k}"][1:]
        assert Counter(s.rsplit("/", 1)[0] for s in sequences) == dict.fromkeys(infosets, 2)


def test_kuhn_compiled_dimensions(kuhn):
    _, game, seqmap = kuhn
    assert (game.n1, game.n2, game.l1, game.l2) == (13, 13, 7, 7)
    assert len(seqmap.sequences[0]) == 13
    assert len(seqmap.sequences[1]) == 13
    # player 1's six information sets hold constraint rows 1-6, row 0 the root's
    infosets1 = game.labels["infosets1"]
    assert len(infosets1) == 7 and infosets1[0] == ""
    assert len(set(infosets1[1:])) == 6 and all(h.startswith("1:") for h in infosets1[1:])
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
        to_sequence_form(ExtensiveFormGame(Chance(((0.6, Terminal(0.0)), (0.6, Terminal(0.0))))))
    with pytest.raises(StructureError, match="nonnegative"):
        to_sequence_form(ExtensiveFormGame(Chance(((-0.5, Terminal(0.0)), (1.5, Terminal(0.0))))))
    with pytest.raises(StructureError, match="nonnegative"):
        to_sequence_form(ExtensiveFormGame(Chance(((np.nan, Terminal(0.0)), (1.0, Terminal(0.0))))))
    with pytest.raises(StructureError, match="at least one outcome"):
        to_sequence_form(ExtensiveFormGame(Chance(())))


def test_decision_validation():
    with pytest.raises(StructureError, match="player must be 1 or 2"):
        to_sequence_form(ExtensiveFormGame(Decision(3, "s", (("a", Terminal(0.0)),))))
    with pytest.raises(StructureError, match="no actions"):
        to_sequence_form(ExtensiveFormGame(Decision(1, "s", ())))
    shared = Chance((
        (0.5, Decision(1, "s", (("a", Terminal(0.0)),))),
        (0.5, Decision(2, "s", (("a", Terminal(0.0)),))),
    ))
    with pytest.raises(StructureError, match="shared between players"):
        to_sequence_form(ExtensiveFormGame(shared))
    uneven = Chance((
        (0.5, Decision(1, "s", (("a", Terminal(0.0)),))),
        (0.5, Decision(1, "s", (("a", Terminal(0.0)), ("b", Terminal(0.0))))),
    ))
    with pytest.raises(StructureError, match="inconsistent action counts"):
        to_sequence_form(ExtensiveFormGame(uneven))


def test_terminal_and_node_validation():
    with pytest.raises(StructureError, match="finite"):
        to_sequence_form(ExtensiveFormGame(Terminal(float("inf"))))
    for root in ("boom", Chance(((0.5, Terminal(0.0)), (0.5, "boom"))),
                 Decision(1, "s", (("a", Terminal(0.0)), ("b", None)))):
        with pytest.raises(StructureError, match="unknown node type"):
            to_sequence_form(ExtensiveFormGame(root))


@pytest.mark.parametrize("root, message", [
    (Decision(2.0, "s", (("a", Terminal(0.0)),)), "decision player must be 1 or 2, got 2.0"),
    (Decision(True, "s", (("a", Terminal(0.0)),)), "decision player must be 1 or 2, got True"),
    (Decision(1, ["s"], (("a", Terminal(0.0)),)), "information set id must be a string"),
    (Decision(1, "s", (Terminal(0.0),)), "actions of information set 's' must be a tuple of"),
    (Decision(1, "s", (("a", Terminal(0.0), "b"),)), "actions of information set 's' must be"),
    (Terminal("1"), "terminal payoff must be a number, got str"),
    (Terminal(None), "terminal payoff must be a number, got NoneType"),
    (Terminal(True), "terminal payoff must be a number, got bool"),
    (Terminal(10**400), "terminal payoff must be finite"),
    (Chance((("1", Terminal(0.0)),)), "chance probabilities must be numbers"),
    (Chance(((10**400, Terminal(0.0)),)), "chance probabilities sum to inf"),
    (Chance((Terminal(0.0),)), "chance outcomes must be a tuple of (probability, node) pairs"),
    # a field is checked where the walk reaches its node, below the root too
    (Chance(((1.0, Decision(1, "s", (("a", Terminal("1")),))),)), "terminal payoff"),
], ids=["player-float", "player-bool", "infoset-list", "action-not-pair", "action-triple",
        "payoff-str", "payoff-none", "payoff-bool", "payoff-past-double", "probability-str",
        "probability-past-double", "outcome-not-pair", "nested"])
def test_a_mistyped_node_field_is_a_structure_error(root, message):
    with pytest.raises(StructureError, match=re.escape(message)):
        to_sequence_form(ExtensiveFormGame(root))


def test_a_deep_chain_compiles():
    # 3,000 nested decisions, far past Python's recursion limit
    node = Terminal(1.0)
    for i in reversed(range(3000)):
        node = Decision(1 + i % 2, f"d{i}", (("stop", Terminal(0.0)), ("go", node)))
    game, seqmap = to_sequence_form(ExtensiveFormGame(node))
    assert (game.n1, game.n2, game.l1, game.l2) == (3001, 3001, 1501, 1501)
    assert game.A.nnz == 3001  # one entry per terminal
    assert seqmap.sequences[1][-1] == SequenceEntry("d2999", 1, 2998)
    assert game.A.triplets()[-1] == (3000, 3000, 1.0)


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
    game = simplex_game(SparseMatrix(2, 3))
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

