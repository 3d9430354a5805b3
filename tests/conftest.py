"""Shared builders for the test suite.

Random extensive-form games use dyadic chance probabilities and payoffs
so every compiled matrix entry, rollout, and product is exact in double
precision; equality assertions between independent code paths can then
be exact instead of approximate.
"""

import numpy as np
import pytest

from seqform import (Chance, Decision, ExtensiveFormGame, SequenceFormGame,
                     SparseMatrix, Terminal, kuhn_poker, to_sequence_form)
from seqform.sparse import SpectralEstimate


@pytest.fixture(scope="session")
def kuhn():
    efg = kuhn_poker()
    game, seqmap = to_sequence_form(efg)
    return efg, game, seqmap


def fixed_norm(monkeypatch, value):
    """Make solver.init see a converged norm estimate of value, so lambda = 1 / value."""
    import seqform.solver as solver_module

    monkeypatch.setattr(solver_module, "spectral_norm",
                        lambda *a, **k: SpectralEstimate(value, True, 1))


def ternary_game(depth):
    """Both players own a complete ternary treeplex; payoffs on the diagonal.

    From depth 4 on K multiplies through compressed rows, not a dense array.
    """
    infosets = (3 ** depth - 1) // 2
    trips = [(0, 0, 1.0)]
    for j in range(infosets):
        trips += [(j + 1, j, -1.0)] + [(j + 1, 3 * j + a, 1.0) for a in (1, 2, 3)]
    E = SparseMatrix(infosets + 1, 3 * infosets + 1, trips)
    e = np.zeros(E.rows)
    e[0] = 1.0
    return SequenceFormGame(A=SparseMatrix.from_dense(np.eye(E.cols)), E1=E, E2=E, e1=e, e2=e)


def lp_value(game):
    """Value of max_x min_y x^T A y over both realization-plan polytopes, by HiGHS.

    The inner minimum is replaced by its LP dual: maximize e2^T u subject
    to E2^T u <= A^T x, E1 x = e1, x >= 0, u free. The same formulation
    gives perfbench's reference values; it shares no code with the solver.
    """
    from scipy.optimize import linprog

    A, E1, E2 = (m.to_dense() for m in (game.A, game.E1, game.E2))
    n1, l2 = game.n1, game.l2
    c = np.concatenate([np.zeros(n1), -game.e2])
    a_ub = np.hstack([-A.T, E2.T])
    a_eq = np.hstack([E1, np.zeros((game.l1, l2))])
    res = linprog(c, A_ub=a_ub, b_ub=np.zeros(game.n2), A_eq=a_eq, b_eq=game.e1,
                  bounds=[(0, None)] * n1 + [(None, None)] * l2, method="highs-ipm")
    assert res.status == 0, f"reference LP failed: {res.message}"
    return float(-res.fun)


def dyadic_probs(rng, n):
    """n positive probabilities, each a multiple of 1/2**m, summing to 1."""
    m = 3
    while 2 ** m < n:
        m += 1
    weights = np.full(n, 1, dtype=int)
    rest = 2 ** m - n
    for _ in range(rest):
        weights[rng.integers(0, n)] += 1
    return [w / 2.0 ** m for w in weights]


def random_treeplex(rng, max_depth=3):
    """Random constraint system (E, e) with parents preceding children.

    Kept small enough that vertex enumeration stays comfortably under
    the guard.
    """
    if rng.random() < 0.15:
        n = int(rng.integers(1, 6))
        E = SparseMatrix(1, n, [(0, j, 1.0) for j in range(n)])
        return E, np.ones(1)
    seqs = 1
    rows = [[(0, 0, 1.0)]]
    frontier = [(0, 0)]  # (sequence, depth)
    combos = 1
    while frontier:
        seq, depth = frontier.pop(0)
        if depth >= max_depth:
            continue
        for _ in range(int(rng.integers(0, 3) if depth else rng.integers(1, 3))):
            width = int(rng.integers(2, 5))
            if combos * width > 256:
                continue
            combos *= width
            row = [(len(rows), seq, -1.0)]
            for _ in range(width):
                row.append((len(rows), seqs, 1.0))
                frontier.append((seqs, depth + 1))
                seqs += 1
            rows.append(row)
    E = SparseMatrix(len(rows), seqs, [t for row in rows for t in row])
    e = np.zeros(len(rows))
    e[0] = 1.0
    return E, e


def _random_shape(rng):
    """A public action tree: each node is None (terminal) or (player, labels)."""

    def build(depth, player):
        if depth >= 3 or (depth > 0 and rng.random() < 0.35):
            return None
        width = int(rng.integers(2, 4)) if depth == 0 else 2
        labels = [f"a{i}" for i in range(width)]
        children = [build(depth + 1, 3 - player) for _ in range(width)]
        return (player, labels, children)

    shape = build(0, 1)
    if shape is None:
        shape = (1, ["a0", "a1"], [None, None])
    return shape


def random_efg(rng) -> ExtensiveFormGame:
    """Random imperfect-information game with perfect recall.

    Chance deals one of a few signal pairs; each player sees only their
    own signal plus the full public action history, so information sets
    are (player, signal, history) and recall is automatic. All
    probabilities and payoffs are dyadic.
    """
    while True:
        shape = _random_shape(rng)
        sig1 = int(rng.integers(1, 3))
        sig2 = int(rng.integers(1, 3))
        deals = [(s1, s2) for s1 in range(sig1) for s2 in range(sig2)]
        probs = dyadic_probs(rng, len(deals))

        pure_counts = [1, 1]
        infosets = [set(), set()]

        def count(shape, history, signals):
            if shape is None:
                return
            player, labels, children = shape
            key = (player, signals[player - 1], history)
            if key not in infosets[player - 1]:
                infosets[player - 1].add(key)
                pure_counts[player - 1] *= len(labels)
            for lab, child in zip(labels, children):
                count(child, history + (lab,), signals)

        for s1 in range(sig1):
            for s2 in range(sig2):
                count(shape, (), (s1, s2))
        if max(pure_counts) > 128:
            continue

        def build(shape, history, signals):
            if shape is None:
                payoff = float(rng.integers(-8, 9)) / 4.0
                return Terminal(payoff)
            player, labels, children = shape
            iset = f"{player}:s{signals[player - 1]}:{'/'.join(history)}"
            actions = tuple(
                (lab, build(child, history + (lab,), signals))
                for lab, child in zip(labels, children))
            return Decision(player, iset, actions)

        outcomes = []
        for (s1, s2), p in zip(deals, probs):
            outcomes.append((p, build(shape, (), (s1, s2))))
        return ExtensiveFormGame(root=Chance(tuple(outcomes)))


def all_pure_strategies(efg: ExtensiveFormGame, player: int):
    """Every pure strategy of a player as an infoset -> action dict."""
    import itertools

    table = {}  # the player's information sets and their action counts
    stack = [efg.root]
    while stack:
        node = stack.pop()
        if isinstance(node, Chance):
            stack.extend(child for _, child in node.outcomes)
        elif isinstance(node, Decision):
            if node.player == player:
                table[node.infoset] = len(node.actions)
            stack.extend(child for _, child in node.actions)
    ids = sorted(table)
    for combo in itertools.product(*(range(table[h]) for h in ids)):
        yield dict(zip(ids, combo))
