"""Shared builders for the test suite.

Random extensive-form games use dyadic chance probabilities and payoffs
so every compiled matrix entry, rollout, and product is exact in double
precision; equality assertions between independent code paths can then
be exact instead of approximate.
"""

import numpy as np
import pytest

from seqform import (Chance, Decision, ExtensiveFormGame, SparseMatrix,
                     Terminal, kuhn_poker, to_sequence_form)
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

    table = efg.validate()
    ids = sorted(h for h, info in table.items() if info.player == player)
    counts = [table[h].num_actions for h in ids]
    for combo in itertools.product(*(range(c) for c in counts)):
        yield dict(zip(ids, combo))
