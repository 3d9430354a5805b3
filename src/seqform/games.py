"""Game construction: extensive-form trees and their sequence-form compilation.

The extensive form is a plain tree of chance, decision, and terminal
nodes, with decision nodes grouped into information sets by string ids.
Compilation walks the tree once, checks each node, assigns sequence
indexes to the players in discovery order (the empty sequence is index
0), and accumulates chance-weighted payoffs into the sparse payoff
matrix.

The module only builds games. The SequenceFormGame record it fills in,
and every evaluator of a strategy pair on it, such as expected_value
and duality_gap, live in treeplex.

Kuhn poker is the built-in worked example: three cards, one dealt to
each player, a single round with a one-chip bet where a player facing a
bet either calls for a two-chip showdown or folds.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import NamedTuple, Optional, Union

import numpy as np

from .errors import CompileError, StructureError
from .sparse import SparseMatrix
from .treeplex import SequenceFormGame

_CHANCE_SUM_TOL = 1e-12


@dataclass(frozen=True)
class Terminal:
    payoff: float


@dataclass(frozen=True)
class Chance:
    outcomes: tuple  # of (probability, node) pairs


@dataclass(frozen=True)
class Decision:
    player: int
    infoset: str
    actions: tuple  # of (label, node) pairs


Node = Union[Terminal, Chance, Decision]


@dataclass(frozen=True, eq=False)
class ExtensiveFormGame:
    """A two-player zero-sum game tree; payoffs go to player 1."""

    root: Node


class SequenceEntry(NamedTuple):
    infoset: str
    action: int
    parent: int


@dataclass(frozen=True)
class SequenceMap:
    """How compiled sequence indexes relate back to the game tree.

    sequences[k][0] is None (the empty sequence); every later entry
    names the information set, action index, and parent sequence that
    the index extends. An information set's constraint row is its
    position in the game's labels["infosets1"] or ["infosets2"].
    """

    sequences: tuple


_KUHN_RANK = {"J": 0, "Q": 1, "K": 2}


def _kuhn_deal(c1: str, c2: str) -> Node:
    def showdown(stake: float) -> Terminal:
        return Terminal(stake if _KUHN_RANK[c1] > _KUHN_RANK[c2] else -stake)

    p1_facing_bet = Decision(1, f"1:{c1}:cb", (
        ("fold", Terminal(-1.0)),
        ("call", showdown(2.0)),
    ))
    p2_after_check = Decision(2, f"2:{c2}:c", (
        ("check", showdown(1.0)),
        ("bet", p1_facing_bet),
    ))
    p2_after_bet = Decision(2, f"2:{c2}:b", (
        ("fold", Terminal(1.0)),
        ("call", showdown(2.0)),
    ))
    return Decision(1, f"1:{c1}:", (
        ("check", p2_after_check),
        ("bet", p2_after_bet),
    ))


def kuhn_poker() -> ExtensiveFormGame:
    """Three-card Kuhn poker with the usual one-chip ante and bet."""
    deals = []
    for c1 in ("J", "Q", "K"):
        for c2 in ("J", "Q", "K"):
            if c1 != c2:
                deals.append((1.0 / 6.0, _kuhn_deal(c1, c2)))
    return ExtensiveFormGame(root=Chance(tuple(deals)))


def _as_float(value) -> Optional[float]:
    """value as a float, inf past the largest double; None unless a real number.

    A bool, though an int, is not a number here.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        return None
    try:
        return float(value)
    except OverflowError:  # an int past the largest double
        return math.inf if value > 0 else -math.inf


def _are_pairs(items) -> bool:
    """Whether items is a tuple or list of two-item tuples or lists."""
    return isinstance(items, (tuple, list)) and all(
        isinstance(item, (tuple, list)) and len(item) == 2 for item in items)


class _Registration(NamedTuple):
    row: int
    parent: int
    first_seq: int
    num_actions: int


def to_sequence_form(efg: ExtensiveFormGame) -> tuple[SequenceFormGame, SequenceMap]:
    """Check an extensive-form game and compile it to sequence form.

    One depth-first walk with an explicit stack, so the tree's depth is
    unbounded, checks each node as it reaches it: a malformed node
    raises StructureError. Sequence indexes are assigned in discovery
    order, the empty sequence first. Requires perfect recall: every node
    of an information set must be reached with the same sequence of own
    actions, otherwise CompileError names the offending set.
    """
    seqs: list[list] = [[None], [None]]
    regs: list[dict[str, _Registration]] = [{}, {}]
    labels: list[list[str]] = [[""], [""]]
    iset_labels: list[list[str]] = [[""], [""]]
    payoff: dict[tuple[int, int], float] = {}
    stack = [(efg.root, (0, 0), 1.0)]  # node, both players' current sequences, reach
    while stack:
        node, cur, prob = stack.pop()
        if isinstance(node, Terminal):
            value = _as_float(node.payoff)
            if value is None:
                raise StructureError(
                    f"terminal payoff must be a number, got {type(node.payoff).__name__}")
            if not math.isfinite(value):
                raise StructureError("terminal payoff must be finite")
            payoff[cur] = payoff.get(cur, 0.0) + prob * value
        elif isinstance(node, Chance):
            if not _are_pairs(node.outcomes):
                raise StructureError("chance outcomes must be a tuple of (probability, node) pairs")
            if not node.outcomes:
                raise StructureError("chance node must have at least one outcome")
            probs = [_as_float(p) for p, _ in node.outcomes]
            if None in probs:
                raise StructureError("chance probabilities must be numbers")
            # not p >= 0 refuses a NaN too, which passes p < 0 and the sum check
            if any(not p >= 0 for p in probs):
                raise StructureError("chance probabilities must be nonnegative")
            if abs(sum(probs) - 1.0) > _CHANCE_SUM_TOL:
                raise StructureError(f"chance probabilities sum to {sum(probs)!r}, expected 1")
            stack.extend((child, cur, prob * p)
                         for p, (_, child) in zip(reversed(probs), reversed(node.outcomes)))
        elif isinstance(node, Decision):
            # the type first: 2.0 and True compare equal to a player but are not one
            if (not isinstance(node.player, numbers.Integral) or isinstance(node.player, bool)
                    or node.player not in (1, 2)):
                raise StructureError(f"decision player must be 1 or 2, got {node.player!r}")
            if not isinstance(node.infoset, str):
                raise StructureError(
                    f"information set id must be a string, got {type(node.infoset).__name__}")
            if not _are_pairs(node.actions):
                raise StructureError(f"actions of information set '{node.infoset}' must be "
                                     f"a tuple of (label, node) pairs")
            if not node.actions:
                raise StructureError(f"information set '{node.infoset}' has no actions")
            k = node.player - 1
            if node.infoset in regs[1 - k]:
                raise StructureError(f"information set '{node.infoset}' is shared between players")
            reg = regs[k].get(node.infoset)
            if reg is None:
                reg = _Registration(row=len(regs[k]) + 1, parent=cur[k],
                                    first_seq=len(seqs[k]), num_actions=len(node.actions))
                regs[k][node.infoset] = reg
                iset_labels[k].append(node.infoset)
                for a, (label, _) in enumerate(node.actions):
                    seqs[k].append(SequenceEntry(node.infoset, a, cur[k]))
                    labels[k].append(f"{node.infoset}/{label}")
            elif reg.num_actions != len(node.actions):
                raise StructureError(
                    f"information set '{node.infoset}' has inconsistent action counts")
            elif reg.parent != cur[k]:
                raise CompileError(
                    f"information set '{node.infoset}' is reached with different own "
                    f"histories; perfect recall is required")
            for a in reversed(range(reg.num_actions)):
                seq = reg.first_seq + a
                nxt = (seq, cur[1]) if k == 0 else (cur[0], seq)
                stack.append((node.actions[a][1], nxt, prob))
        else:
            raise StructureError(f"unknown node type {type(node).__name__}")

    matrices = []
    vectors = []
    for k in (0, 1):
        n = len(seqs[k])
        rows = len(regs[k]) + 1
        trips = [(0, 0, 1.0)]
        for reg in regs[k].values():
            trips.append((reg.row, reg.parent, -1.0))
            for a in range(reg.num_actions):
                trips.append((reg.row, reg.first_seq + a, 1.0))
        e = np.zeros(rows)
        e[0] = 1.0
        matrices.append(SparseMatrix(rows, n, trips))
        vectors.append(e)

    A = SparseMatrix(len(seqs[0]), len(seqs[1]),
                     [(i, j, v) for (i, j), v in sorted(payoff.items())])
    game = SequenceFormGame(
        A=A, E1=matrices[0], E2=matrices[1], e1=vectors[0], e2=vectors[1],
        labels={
            "sequences1": labels[0], "sequences2": labels[1],
            "infosets1": iset_labels[0], "infosets2": iset_labels[1],
        })
    return game, SequenceMap(sequences=(tuple(seqs[0]), tuple(seqs[1])))


def simplex_game(A: SparseMatrix) -> SequenceFormGame:
    """Wrap a payoff matrix as a game over plain probability simplexes."""
    E1 = SparseMatrix(1, A.rows, [(0, i, 1.0) for i in range(A.rows)])
    E2 = SparseMatrix(1, A.cols, [(0, j, 1.0) for j in range(A.cols)])
    return SequenceFormGame(A=A, E1=E1, E2=E2, e1=np.ones(1), e2=np.ones(1))


def random_matrix_game(n1: int, n2: int, seed: int) -> SequenceFormGame:
    """Matrix game with entries drawn uniformly from [-1, 1].

    Deterministic for a fixed (n1, n2, seed).
    """
    if n1 < 1 or n2 < 1:
        raise ValueError(f"matrix game needs at least one action per player, got {n1}x{n2}")
    rng = np.random.default_rng(seed)
    dense = rng.uniform(-1.0, 1.0, size=(n1, n2))
    return simplex_game(SparseMatrix.from_dense(dense))

