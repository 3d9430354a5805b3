"""Game construction: extensive-form trees and their sequence-form compilation.

The extensive form is a plain tree of chance, decision, and terminal
nodes, with decision nodes grouped into information sets by string ids.
Compilation walks the tree once, assigns sequence indexes to the players
in discovery order (the empty sequence is index 0), and accumulates
chance-weighted payoffs into the sparse payoff matrix.

Kuhn poker is the built-in worked example: three cards, one dealt to
each player, a single round with a one-chip bet where a player facing a
bet either calls for a two-chip showdown or folds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Union

import numpy as np

from .errors import CompileError, DimensionError, StructureError
from .sparse import SparseMatrix
from .treeplex import SequenceFormGame, _through_K

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


class InfosetInfo(NamedTuple):
    player: int
    num_actions: int
    num_nodes: int


@dataclass(frozen=True, eq=False)
class ExtensiveFormGame:
    """A two-player zero-sum game tree; payoffs go to player 1."""

    root: Node

    def iter_nodes(self):
        stack = [self.root]
        while stack:
            node = stack.pop()
            yield node
            if isinstance(node, Chance):
                stack.extend(child for _, child in reversed(node.outcomes))
            elif isinstance(node, Decision):
                stack.extend(child for _, child in reversed(node.actions))

    def validate(self) -> dict[str, InfosetInfo]:
        """Check tree-level rules and return the information set table."""
        table: dict[str, InfosetInfo] = {}
        for node in self.iter_nodes():
            if isinstance(node, Terminal):
                if not np.isfinite(node.payoff):
                    raise StructureError("terminal payoff must be finite")
            elif isinstance(node, Chance):
                if not node.outcomes:
                    raise StructureError("chance node must have at least one outcome")
                probs = [p for p, _ in node.outcomes]
                if any(p < 0 for p in probs):
                    raise StructureError("chance probabilities must be nonnegative")
                if abs(sum(probs) - 1.0) > _CHANCE_SUM_TOL:
                    raise StructureError(
                        f"chance probabilities sum to {sum(probs)!r}, expected 1")
            elif isinstance(node, Decision):
                if node.player not in (1, 2):
                    raise StructureError(f"decision player must be 1 or 2, got {node.player}")
                if not node.actions:
                    raise StructureError(f"information set '{node.infoset}' has no actions")
                info = table.get(node.infoset)
                if info is None:
                    table[node.infoset] = InfosetInfo(node.player, len(node.actions), 1)
                else:
                    if info.player != node.player:
                        raise StructureError(
                            f"information set '{node.infoset}' is shared between players")
                    if info.num_actions != len(node.actions):
                        raise StructureError(
                            f"information set '{node.infoset}' has inconsistent action counts")
                    table[node.infoset] = info._replace(num_nodes=info.num_nodes + 1)
            else:
                raise StructureError(f"unknown node type {type(node).__name__}")
        return table


class SequenceEntry(NamedTuple):
    infoset: str
    action: int
    parent: int


@dataclass(frozen=True)
class SequenceMap:
    """How compiled sequence indexes relate back to the game tree.

    sequences[k][0] is None (the empty sequence); every later entry
    names the information set, action index, and parent sequence that
    the index extends. infoset_rows[k] maps information set ids to
    their constraint rows.
    """

    sequences: tuple
    infoset_rows: tuple

    def num_sequences(self, player: int) -> int:
        return len(self.sequences[player - 1])


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


class _Registration(NamedTuple):
    row: int
    parent: int
    first_seq: int
    num_actions: int


def to_sequence_form(efg: ExtensiveFormGame) -> tuple[SequenceFormGame, SequenceMap]:
    """Compile an extensive-form game to sequence form.

    Sequence indexes are assigned in depth-first discovery order, the
    empty sequence first. Requires perfect recall: every node of an
    information set must be reached with the same sequence of own
    actions, otherwise compilation fails naming the offending set.
    """
    efg.validate()
    seqs: list[list] = [[None], [None]]
    regs: list[dict[str, _Registration]] = [{}, {}]
    labels: list[list[str]] = [[""], [""]]
    iset_labels: list[list[str]] = [[""], [""]]
    payoff: dict[tuple[int, int], float] = {}

    def visit(node: Node, cur1: int, cur2: int, prob: float) -> None:
        if isinstance(node, Terminal):
            key = (cur1, cur2)
            payoff[key] = payoff.get(key, 0.0) + prob * node.payoff
            return
        if isinstance(node, Chance):
            for p, child in node.outcomes:
                visit(child, cur1, cur2, prob * p)
            return
        k = node.player - 1
        cur = cur1 if k == 0 else cur2
        reg = regs[k].get(node.infoset)
        if reg is None:
            first = len(seqs[k])
            reg = _Registration(row=len(regs[k]) + 1, parent=cur,
                                first_seq=first, num_actions=len(node.actions))
            regs[k][node.infoset] = reg
            iset_labels[k].append(node.infoset)
            for a, (label, _) in enumerate(node.actions):
                seqs[k].append(SequenceEntry(node.infoset, a, cur))
                labels[k].append(f"{node.infoset}/{label}")
        elif reg.parent != cur:
            raise CompileError(
                f"information set '{node.infoset}' is reached with different own "
                f"histories; perfect recall is required")
        for a, (_, child) in enumerate(node.actions):
            nxt = reg.first_seq + a
            if k == 0:
                visit(child, nxt, cur2, prob)
            else:
                visit(child, cur1, nxt, prob)

    visit(efg.root, 0, 0, 1.0)

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
    seqmap = SequenceMap(
        sequences=(tuple(seqs[0]), tuple(seqs[1])),
        infoset_rows=({h: r.row for h, r in regs[0].items()},
                      {h: r.row for h, r in regs[1].items()}))
    return game, seqmap


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


def expected_value(game: SequenceFormGame, x, y) -> float:
    """Payoff x^T A y to player 1 under a realization-plan pair.

    A y is read off K (y, 0), one product on the game's one operator.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (game.n1,):
        raise DimensionError(f"x must have length {game.n1}, got shape {x.shape}")
    return float(np.dot(x, _through_K(game, y, False)[0]))

