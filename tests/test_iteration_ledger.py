"""The iteration ledger: BENCH_iterations.json pins what each ledger game's solve counts.

Each entry is one game at one epsilon: the solve's iterations, its
restart steps, the step at which rho fell back to 1 (null if it never
did) and the Lanczos rounds of the norm estimate of K. The last entry
totals the iterations of the random extensive-form games. The test
recomputes every entry and compares it exactly, so a change that moves
any count fails here until the file is rewritten:

    PYTHONPATH=src python tests/test_iteration_ledger.py
"""

import json
from pathlib import Path

import numpy as np

from seqform import (SolverConfig, build_K, kuhn_poker, random_matrix_game, solve,
                     spectral_norm, to_sequence_form)
from conftest import random_efg, ternary_game

LEDGER = Path(__file__).resolve().parents[1] / "BENCH_iterations.json"
EFG_SEEDS = range(40)


def ledger_games():
    """(name, epsilon, game) for every game the ledger holds, each built in memory."""
    yield "kuhn", 1e-4, to_sequence_form(kuhn_poker())[0]
    for depth in (2, 3, 4, 5):
        yield f"ternary_game({depth})", 1e-6, ternary_game(depth)
    for depth in (6, 7, 8):
        yield f"ternary_game({depth})", 3e-3, ternary_game(depth)
    for seed in (1, 2, 3):
        yield f"random_matrix_game(200, 200, {seed})", 3e-3, random_matrix_game(200, 200, seed)
    for seed in EFG_SEEDS:
        yield f"random_efg({seed})", 1e-6, to_sequence_form(random_efg(np.random.default_rng(seed)))[0]


def ledger_entries() -> list:
    entries = []
    for name, epsilon, game in ledger_games():
        report = solve(game, SolverConfig(epsilon=epsilon))
        entries.append({"game": name, "epsilon": epsilon, "iterations": report.iterations,
                        "restarts": report.restarts, "fallback_step": report.fallback_step,
                        "lanczos_rounds": spectral_norm(build_K(game)).iterations})
    efg = [e["iterations"] for e in entries if e["game"].startswith("random_efg(")]
    entries.append({"game": f"random_efg({EFG_SEEDS.start}..{EFG_SEEDS.stop - 1})",
                    "epsilon": 1e-6, "iterations": sum(efg)})
    return entries


def render(entries) -> str:
    # one entry a line, so a changed count is a one-line diff
    return "[\n" + ",\n".join(json.dumps(e) for e in entries) + "\n]\n"


def test_ledger_counts_are_the_solves():
    assert json.loads(LEDGER.read_text(encoding="utf-8")) == ledger_entries()


if __name__ == "__main__":
    LEDGER.write_text(render(ledger_entries()), encoding="utf-8")
    print(f"wrote {LEDGER}")
