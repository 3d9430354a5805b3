"""Approximate equilibria of two-person zero-sum games in sequence form."""

__version__ = "0.1.0"

from .errors import (CompileError, DimensionError, DivergenceError,
                     FeasibilityWarning, FileFormatError, InitializationError,
                     SeqformError, SizeError, StrategyError, StructureError,
                     ValidationError)
from .games import (Chance, Decision, ExtensiveFormGame, SequenceMap, Terminal,
                    kuhn_poker, random_matrix_game, simplex_game,
                    to_sequence_form)
from .solver import (Quadruplet, SolveReport, SolverConfig, SolverState,
                     TracePoint, ergodic_average, init, residual, solve, step)
from .sparse import SparseMatrix, SpectralEstimate, build_K, spectral_norm
from .treeplex import (BestResponse, FeasibilityResiduals, SequenceFormGame,
                       TreeplexIndex, Violation, best_response,
                       build_treeplex_index, duality_gap, expected_value,
                       feasibility_residuals, normalize_to_polytope,
                       simplex_gap, validate_sequence_form)

__all__ = [
    "SparseMatrix", "SpectralEstimate", "spectral_norm", "build_K",
    "SequenceFormGame", "TreeplexIndex", "BestResponse",
    "FeasibilityResiduals", "Violation", "validate_sequence_form",
    "build_treeplex_index", "best_response", "duality_gap", "simplex_gap",
    "feasibility_residuals", "normalize_to_polytope",
    "ExtensiveFormGame", "Terminal", "Chance", "Decision", "SequenceMap",
    "kuhn_poker", "random_matrix_game", "simplex_game", "to_sequence_form",
    "expected_value",
    "SolverConfig", "SolverState", "SolveReport", "TracePoint", "Quadruplet",
    "init", "step", "residual", "ergodic_average", "solve",
    "SeqformError", "DimensionError", "ValidationError", "StructureError",
    "CompileError", "SizeError", "StrategyError", "InitializationError",
    "DivergenceError", "FileFormatError", "FeasibilityWarning",
]
