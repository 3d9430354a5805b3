"""First-order primal-dual solver for sequence-form zero-sum games.

The method iterates on one stacked operator K = [[A, -E1^T], [E2, 0]],
which maps u = (y, p) into the space of w = (x, q), and on one state
vector z = (u, w). Each iteration takes a proximal step in u against
g = K^T w, an ascent step in w against K u at the updated u, and then
corrects u by K^T of the observed change in w. That correction product
also moves g to the new w, so g is carried from step to step and an
iteration costs exactly two sparse products, one with K and one with
K^T, plus entrywise arithmetic and clipping y and x at zero.

The accumulated update vector v telescopes to the distance travelled
from the start, and ||v|| / (k * lambda) is the residual used as the
stopping certificate: when it drops below epsilon, the uniform averages
of the iterates form an approximate equilibrium of that accuracy. The
step size lambda is one over the norm of the saddle-point operator,
estimated by power iteration at initialization.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from itertools import accumulate
from typing import NamedTuple, Optional

import numpy as np

from .errors import DimensionError, DivergenceError, InitializationError
from .games import expected_value
from .sparse import SparseMatrix, build_K, spectral_norm
from .treeplex import (FeasibilityResiduals, SequenceFormGame, duality_gap,
                       feasibility_residuals, normalize_to_polytope)


@dataclass(frozen=True)
class SolverConfig:
    """Solve parameters; the defaults are sensible for small games.

    epsilon is the target of the certificate ||v|| / (k * lambda).
    lambda_override replaces the step size 1 / ||K||; seed fixes the
    start vector of the norm estimate, which runs either way because
    the report carries ||K||. trace_every > 0 records a TracePoint every
    that many iterations.
    """

    epsilon: float = 1e-4
    max_iter: int = 100000
    lambda_override: Optional[float] = None
    trace_every: int = 0
    seed: int = 0

    def __post_init__(self):
        if not (math.isfinite(self.epsilon) and self.epsilon > 0):
            raise ValueError("epsilon must be finite and positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")
        if self.lambda_override is not None and not (
                math.isfinite(self.lambda_override) and self.lambda_override > 0):
            raise ValueError("lambda_override must be finite and positive")
        if self.trace_every < 0:
            raise ValueError("trace_every must be nonnegative")


class Quadruplet(NamedTuple):
    y: np.ndarray
    p: np.ndarray
    x: np.ndarray
    q: np.ndarray


@dataclass
class SolverState:
    """Mutable iteration state on the stacked operator K.

    Every stacked vector is ordered z = (u, w) = (y, p, x, q), and
    bounds holds the offsets where p, x and q start. z is updated in
    place; y, p, x and q are views into it. g = K^T w is carried across
    steps. c = (0, e1, 0, e2) is the constant part of the update. v
    accumulates every change of z, z_sum every iterate, and z0 is the
    start.
    """

    K: SparseMatrix
    z: np.ndarray
    g: np.ndarray
    c: np.ndarray
    v: np.ndarray
    z_sum: np.ndarray
    z0: np.ndarray
    bounds: tuple[int, int, int]
    k: int
    lam: float
    norm_K: float

    def blocks(self, vec: np.ndarray) -> Quadruplet:
        """Split a stacked vector into (y, p, x, q) views."""
        return Quadruplet(*np.split(vec, self.bounds))

    y = property(lambda self: self.blocks(self.z).y)
    p = property(lambda self: self.blocks(self.z).p)
    x = property(lambda self: self.blocks(self.z).x)
    q = property(lambda self: self.blocks(self.z).q)

    def iterate(self) -> np.ndarray:
        return self.z.copy()


@dataclass(frozen=True)
class TracePoint:
    iter: int
    residual: float
    duality_gap: float
    value: float
    p0: float
    neg_q0: float
    feas_x: float
    feas_y: float
    min_x: float
    min_y: float
    elapsed: float


@dataclass
class SolveReport:
    converged: bool
    iterations: int
    epsilon: float
    lam: float
    norm_K: float
    residual: float
    value: float
    duality_gap: float
    feas: FeasibilityResiduals
    last: Quadruplet
    ergodic: Quadruplet
    x_plan: np.ndarray
    y_plan: np.ndarray
    trace: list = field(default_factory=list)
    elapsed: float = 0.0


def init(game: SequenceFormGame, start=None, config: Optional[SolverConfig] = None) -> SolverState:
    """Validate the game, estimate the step size, and set up state.

    start may be a (y, p, x, q) quadruplet; the default is all zeros.
    """
    if config is None:
        config = SolverConfig()
    K = build_K(game)
    est = spectral_norm(K, rel_tol=1e-6, max_iter=5000, seed=config.seed)
    if config.lambda_override is not None:
        lam = config.lambda_override
    else:
        if not est.converged:
            raise InitializationError(
                f"operator norm estimation did not converge in {est.iterations} iterations")
        if est.value <= 0.0:
            raise InitializationError("operator norm estimate is not positive")
        lam = 1.0 / est.value

    shapes = (game.n2, game.l1, game.n1, game.l2)
    if start is None:
        parts = [np.zeros(n) for n in shapes]
    else:
        parts = []
        for vec, n, name in zip(start, shapes, ("y", "p", "x", "q")):
            arr = np.array(vec, dtype=np.float64)
            if arr.shape != (n,):
                raise DimensionError(f"start {name} must have length {n}, got shape {arr.shape}")
            parts.append(arr)
    z0 = np.concatenate(parts)
    c = np.concatenate([np.zeros(game.n2), game.e1, np.zeros(game.n1), game.e2])
    return SolverState(
        K=K, z=z0.copy(), g=K.transpose_matvec(z0[K.cols:]), c=c,
        v=np.zeros(z0.size), z_sum=np.zeros(z0.size), z0=z0,
        bounds=tuple(accumulate(shapes[:3])),
        k=0, lam=lam, norm_K=est.value)


def step(state: SolverState, game: SequenceFormGame) -> SolverState:
    """Run one iteration in place and return the state.

    With u = (y, p), w = (x, q) and the carried g = K^T w:
    u1 = u - lam (g + (0, e1)) with y clipped at zero,
    w1 = w + lam (K u1 - (0, e2)) with x clipped at zero, and
    u2 = u1 - lam K^T (w1 - w), which also moves g to K^T w1.
    """
    K, lam, z, c = state.K, state.lam, state.z, state.c
    m = K.cols
    u0, w0 = z[:m], z[m:]
    # overflow surfaces as the typed divergence error below, not a warning
    with np.errstate(over="ignore", invalid="ignore"):
        u1 = u0 - lam * (state.g + c[:m])
        np.maximum(u1[:game.n2], 0.0, out=u1[:game.n2])
        w1 = w0 + lam * (K.matvec(u1) - c[m:])
        np.maximum(w1[:game.n1], 0.0, out=w1[:game.n1])
        dg = K.transpose_matvec(w1 - w0)
        state.g += dg
        z1 = np.concatenate([u1 - lam * dg, w1])
        state.v += z1 - z
        z[:] = z1
        state.z_sum += z
        state.k += 1
    if not np.all(np.isfinite(z)):
        raise DivergenceError(
            f"non-finite value in iterate at iteration {state.k}", iteration=state.k)
    return state


def residual(state: SolverState) -> float:
    """Convergence certificate ||v|| / (k * lambda); defined for k >= 1."""
    if state.k < 1:
        raise ValueError("residual is undefined before the first iteration")
    return float(np.linalg.norm(state.v) / (state.k * state.lam))


def ergodic_average(state: SolverState) -> Quadruplet:
    """Uniform averages of the iterates seen so far."""
    if state.k < 1:
        raise ValueError("ergodic average is undefined before the first iteration")
    return state.blocks(state.z_sum / state.k)


def _evaluate(state: SolverState, game: SequenceFormGame):
    """Evaluate the state the way a trace point and the report show it.

    Returns (x_plan, y_plan, value, gap, feas): the ergodic averages
    pushed onto the polytopes, their value and duality gap, and the
    feasibility residuals of the last iterate.
    """
    avg = ergodic_average(state)
    x_plan = normalize_to_polytope(game.index1, avg.x).values
    y_plan = normalize_to_polytope(game.index2, avg.y).values
    return (x_plan, y_plan, expected_value(game, x_plan, y_plan),
            duality_gap(game, x_plan, y_plan), feasibility_residuals(game, state.x, state.y))


def _trace_point(state, game, t0) -> TracePoint:
    _, _, value, gap, res = _evaluate(state, game)
    return TracePoint(
        iter=state.k, residual=residual(state), duality_gap=gap, value=value,
        p0=float(state.p[0]), neg_q0=float(-state.q[0]),
        feas_x=res.feas_x, feas_y=res.feas_y, min_x=res.min_x, min_y=res.min_y,
        elapsed=time.perf_counter() - t0)


def solve(game: SequenceFormGame, config: Optional[SolverConfig] = None) -> SolveReport:
    """Iterate until the residual drops below epsilon or max_iter is hit.

    Reported value and duality gap are computed from the ergodic
    averages pushed back onto the strategy polytopes; the feasibility
    residuals describe the last iterate. With trace_every > 0 a
    TracePoint is recorded every trace_every iterations and at the
    final one.
    """
    if config is None:
        config = SolverConfig()
    t0 = time.perf_counter()
    state = init(game, None, config)
    trace: list[TracePoint] = []
    while state.k == 0 or residual(state) >= config.epsilon:
        if state.k >= config.max_iter:
            break
        step(state, game)
        if config.trace_every and state.k % config.trace_every == 0:
            trace.append(_trace_point(state, game, t0))
    if config.trace_every and (not trace or trace[-1].iter != state.k):
        trace.append(_trace_point(state, game, t0))

    x_plan, y_plan, value, gap, feas = _evaluate(state, game)
    final_res = residual(state)
    return SolveReport(
        converged=final_res < config.epsilon,
        iterations=state.k,
        epsilon=config.epsilon,
        lam=state.lam,
        norm_K=state.norm_K,
        residual=final_res,
        value=value,
        duality_gap=gap,
        feas=feas,
        last=state.blocks(state.z.copy()),
        ergodic=ergodic_average(state),
        x_plan=x_plan,
        y_plan=y_plan,
        trace=trace,
        elapsed=time.perf_counter() - t0)
