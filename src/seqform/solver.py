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
estimated at initialization by Lanczos (sparse.spectral_norm) to
rounding accuracy; the guarantee needs lambda <= 1 / ||K||.

On its own the certificate falls like d0 * ||K|| / k, d0 being the
distance from the start to a solution. solve therefore restarts the
averaging (Applegate, Hinder, Lu, Lubin, arXiv 2105.12715): whenever
the certificate has fallen to a fifth of its reference, PDLP's
sufficient-decay factor of 0.2 (Applegate et al., arXiv 2106.04756),
the ergodic average of the steps since the last restart becomes the new
start point, and v, the running sum and k start again from zero. Each
window between restarts is a fresh run of the same method, so the
certificate, the averages and everything computed from them cover the
steps since the last restart. Sequence-form zero-sum games are linear
programs, on which restarted averaging converges linearly. The plain
iteration without restarts is a loop over init, step and residual.
"""

from __future__ import annotations

import math
import numbers
import time
from dataclasses import dataclass, field
from itertools import accumulate
from typing import NamedTuple, Optional

import numpy as np

from .errors import DimensionError, DivergenceError, InitializationError
from .games import expected_value
from .sparse import SparseMatrix, _dot, build_K, spectral_norm
from .treeplex import (FeasibilityResiduals, SequenceFormGame, duality_gap,
                       feasibility_residuals, normalize_to_polytope)

# step's clipping bound: np.maximum takes a 0-d array faster than the float 0.0
_ZERO = np.zeros(())


@dataclass(frozen=True)
class SolverConfig:
    """Solve parameters; the defaults are sensible for small games.

    epsilon is the target of the certificate ||v|| / (k * lambda), and
    max_iter caps the number of steps. trace_every > 0 records a
    TracePoint every that many iterations. The step size is not a
    parameter: init sets lambda = 1 / ||K||.
    """

    epsilon: float = 1e-4
    max_iter: int = 100000
    trace_every: int = 0

    def __post_init__(self):
        # bool is an int subclass, so True would otherwise pass as 1
        if isinstance(self.epsilon, bool) or not isinstance(self.epsilon, numbers.Real):
            raise TypeError("epsilon must be a number")
        for name in ("max_iter", "trace_every"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise TypeError(f"{name} must be an integer")
        if not (math.isfinite(self.epsilon) and self.epsilon > 0):
            raise ValueError("epsilon must be finite and positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")
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
    bounds holds the offsets where p, x and q start. g = K^T w is
    carried across steps. c = (0, e1, 0, e2) is the constant part of
    the update. v accumulates every change of z, z_sum every iterate,
    and z0 is the start. k counts the steps since the last restart,
    steps all of them.

    __post_init__ builds every view of the state, once: y, p, x and q
    into z, and views, all that step reads and writes. views holds lam
    as a 0-d array, which multiplies as a vector operand does with none
    of a Python float's dispatch; the u and w halves of c and z; and a
    scratch buffer of two stacked vectors, step's new iterate and its
    change, with the parts of them step writes. One rule keeps the views
    valid: z, c and lam are only ever written in place, never assigned.
    dataclasses.replace builds fresh views, including the copy's own
    scratch buffer.
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
    steps: int
    views: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n2, m, end_x = self.bounds
        n = self.z.size
        buf = np.empty(2 * n)
        z1, dz = buf[:n], buf[n:]
        self.y, self.p, self.x, self.q = self.blocks(self.z)
        self.views = (np.array(self.lam), self.c[:m], self.c[m:], self.z[:m], self.z[m:],
                      z1, dz, z1[:m], z1[m:], z1[:n2], z1[m:end_x], dz[:m], dz[m:])

    def blocks(self, vec: np.ndarray) -> Quadruplet:
        """Split a stacked vector into (y, p, x, q) views."""
        return Quadruplet(*np.split(vec, self.bounds))


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
    x_plan: np.ndarray
    y_plan: np.ndarray
    trace: list = field(default_factory=list)
    restarts: list = field(default_factory=list)


def _window(K: SparseMatrix, z0: np.ndarray) -> dict:
    """The fields of an averaging window that starts at z0, which it keeps; the caller sets z to z0."""
    return dict(g=K.transpose_matvec(z0[K.cols:]), v=np.zeros(z0.size),
                z_sum=np.zeros(z0.size), z0=z0, k=0)


def init(game: SequenceFormGame, start=None) -> SolverState:
    """Validate the game, estimate the step size, and set up state.

    lambda = 1 / ||K||, with ||K|| estimated by spectral_norm from its
    fixed start vector. start may be a (y, p, x, q) quadruplet; the
    default is all zeros.
    """
    K = build_K(game)
    est = spectral_norm(K)
    if math.isinf(est.value):
        raise InitializationError(
            f"operator norm estimation overflowed in round {est.iterations}: payoffs too large")
    if not est.converged:
        raise InitializationError(
            f"operator norm estimation did not converge in {est.iterations} iterations")
    if est.value <= 0.0:
        raise InitializationError("operator norm estimate is not positive")

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
    c = np.concatenate([np.zeros(game.n2), game.e1, np.zeros(game.n1), game.e2])
    z0 = np.concatenate(parts)
    return SolverState(
        K=K, z=z0.copy(), c=c, bounds=tuple(accumulate(shapes[:3])),
        lam=1.0 / est.value, norm_K=est.value, steps=0,
        **_window(K, z0))


# overflow surfaces as the typed divergence error below, not a warning
@np.errstate(over="ignore", invalid="ignore")
def step(state: SolverState, game: SequenceFormGame) -> SolverState:
    """Run one iteration in place and return the state.

    With u = (y, p), w = (x, q) and the carried g = K^T w:
    u1 = u - lam (g + (0, e1)) with y clipped at zero,
    w1 = w + lam (K u1 - (0, e2)) with x clipped at zero, and
    u2 = u1 - lam K^T (w1 - w), which also moves g to K^T w1.
    The new iterate (u2, w1) is built in the state's scratch buffer and
    its change (u2 - u, w1 - w) beside it, both through state.views;
    only the two products allocate.
    """
    K, z = state.K, state.z
    lam, c_u, c_w, u0, w0, z1, dz, u1, w1, y1, x1, du, dw = state.views
    np.add(state.g, c_u, out=u1)
    u1 *= lam
    np.subtract(u0, u1, out=u1)
    np.maximum(y1, _ZERO, out=y1)
    Ku = K.matvec(u1)
    Ku -= c_w
    Ku *= lam
    np.add(w0, Ku, out=w1)
    del Ku  # so the two products' results are never held at once
    np.maximum(x1, _ZERO, out=x1)
    np.subtract(w1, w0, out=dw)
    dg = K.transpose_matvec(dw)
    state.g += dg
    dg *= lam
    u1 -= dg
    np.subtract(u1, u0, out=du)
    state.v += dz
    z[:] = z1
    state.z_sum += z
    state.k += 1
    state.steps += 1
    # a non-finite entry makes the sum non-finite; only a finite sum past
    # the largest double falls through to the entrywise check
    if not math.isfinite(np.add.reduce(z)) and not np.isfinite(z).all():
        raise DivergenceError(
            f"non-finite value in iterate at iteration {state.steps}", iteration=state.steps)
    return state


def residual(state: SolverState) -> float:
    """Convergence certificate ||v|| / (k * lambda); defined for k >= 1."""
    if state.k < 1:
        raise ValueError("residual is undefined before the first iteration")
    return math.sqrt(_dot(state.v, state.v)) / (state.k * state.lam)


def ergodic_average(state: SolverState) -> Quadruplet:
    """Uniform averages of the iterates seen so far."""
    if state.k < 1:
        raise ValueError("ergodic average is undefined before the first iteration")
    return state.blocks(state.z_sum / state.k)


def _trace_point(state, game, t0, res):
    """Evaluate the state the way a trace point and the report show it.

    Returns the TracePoint after state.steps steps and the evaluation
    (x_plan, y_plan, value, gap, feas) it shows: the ergodic averages
    pushed onto the polytopes, their value and duality gap, and the
    feasibility residuals of the last iterate.
    """
    avg = ergodic_average(state)
    x_plan = normalize_to_polytope(game.index1, avg.x)
    y_plan = normalize_to_polytope(game.index2, avg.y)
    value = expected_value(game, x_plan, y_plan)
    gap = duality_gap(game, x_plan, y_plan)
    feas = feasibility_residuals(game, state.x, state.y)
    point = TracePoint(
        iter=state.steps, residual=res, duality_gap=gap, value=value,
        p0=float(state.p[0]), neg_q0=float(-state.q[0]),
        feas_x=feas.feas_x, feas_y=feas.feas_y, min_x=feas.min_x, min_y=feas.min_y,
        elapsed=time.perf_counter() - t0)
    return point, (x_plan, y_plan, value, gap, feas)


def _restart(state: SolverState) -> None:
    """Restart the averaging in place from the ergodic average.

    The window fields are set by the same function init uses, and z is
    overwritten in place, so the result is the state init would build
    from that start, without rebuilding K or estimating its norm again,
    and steps keeps counting.
    """
    window = _window(state.K, state.z_sum / state.k)
    state.z[:] = window["z0"]
    vars(state).update(window)


def solve(game: SequenceFormGame, config: Optional[SolverConfig] = None) -> SolveReport:
    """Iterate until the residual drops below epsilon or max_iter is hit.

    The averaging restarts whenever the residual is at most 0.2 times
    the reference (PDLP's sufficient-decay factor), is still at or above
    epsilon, and another step is allowed; the reference is the residual
    after the first step and then the residual at each restart.
    restarts lists the steps at which the averaging restarted.
    iterations and TracePoint.iter count every step; the residual, the
    ergodic averages and the value and duality gap computed from them
    cover the steps since the last restart. Reported value and duality
    gap are computed from the ergodic averages pushed back onto the
    strategy polytopes; the feasibility residuals describe the last
    iterate. init and each restart start a window through one function,
    _window, and one site in the loop evaluates the state, _trace_point:
    at the final step, for the report, and with trace_every > 0 every
    trace_every iterations too, before a restart on the same step. With
    trace_every > 0 each evaluated point is recorded in the trace, the
    final one included.
    """
    if config is None:
        config = SolverConfig()
    epsilon, max_iter, trace_every = config.epsilon, config.max_iter, config.trace_every
    t0 = time.perf_counter()
    state = init(game)
    trace: list[TracePoint] = []
    restarts: list[int] = []
    while True:
        step(state, game)
        res = residual(state)
        done = res < epsilon or state.steps >= max_iter
        if done or (trace_every and state.steps % trace_every == 0):
            point, evaluation = _trace_point(state, game, t0, res)
            if trace_every:
                trace.append(point)
        if done:
            break
        if state.steps == 1:
            reference = res
        elif res <= 0.2 * reference:
            _restart(state)
            restarts.append(state.steps)
            reference = res

    x_plan, y_plan, value, gap, feas = evaluation
    return SolveReport(
        converged=res < epsilon,
        iterations=state.steps,
        epsilon=epsilon,
        lam=state.lam,
        norm_K=state.norm_K,
        residual=res,
        value=value,
        duality_gap=gap,
        feas=feas,
        last=state.blocks(state.z.copy()),
        x_plan=x_plan,
        y_plan=y_plan,
        trace=trace,
        restarts=restarts)
