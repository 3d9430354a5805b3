"""First-order primal-dual solver for sequence-form zero-sum games.

The method iterates on one stacked operator K = [[A, -E1^T], [E2, 0]],
which maps u = (y, p) into the space of w = (x, q), and on one state
vector z = (u, w). Each iteration computes a point T(z) = (u2, w1): a
proximal step in u against g = K^T w gives u1, an ascent step in w
against K u1 gives w1, and u2 corrects u1 by K^T of the change in w.
The step then moves z past T(z), to z + rho (T(z) - z), with the
relaxation factor rho = RHO = 1.7 (Chambolle and Pock, "On the ergodic
convergence rates of a first-order primal-dual algorithm", Math.
Program. 159, 2016; He and Yuan, SIAM J. Imaging Sci. 5, 2012, for
factors in (0, 2)). The correction product also moves g to the new w,
so g is carried from step to step and an iteration costs exactly two
sparse products, one with K and one with K^T, plus entrywise arithmetic
and clipping y and x at zero. The step size lambda is one over the norm
of the saddle-point operator, estimated at initialization by Lanczos
(sparse.spectral_norm) to rounding accuracy.

The certificate. Let P = (u1, w1) be the point where a step's two
projections are taken, F(u, w) = (K^T w + c_u, c_w - K u) the game's
operator, skew plus a constant, and d the change of z in a step. The
projections put (z - T(z)) - lambda F(P) in the normal cone of the
strategy sets at P, whatever z is. Summed over the k steps of a window
that starts at z0, with v = z - z0 the sum of the d, this gives for
every point z* of the sets

    lambda rho sum_i <F(z*), P_i - z*> <= <v, z* - z0> - ||v||^2 / 2 + E,

where E sums (1/2 - 1/rho) ||d||^2 - (lambda / rho) <d^u, K^T d^w> over
the steps; the state carries E and z0 and reads v as z - z0. Whenever
E <= ||v||^2 / 2, the average of the P_i therefore satisfies
<F(z*), avg P - z*> <= <r, z* - z0> for every z*, with
r = v / (k lambda rho): its duality gap against the points within
distance R of z0 is at most R ||r||, and
||r|| = ||v|| / (k lambda rho) is the residual used as the stopping
certificate. ||K|| does not enter the argument: the check E <= ||v||^2
/ 2 certifies each window whatever lambda ||K|| is, and residual is inf
while it fails, so such a window is never reported converged. The check
costs one inner product of the stacked change with itself and one of
its u part with lambda K^T (w1 - w), which the step computes anyway.
At rho = 1 and lambda ||K|| <= 1 no term of E is positive, so the
check holds: at the first step whose check fails, solve falls back to
rho = 1 and restarts the averaging there, through the same code.

Why rho = 1.7. Every factor in (0, 2) converges, and a larger one
takes fewer iterations: Kuhn poker certifies 1e-4 in 398 at rho = 1,
255 at 1.5 and 224 at 1.7. What bounds the factor is the window check.
From 1.75 up it fails on the shifted 2x2 game of acceptance gate 4 near
the rounding floor (about step 414 at 1.75 and 1.8, step 56 at 1.9),
and that solve falls back to rho = 1. 1.7 is the largest factor on a
0.05 grid from 1.5 at which every acceptance gate passes and no game of
the iteration ledger or the benchmark falls back. On degenerate games
the check can still fail at this factor: from 1.6 up the plain loop
never certifies the 1x1 zero game, which solve certifies after falling
back at step 3.

The reported average. z_sum sums the points T(z), whose w part is P's
and whose u part is P's less lambda K^T (w1 - w). Over a window these
differences average to lambda^2 K^T r^w, so the average of the T(z)
lies within lambda^2 ||K|| ||r||, lambda times the certificate when
lambda ||K|| <= 1, of the average the argument covers, and the two meet
as the certificate falls. The reported strategies are that average
pushed onto the strategy polytopes, and their value and duality gap are
computed from them exactly.

On its own the certificate falls like d0 * ||K|| / k, d0 being the
distance from the start to a solution. solve therefore restarts the
averaging (Applegate, Hinder, Lu, Lubin, arXiv 2105.12715): whenever
the certificate has fallen to a fifth of its reference, PDLP's
sufficient-decay factor of 0.2 (Applegate et al., arXiv 2106.04756),
the ergodic average of the steps since the last restart becomes the new
start point z0, so v = z - z0 is zero again, and E, the running sum and
k start again from zero.
The average's plans y and x lie off the realization-plan polytopes,
since a step clips them only at zero and holds E's rows by the
multipliers; the start point takes them pushed onto the polytopes, as
the reported strategies are, and keeps the average's multipliers p and
q. The window argument above holds for any start z0, this one
included. Each window between restarts is a fresh run of the same
method, so the certificate, the averages and everything computed from
them cover the steps since the last restart. Sequence-form zero-sum
games are linear programs, on which restarted averaging converges
linearly. The plain iteration without restarts is a loop over init,
step and residual.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, replace
from itertools import accumulate
from typing import NamedTuple, Optional

import numpy as np

from .errors import DivergenceError, InitializationError
from .sparse import SparseMatrix, _dot, _einsum, build_K, spectral_norm
from .treeplex import (FeasibilityResiduals, SequenceFormGame, duality_gap,
                       expected_value, feasibility_residuals, normalize_to_polytope)

# step's clipping bound: np.maximum takes a 0-d array faster than the float 0.0
_ZERO = np.zeros(())
# the relaxation factor: step moves z to z + RHO (T(z) - z)
RHO = 1.7


@dataclass(frozen=True)
class SolverConfig:
    """Solve parameters; the defaults are sensible for small games.

    epsilon is the target of the certificate ||v|| / (k * lambda * rho),
    and max_iter caps the number of steps. trace_every > 0 records a
    TracePoint every that many iterations. Neither the step size nor the
    relaxation factor is a parameter: init sets lambda = 1 / ||K|| and
    rho = RHO.
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
    bounds holds the offsets where p, x and q start. g = K^T w / rho is
    carried across steps; the division spares step a pass. c = (0, e1,
    0, e2) is the constant part of the update. rho is step's relaxation
    factor: RHO, or 1 after solve's fallback. z_sum accumulates every
    T(z), and E every step's window term (see the module docstring); z0
    is the window's start, and the property v = z - z0 its displacement.
    k counts the steps since the last restart, steps all of them.

    __post_init__ copies z, g, z_sum and z0, so every construction, a
    dataclasses.replace copy or a restart, owns the vectors step moves
    and leaves the state it came from as it was. It then builds every
    view of the state, once: y, p, x and q into z, and views, all that
    step reads and writes: the scalars lam, lam * rho and rho as 0-d
    arrays, which multiply as a vector operand does with none of a
    Python float's dispatch, beside whether rho is 1 and the window
    term's two coefficients; the u half of c over rho and the w half of
    c; the u and w halves of z; and a scratch buffer whose rows are
    T(z), its change t, which step scales to the change rho * t of z,
    and (lam K^T t^w, 0), with the parts of them step writes. step, and
    _open_window on a state just built, write in place only into those
    arrays, so the views stay valid.
    """

    K: SparseMatrix
    z: np.ndarray
    g: np.ndarray
    c: np.ndarray
    z_sum: np.ndarray
    z0: np.ndarray
    bounds: tuple[int, int, int]
    k: int
    E: float
    lam: float
    rho: float
    norm_K: float
    steps: int
    views: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for name in ("z", "g", "z_sum", "z0"):
            setattr(self, name, getattr(self, name).copy())
        n2, m, end_x = self.bounds
        n = self.z.size
        rho = self.rho
        buf = np.zeros((3, n))
        z1, t = buf[0], buf[1]
        self.y, self.p, self.x, self.q = self.blocks(self.z)
        scalars = (np.array(self.lam), np.array(self.lam * rho), np.array(rho), rho == 1.0,
                   rho * (rho / 2 - 1), rho)
        self.views = (scalars, self.c[:m] / rho, self.c[m:], self.z[:m], self.z[m:],
                      z1, t, z1[:m], z1[m:], z1[:n2], z1[m:end_x], t[:m], t[m:],
                      buf[2, :m], buf[1:3])

    @property
    def v(self) -> np.ndarray:
        """The window's displacement z - z0, a new array."""
        return self.z - self.z0

    def blocks(self, vec: np.ndarray) -> Quadruplet:
        """Split a stacked vector into (y, p, x, q) views."""
        return Quadruplet(*np.split(vec, self.bounds))


@dataclass(frozen=True)
class TracePoint:
    """One evaluation of the solver state, a row of the trace.

    iter is the number of steps taken; residual the certificate
    ||v|| / (k lambda rho) of the window then open, inf while its check
    fails. duality_gap and value belong to the ergodic averages pushed
    onto the strategy polytopes. p0 and neg_q0 are the first entries of
    the last iterate's p and -q, the root constraints' multipliers, each
    an estimate of the game's value. feas_x, feas_y, min_x and min_y are
    the last iterate's feasibility residuals (FeasibilityResiduals).
    No field is a clock reading: the solver reads no clock.
    """

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


@dataclass
class SolveReport:
    """What solve returns; see solve for how each field is found.

    converged says whether residual fell below epsilon; iterations
    counts every step. lam and norm_K are the step size and the
    operator norm estimate it is the reciprocal of. residual, value,
    duality_gap, x_plan and y_plan describe the final window: its
    certificate and its ergodic averages pushed onto the strategy
    polytopes. feas holds the feasibility residuals and last the
    (y, p, x, q) blocks of the last iterate. trace holds the recorded
    TracePoints, restarts the steps at which the averaging restarted,
    window_checks E / (||v||^2 / 2) of each window as it closed, and
    fallback_step the step at which rho fell back to 1, or None.
    """

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
    window_checks: list = field(default_factory=list)
    fallback_step: Optional[int] = None


def _open_window(state: SolverState) -> SolverState:
    """Start state's averaging window at state.z0, in place, and return state.

    z = z0, g = K^T w0 / rho, z_sum = 0 and k = E = 0. init opens the
    first window at zero in a new state, and _restart each later one in
    its own copy of the state.
    """
    K, z0 = state.K, state.z0
    state.z[:] = z0
    np.divide(K.transpose_matvec(z0[K.cols:]), state.rho, out=state.g)
    state.z_sum.fill(0.0)
    state.k, state.E = 0, 0.0
    return state


def init(game: SequenceFormGame) -> SolverState:
    """Validate the game, estimate the step size, and set up state.

    lambda = 1 / ||K||, with ||K|| estimated by spectral_norm from its
    fixed start vector, and rho = RHO. The certificate does not rest on
    lambda ||K|| <= 1: the window check E <= ||v||^2 / 2 certifies each
    window whatever lambda ||K|| is (see the module docstring). z starts
    at zero; a restart builds its state as a copy of this one, starting
    at the window average with its plans pushed onto the polytopes
    (_restart).
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

    c = np.concatenate([np.zeros(game.n2), game.e1, np.zeros(game.n1), game.e2])
    zero = np.zeros(c.size)
    return _open_window(SolverState(
        K=K, z=zero, g=zero[:K.cols], c=c, z_sum=zero, z0=zero,
        bounds=tuple(accumulate((game.n2, game.l1, game.n1))), k=0, E=0.0,
        lam=1.0 / est.value, rho=RHO, norm_K=est.value, steps=0))


# overflow surfaces as the typed divergence error below, not a warning
@np.errstate(over="ignore", invalid="ignore")
def step(state: SolverState, game: SequenceFormGame) -> SolverState:
    """Run one iteration in place and return the state.

    With u = (y, p), w = (x, q) and h = K^T w / rho carried as state.g,
    T(z) = (u2, w1) with
    u1 = u - lam rho (h + (0, e1) / rho) with y clipped at zero,
    w1 = w + lam (K u1 - (0, e2)) with x clipped at zero, and
    u2 = u1 - lam K^T (w1 - w). z then moves by d = rho t, t = T(z) - z,
    so h moves by K^T (w1 - w), the correction product's result, with
    no rho scaling. E gains rho ((rho / 2 - 1) ||t||^2 - <t^u, lam K^T
    t^w>), the window term of d. T(z), t, lam K^T t^w and d, which is t
    scaled in place, are built in the state's scratch buffer through
    state.views; only the two products allocate. At rho = 1, z becomes
    T(z) itself.
    """
    K, z = state.K, state.z
    ((lam, lam_rho, rho, plain, tt_coef, tx_coef), c_u, c_w, u0, w0,
     z1, t, u1, w1, y1, x1, tu, tw, lam_dg, t_and_lam_dg) = state.views
    np.add(state.g, c_u, out=u1)
    u1 *= lam_rho
    np.subtract(u0, u1, out=u1)
    np.maximum(y1, _ZERO, out=y1)
    Ku = K.matvec(u1)
    Ku -= c_w
    Ku *= lam
    np.add(w0, Ku, out=w1)
    del Ku  # so the two products' results are never held at once
    np.maximum(x1, _ZERO, out=x1)
    np.subtract(w1, w0, out=tw)
    dg = K.transpose_matvec(tw)
    state.g += dg
    np.multiply(dg, lam, out=lam_dg)
    u1 -= lam_dg
    np.subtract(u1, u0, out=tu)
    tt, tx = _einsum("ij,j->i", t_and_lam_dg, t).tolist()
    if plain:
        z[:] = z1
    else:
        t *= rho
        z += t
    state.z_sum += z1
    e = tt_coef * tt - tx_coef * tx
    state.E += e
    state.k += 1
    state.steps += 1
    # a non-finite entry of z makes t non-finite or past 1e154, so e is
    # not finite; only then are z's entries checked one by one
    if not math.isfinite(e) and not np.isfinite(z).all():
        raise DivergenceError(
            f"non-finite value in iterate at iteration {state.steps}", iteration=state.steps)
    return state


def residual(state: SolverState) -> float:
    """Convergence certificate ||v|| / (k * lambda * rho); defined for k >= 1.

    v = z - z0 is the window's displacement. The residual is inf while
    the window check E <= ||v||^2 / 2 fails, since such a window has no
    certificate (see the module docstring).
    """
    if state.k < 1:
        raise ValueError("residual is undefined before the first iteration")
    v = state.v
    vv = _dot(v, v)
    if vv == vv and not state.E <= 0.5 * vv:
        return math.inf
    return math.sqrt(vv) / (state.k * state.lam * state.rho)


def ergodic_average(state: SolverState) -> Quadruplet:
    """Uniform averages of the points T(z) of the steps since the last restart."""
    if state.k < 1:
        raise ValueError("ergodic average is undefined before the first iteration")
    return state.blocks(state.z_sum / state.k)


def _pushed_average(state: SolverState, game: SequenceFormGame) -> tuple[np.ndarray, np.ndarray]:
    """The plans (x, y) of the ergodic average, pushed onto the strategy polytopes."""
    avg = ergodic_average(state)
    return normalize_to_polytope(game.index1, avg.x), normalize_to_polytope(game.index2, avg.y)


def _trace_point(state, game, res):
    """Evaluate the state the way a trace point and the report show it.

    Returns the TracePoint after state.steps steps and the evaluation
    (x_plan, y_plan, value, gap, feas) it shows: the ergodic averages
    pushed onto the polytopes, their value and duality gap, and the
    feasibility residuals of the last iterate.
    """
    x_plan, y_plan = _pushed_average(state, game)
    value = expected_value(game, x_plan, y_plan)
    gap = duality_gap(game, x_plan, y_plan)
    feas = feasibility_residuals(game, state.x, state.y)
    point = TracePoint(
        iter=state.steps, residual=res, duality_gap=gap, value=value,
        p0=float(state.p[0]), neg_q0=float(-state.q[0]),
        feas_x=feas.feas_x, feas_y=feas.feas_y, min_x=feas.min_x, min_y=feas.min_y)
    return point, (x_plan, y_plan, value, gap, feas)


def _window_check(state: SolverState) -> float:
    """E / (||v||^2 / 2): the window's certificate holds while this is at most 1."""
    v = state.v
    half = 0.5 * float(_dot(v, v))
    if half == 0.0:
        return 0.0 if state.E <= 0.0 else math.inf
    return state.E / half


def _restart(state: SolverState, game: SequenceFormGame, rho: float) -> SolverState:
    """A copy of state whose window, stepped at rho, starts at its ergodic average.

    The start is the average with its plans y and x pushed onto the
    strategy polytopes (normalize_to_polytope) and its multipliers p and
    q as they are; the window argument, and so the certificate, holds
    from any start. The plans are pushed here, before the copy, so that
    their temporaries and the copy are never held at once. The copy is
    made once, by replace, and _open_window writes the window into it,
    as init's is written; K and its norm are kept, steps keeps counting,
    and state is left as it was.
    """
    plans = _pushed_average(state, game)
    new = replace(state, rho=rho)
    y, _, x, _ = new.blocks(np.divide(state.z_sum, state.k, out=new.z0))
    x[:], y[:] = plans
    return _open_window(new)


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
    _open_window, and one site in the loop evaluates the state,
    _trace_point: at the final step, for the report, and with
    trace_every > 0 every trace_every iterations too, before a restart on
    the same step. With trace_every > 0 each evaluated point is recorded
    in the trace, the final one included.

    A step whose window check fails has residual inf: it is not
    converged and neither sets the reference nor restarts. At the first
    such step the solve falls back to rho = 1, with a restart, and
    fallback_step records the step. window_checks holds E / (||v||^2 /
    2) of each window as it closed: at each restart, at the fallback and
    at the last step.
    """
    if config is None:
        config = SolverConfig()
    epsilon, max_iter, trace_every = config.epsilon, config.max_iter, config.trace_every
    state = init(game)
    trace: list[TracePoint] = []
    restarts: list[int] = []
    window_checks: list[float] = []
    fallback_step = reference = None
    while True:
        step(state, game)
        res = residual(state)
        done = res < epsilon or state.steps >= max_iter
        if done or (trace_every and state.steps % trace_every == 0):
            point, evaluation = _trace_point(state, game, res)
            if trace_every:
                trace.append(point)
        if done:
            window_checks.append(_window_check(state))
            break
        if res == math.inf:
            check = _window_check(state)
            if check > 1.0 and state.rho != 1.0:
                window_checks.append(check)
                state = _restart(state, game, 1.0)
                fallback_step = state.steps
                reference = None
        elif reference is None:
            reference = res
        elif res <= 0.2 * reference:
            window_checks.append(_window_check(state))
            state = _restart(state, game, state.rho)
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
        restarts=restarts,
        window_checks=window_checks,
        fallback_step=fallback_step)
