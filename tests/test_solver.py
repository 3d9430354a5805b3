"""Solver iteration, certificates, averages, and failure modes."""

import dataclasses
import math
import os
import subprocess
import sys
import time
import warnings

import numpy as np
import pytest

import seqform
from seqform import (DivergenceError, InitializationError, SolverConfig,
                     SolverState, SparseMatrix, duality_gap, ergodic_average,
                     expected_value, feasibility_residuals, init,
                     normalize_to_polytope, random_matrix_game, residual,
                     simplex_game, solve, step, to_sequence_form)
from seqform.oracle import dense_spectral_norm
from seqform.sparse import SpectralEstimate, build_K, spectral_norm
from conftest import fixed_norm, ledger_entry, lp_value, random_efg, ternary_game


@pytest.fixture
def trivial_game():
    # 1x1 zero game: the operator is a rotation, so the step size is exactly 1
    return simplex_game(SparseMatrix(1, 1))


@pytest.fixture
def pennies():
    return simplex_game(SparseMatrix.from_dense([[1.0, -1.0], [-1.0, 1.0]]))


@pytest.fixture
def plain_rho(monkeypatch):
    """init builds states with rho = 1: each step moves z to T(z) itself."""
    import seqform.solver as solver_module

    monkeypatch.setattr(solver_module, "RHO", 1.0)


def quad(state):
    return (state.y.tolist(), state.p.tolist(), state.x.tolist(), state.q.tolist())


def plain_iteration(game, epsilon):
    """The iteration without restarts, run until the certificate is below epsilon.

    No certificate within 10,000 steps fails the test, where a window check
    that never holds would otherwise loop forever.
    """
    state = init(game)
    for _ in range(10_000):
        step(state, game)
        if residual(state) < epsilon:
            return state
    pytest.fail(f"no certificate below {epsilon} within 10,000 steps")


def averaged_plans(state, game):
    avg = ergodic_average(state)
    return (normalize_to_polytope(game.index1, avg.x),
            normalize_to_polytope(game.index2, avg.y))


def test_solve_value_is_within_its_duality_gap_of_an_lp_solution():
    # the certificate's claim checked against an LP solver that shares no code with the solver
    games = [(f"random_efg({seed})", to_sequence_form(random_efg(np.random.default_rng(seed)))[0])
             for seed in range(40)]
    games += [(f"random_matrix_game{shape}", random_matrix_game(*shape))
              for shape in [(2, 3, 0), (5, 5, 1), (10, 7, 2), (7, 10, 3), (20, 20, 4)]]
    games += [(f"ternary_game({depth})", ternary_game(depth)) for depth in (2, 3, 4)]
    for name, game in games:
        value = lp_value(game)
        for epsilon in (1e-3, 1e-6):
            report = solve(game, SolverConfig(epsilon=epsilon))
            assert report.converged, (name, epsilon)
            assert abs(report.value - value) <= report.duality_gap + 1e-12, (name, epsilon)


def test_config_validation():
    for epsilon in (0.0, np.nan, np.inf):
        with pytest.raises(ValueError):
            SolverConfig(epsilon=epsilon)
    with pytest.raises(ValueError):
        SolverConfig(max_iter=0)
    with pytest.raises(ValueError):
        SolverConfig(trace_every=-1)
    # a fraction or a bool is not a count, and a bool is not a tolerance
    for bad in ({"max_iter": 2.5}, {"trace_every": 1.5}, {"max_iter": True},
                {"trace_every": False}, {"epsilon": True}, {"epsilon": "1e-4"}):
        with pytest.raises(TypeError):
            SolverConfig(**bad)
    SolverConfig(epsilon=np.float64(1e-3), max_iter=np.int64(5), trace_every=np.int32(1))
    # one schedule and one step size: nothing else is configurable
    assert [f.name for f in dataclasses.fields(SolverConfig)] == [
        "epsilon", "max_iter", "trace_every"]


def test_init_state(trivial_game):
    state = init(trivial_game)
    assert state.lam == 1.0
    assert state.norm_K == 1.0
    assert state.k == 0
    assert np.array_equal(state.z0, np.zeros(4))
    assert np.array_equal(state.z, np.zeros(4))


def test_step_is_safe(kuhn, pennies):
    # lambda must not exceed 1/||K||, up to rounding: the guarantee needs it
    _, kuhn_game, _ = kuhn
    games = [kuhn_game, pennies] + [random_matrix_game(rows, cols, seed) for rows, cols, seed in
                                    [(2, 3, 0), (10, 10, 1), (30, 20, 2), (50, 60, 3), (60, 50, 4)]]
    for game in games:
        assert init(game).lam * dense_spectral_norm(build_K(game)) <= 1 + 1e-12


def exact_norm(game):
    return float(np.linalg.norm(build_K(game).to_dense(), 2))


@pytest.mark.parametrize("rho", [1.0, 1.5, pytest.param(None, id="RHO")])
def test_window_identity(kuhn, monkeypatch, rho):
    # with P_i = (u1, w1) the point of step i's projections and E the state's
    # window term: sum <z_i - T(z_i), P_i - z*> = (1/rho) [(||z0 - z*||^2 -
    # ||z_k - z*||^2) / 2 + E] at every z*, which is what the certificate rests on;
    # rho None leaves the shipped RHO in place, so the case follows the constant
    import seqform.solver as solver_module

    if rho is None:
        rho = solver_module.RHO
    monkeypatch.setattr(solver_module, "RHO", rho)
    rng = np.random.default_rng(5)
    for game in (kuhn[1], ternary_game(4)):
        K = build_K(game).to_dense()
        state = init(game)
        m, n2, n1 = K.shape[1], game.n2, game.n1
        c = np.concatenate([np.zeros(n2), game.e1, np.zeros(n1), game.e2])
        c_u, c_w, lam = c[:m], c[m:], state.lam
        stars = rng.standard_normal((4, state.z.size))
        lhs = np.zeros(len(stars))
        for _ in range(80):
            z = state.z.copy()
            u, w = z[:m], z[m:]
            u1 = u - lam * (K.T @ w + c_u)
            u1[:n2] = np.maximum(u1[:n2], 0.0)
            w1 = w + lam * (K @ u1 - c_w)
            w1[:n1] = np.maximum(w1[:n1], 0.0)
            T = np.concatenate([u1 - lam * K.T @ (w1 - w), w1])
            P = np.concatenate([u1, w1])
            step(state, game)
            assert np.allclose(state.z, z + rho * (T - z), rtol=0.0, atol=1e-13)
            lhs += (P - stars) @ (z - T)
        dist0 = np.sum((state.z0 - stars) ** 2, axis=1)
        dist = np.sum((state.z - stars) ** 2, axis=1)
        rhs = ((dist0 - dist) / 2 + state.E) / rho
        assert np.all(np.abs(lhs - rhs) <= 1e-12 * np.abs(rhs)), (lhs, rhs)


@pytest.mark.filterwarnings("error")
def test_failed_window_check_is_never_reported_converged(kuhn, monkeypatch):
    # at lambda = 1.3 / ||K|| the check first fails at step 8, long before the
    # plain iteration diverges at step 1236; residual is inf at every failing step
    _, game, _ = kuhn
    fixed_norm(monkeypatch, exact_norm(game) / 1.3)
    state = init(game)
    failed = []
    # a state that never diverges leaves the loop and fails the raises check
    with pytest.raises(DivergenceError) as err:
        for _ in range(3000):
            step(state, game)
            # the solver's inner product, so that E level with ||v||^2 / 2 reads alike
            half = 0.5 * float(np.einsum("i,i->", state.v, state.v))
            if state.E > half:
                failed.append(state.steps)
                assert residual(state) == math.inf
    assert failed[0] == 8 < err.value.iteration == 1236

    # solve falls back to rho = 1 at that step, and the window it closes
    # there is the one whose check failed
    report = solve(game, SolverConfig(epsilon=1e-4, max_iter=300, trace_every=1))
    assert not report.converged
    assert report.fallback_step == 8
    assert report.window_checks[0] > 1.0
    assert report.trace[7].residual == math.inf
    assert len(report.window_checks) == len(report.restarts) + 2
    for point in report.trace:
        assert not point.residual < 1e-4


def test_window_checks_and_fallback_on_kuhn(kuhn):
    report = solve(kuhn[1], SolverConfig(epsilon=1e-4))
    assert report.converged and report.fallback_step is None
    # one check per window: one per restart and the last one
    assert len(report.window_checks) == len(report.restarts) + 1
    assert all(check <= 1.0 for check in report.window_checks)


def test_step_past_one_over_norm_is_certified_window_by_window(kuhn, monkeypatch):
    # the window check, not lambda ||K|| <= 1, is what the certificate needs
    for game in (kuhn[1], ternary_game(4)):
        value = lp_value(game)
        fixed_norm(monkeypatch, exact_norm(game) / 1.001)
        for epsilon in (1e-3, 1e-6):
            report = solve(game, SolverConfig(epsilon=epsilon))
            assert report.converged
            assert report.lam * exact_norm(game) > 1.0
            assert all(check <= 1.0 for check in report.window_checks)
            assert abs(report.value - value) <= report.duality_gap + 1e-12


def test_init_requires_converged_norm_estimate(trivial_game, monkeypatch):
    import seqform.solver as solver_module

    monkeypatch.setattr(solver_module, "spectral_norm",
                        lambda *a, **k: SpectralEstimate(1.0, False, 5000))
    with pytest.raises(InitializationError, match="did not converge"):
        init(trivial_game)

    monkeypatch.setattr(solver_module, "spectral_norm",
                        lambda *a, **k: SpectralEstimate(0.0, True, 3))
    with pytest.raises(InitializationError, match="not positive"):
        init(trivial_game)


def test_huge_payoffs_fail_init_within_one_round(monkeypatch):
    # entries near 1e78 overflow K^T K in the first Lanczos round; the
    # estimate stops there as infinite, and init names the overflow
    import seqform.solver as solver_module

    estimates = []

    def recorded_norm(*args, **kwargs):
        estimates.append(spectral_norm(*args, **kwargs))
        return estimates[-1]

    monkeypatch.setattr(solver_module, "spectral_norm", recorded_norm)
    games = [simplex_game(SparseMatrix.from_dense(rows))
             for rows in ([[1e78, -1e78]], [[1e300, -1e300]], [[1e308]])]
    for game in games:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(InitializationError, match="overflow"):
                init(game)
        assert caught == []
    assert estimates == [SpectralEstimate(math.inf, False, 1)] * len(games)
    state = init(simplex_game(SparseMatrix.from_dense([[1e77, -1e77]])))
    assert math.isfinite(state.norm_K) and state.lam > 0.0


def test_first_step_hand_trace(trivial_game, plain_rho):
    # with lambda = 1 and a zero start: the first proximal pass leaves y at
    # zero, drives p to -1, lifts x to 1, and books the constraint defect in q
    state = init(trivial_game)
    step(state, trivial_game)
    assert quad(state) == ([1.0], [0.0], [1.0], [-1.0])
    assert state.k == 1


def test_second_step_hand_trace(trivial_game, plain_rho):
    state = init(trivial_game)
    step(state, trivial_game)
    step(state, trivial_game)
    assert quad(state) == ([1.0], [0.0], [1.0], [0.0])
    assert np.array_equal(state.v, [1.0, 0.0, 1.0, 0.0])
    assert residual(state) == np.sqrt(2.0) / 2.0


def test_step_matches_nine_product_reference(kuhn, monkeypatch, plain_rho):
    # the same update written block by block with separate A/E1/E2 products
    def reference_step(game, lam, y0, p0, x0, q0):
        A, E1, E2 = game.A, game.E1, game.E2
        y1 = np.maximum(y0 - lam * (A.transpose_matvec(x0) + E2.transpose_matvec(q0)), 0.0)
        p1 = p0 - lam * (game.e1 - E1.matvec(x0))
        x1 = np.maximum(x0 + lam * (A.matvec(y1) - E1.transpose_matvec(p1)), 0.0)
        dx = x1 - x0
        dq = lam * (E2.matvec(y1) - game.e2)
        y2 = y1 - lam * (A.transpose_matvec(dx) + E2.transpose_matvec(dq))
        p2 = p1 + lam * E1.matvec(dx)
        return y2, p2, x1, q0 + dq

    for game in (kuhn[1], random_matrix_game(20, 20, seed=5)):
        state = init(game)
        ref = tuple(np.zeros(n) for n in (game.n2, game.l1, game.n1, game.l2))
        for _ in range(2000):
            step(state, game)
            ref = reference_step(game, state.lam, *ref)
            assert np.max(np.abs(state.z - np.concatenate(ref))) <= 1e-12

    calls = []
    for name in ("matvec", "transpose_matvec"):
        def counted(self, v, name=name, original=getattr(SparseMatrix, name)):
            calls.append(name)
            return original(self, v)
        monkeypatch.setattr(SparseMatrix, name, counted)
    step(state, game)
    assert len(calls) == 2


def test_residual_arithmetic(trivial_game, plain_rho):
    state = init(trivial_game)
    state.lam = 0.5
    with pytest.raises(ValueError):
        residual(state)
    state.k = 5
    assert residual(state) == 0.0
    # z0 is zero after init, so v = z - z0 is z bit for bit
    state.z[:] = [2.0, 0.0, 0.0, 0.0]
    state.k = 4
    assert residual(state) == 1.0


def test_a_window_that_has_not_moved_is_certified_only_without_energy(kuhn):
    # v = z - z0 is zero, so ||v||^2 / 2 is zero: the window check holds
    # only while E is at most zero, and the certificate follows it
    import seqform.solver as solver_module
    state = init(kuhn[1])
    step(state, kuhn[1])
    state.z[:] = state.z0
    state.E = 0.0
    assert residual(state) == solver_module._window_check(state) == 0.0
    state.E = 1.0
    assert residual(state) == solver_module._window_check(state) == math.inf


def test_residual_of_a_huge_or_nan_v_is_inf_or_nan_without_a_warning(kuhn):
    state = init(kuhn[1])
    state.k = 2
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        state.z[:] = 1e200
        assert residual(state) == math.inf
        state.z[:] = np.nan
        assert math.isnan(residual(state))
    assert caught == []


def test_residual_is_the_norm_of_v_over_k_lambda(kuhn, pennies, plain_rho):
    rng = np.random.default_rng(3)
    states = []
    for game in (kuhn[1], pennies, random_matrix_game(7, 5, seed=1)):
        state = init(game)
        for _ in range(13):
            step(state, game)
        states.append(state)
    state = init(pennies)
    state.k = 3
    for scale in (1e-150, 1.0, 1e150):
        state.z[:] = scale * rng.standard_normal(state.z.size)
        states.append(dataclasses.replace(state))
    for state in states:
        got = residual(state)
        assert type(got) is float
        assert got == float(np.linalg.norm(state.v) / (state.k * state.lam))


def test_norm_and_residual_bits_do_not_depend_on_blas_threads():
    # OpenBLAS splits a dot product of more than 10,000 entries across its
    # threads; ternary_game(8)'s stacked vectors hold 26,244, and after 100
    # steps the sum of their squares depends on its order
    code = ("import sys\n"
            "sys.path.insert(0, sys.argv[1])\n"
            "from conftest import ternary_game\n"
            "from seqform.solver import init, residual, step\n"
            "from seqform.sparse import build_K, spectral_norm\n"
            "game = ternary_game(8)\n"
            "state = init(game)\n"
            "for _ in range(100):\n"
            "    step(state, game)\n"
            "print(repr(spectral_norm(build_K(game))), repr(residual(state)))\n")
    tests = os.path.dirname(os.path.abspath(__file__))
    src = os.path.dirname(os.path.abspath(seqform.__file__))
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join([os.path.dirname(src), env.get("PYTHONPATH", "")])
        run = subprocess.run([sys.executable, "-c", code, tests], env=env,
                             capture_output=True, text=True, timeout=120)
        assert run.returncode == 0, run.stderr
        outputs.append(run.stdout)
    assert outputs[0] == outputs[1]


def test_ergodic_average_is_running_mean(pennies, plain_rho):
    state = init(pennies)
    with pytest.raises(ValueError):
        ergodic_average(state)
    seen = []
    for _ in range(3):
        step(state, pennies)
        seen.append(state.z.copy())
    avg = ergodic_average(state)
    stacked = np.mean(seen, axis=0)
    assert np.allclose(np.concatenate(avg), stacked, atol=1e-15, rtol=0.0)


def test_telescoping_identity():
    # the state stores no v: it reads the window's displacement as z - z0,
    # through steps, a restart and the rho = 1 fallback's restart, and step
    # works in a scratch buffer of three rows
    import seqform.solver as solver_module

    assert "v" not in {f.name for f in dataclasses.fields(SolverState)}
    game = random_matrix_game(20, 20, seed=5)
    state = init(game)
    for rho in (None, state.rho, 1.0):
        if rho is not None:
            state = solver_module._restart(state, game, rho)
        assert state.views[5].base.shape == (3, state.z.size)
        assert same_bits(state.v, np.zeros(state.z.size))
        for _ in range(200):
            step(state, game)
            assert same_bits(state.v, state.z - state.z0)
    assert state.rho == 1.0 and state.steps == 600


def test_trivial_game_convergence(trivial_game, monkeypatch):
    import seqform.solver as solver_module

    # at rho = 1 the iterates circle into the fixed point (1, 0, 1, 0), so
    # ||v|| tends to sqrt(2) and the residual to sqrt(2) / k: 142 steps
    with monkeypatch.context() as patch:
        patch.setattr(solver_module, "RHO", 1.0)
        state = plain_iteration(trivial_game, 1e-2)
    assert state.k == 142
    assert 0.0099 < residual(state) < 1e-2
    x_plan, y_plan = averaged_plans(state, trivial_game)
    assert np.array_equal(x_plan, [1.0])
    assert np.array_equal(y_plan, [1.0])
    assert expected_value(trivial_game, x_plan, y_plan) == 0.0
    assert duality_gap(trivial_game, x_plan, y_plan) == 0.0
    # from rho = 1.6 up the plain loop never certifies this game: its window
    # check fails nearly every step; solve falls back to rho = 1 and certifies
    report = solve(trivial_game, SolverConfig(epsilon=1e-2))
    assert report.converged and report.iterations == 9 and report.fallback_step == 3
    assert np.array_equal(report.x_plan, [1.0]) and np.array_equal(report.y_plan, [1.0])
    assert report.value == 0.0 and report.duality_gap == 0.0


def test_matching_pennies_solution(pennies):
    state = plain_iteration(pennies, 1e-3)
    # at lambda = 1/||K|| = 0.5 and rho = 1.7, ||v|| settles at 1 and the
    # residual at 1 / (0.85 k), which is 1e-3 at k = 20000 / 17; so step 1177
    # is the first below it (2001 at rho = 1)
    assert state.k == 1177
    # the symmetric start keeps both coordinates identical, so the
    # normalized averages sit exactly on the mixed equilibrium
    x_plan, y_plan = averaged_plans(state, pennies)
    assert np.array_equal(x_plan, [0.5, 0.5])
    assert np.array_equal(y_plan, [0.5, 0.5])
    assert expected_value(pennies, x_plan, y_plan) == 0.0
    assert state.lam == 1.0 / state.norm_K


def test_non_convergence_reported(kuhn):
    _, game, _ = kuhn
    report = solve(game, SolverConfig(epsilon=1e-4, max_iter=50))
    assert not report.converged
    assert report.iterations == 50
    assert report.residual >= 1e-4


def test_solve_is_deterministic():
    game = random_matrix_game(30, 30, seed=2)
    a = solve(game, SolverConfig(epsilon=1e-3))
    b = solve(game, SolverConfig(epsilon=1e-3))
    assert a.iterations == b.iterations
    assert a.residual == b.residual
    assert a.value == b.value
    assert np.array_equal(a.x_plan, b.x_plan)
    assert np.array_equal(a.last.y, b.last.y)


def hundreds_then_last(iterations):
    """The trace rows of a run of iterations steps at trace_every=100."""
    return list(range(100, iterations + 1, 100)) + ([iterations] if iterations % 100 else [])


def test_trace_schedule(kuhn):
    _, game, _ = kuhn
    report = solve(game, SolverConfig(epsilon=1e-4, trace_every=100))
    # a row at each multiple of 100, and a final row when the run stops off the schedule
    assert [t.iter for t in report.trace] == hundreds_then_last(report.iterations)
    report = solve(game, SolverConfig(epsilon=1e-4, max_iter=10, trace_every=7))
    assert [t.iter for t in report.trace] == [7, 10]
    report = solve(game, SolverConfig(epsilon=1e-4, max_iter=10))
    assert report.trace == []


def test_solve_reads_no_clock(kuhn, monkeypatch):
    # a rerun's outputs then cannot depend on when it ran
    def no_clock():
        raise AssertionError("solve read a clock")

    for name in ("perf_counter", "monotonic", "time", "process_time"):
        monkeypatch.setattr(time, name, no_clock)
    _, game, _ = kuhn
    report = solve(game, SolverConfig(epsilon=1e-4, trace_every=50))
    assert report.converged and report.trace


def test_final_trace_point_matches_report(pennies):
    report = solve(pennies, SolverConfig(epsilon=1e-3, trace_every=100))
    last = report.trace[-1]
    assert last.iter == report.iterations
    assert last.residual == report.residual
    assert last.value == report.value
    assert last.duality_gap == report.duality_gap
    assert (last.feas_x, last.feas_y) == (report.feas.feas_x, report.feas.feas_y)
    assert last.p0 == report.last.p[0]
    assert last.neg_q0 == -report.last.q[0]


@pytest.mark.filterwarnings("error")
def test_divergence_raises(kuhn, monkeypatch):
    # an underestimated norm makes lambda too large; overflow surfaces only
    # as the typed error, never as a numpy warning
    _, game, _ = kuhn
    fixed_norm(monkeypatch, 1e-200)
    with pytest.raises(DivergenceError) as err:
        solve(game)
    assert err.value.iteration == 1
    fixed_norm(monkeypatch, 1e-8)
    with pytest.raises(DivergenceError) as err:
        solve(game)
    assert err.value.iteration == 18


@pytest.mark.filterwarnings("error")
def test_finite_iterate_summing_past_largest_double_does_not_raise(trivial_game, plain_rho):
    # step checks the window term e first; a finite iterate whose inner products
    # overflow makes e NaN, which falls through to the entrywise check and is
    # not a divergence, and the window has no certificate
    import seqform.solver as solver_module

    state = init(trivial_game)
    state.z0[:] = [0.0, -1.5e308, 0.0, 1e308]
    solver_module._open_window(state, build_K(trivial_game))
    step(state, trivial_game)
    assert state.z.tolist() == [0.0, 0.0, 1.5e308, 1e308]
    assert sum(state.z.tolist()) == math.inf
    assert residual(state) == math.inf


def test_kuhn_converges_to_known_value(kuhn):
    _, game, _ = kuhn
    report = solve(game, SolverConfig(epsilon=1e-3))
    assert report.converged
    assert abs(report.value + 1.0 / 18.0) < 1e-3
    assert report.duality_gap < 1e-2
    assert max(report.feas.feas_x, report.feas.feas_y) < 1e-3
    # x is clipped every step; y's correction step may dip slightly negative
    assert report.feas.min_x >= 0.0
    assert report.feas.min_y > -1e-3


def test_restart_contract(kuhn, monkeypatch):
    import seqform.solver as solver_module

    _, game, _ = kuhn
    calls = {"norm": 0, "steps": 0}
    restart_steps = []
    spectral_norm, restart, step_fn = (solver_module.spectral_norm, solver_module._restart,
                                       solver_module.step)

    def counted_norm(*args, **kwargs):
        calls["norm"] += 1
        return spectral_norm(*args, **kwargs)

    def counted_step(state, g):
        calls["steps"] += 1
        return step_fn(state, g)

    def recorded_restart(state, g, rho):
        restart_steps.append(calls["steps"])
        return restart(state, g, rho)

    monkeypatch.setattr(solver_module, "spectral_norm", counted_norm)
    monkeypatch.setattr(solver_module, "step", counted_step)
    monkeypatch.setattr(solver_module, "_restart", recorded_restart)
    report = solve(game, SolverConfig(epsilon=1e-4, trace_every=1))
    # a restart copies the state: K is built and its norm estimated once
    assert report.converged
    assert calls["norm"] == 1
    assert restart_steps and report.iterations == calls["steps"] < 5000
    assert report.restarts == restart_steps == ledger_entry("kuhn")["restarts"]
    assert [t.iter for t in report.trace] == list(range(1, report.iterations + 1))

    # a cap on a step where the rule fires stops before restarting
    first = restart_steps[0]
    capped = solve(game, SolverConfig(epsilon=1e-4, max_iter=first))
    assert capped.iterations == first
    assert not capped.converged
    assert np.isfinite(capped.residual)
    # the trace point on a restart step is taken before the restart
    assert report.trace[first - 1].residual == capped.residual

    # a divergence after a restart names the step among all steps
    def poisoned_step(state, g):
        calls["steps"] += 1
        if calls["steps"] == first + 5:
            state.g[0] = np.nan
        return step_fn(state, g)

    calls["steps"] = 0
    monkeypatch.setattr(solver_module, "step", poisoned_step)
    with pytest.raises(DivergenceError) as err:
        solve(game, SolverConfig(epsilon=1e-4))
    assert err.value.iteration == first + 5


def test_restart_rule_is_a_fall_to_a_fifth(kuhn):
    # the reference is the residual after step 1, then at each restart step;
    # a window restarts at its first step whose residual is at most 0.2 times
    # the reference
    _, game, _ = kuhn
    report = solve(game, SolverConfig(epsilon=1e-4, trace_every=1))
    res = [None] + [t.residual for t in report.trace]
    assert report.converged and report.restarts
    starts = [1] + report.restarts
    ends = report.restarts + [report.iterations]
    for start, end in zip(starts, ends):
        reference = res[start]
        assert all(res[k] > 0.2 * reference for k in range(start + 1, end))
        if end in report.restarts:
            assert res[end] <= 0.2 * reference


def test_each_report_point_is_evaluated_once(kuhn, monkeypatch):
    # one evaluation site: the final step and each trace step call
    # _trace_point once, and a final step on the schedule is not evaluated twice
    import seqform.solver as solver_module

    _, game, _ = kuhn
    calls = []
    trace_point = solver_module._trace_point

    def counted_trace_point(state, *args):
        calls.append(state.steps)
        return trace_point(state, *args)

    monkeypatch.setattr(solver_module, "_trace_point", counted_trace_point)
    report = solve(game, SolverConfig(epsilon=1e-4))
    assert calls == [report.iterations] and report.trace == []
    calls.clear()
    report = solve(game, SolverConfig(epsilon=1e-4, trace_every=100))
    assert calls == hundreds_then_last(report.iterations) == [t.iter for t in report.trace]
    calls.clear()
    solve(game, SolverConfig(epsilon=1e-4, max_iter=10, trace_every=7))
    assert calls == [7, 10]


def test_a_restart_on_an_evaluated_step_pushes_the_average_once(kuhn, monkeypatch):
    # _trace_point and _restart each push the average onto both polytopes,
    # also when a restart lands on an evaluated step
    import seqform.solver as solver_module

    _, game, _ = kuhn
    calls = []
    normalize = solver_module.normalize_to_polytope

    def counted_normalize(index, z):
        calls.append(index)
        return normalize(index, z)

    monkeypatch.setattr(solver_module, "normalize_to_polytope", counted_normalize)
    report = solve(game, SolverConfig(epsilon=1e-4, trace_every=1))
    # every step is evaluated, so every restart lands on an evaluated step
    assert len(report.trace) == report.iterations and report.restarts
    assert len(calls) == 2 * (report.iterations + len(report.restarts))
    calls.clear()
    report = solve(game, SolverConfig(epsilon=1e-4))
    assert len(calls) == 2 * (len(report.restarts) + 1)
    # the fallback's restart too
    fixed_norm(monkeypatch, exact_norm(game) / 1.3)
    calls.clear()
    report = solve(game, SolverConfig(epsilon=1e-4, max_iter=300, trace_every=1))
    assert report.fallback_step == 8
    assert len(calls) == 2 * (report.iterations + len(report.restarts) + 1) == 604


def test_a_restart_holds_less_than_two_state_vectors_beyond_its_copy():
    # the restarted state owns its z, g, z_sum, z0 and scratch buffer; beyond
    # those, a restart holds less than two state vectors' bytes at any time
    import tracemalloc

    import seqform.solver as solver_module

    game = ternary_game(6)
    state = init(game)
    for _ in range(20):
        step(state, game)
    solver_module._restart(state, game, state.rho)  # builds the treeplex levels, once
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        restarted = solver_module._restart(state, game, state.rho)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert restarted.k == 0
    assert peak - kept < 2 * 8 * state.z.size


def test_restart_builds_the_window_init_builds(kuhn):
    import seqform.solver as solver_module

    _, game, _ = kuhn
    state = init(game)
    for _ in range(20):
        step(state, game)
    K, lam, norm_K, rho = build_K(game), state.lam, state.norm_K, state.rho
    avg = ergodic_average(state)
    start = np.concatenate([normalize_to_polytope(game.index2, avg.y), avg.p,
                            normalize_to_polytope(game.index1, avg.x), avg.q])
    state = solver_module._restart(state, game, rho)
    # each window field as init defines it, from the average with its plans
    # on the polytopes and its multipliers as they were as the start
    assert same_bits(state.z, start) and same_bits(state.z0, start)
    assert same_bits(state.g, K.transpose_matvec(start[K.cols:]) / rho)
    for name in ("v", "z_sum"):
        assert same_bits(getattr(state, name), np.zeros(start.size)), name
    assert state.k == 0 and state.E == 0.0
    assert (state.lam, state.norm_K, state.steps) == (lam, norm_K, 20)
    assert state.rho == rho == solver_module.RHO


@pytest.mark.parametrize("which", ["kuhn", "ternary"])
def test_a_restart_starts_its_window_with_plans_on_the_polytopes(kuhn, which):
    # the ergodic average's plans are off the polytopes; the restart's are on them
    import seqform.solver as solver_module

    game = kuhn[1] if which == "kuhn" else ternary_game(4)
    state = init(game)
    for _ in range(20):
        step(state, game)
    avg = ergodic_average(state)
    off = feasibility_residuals(game, avg.x, avg.y)
    assert max(off.feas_x, off.feas_y) > 1e-6
    for rho in (state.rho, 1.0):
        restarted = solver_module._restart(state, game, rho)
        feas = feasibility_residuals(game, restarted.x, restarted.y)
        assert max(feas.feas_x, feas.feas_y) <= 1e-12
        assert min(feas.min_x, feas.min_y) >= 0.0


def test_a_trace_point_makes_at_most_five_products_all_on_K(kuhn, monkeypatch):
    import seqform.solver as solver_module

    _, game, _ = kuhn
    state = init(game)
    for _ in range(10):
        step(state, game)
    products = []
    for name in ("matvec", "transpose_matvec"):
        product = getattr(SparseMatrix, name)

        def counted(self, v, product=product):
            products.append(self)
            return product(self, v)

        monkeypatch.setattr(SparseMatrix, name, counted)
    solver_module._trace_point(state, game, residual(state))
    assert 0 < len(products) <= 5
    assert all(m is build_K(game) for m in products)


def concatenate_step(state, game):
    """The step as first written, a new array for every intermediate and z1 by concatenation."""
    K, lam, z = build_K(game), state.lam, state.z
    c = np.concatenate([np.zeros(game.n2), game.e1, np.zeros(game.n1), game.e2])
    m = K.cols
    u0, w0 = z[:m], z[m:]
    with np.errstate(over="ignore", invalid="ignore"):
        u1 = u0 - lam * (state.g + c[:m])
        np.maximum(u1[:game.n2], 0.0, out=u1[:game.n2])
        w1 = w0 + lam * (K.matvec(u1) - c[m:])
        np.maximum(w1[:game.n1], 0.0, out=w1[:game.n1])
        dg = K.transpose_matvec(w1 - w0)
        state.g += dg
        z1 = np.concatenate([u1 - lam * dg, w1])
        z[:] = z1
        state.z_sum += z
        state.k += 1
        state.steps += 1


def same_bits(a, b):
    return np.array_equal(a.view(np.int64), b.view(np.int64))


@pytest.mark.parametrize("which", ["kuhn", "matrix", "treeplex"])
def test_step_matches_the_concatenate_step_bit_for_bit(kuhn, which, plain_rho):
    import seqform.solver as solver_module

    game = {"kuhn": kuhn[1], "matrix": random_matrix_game(50, 40, 0),
            "treeplex": ternary_game(5)}[which]
    # Kuhn's and the matrix game's K multiply dense, the treeplex's through compressed rows
    assert isinstance(build_K(game)._product_layout()[0], np.ndarray) == (which != "treeplex")
    state = init(game)
    ref = dataclasses.replace(state)
    for k in range(1, 501):
        step(state, game)
        concatenate_step(ref, game)
        if k == 250:
            state = solver_module._restart(state, game, state.rho)
            ref = solver_module._restart(ref, game, ref.rho)
        for name in ("z", "g", "z_sum"):
            assert same_bits(getattr(state, name), getattr(ref, name)), (k, name)
    assert (state.k, state.steps) == (ref.k, ref.steps) == (250, 500)


def test_replace_copy_views_its_own_arrays(kuhn):
    state = init(kuhn[1])
    copy = dataclasses.replace(state)
    _, _, _, u0, w0, *scratch = copy.views
    views = (copy.y, copy.p, copy.x, copy.q, u0, w0)
    assert all(np.shares_memory(view, copy.z) for view in views)
    assert not any(np.shares_memory(view, state.z) for view in views)
    assert np.concatenate(views[:4]).tolist() == copy.z.tolist()
    # the scratch views lie in one buffer of the copy's own, apart from both states' z
    assert all(np.shares_memory(view, scratch[0].base) for view in scratch)
    assert not any(np.shares_memory(view, a) for view in scratch
                   for a in (copy.z, state.z) + state.views[5:])


def test_stepping_a_replace_copy_leaves_the_original_as_it_was(kuhn):
    game = kuhn[1]
    state = init(game)
    for _ in range(5):
        step(state, game)
    names = ("z", "g", "z_sum", "z0")
    before = {name: getattr(state, name).copy() for name in names}
    counters = (state.k, state.E, state.steps)
    res = residual(state)
    copy = dataclasses.replace(state)
    for _ in range(5):
        step(copy, game)
    assert copy.steps == 10
    for name in names:
        assert same_bits(getattr(state, name), before[name]), name
        assert not np.shares_memory(getattr(state, name), getattr(copy, name)), name
    assert (state.k, state.E, state.steps) == counters
    assert residual(state) == res


def test_step_allocates_less_than_one_state_vector():
    import tracemalloc

    import seqform.solver as solver_module

    game = ternary_game(6)
    state = init(game)
    step(state, game)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        for _ in range(20):
            step(state, game)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 8 * state.z.size

    # copies stepped in turn each match their own run alone
    first, second = dataclasses.replace(state), dataclasses.replace(state)
    second = solver_module._restart(second, game, second.rho)
    alone = [dataclasses.replace(first), dataclasses.replace(second)]
    for copy in alone:
        for _ in range(20):
            step(copy, game)
    for _ in range(20):
        step(first, game)
        step(second, game)
    for copy, ref in zip((first, second), alone):
        for name in ("z", "g", "z_sum"):
            assert same_bits(getattr(copy, name), getattr(ref, name)), name


def test_the_fallback_opens_a_plain_window(kuhn, monkeypatch):
    # a state stepped at RHO and restarted at rho = 1 steps as the plain iteration does
    import seqform.solver as solver_module

    game = kuhn[1]
    state = init(game)
    for _ in range(30):
        step(state, game)
    assert state.rho == solver_module.RHO != 1.0
    state = solver_module._restart(state, game, 1.0)
    assert state.rho == 1.0 and state.views[0][3]
    ref = dataclasses.replace(state)
    for k in range(1, 51):
        step(state, game)
        concatenate_step(ref, game)
        for name in ("z", "g", "z_sum"):
            assert same_bits(getattr(state, name), getattr(ref, name)), (k, name)

    # a solve that falls back estimates the norm once
    fixed_norm(monkeypatch, exact_norm(game) / 1.3)
    estimates = []
    fixed = solver_module.spectral_norm

    def counted_norm(*args, **kwargs):
        estimates.append(fixed(*args, **kwargs))
        return estimates[-1]

    monkeypatch.setattr(solver_module, "spectral_norm", counted_norm)
    report = solve(game, SolverConfig(epsilon=1e-4, max_iter=300))
    assert report.fallback_step == 8
    assert len(estimates) == 1


def test_a_window_whose_energy_is_nan_falls_back(kuhn, monkeypatch):
    # residual alone decides the fallback: E = NaN makes it inf, though the
    # window check E / (||v||^2 / 2) then reads NaN, not above 1
    import seqform.solver as solver_module

    plain_step = solver_module.step

    def nan_after_five(state, game):
        plain_step(state, game)
        if state.steps == 5:
            state.E = math.nan
        return state

    monkeypatch.setattr(solver_module, "step", nan_after_five)
    report = solve(kuhn[1], SolverConfig(epsilon=1e-4, max_iter=400))
    assert report.fallback_step == 5
    assert math.isnan(report.window_checks[0])
    assert report.converged


@pytest.mark.parametrize("to_plain", [False, True])
def test_a_restart_leaves_the_state_it_came_from_as_it_was(kuhn, to_plain):
    import seqform.solver as solver_module

    game = kuhn[1]
    state = init(game)
    for _ in range(7):
        step(state, game)
    names = ("z", "g", "z_sum", "z0")
    before = {name: getattr(state, name).copy() for name in names}
    counters = (state.k, state.E, state.steps)
    restarted = solver_module._restart(state, game, 1.0 if to_plain else state.rho)
    for _ in range(5):
        step(restarted, game)
    assert restarted.steps == 12 and restarted.k == 5
    for name in names:
        assert same_bits(getattr(state, name), before[name]), name
    assert (state.k, state.E, state.steps) == counters
    # no array is shared: the vectors step moves, the scratch buffer and the
    # scalars are the restart's own
    def arrays(s):
        held = (*vars(s).values(), *s.views, *s.views[0], s.views[5].base)
        return [a for a in held if isinstance(a, np.ndarray)]

    assert not any(np.shares_memory(a, b) for a in arrays(restarted) for b in arrays(state))
