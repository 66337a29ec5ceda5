"""Backward solver: regression bases, invariances, diagnostics."""
import math
from itertools import combinations_with_replacement

import numpy as np
import pytest

from smpsolve import bsde
from smpsolve import (
    AdjointFeedbackControl,
    ConstantControl,
    CostateTable,
    CostateVisitor,
    RegressionBasis,
    RegressionError,
    TimeGrid,
    cylinder_consistency_check,
    simulate_forward,
    solve_bsde_lsmc,
    terminal_stability_gap,
)
from smpsolve.bsde import TerminalStabilityGap
from smpsolve.problems import (
    AssumptionConstants,
    CoefficientField,
    ControlDomain,
    DiscountedProblem,
    grad_x_hamiltonian,
)
from smpsolve.experiments import (
    ConsumptionParams,
    ProductionPlanningParams,
    consumption_optimal_law,
    consumption_problem,
    production_optimal_law,
    production_problem,
)

CONS_BASIS = RegressionBasis(degree=4, reciprocal=True)
PROD_BASIS = RegressionBasis(degree=4)


def _solve_with_y(problem, ens, basis, visitors=(), **kwargs):
    """A solve whose Y table a :class:`CostateTable` keeps: (solution, Y)."""
    table = CostateTable()
    sol = solve_bsde_lsmc(problem, ens, basis, visitors=(*visitors, table), **kwargs)
    return sol, table.Y


class _Column(CostateVisitor):
    """A companion column stepped on each node's design, from ``terminal``
    under ``cap``; keeps copies of its (y, z) and of the costate's per node."""

    def __init__(self, problem, terminal, cap=None):
        self.problem, self.terminal, self.cap = problem, terminal, cap
        self.seen = {}

    def start(self, ensemble):
        self.y = self.terminal

    def __call__(self, node):
        z = None
        if node.advance is not None:
            self.y, z = node.advance(self.problem, self.y, self.cap)
        self.seen[node.i] = [None if a is None else a.copy() for a in (self.y, z, node.y, node.z)]


def _projected(basis, ens, xi):
    """xi projected on the final-step basis, as the stability check projects it."""
    design, _ = basis.fit(ens.states[:, -1, :])
    fit, _, _ = bsde._least_squares(design, None)
    return design @ fit(xi)


def _consumption_setup(horizon=4.0, steps=80, n_paths=2000, seed=0, beta=None):
    params = ConsumptionParams() if beta is None else ConsumptionParams(beta=beta)
    problem = consumption_problem(params)
    grid = TimeGrid(horizon=horizon, steps=steps)
    ens = simulate_forward(problem, consumption_optimal_law(params), grid, n_paths, seed)
    return params, problem, ens


def _production_setup(horizon=6.0, steps=120, n_paths=3000, seed=1):
    params = ProductionPlanningParams()
    problem = production_problem(params)
    grid = TimeGrid(horizon=horizon, steps=steps)
    ens = simulate_forward(problem, production_optimal_law(params), grid, n_paths, seed)
    return params, problem, ens


def _zero_driver_problem() -> DiscountedProblem:
    """Flat problem: trivial gradients make the adjoint driver vanish at Y=0."""
    coeffs = CoefficientField(
        state_dim=1,
        noise_dim=1,
        control_dim=1,
        drift=lambda x, u: np.zeros_like(x),
        diffusion=lambda x, u: np.ones(x.shape[:-1] + (1, 1)),
        running_cost=lambda x, u: np.zeros(x.shape[:-1]),
        grad_drift=lambda x, u: np.zeros(x.shape[:-1] + (1, 1)),
        grad_cost=lambda x, u: np.zeros_like(x),
    )
    return DiscountedProblem(
        coefficients=coeffs,
        domain=ControlDomain([0.0], [1.0]),
        beta=0.7,
        constants=AssumptionConstants(0.0, 0.0, 0.0, 0.0),
        x0=np.array([0.5]),
    )


class TestRegressionBasis:
    def test_family_and_degree_validation(self):
        with pytest.raises(ValueError):
            RegressionBasis(degree=0)

    def test_polynomial_design_has_intercept(self):
        basis = RegressionBasis(degree=3)
        x = np.linspace(0.5, 2.0, 40)[:, None]
        design, transform = basis.fit(x)
        assert design.shape[0] == 40
        assert np.allclose(design[:, 0], 1.0)
        again = basis.design(x, transform)
        assert np.array_equal(design, again)

    def test_reciprocal_adds_a_column(self):
        x = np.linspace(0.5, 2.0, 40)[:, None]
        plain, _ = RegressionBasis(degree=3).fit(x)
        rich, _ = RegressionBasis(degree=3, reciprocal=True).fit(x)
        assert rich.shape[1] == plain.shape[1] + 1

    @pytest.mark.parametrize(
        "basis, n",
        [
            (RegressionBasis(degree=4), 1),
            (RegressionBasis(degree=3), 2),
            (RegressionBasis(degree=4, reciprocal=True), 1),
            (RegressionBasis(degree=3, reciprocal=True), 2),
        ],
    )
    def test_design_matches_a_power_reference(self, basis, n):
        x = np.exp(np.random.default_rng(4).standard_normal((300, n)))
        design, transform = basis.fit(x)
        s = (x - transform.shift) / transform.scale
        cols = [np.ones(len(x))]
        for deg in range(1, basis.degree + 1):
            for combo in combinations_with_replacement(range(n), deg):
                cols.append(np.prod(s ** np.bincount(combo, minlength=n), axis=1))
        if basis.reciprocal:
            rec = 1.0 / x[:, 0]
            cols.append((rec - transform.reciprocal_shift) / transform.reciprocal_scale)
        np.testing.assert_allclose(design, np.stack(cols, axis=1), rtol=1e-12, atol=0.0)


class TestSolveInvariances:
    def test_zero_driver_zero_terminal_is_exactly_zero(self):
        problem = _zero_driver_problem()
        grid = TimeGrid(horizon=2.0, steps=40)
        ens = simulate_forward(problem, ConstantControl([0.5]), grid, 500, seed=3)
        sol, Y = _solve_with_y(problem, ens, RegressionBasis(degree=2))
        assert np.all(Y == 0.0) and np.all(sol.y_means == 0.0)
        assert all(np.all(c == 0.0) for c in sol.z_coeffs)
        assert all(np.all(sol.z_at(i, ens.states[:, i, :]) == 0.0) for i in range(40))

    def test_inactive_truncation_changes_nothing(self):
        params, problem, ens = _consumption_setup(n_paths=1000)
        sup = float(np.abs(ens.states).max())
        plain, plain_y = _solve_with_y(problem, ens, CONS_BASIS)
        capped_a, capped_a_y = _solve_with_y(problem, ens, CONS_BASIS, driver_state_cap=2.0 * sup)
        capped_b, capped_b_y = _solve_with_y(problem, ens, CONS_BASIS, driver_state_cap=4.0 * sup)
        assert np.array_equal(capped_a_y, plain_y)
        assert all(np.array_equal(a, b) for a, b in zip(capped_a.z_coeffs, plain.z_coeffs))
        assert np.array_equal(capped_a_y, capped_b_y)

    def test_active_truncation_moves_the_solution(self):
        params, problem, ens = _consumption_setup(n_paths=1000)
        _, plain_y = _solve_with_y(problem, ens, CONS_BASIS)
        _, tight_y = _solve_with_y(problem, ens, CONS_BASIS, driver_state_cap=0.8)
        assert float(np.abs(tight_y - plain_y).max()) > 0.0

    def test_truncation_level_must_be_positive(self):
        params, problem, ens = _consumption_setup(steps=10, n_paths=50)
        with pytest.raises(ValueError):
            solve_bsde_lsmc(problem, ens, CONS_BASIS, driver_state_cap=0.0)

    def test_terminal_shape_is_validated(self):
        params, problem, ens = _consumption_setup(steps=10, n_paths=50)
        with pytest.raises(ValueError):
            solve_bsde_lsmc(problem, ens, CONS_BASIS, terminal=np.zeros((7, 1)))


class TestNonFiniteTargets:
    def test_more_than_one_percent_aborts(self):
        params, problem, ens = _production_setup(horizon=2.0, steps=20, n_paths=200)
        terminal = np.zeros((200, 1))
        terminal[:3] = np.nan
        with pytest.raises(RegressionError, match="step 19: 1.5% of regression targets"):
            solve_bsde_lsmc(problem, ens, PROD_BASIS, terminal=terminal)

    def test_non_finite_companion_target_aborts(self):
        # one bad row of 200 would be masked in the costate, but a companion
        # shares the costate's rows
        params, problem, ens = _production_setup(horizon=2.0, steps=20, n_paths=200)
        terminal = np.zeros((200, 1))
        terminal[5] = np.inf
        with pytest.raises(RegressionError, match="step 19: non-finite companion targets"):
            solve_bsde_lsmc(problem, ens, PROD_BASIS, visitors=(_Column(problem, terminal),))


class TestZSurfaces:
    @pytest.mark.parametrize("setup", ["production", "consumption"])
    def test_z_at_is_the_solve_z_to_the_bit(self, monkeypatch, setup):
        if setup == "production":
            params, problem, ens = _production_setup(horizon=2.0, steps=20, n_paths=500)
            basis = PROD_BASIS
        else:
            params, problem, ens = _consumption_setup(horizon=2.0, steps=20, n_paths=500)
            basis = CONS_BASIS
        # the Z_i each step hands to its driver, as the step itself forms it
        used = []
        step = bsde._backward_step

        def recording(problem, design, fit, valid, target_y, *rest):
            y_i, z_i, z_coeffs = step(problem, design, fit, valid, target_y, *rest)
            assert np.array_equal(z_i, (design @ z_coeffs).reshape(target_y.shape[0], 1, 1))
            used.append(z_i)
            return y_i, z_i, z_coeffs

        monkeypatch.setattr(bsde, "_backward_step", recording)
        sol = solve_bsde_lsmc(problem, ens, basis)
        assert len(used) == 20
        for i, z in zip(range(19, -1, -1), used):
            assert np.array_equal(sol.z_at(i, ens.states[:, i, :]), z)

    # the last step regresses the zero terminal, whose Z is zero
    @pytest.mark.parametrize("step", [0, 17, 38])
    def test_z_at_matches_an_independent_regression(self, step):
        params, problem, ens = _production_setup(horizon=2.0, steps=40, n_paths=2000)
        sol, Y = _solve_with_y(problem, ens, PROD_BASIS)
        x = ens.states[:, step, :]
        y_next = Y[:, step + 1, :]
        design, _ = PROD_BASIS.fit(x)
        conditional = design @ np.linalg.lstsq(design, y_next, rcond=None)[0]
        target = (y_next - conditional) * ens.noise.increments[:, step, :] / ens.grid.dt
        want = design @ np.linalg.lstsq(design, target, rcond=None)[0]
        got = sol.z_at(step, x)[:, :, 0]
        assert float(np.abs(got - want).max()) <= 1e-10 * float(np.abs(want).max())

    def test_step_range_is_checked(self):
        params, problem, ens = _production_setup(horizon=2.0, steps=10, n_paths=100)
        sol = solve_bsde_lsmc(problem, ens, PROD_BASIS)
        for step in (-1, 10):
            with pytest.raises(ValueError):
                sol.z_at(step, ens.states[:, 0, :])

    def test_solve_stores_no_costate_table(self):
        import tracemalloc

        params, problem, ens = _production_setup(horizon=8.0, steps=400, n_paths=4000)
        one_y = ens.n_paths * (ens.grid.steps + 1) * problem.state_dim * 8
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            solve_bsde_lsmc(problem, ens, PROD_BASIS)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        # a step's design, fits and Z: a few (P, 5) arrays, against 12.8 MB of Y
        assert peak <= 0.1 * one_y


class TestTimeMajorLayout:
    def test_costate_steps_are_contiguous(self):
        params, problem, ens = _consumption_setup(steps=8, n_paths=300)
        sub = ens.take_paths(np.arange(300) < 200)
        layouts = []

        class Layout(CostateVisitor):
            def __call__(self, node):
                layouts.append((node.i, node.y.shape, node.y.flags.c_contiguous))

        sol, Y = _solve_with_y(problem, sub, CONS_BASIS, visitors=(Layout(),))
        assert layouts == [(i, (200, 1), True) for i in range(8, -1, -1)]
        for i in range(8):
            assert Y[:, i, :].flags.c_contiguous
            assert sol.z_at(i, sub.states[:, i, :]).shape == (200, 1, 1)
        assert Y[:, 8, :].flags.c_contiguous
        assert len(sol.z_coeffs) == 8


def _consumption_rule(t, x, y):
    """Consumption's Hamiltonian maximizer u = 1 / (x y), before clipping."""
    return 1.0 / (x[:, 0] * y[:, 0])


class TestCostateLaw:
    def test_finer_grid_reads_the_surface_holding_t(self):
        params, problem, ens = _consumption_setup(horizon=4.0, steps=20, n_paths=500)
        sol = solve_bsde_lsmc(problem, ens, CONS_BASIS)
        fine = TimeGrid(horizon=4.0, steps=80)
        replay = simulate_forward(
            problem, AdjointFeedbackControl(sol, _consumption_rule), fine, 300, seed=4
        )
        times = fine.times()
        for j in range(fine.steps):
            x = replay.states[:, j, :]
            u = _consumption_rule(times[j], x, sol.y_at(j // 4, x))[:, None]
            assert np.array_equal(replay.controls[:, j, :], problem.domain.clip(u))

    def test_longer_horizon_raises(self):
        params, problem, ens = _consumption_setup(horizon=4.0, steps=20, n_paths=500)
        sol = solve_bsde_lsmc(problem, ens, CONS_BASIS)
        law = AdjointFeedbackControl(sol, _consumption_rule)
        with pytest.raises(ValueError):
            simulate_forward(problem, law, TimeGrid(horizon=8.0, steps=40), 300, seed=4)


class TestSolutionSurface:
    def test_y_at_raises_outside_the_grid(self):
        params, problem, ens = _consumption_setup(steps=20, n_paths=200)
        sol = solve_bsde_lsmc(problem, ens, CONS_BASIS)
        x = np.ones((5, 1))
        for step in (ens.grid.steps, -1):
            with pytest.raises(ValueError):
                sol.y_at(step, x)

    def test_y_at_tracks_realized_costate(self):
        params, problem, ens = _consumption_setup(n_paths=3000)
        sol, Y = _solve_with_y(problem, ens, CONS_BASIS)
        step = 10
        x = ens.states[:200, step, :]
        fitted = sol.y_at(step, x)
        realized = Y[:200, step, :]
        rel = np.abs(fitted - realized) / (1.0 + np.abs(realized))
        assert float(np.median(rel)) < 0.05


class TestFactorization:
    def test_one_factorization_per_step(self, monkeypatch):
        # every step of this well-conditioned setup takes the Cholesky route
        params, problem, ens = _consumption_setup(steps=20, n_paths=400)
        calls = self._count_factorizations(monkeypatch)
        solve_bsde_lsmc(problem, ens, CONS_BASIS)
        assert calls == {"cholesky": ens.grid.steps, "qr": 0}

    @staticmethod
    def _count_factorizations(monkeypatch) -> dict:
        calls = {"cholesky": 0, "qr": 0}

        def counting(name, fn):
            def wrapped(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapped

        monkeypatch.setattr(np.linalg, "cholesky", counting("cholesky", np.linalg.cholesky))
        monkeypatch.setattr(np.linalg, "qr", counting("qr", np.linalg.qr))
        return calls

    def test_cholesky_route_matches_lstsq(self, monkeypatch):
        x = np.exp(0.4 * np.random.default_rng(5).standard_normal((2000, 1)))
        valid = np.arange(2000) % 7 != 0
        design, _ = CONS_BASIS.fit(x, valid=valid)
        targets = np.stack([np.sin(3.0 * x[:, 0]), np.sqrt(x[:, 0])], axis=1)
        calls = self._count_factorizations(monkeypatch)
        fit, cond, ridged = bsde._least_squares(design, valid)
        assert calls == {"cholesky": 1, "qr": 0}
        assert 1.0 < cond <= 1e6 and not ridged
        expected = np.linalg.lstsq(design[valid], targets[valid], rcond=None)[0]
        assert np.abs(fit(targets) - expected).max() <= 1e-10 * np.abs(expected).max()

    def test_ill_conditioned_design_takes_the_qr_route(self, monkeypatch):
        rng = np.random.default_rng(6)
        design = np.column_stack(
            [np.ones(500), rng.standard_normal(500), 1e-8 * rng.standard_normal(500)]
        )
        targets = rng.standard_normal((500, 2))
        calls = self._count_factorizations(monkeypatch)
        fit, cond, ridged = bsde._least_squares(design, None)
        assert calls == {"cholesky": 0, "qr": 1}
        assert 1e6 < cond < 1e12 and not ridged
        expected = np.linalg.lstsq(design, targets, rcond=None)[0]
        assert np.abs(fit(targets) - expected).max() <= 1e-10 * np.abs(expected).max()

    def test_ridge_fallback_on_a_rank_deficient_design(self):
        # without noise the paths from two starting points take two values
        # per step, so a degree-4 design is singular at every step
        params = ProductionPlanningParams(sigma=0.0)
        problem = production_problem(params)
        grid = TimeGrid(2.0, 20)
        x0 = np.where(np.arange(400) % 2 == 0, 0.5, 1.5)[:, None]
        ens = simulate_forward(problem, production_optimal_law(params), grid, 400, 0, x0=x0)
        with pytest.warns(RuntimeWarning, match="ridge fallback used at 20 regression steps"):
            sol, Y = _solve_with_y(problem, ens, PROD_BASIS)
        assert sol.ridge_steps == list(range(20))
        assert np.isfinite(Y).all()
        fit_error = max(
            float(np.abs(sol.y_at(i, ens.states[:, i, :]) - Y[:, i, :]).max())
            for i in range(grid.steps)
        )
        assert fit_error <= 1e-8


def _record_solves(monkeypatch) -> list:
    """Route ``bsde.solve_bsde_lsmc`` through a wrapper that keeps each solution."""
    import smpsolve.bsde

    solved = []
    solve = smpsolve.bsde.solve_bsde_lsmc

    def recording(*args, **kwargs):
        solved.append(solve(*args, **kwargs))
        return solved[-1]

    monkeypatch.setattr(smpsolve.bsde, "solve_bsde_lsmc", recording)
    return solved


class TestTerminalStability:
    def test_requires_dissipative_discount(self):
        params, problem, ens = _consumption_setup(steps=10, n_paths=50, beta=0.1)
        with pytest.raises(ValueError):
            terminal_stability_gap(problem, ens, CONS_BASIS, np.ones(50))

    def test_unit_terminal_gap_is_bounded(self):
        params, problem, ens = _production_setup(horizon=8.0, steps=160, n_paths=3000)
        report = terminal_stability_gap(problem, ens, PROD_BASIS, np.ones(3000))
        assert report.status == "pass"
        assert 0.0 < report.statistic <= report.tolerance
        assert report.details["bound"] == pytest.approx(math.exp(-problem.beta * 8.0))

    def test_one_solve_of_the_difference_equation(self, monkeypatch):
        solved = _record_solves(monkeypatch)
        params, problem, ens = _production_setup(horizon=2.0, steps=20, n_paths=300)
        terminal_stability_gap(problem, ens, PROD_BASIS, ens.states[:, -1, :])
        assert len(solved) == 1

    @pytest.mark.parametrize("seed", [None, 3, 11], ids=["setup-seed", "seed3", "seed11"])
    @pytest.mark.parametrize("setup", ["production", "consumption"])
    def test_matches_the_two_solve_reference(self, setup, seed):
        kw = {} if seed is None else {"seed": seed}
        if setup == "production":
            params, problem, ens = _production_setup(horizon=8.0, steps=80, n_paths=1500, **kw)
            basis = PROD_BASIS
        else:
            params, problem, ens = _consumption_setup(horizon=6.0, steps=60, n_paths=1500, **kw)
            basis = CONS_BASIS
        xi = ens.states[:, -1, :].copy()
        report = terminal_stability_gap(problem, ens, basis, xi)
        gap = TerminalStabilityGap(problem, basis, xi)
        solve_bsde_lsmc(problem, ens, basis, visitors=(gap,))

        # reference: both terminals solved in full, xi projected as the check does
        design, _ = basis.fit(ens.states[:, -1, :])
        xi_proj = design @ np.linalg.lstsq(design, xi, rcond=None)[0]
        diff = (
            _solve_with_y(problem, ens, basis)[1]
            - _solve_with_y(problem, ens, basis, terminal=xi_proj)[1]
        )
        weighted = np.einsum("pin,pin->pi", diff, diff) * np.exp(-problem.beta * ens.grid.times())
        node_means = weighted.mean(axis=0)
        i_star = int(np.argmax(node_means))
        assert report.details["argmax_node"] == i_star
        assert report.statistic == pytest.approx(node_means[i_star], rel=1e-12)
        se = weighted[:, i_star].std(ddof=1) / math.sqrt(ens.n_paths)
        assert report.standard_error == pytest.approx(se, rel=1e-12)
        # every node, not only the argmax (which sits at the terminal node),
        # from the visitor on the candidate's solve and from the check's own
        # solve; the reference loses digits to cancellation where the gap is small
        np.testing.assert_allclose(gap.node_means, node_means, rtol=1e-8)
        assert gap.report() == report
        inner = int(np.argmax(node_means[:-1]))
        assert report.details["interior_argmax_node"] == inner
        assert report.details["interior_gap"] == pytest.approx(node_means[inner], rel=1e-8)
        assert report.details["node0_gap"] == pytest.approx(node_means[0], rel=1e-8)

    def test_companion_visits_every_node_with_the_difference_solve(self):
        params, problem, ens = _production_setup(horizon=4.0, steps=40, n_paths=800)
        gap = TerminalStabilityGap(problem, PROD_BASIS)
        terminal = _projected(PROD_BASIS, ens, ens.states[:, -1, :])
        column = _Column(gap.problem, terminal)
        solve_bsde_lsmc(problem, ens, PROD_BASIS, visitors=(column, gap))
        # the same column solved as the costate of a solve of its own
        _, alone = _solve_with_y(gap.problem, ens, PROD_BASIS, terminal=terminal)
        assert sorted(column.seen) == list(range(41))
        for i, (y, *_) in column.seen.items():
            assert np.array_equal(y, alone[:, i, :])
        # the stability visitor steps that column: its node means to the bit
        weighted = np.einsum("pin,pin->pi", alone, alone) * np.exp(-problem.beta * ens.grid.times())
        assert np.array_equal(gap.node_means, [weighted[:, i].mean() for i in range(41)])

    @pytest.mark.parametrize("setup", ["production", "consumption"])
    def test_companion_leaves_the_costate_bit_identical(self, setup):
        if setup == "production":
            params, problem, ens = _production_setup(horizon=4.0, steps=40, n_paths=800)
            basis = PROD_BASIS
        else:
            params, problem, ens = _consumption_setup(horizon=4.0, steps=40, n_paths=800)
            basis = CONS_BASIS
        gap = TerminalStabilityGap(problem, basis)
        shared, shared_y = _solve_with_y(problem, ens, basis, visitors=(gap,))
        plain, plain_y = _solve_with_y(problem, ens, basis)
        assert np.array_equal(shared_y, plain_y)
        assert np.array_equal(shared.y_means, plain.y_means)
        assert all(np.array_equal(a, b) for a, b in zip(shared.y_coeffs, plain.y_coeffs))
        assert all(np.array_equal(a, b) for a, b in zip(shared.z_coeffs, plain.z_coeffs))
        assert gap.report().status == "pass"

    def test_companion_stores_no_second_costate(self):
        import tracemalloc

        params, problem, ens = _production_setup(horizon=8.0, steps=400, n_paths=4000)
        P, N = ens.n_paths, ens.grid.steps

        def peak(solve) -> int:
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                solve()
                return tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()

        plain = peak(lambda: solve_bsde_lsmc(problem, ens, PROD_BASIS))
        shared = peak(lambda: solve_bsde_lsmc(problem, ens, PROD_BASIS, visitors=(
            TerminalStabilityGap(problem, PROD_BASIS),
        )))
        assert shared - plain <= 0.05 * P * (N + 1) * 8

    def test_companion_terminal_shape_is_validated(self):
        params, problem, ens = _production_setup(horizon=2.0, steps=20, n_paths=100)
        with pytest.raises(ValueError, match="companion column"):
            solve_bsde_lsmc(problem, ens, PROD_BASIS, visitors=(_Column(problem, np.zeros((7, 1))),))

    def test_report_needs_a_solved_companion(self):
        params, problem, ens = _production_setup(horizon=2.0, steps=20, n_paths=100)
        gap = TerminalStabilityGap(problem, PROD_BASIS)
        with pytest.raises(RuntimeError):
            gap.report()

    def test_xi_shape_is_validated(self):
        params, problem, ens = _production_setup(horizon=2.0, steps=20, n_paths=100)
        with pytest.raises(ValueError):
            terminal_stability_gap(problem, ens, PROD_BASIS, np.ones(7))


class TestCompanionCap:
    def test_a_companion_solves_under_its_own_binding_cap(self):
        params, problem, ens = _consumption_setup(n_paths=1000)
        column = _Column(problem, np.zeros((1000, 1)), cap=0.8)
        shared, shared_y = _solve_with_y(problem, ens, CONS_BASIS, visitors=(column,))
        plain, plain_y = _solve_with_y(problem, ens, CONS_BASIS)
        alone, alone_y = _solve_with_y(problem, ens, CONS_BASIS, driver_state_cap=0.8)
        assert float(np.abs(alone_y - plain_y).max()) > 0.0  # the cap binds
        # the costate keeps no cap of the companion's
        assert np.array_equal(shared_y, plain_y)
        assert all(np.array_equal(a, b) for a, b in zip(shared.z_coeffs, plain.z_coeffs))
        seen = column.seen
        assert sorted(seen) == list(range(81))
        for i, (y, z, y_costate, z_costate) in seen.items():
            assert np.array_equal(y, alone_y[:, i, :])
            assert np.array_equal(y_costate, plain_y[:, i, :])
            if i == 80:
                assert z is None and z_costate is None
            else:
                x = ens.states[:, i, :]
                assert np.array_equal(z, alone.z_at(i, x))
                assert np.array_equal(z_costate, plain.z_at(i, x))

    def test_companion_cap_must_be_positive(self):
        params, problem, ens = _consumption_setup(steps=10, n_paths=50)
        column = _Column(problem, np.zeros((50, 1)), cap=0.0)
        with pytest.raises(ValueError, match="driver_state_cap"):
            solve_bsde_lsmc(problem, ens, CONS_BASIS, visitors=(column,))


def _cylinder_two_solve_reference(problem, ens, basis, truncation_m, truncation_p, cylinder):
    """The check as two full solves on a copy of the kept paths: (statistic, z gap, kept)."""
    mask = np.abs(ens.states).max(axis=(1, 2)) < cylinder
    sub = ens.take_paths(mask)
    sol_m, y_m = _solve_with_y(problem, sub, basis, driver_state_cap=truncation_m)
    sol_p, y_p = _solve_with_y(problem, sub, basis, driver_state_cap=truncation_p)
    diff_z = max(
        float(np.abs(sol_m.z_at(i, sub.states[:, i, :]) - sol_p.z_at(i, sub.states[:, i, :])).max())
        for i in range(ens.grid.steps)
    )
    return float(np.abs(y_m - y_p).max()), diff_z, int(mask.sum())


class TestCylinderConsistency:
    def test_agreement_inside_the_cylinder(self):
        params, problem, ens = _consumption_setup(n_paths=1500, seed=7)
        report = cylinder_consistency_check(
            problem, ens, CONS_BASIS, truncation_m=10.0, truncation_p=50.0, cylinder=5.0
        )
        assert report.status == "pass"
        assert report.statistic <= 1e-8
        assert 0 < report.n_samples <= 1500

    def test_empty_cylinder_is_inconclusive(self):
        params, problem, ens = _consumption_setup(steps=20, n_paths=100)
        report = cylinder_consistency_check(
            problem, ens, CONS_BASIS, truncation_m=0.05, truncation_p=0.06, cylinder=0.01
        )
        assert report.status == "inconclusive"
        assert report.n_samples == 0

    def test_cylinder_must_sit_below_truncations(self):
        params, problem, ens = _consumption_setup(steps=20, n_paths=100)
        with pytest.raises(ValueError):
            cylinder_consistency_check(
                problem, ens, CONS_BASIS, truncation_m=2.0, truncation_p=50.0, cylinder=5.0
            )

    # the setup keeps every path inside radius 5 and about 98% inside 1.1
    @pytest.mark.parametrize("cylinder", [5.0, 1.1], ids=["all-kept", "subset"])
    def test_one_two_column_solve_matches_the_two_solve_reference(self, monkeypatch, cylinder):
        from smpsolve.forward import PathEnsemble

        params, problem, ens = _consumption_setup(n_paths=1500, seed=7)
        want_y, want_z, kept = _cylinder_two_solve_reference(
            problem, ens, CONS_BASIS, 10.0, 50.0, cylinder
        )
        assert (kept == 1500) == (cylinder == 5.0) and kept > 0
        copies = []
        take = PathEnsemble.take_paths

        def counting(self, index):
            copies.append(index)
            return take(self, index)

        monkeypatch.setattr(PathEnsemble, "take_paths", counting)
        solved = _record_solves(monkeypatch)
        report = cylinder_consistency_check(
            problem, ens, CONS_BASIS, truncation_m=10.0, truncation_p=50.0, cylinder=cylinder
        )
        assert len(solved) == 1
        assert len(copies) == (0 if kept == 1500 else 1)
        assert report.statistic == want_y
        assert report.details["z_difference"] == want_z
        assert report.details["kept_fraction"] == kept / 1500
        assert report.n_samples == kept

    def test_check_stores_no_costate_table(self):
        import tracemalloc

        from smpsolve.experiments import LogisticParams, logistic_problem

        params = LogisticParams()
        problem = logistic_problem(params)
        grid = TimeGrid.auto(params.beta, 250)
        law = ConstantControl([0.5 * (params.u1 + params.u2)])
        ens = simulate_forward(problem, law, grid, 4000, seed=8)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            report = cylinder_consistency_check(
                problem, ens, RegressionBasis(degree=4), truncation_m=10.0, truncation_p=50.0,
                cylinder=5.0,
            )
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert report.details["kept_fraction"] == 1.0
        one_y = 4000 * (grid.steps + 1) * problem.state_dim * 8
        assert peak <= 0.25 * one_y


class TestVisitors:
    def test_each_node_is_handed_over_once_from_the_horizon_down(self):
        params, problem, ens = _production_setup(horizon=2.0, steps=20, n_paths=300)
        seen = []

        class Record(CostateVisitor):
            def start(self, ensemble):
                seen.append(("start", ensemble))

            def __call__(self, node):
                shapes = [None if a is None else a.shape for a in (node.u, node.z)]
                seen.append((node.i, node.x.shape, node.y.shape, *shapes, node.advance is None))
                assert np.array_equal(node.x, ens.states[:, node.i, :])
                if node.u is not None:
                    assert np.array_equal(node.u, ens.control(node.i))

        solve_bsde_lsmc(problem, ens, PROD_BASIS, visitors=(Record(),))
        assert seen[0] == ("start", ens)
        assert seen[1] == (20, (300, 1), (300, 1), None, None, True)
        assert seen[2:] == [(i, (300, 1), (300, 1), (300, 1), (300, 1, 1), False) for i in range(19, -1, -1)]

    def test_node_means_are_the_tables_means_to_the_bit(self):
        params, problem, ens = _consumption_setup(n_paths=1000)
        sol, Y = _solve_with_y(problem, ens, CONS_BASIS)
        assert np.array_equal(sol.y_means, Y.mean(axis=0))
        assert np.array_equal(sol.y0(), Y[:, 0, :].mean(axis=0))

    def test_a_reused_visitor_holds_its_last_solve(self):
        params, problem, a = _production_setup(horizon=2.0, steps=20, n_paths=300, seed=1)
        _, _, b = _production_setup(horizon=2.0, steps=20, n_paths=300, seed=2)
        table = CostateTable()
        solve_bsde_lsmc(problem, a, PROD_BASIS, visitors=(table,))
        solve_bsde_lsmc(problem, b, PROD_BASIS, visitors=(table,))
        assert np.array_equal(table.Y, _solve_with_y(problem, b, PROD_BASIS)[1])


def _same_bits(a, b) -> bool:
    """Equal to the bit: signed zeros and NaN payloads included."""
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _planar_problem() -> DiscountedProblem:
    """Two states, two noises, state-dependent drift gradient and diffusion."""

    def grad_diffusion(x, u):
        gs = np.zeros(x.shape[:-1] + (2, 2, 2))
        gs[..., 0, 0, 0] = 0.3
        gs[..., 1, 1, 0] = 0.1 * x[..., 1]
        gs[..., 1, 0, 1] = -0.2
        return gs

    coeffs = CoefficientField(
        state_dim=2,
        noise_dim=2,
        control_dim=1,
        drift=lambda x, u: -x + u,
        diffusion=lambda x, u: 0.1 * np.ones(x.shape[:-1] + (2, 2)),
        running_cost=lambda x, u: -(x**2).sum(axis=-1),
        grad_drift=lambda x, u: np.stack([-1.0 - x, 0.5 * x], axis=-1),
        grad_cost=lambda x, u: -2.0 * x,
        grad_diffusion=grad_diffusion,
    )
    return DiscountedProblem(
        coefficients=coeffs,
        domain=ControlDomain([-1.0], [1.0]),
        beta=3.0,
        constants=AssumptionConstants(0.0, 0.0, 0.3, 0.3),
        x0=np.array([0.5, -0.5]),
    )


class TestSharedDriverTerms:
    @pytest.mark.parametrize("setup", ["consumption", "production", "planar"])
    def test_a_backward_step_is_two_driver_calls(self, setup):
        # the step forms the driver's y-free terms once for its predictor and
        # corrector; the reference calls grad_x_hamiltonian for each
        rng = np.random.default_rng(2)
        if setup == "planar":
            problem, basis, P = _planar_problem(), RegressionBasis(degree=2), 500
            x, u = rng.standard_normal((P, 2)), rng.uniform(-1.0, 1.0, (P, 1))
            dW, target = rng.standard_normal((P, 2)) * 0.1, rng.standard_normal((P, 2))
            dt = 0.01
        else:
            _, problem, ens = _consumption_setup() if setup == "consumption" else _production_setup()
            basis = CONS_BASIS if setup == "consumption" else PROD_BASIS
            i = 7
            x, u, dW = ens.states[:, i], ens.control(i), ens.noise.increments[:, i]
            # negative targets: production's zero drift gradient times a
            # negative y is -0.0, which the one-term sum from +0.0 is not
            target, dt = -np.abs(rng.standard_normal((ens.n_paths, 1))), ens.grid.dt
        valid = np.ones(x.shape[0], dtype=bool)
        valid[::50] = False
        design, _ = basis.fit(x, valid=valid)
        fit, _, _ = bsde._least_squares(design, valid)
        y, z, z_coeffs = bsde._backward_step(problem, design, fit, valid, target, x, u, dW, dt)

        n, d = target.shape[1], dW.shape[1]
        y_pred = design @ fit(target)
        resid = np.where(valid[:, None], target - y_pred, 0.0)
        want_z = (design @ fit((resid[:, :, None] * dW[:, None, :]).reshape(-1, n * d) / dt)).reshape(-1, n, d)
        y_half = y_pred + grad_x_hamiltonian(x, u, y_pred, want_z, problem) * dt
        want_y = y_pred + grad_x_hamiltonian(x, u, y_half, want_z, problem) * dt
        assert _same_bits(z, want_z) and _same_bits(y, want_y)
        assert np.array_equal(z_coeffs, fit((resid[:, :, None] * dW[:, None, :]).reshape(-1, n * d) / dt))

    def test_the_scalar_driver_keeps_the_einsum_zeros(self):
        # production's drift gradient is zero: gb * y is -0.0 for y < 0,
        # where the einsum's sum from +0.0 reads +0.0
        problem = production_problem(ProductionPlanningParams())
        x = np.array([[problem.x0[0]], [0.5], [2.0]])
        u, z = np.full((3, 1), 0.3), np.zeros((3, 1, 1))
        y = np.array([[-1.0], [-0.0], [2.0]])
        grad = bsde._driver(problem, x, u, z)
        assert _same_bits(grad(y), grad_x_hamiltonian(x, u, y, z, problem))
