"""Backward solver: regression bases, invariances, diagnostics."""
import math
from itertools import combinations_with_replacement

import numpy as np
import pytest

from smpsolve import bsde
from smpsolve import (
    AdjointFeedbackControl,
    ConstantControl,
    RegressionBasis,
    TimeGrid,
    cylinder_consistency_check,
    martingale_residual_report,
    simulate_forward,
    solve_bsde_lsmc,
    terminal_stability_gap,
)
from smpsolve.problems import (
    AssumptionConstants,
    CoefficientField,
    ControlDomain,
    DiscountedProblem,
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
        sol = solve_bsde_lsmc(problem, ens, RegressionBasis(degree=2))
        assert np.all(sol.Y == 0.0)
        assert np.all(sol.Z == 0.0)

    def test_inactive_truncation_changes_nothing(self):
        params, problem, ens = _consumption_setup(n_paths=1000)
        sup = float(np.abs(ens.states).max())
        plain = solve_bsde_lsmc(problem, ens, CONS_BASIS)
        capped_a = solve_bsde_lsmc(problem, ens, CONS_BASIS, driver_state_cap=2.0 * sup)
        capped_b = solve_bsde_lsmc(problem, ens, CONS_BASIS, driver_state_cap=4.0 * sup)
        assert np.array_equal(capped_a.Y, plain.Y)
        assert np.array_equal(capped_a.Z, plain.Z)
        assert np.array_equal(capped_a.Y, capped_b.Y)

    def test_active_truncation_moves_the_solution(self):
        params, problem, ens = _consumption_setup(n_paths=1000)
        plain = solve_bsde_lsmc(problem, ens, CONS_BASIS)
        tight = solve_bsde_lsmc(problem, ens, CONS_BASIS, driver_state_cap=0.8)
        assert float(np.abs(tight.Y - plain.Y).max()) > 0.0

    def test_truncation_level_must_be_positive(self):
        params, problem, ens = _consumption_setup(steps=10, n_paths=50)
        with pytest.raises(ValueError):
            solve_bsde_lsmc(problem, ens, CONS_BASIS, driver_state_cap=0.0)

    def test_terminal_shape_is_validated(self):
        params, problem, ens = _consumption_setup(steps=10, n_paths=50)
        with pytest.raises(ValueError):
            solve_bsde_lsmc(problem, ens, CONS_BASIS, terminal=np.zeros((7, 1)))


class TestTimeMajorLayout:
    def test_costate_steps_are_contiguous(self):
        params, problem, ens = _consumption_setup(steps=8, n_paths=300)
        sol = solve_bsde_lsmc(problem, ens.take_paths(np.arange(300) < 200), CONS_BASIS)
        for i in range(8):
            assert sol.Y[:, i, :].flags.c_contiguous
            assert sol.Z[:, i].flags.c_contiguous
        assert sol.Y[:, 8, :].flags.c_contiguous


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
        sol = solve_bsde_lsmc(problem, ens, CONS_BASIS)
        step = 10
        x = ens.states[:200, step, :]
        fitted = sol.y_at(step, x)
        realized = sol.Y[:200, step, :]
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

        monkeypatch.setattr(bsde, "cho_factor", counting("cholesky", bsde.cho_factor))
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
            sol = solve_bsde_lsmc(problem, ens, PROD_BASIS)
        assert sol.ridge_steps == list(range(20))
        assert np.isfinite(sol.Y).all()
        fit_error = max(
            float(np.abs(sol.y_at(i, ens.states[:, i, :]) - sol.Y[:, i, :]).max())
            for i in range(grid.steps)
        )
        assert fit_error <= 1e-8


class TestMartingaleResidual:
    def test_clean_problem_passes(self):
        params, problem, ens = _production_setup()
        sol = solve_bsde_lsmc(problem, ens, PROD_BASIS)
        report = martingale_residual_report(problem, ens, sol)
        assert report.status == "pass"
        # the deterministic-terminal step carries no martingale part and is skipped
        assert report.details["steps_tested"] == ens.grid.steps - 1

    def test_max_time_limits_the_window(self):
        params, problem, ens = _production_setup(horizon=4.0, steps=80, n_paths=1000)
        sol = solve_bsde_lsmc(problem, ens, PROD_BASIS)
        report = martingale_residual_report(problem, ens, sol, max_time=2.0)
        assert report.details["steps_tested"] == 40
        assert report.details["worst_step"] < 40


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

    @pytest.mark.parametrize("setup", ["production", "consumption"])
    def test_matches_the_two_solve_reference(self, setup, monkeypatch):
        if setup == "production":
            params, problem, ens = _production_setup(horizon=8.0, steps=80, n_paths=1500)
            basis = PROD_BASIS
        else:
            params, problem, ens = _consumption_setup(horizon=6.0, steps=60, n_paths=1500)
            basis = CONS_BASIS
        xi = ens.states[:, -1, :].copy()
        solved = _record_solves(monkeypatch)
        report = terminal_stability_gap(problem, ens, basis, xi)
        monkeypatch.undo()

        # reference: both terminals solved in full, xi projected as the check does
        design, _ = basis.fit(ens.states[:, -1, :])
        xi_proj = design @ np.linalg.lstsq(design, xi, rcond=None)[0]
        diff = (
            solve_bsde_lsmc(problem, ens, basis).Y
            - solve_bsde_lsmc(problem, ens, basis, terminal=xi_proj).Y
        )
        weighted = np.einsum("pin,pin->pi", diff, diff) * np.exp(-problem.beta * ens.grid.times())
        node_means = weighted.mean(axis=0)
        i_star = int(np.argmax(node_means))
        assert report.details["argmax_node"] == i_star
        assert report.statistic == pytest.approx(node_means[i_star], rel=1e-12)
        se = weighted[:, i_star].std(ddof=1) / math.sqrt(ens.n_paths)
        assert report.standard_error == pytest.approx(se, rel=1e-12)
        # every node, not only the argmax (which sits at the terminal node);
        # the reference loses digits to cancellation where the gap is small
        (single,) = solved
        got = np.einsum("pin,pin->pi", single.Y, single.Y) * np.exp(-problem.beta * ens.grid.times())
        np.testing.assert_allclose(got.mean(axis=0), node_means, rtol=1e-8)

    def test_xi_shape_is_validated(self):
        params, problem, ens = _production_setup(horizon=2.0, steps=20, n_paths=100)
        with pytest.raises(ValueError):
            terminal_stability_gap(problem, ens, PROD_BASIS, np.ones(7))


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
