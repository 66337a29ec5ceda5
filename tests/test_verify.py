"""Optimality certification checks."""
import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from smpsolve import (
    ConstantControl,
    CostEstimate,
    PathCostSum,
    RegressionBasis,
    SimulationError,
    TimeGrid,
    check_identities,
    check_pointwise_max,
    check_tvc,
    cost_dominance,
    get_experiment,
    path_costs,
    simulate_forward,
    solve_bsde_lsmc,
    stream_competitor,
)
from smpsolve.problems import (
    AssumptionConstants,
    CoefficientField,
    ControlDomain,
    DiscountedProblem,
    StateRegion,
)
from smpsolve.forward import PATH_COST_BLOCK, degenerate_paths
from smpsolve.experiments import (
    ConsumptionParams,
    LogisticParams,
    ProductionPlanningParams,
    consumption_competitors,
    consumption_optimal_law,
    consumption_problem,
    consumption_sample_spec,
    logistic_problem,
    logistic_sample_spec,
    production_optimal_law,
    production_problem,
    production_sample_spec,
)
from smpsolve.reports import INCONCLUSIVE

CONS_BASIS = RegressionBasis(degree=4, reciprocal=True)
PROD_BASIS = RegressionBasis(degree=4)


class TestPathCosts:
    def test_deterministic_cost_matches_quadrature(self):
        # sigma = 0 and u = eta freeze the state, so the integrand is constant
        params = ProductionPlanningParams(sigma=0.0)
        problem = production_problem(params)
        grid = TimeGrid(horizon=10.0, steps=2000)
        ens = simulate_forward(problem, ConstantControl([params.eta]), grid, 2, seed=0)
        j = path_costs(problem, ens)
        rate = -params.h * (params.x0 - params.x1) ** 2
        want = rate * (1.0 - math.exp(-params.beta * 10.0)) / params.beta
        assert j == pytest.approx(want, rel=1e-5)

    def test_mc_estimate_summarizes_paths(self):
        params = ConsumptionParams()
        problem = consumption_problem(params)
        grid = TimeGrid(horizon=2.0, steps=40)
        ens = simulate_forward(problem, consumption_optimal_law(params), grid, 300, seed=1)
        j = path_costs(problem, ens)
        est = CostEstimate.from_path_costs(j, grid.horizon, label="candidate")
        assert est.value == pytest.approx(float(j.mean()))
        assert est.standard_error == pytest.approx(float(j.std(ddof=1) / math.sqrt(300)))
        assert est.n_paths == 300
        assert est.label == "candidate"

    # 70,000 paths make every block a single step; the 1-path grid is one block
    @pytest.mark.parametrize(
        "name,steps,n_paths",
        [
            ("production", 400, 500),
            ("consumption", 200, 500),
            ("sigma_zero", 20_000, 1),
            ("production", 5, 70_000),
        ],
    )
    def test_matches_the_trapezoid_over_a_full_control_table(self, name, steps, n_paths):
        if name == "consumption":
            params = ConsumptionParams()
            problem, law = consumption_problem(params), consumption_optimal_law(params)
        else:
            params = ProductionPlanningParams(sigma=0.0) if name == "sigma_zero" else ProductionPlanningParams()
            problem, law = production_problem(params), production_optimal_law(params)
        ens = simulate_forward(problem, law, TimeGrid.auto(problem.beta, steps), n_paths, seed=3)
        # reference: the terminal node reuses the last control, integrated by np.trapezoid
        t = ens.grid.times()
        u_full = np.concatenate([ens.controls, ens.controls[:, -1:, :]], axis=1)
        f = problem.coefficients.running_cost(ens.states, u_full)
        want = np.trapezoid(f * np.exp(-problem.beta * t), t, axis=-1)
        np.testing.assert_allclose(path_costs(problem, ens), want, rtol=1e-12)

    def test_path_costs_peak_memory_is_block_sized(self):
        # the running cost is evaluated on step blocks, never on the whole (P, N) table
        n_paths, steps = 4000, 400
        params = ProductionPlanningParams()
        problem = production_problem(params)
        grid = TimeGrid.auto(problem.beta, steps)
        ens = simulate_forward(problem, production_optimal_law(params), grid, n_paths, seed=3)
        tracemalloc.start()
        try:
            path_costs(problem, ens)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.25 * n_paths * steps * 8


# (paths, grid): whole windows of 4 steps; windows of 6 steps that leave 5
# for the last of 23; a single step
STREAM_GRIDS = {
    "whole_windows": (4096, TimeGrid(horizon=2.0, steps=20)),
    "ragged_window": (3000, TimeGrid(horizon=2.3, steps=23)),
    "one_step": (500, TimeGrid(horizon=0.5, steps=1)),
}


def _streamed_setup(name, grid_name):
    n_paths, grid = STREAM_GRIDS[grid_name]
    definition = get_experiment(name)
    params = definition.params_type()
    problem = definition.problem(params)
    competitors = definition.competitors(params)
    cand = simulate_forward(problem, next(iter(competitors.values())), grid, n_paths, seed=7)
    return definition, problem, competitors, cand


class TestStreamedCompetitors:
    def test_window_sizes(self):
        assert [-(-PATH_COST_BLOCK // p) for p, _ in STREAM_GRIDS.values()] == [4, 6, 33]

    @pytest.mark.parametrize("grid_name", list(STREAM_GRIDS))
    @pytest.mark.parametrize("name", ["consumption", "production", "logistic"])
    def test_costs_match_the_stored_ensemble_bit_for_bit(self, name, grid_name):
        _, problem, competitors, cand = _streamed_setup(name, grid_name)
        grid, n_paths = cand.grid, cand.n_paths
        for law_name, law in competitors.items():
            stored = simulate_forward(problem, law, grid, n_paths, seed=7, noise=cand.noise)
            costing = PathCostSum(problem, grid)
            stream_competitor(problem, cand, law, costing)
            np.testing.assert_array_equal(costing.total, path_costs(problem, stored), err_msg=law_name)

    @pytest.mark.parametrize("grid_name", ["whole_windows", "ragged_window"])
    @pytest.mark.parametrize("name", ["consumption", "production", "logistic"])
    def test_tvc_matches_a_stored_competitor(self, name, grid_name):
        definition, problem, competitors, cand = _streamed_setup(name, grid_name)
        grid, n_paths = cand.grid, cand.n_paths
        sol = solve_bsde_lsmc(problem, cand, definition.basis)
        law = competitors[definition.tvc_competitor]
        report = check_tvc(problem, sol, law)

        # m(t) and its SE from the stored competitor, over nodes 0..N-1
        rival = simulate_forward(problem, law, grid, n_paths, seed=7, noise=cand.noise)
        weighted = np.einsum("pin,pin->pi", sol.Y[:, :-1], rival.states[:, :-1] - cand.states[:, :-1])
        weighted *= np.exp(-problem.beta * grid.times()[:-1])
        m = weighted.mean(axis=0)
        se = weighted.std(axis=0, ddof=1) / math.sqrt(n_paths)
        n_tail = report.details["tail_nodes"]
        score = m[-n_tail:] - 3.0 * se[-n_tail:]

        def close(got, want, scale):
            assert abs(got - want) <= 1e-12 * scale

        best = int(np.argmin(score)) + m.size - n_tail
        close(report.details["last_node_m"], m[-1], abs(m[-1]))
        close(report.details["last_node_se"], se[-1], se[-1])
        close(report.details["best_margin"], score.min(), np.abs(m[-n_tail:]).max() + 3.0 * se.max())
        assert report.details["best_node"] == best
        if report.details["route"] == "direct":
            close(report.statistic, m[best], abs(m[best]))
            close(report.standard_error, se[best], se[best])
            close(report.tolerance, 3.0 * se[best], se[best])
        else:
            assert report.statistic == report.details["tail_decay_rate"]
            assert report.tolerance == 0.0 and report.standard_error is None

    def test_peak_memory_is_window_sized(self):
        # one competitor costed through a window: no (P, N) table of it
        n_paths, steps = 4000, 400
        params = ProductionPlanningParams()
        problem = production_problem(params)
        grid = TimeGrid.auto(problem.beta, steps)
        cand = simulate_forward(problem, production_optimal_law(params), grid, n_paths, seed=3)
        law = ConstantControl([params.u_high])
        tracemalloc.start()
        try:
            stream_competitor(problem, cand, law, PathCostSum(problem, grid))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.1 * n_paths * steps * 8

    def test_clipped_competitor_is_counted(self):
        # x' = -u on the half-line: the candidate u = 0 stays at 0.5, the
        # competitor u = 1 reaches the floor at t = 0.5 on every path
        coeffs = CoefficientField(
            state_dim=1,
            noise_dim=1,
            control_dim=1,
            drift=lambda x, u: -u,
            diffusion=lambda x, u: np.zeros(x.shape[:-1] + (1, 1)),
            running_cost=lambda x, u: x[..., 0],
            grad_drift=lambda x, u: np.zeros(x.shape[:-1] + (1, 1)),
            grad_cost=lambda x, u: np.ones_like(x),
        )
        problem = DiscountedProblem(
            coefficients=coeffs,
            domain=ControlDomain([0.0], [1.0]),
            beta=1.0,
            constants=AssumptionConstants(0.0, 0.0, 0.0, 0.0),
            x0=np.array([0.5]),
            state_region=StateRegion.POSITIVE_HALF_LINE,
        )
        grid = TimeGrid(horizon=1.0, steps=20)
        cand = simulate_forward(problem, ConstantControl([0.0]), grid, 8, seed=0)
        costing = PathCostSum(problem, grid)
        flags = stream_competitor(problem, cand, ConstantControl([1.0]), costing)
        counts = degenerate_paths(flags)
        assert counts == {"clipped_paths": 8, "exploded_paths": 0}
        report = cost_dominance(path_costs(problem, cand), {"dive": costing.total}, {"dive": counts})
        assert report.details["competitors"]["dive"]["clipped_paths"] == 8
        sol = solve_bsde_lsmc(problem, cand, RegressionBasis(degree=1))
        tvc = check_tvc(problem, sol, ConstantControl([1.0]))
        assert tvc.details["clipped_paths"] == 8

    def test_exploding_competitor_raises_like_simulate_forward(self):
        # x' = 3 x u: the candidate u = 0 stays at 1, the competitor u = 1
        # reaches 1.24^100 ~ 2e9, past the explosion guard
        coeffs = CoefficientField(
            state_dim=1,
            noise_dim=1,
            control_dim=1,
            drift=lambda x, u: 3.0 * x * u,
            diffusion=lambda x, u: np.zeros(x.shape[:-1] + (1, 1)),
            running_cost=lambda x, u: x[..., 0],
            grad_drift=lambda x, u: 3.0 * u[..., None],
            grad_cost=lambda x, u: np.ones_like(x),
        )
        problem = DiscountedProblem(
            coefficients=coeffs,
            domain=ControlDomain([0.0], [1.0]),
            beta=1.0,
            constants=AssumptionConstants(3.0, 3.0, 0.0, 0.0),
            x0=np.array([1.0]),
        )
        grid = TimeGrid(horizon=8.0, steps=100)
        cand = simulate_forward(problem, ConstantControl([0.0]), grid, 8, seed=0)
        with pytest.raises(SimulationError) as stored:
            simulate_forward(problem, ConstantControl([1.0]), grid, 8, seed=0, noise=cand.noise)
        with pytest.raises(SimulationError) as streamed:
            stream_competitor(problem, cand, ConstantControl([1.0]), PathCostSum(problem, grid))
        assert str(streamed.value) == str(stored.value)


class TestPointwiseMax:
    def test_optimal_law_has_negligible_gap(self):
        params = ProductionPlanningParams()
        problem = production_problem(params)
        grid = TimeGrid(horizon=12.0, steps=240)
        ens = simulate_forward(problem, production_optimal_law(params), grid, 3000, seed=2)
        sol = solve_bsde_lsmc(problem, ens, PROD_BASIS)
        # sample clear of the terminal layer where the zero-terminal costate
        # departs from the stationary policy
        report = check_pointwise_max(problem, sol, n_points=4000, tol=1e-3, max_time=6.0)
        assert report.status == "pass"
        assert report.statistic <= 1e-3

    def test_far_from_optimal_law_fails(self):
        params = ProductionPlanningParams()
        problem = production_problem(params)
        grid = TimeGrid(horizon=8.0, steps=160)
        ens = simulate_forward(problem, ConstantControl([params.u_high]), grid, 2000, seed=3)
        sol = solve_bsde_lsmc(problem, ens, PROD_BASIS)
        report = check_pointwise_max(problem, sol, n_points=4000, tol=1e-3, max_time=6.0)
        assert report.status == "fail"
        assert report.statistic > 0.01


    # y/(2c) scaled: the stated maximizer falls short of the maximum, and
    # clamping its negative gaps to zero would let the wrong law pass
    @pytest.mark.parametrize("scale", [2.0, 0.5])
    def test_wrong_maximizer_is_inconclusive(self, scale):
        params = ProductionPlanningParams()
        problem = production_problem(params)
        grid = TimeGrid(horizon=8.0, steps=160)
        ens = simulate_forward(problem, production_optimal_law(params), grid, 2000, seed=3)
        sol = solve_bsde_lsmc(problem, ens, PROD_BASIS)
        wrong = dataclasses.replace(
            problem, stationary_control=lambda x, y, z: params.u1 + scale * y[..., 0:1] / (2.0 * params.c)
        )
        report = check_pointwise_max(wrong, sol, n_points=4000, tol=1e-3, max_time=6.0)
        assert report.details["maximizer_gap_bound"] < -1e-3
        assert report.status == INCONCLUSIVE


class TestTransversality:
    def _setup(self, n_paths=2000, horizon=8.0, steps=160):
        params = ConsumptionParams()
        problem = consumption_problem(params)
        grid = TimeGrid(horizon=horizon, steps=steps)
        ens = simulate_forward(problem, consumption_optimal_law(params), grid, n_paths, seed=4)
        sol = solve_bsde_lsmc(problem, ens, CONS_BASIS)
        return params, problem, grid, ens, sol

    def test_direct_route_with_heavier_consumption(self):
        params, problem, grid, ens, sol = self._setup()
        report = check_tvc(problem, sol, ConstantControl([params.cap]))
        assert report.status == "pass"
        assert report.details["route"] == "direct"
        # the verdict is read at the best tail node, whatever node N-1 shows
        assert report.statistic <= report.tolerance
        assert report.statistic - report.tolerance == report.details["best_margin"]

    def test_implied_route_with_lighter_consumption(self):
        params, problem, grid, ens, sol = self._setup()
        quarter = 0.25 * params.resolved_beta()
        report = check_tvc(problem, sol, ConstantControl([quarter]))
        assert report.status == "pass"
        assert report.details.get("route") == "integrability"
        assert report.details["tail_decay_rate"] < 0.0
        # the implied route decides on the decay rate, against 0
        assert report.statistic == report.details["tail_decay_rate"]
        assert report.tolerance == 0.0

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_costate_fails(self, bad):
        # the implied-route setup passes on finite arrays; one bad path must fail it
        params, problem, grid, ens, sol = self._setup()
        quarter = 0.25 * params.resolved_beta()
        sol.Y[7] = bad
        with np.errstate(invalid="ignore"):
            report = check_tvc(problem, sol, ConstantControl([quarter]))
        assert report.status == "fail"

    def test_peak_memory_is_two_path_arrays(self):
        # the competitor is stepped through a window and m(t) gathered per window
        n_paths, steps = 4000, 400
        params, problem, grid, ens, sol = self._setup(n_paths=n_paths, steps=steps)
        tracemalloc.start()
        try:
            check_tvc(problem, sol, ConstantControl([params.cap]))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * n_paths * steps * 8

    def test_start_node_is_not_in_the_tail(self):
        # both ensembles start at x0, so m(0) = 0 would pass vacuously
        params, problem, grid, ens, sol = self._setup(n_paths=200, horizon=2.0, steps=2)
        report = check_tvc(problem, sol, ConstantControl([params.cap]))
        assert report.details["tail_nodes"] == 1
        assert report.details["best_node"] == 1

    def test_deterministic_node_reports_zero_se(self):
        # constant-rate consumption keeps X'/X deterministic and the
        # reciprocal basis fits Y = g(t)/X, so the per-path values agree to
        # roundoff: SE 0, and the positive tail passes by the implied route
        params, problem, grid, ens, sol = self._setup()
        report = check_tvc(problem, sol, ConstantControl([0.25 * params.resolved_beta()]))
        assert report.details["last_node_se"] == 0.0
        assert report.details["last_node_m"] > 0.0
        assert report.details["best_margin"] > 0.0
        assert report.status == "pass"
        assert report.details["route"] == "integrability"


class TestCostComparison:
    def test_optimal_candidate_dominates(self):
        params = ConsumptionParams()
        problem = consumption_problem(params)
        grid = TimeGrid(horizon=8.0, steps=160)
        cand = simulate_forward(problem, consumption_optimal_law(params), grid, 3000, seed=5)
        rivals = {
            name: simulate_forward(problem, law, grid, 3000, seed=5, noise=cand.noise)
            for name, law in consumption_competitors(params).items()
        }
        report = cost_dominance(
            path_costs(problem, cand), {name: path_costs(problem, ens) for name, ens in rivals.items()}
        )
        assert report.status == "pass"
        assert len(report.details["competitors"]) >= 7
        for row in report.details["competitors"].values():
            assert row["dominated"]
            assert row["mean_gain"] >= -2.0 * row["standard_error"]

    def test_beaten_candidate_fails(self):
        params = ConsumptionParams()
        problem = consumption_problem(params)
        grid = TimeGrid(horizon=8.0, steps=160)
        cand = simulate_forward(problem, ConstantControl([0.05]), grid, 2000, seed=6)
        rival = simulate_forward(
            problem, consumption_optimal_law(params), grid, 2000, seed=6, noise=cand.noise
        )
        report = cost_dominance(path_costs(problem, cand), {"optimal": path_costs(problem, rival)})
        assert report.status == "fail"
        assert not report.details["competitors"]["optimal"]["dominated"]

    def test_path_count_mismatch_rejected(self):
        params = ConsumptionParams()
        problem = consumption_problem(params)
        grid = TimeGrid(horizon=1.0, steps=10)
        cand = simulate_forward(problem, consumption_optimal_law(params), grid, 50, seed=0)
        rival = simulate_forward(problem, consumption_optimal_law(params), grid, 40, seed=0)
        with pytest.raises(ValueError):
            cost_dominance(path_costs(problem, cand), {"short": path_costs(problem, rival)})

    def test_constant_rate_competitors_are_deterministic(self):
        # log-wealth differences between constant-rate consumers do not depend
        # on the noise, so only roundoff is left of their per-path spread
        params = ConsumptionParams()
        problem = consumption_problem(params)
        grid = TimeGrid(horizon=8.0, steps=160)
        cand = simulate_forward(problem, consumption_optimal_law(params), grid, 2000, seed=5)
        competitors = consumption_competitors(params)
        costs = {
            name: path_costs(problem, simulate_forward(problem, law, grid, 2000, seed=5, noise=cand.noise))
            for name, law in competitors.items()
        }
        rows = cost_dominance(path_costs(problem, cand), costs).details["competitors"]
        deterministic = {name for name, row in rows.items() if row["deterministic"]}
        assert {name for name in competitors if name.startswith("constant_")} <= deterministic
        assert "proportional_state" not in deterministic
        for name, row in rows.items():
            assert (row["standard_error"] == 0.0) == (name in deterministic)
        assert rows["proportional_state"]["standard_error"] > 1e-6

    def test_deterministic_loss_fails_on_its_sign(self):
        # a constant per-path gap of -1e-9 is below any multiple of its roundoff SE
        rng = np.random.default_rng(0)
        cand = rng.normal(-1.0, 0.1, 500)
        report = cost_dominance(cand, {"better": cand + 1e-9, "same": cand.copy()})
        rows = report.details["competitors"]
        assert rows["better"]["deterministic"] and rows["same"]["deterministic"]
        assert rows["better"]["standard_error"] == 0.0
        assert not rows["better"]["dominated"]
        assert rows["same"]["dominated"]
        assert report.status == "fail"

    def test_no_competitors_is_inconclusive(self):
        report = cost_dominance(np.zeros(5), {})
        assert report.status == INCONCLUSIVE
        assert report.statistic is None


_IDENTITY_CASES = {
    "consumption": (consumption_problem(ConsumptionParams()), consumption_sample_spec(ConsumptionParams())),
    "production": (production_problem(ProductionPlanningParams()), production_sample_spec(ProductionPlanningParams())),
    "logistic": (logistic_problem(LogisticParams()), logistic_sample_spec(LogisticParams())),
}


class TestIdentities:
    @pytest.mark.parametrize("name", list(_IDENTITY_CASES))
    def test_examples_pass(self, name):
        problem, spec = _IDENTITY_CASES[name]
        report = check_identities(problem, spec)
        assert report.status == "pass"
        assert report.tolerance == 1e-6
        assert report.statistic <= 1e-6
        # the stepper's multiplicative split restates the drift and diffusion
        assert ("split_gap" in report.details) == (problem.multiplicative is not None)
        assert report.details.get("split_gap", 0.0) <= 1e-15

    # every gradient field that is not identically zero, scaled by 1.01
    @pytest.mark.parametrize(
        "name,field",
        [
            ("consumption", "grad_drift"),
            ("consumption", "grad_cost"),
            ("consumption", "grad_diffusion"),
            ("production", "grad_cost"),
            ("logistic", "grad_drift"),
            ("logistic", "grad_cost"),
            ("logistic", "grad_diffusion"),
        ],
        ids=lambda v: v,
    )
    def test_wrong_gradient_is_caught(self, name, field):
        problem, spec = _IDENTITY_CASES[name]
        right = getattr(problem.coefficients, field)
        wrong = dataclasses.replace(problem.coefficients, **{field: lambda x, u: 1.01 * right(x, u)})
        report = check_identities(dataclasses.replace(problem, coefficients=wrong), spec)
        assert report.status == "fail"
        assert report.statistic > 1e-6

    def test_wrong_multiplicative_residual_is_caught(self):
        problem, spec = _IDENTITY_CASES["logistic"]
        mult = problem.multiplicative
        wrong = dataclasses.replace(mult, residual=lambda x, u: 1.01 * mult.residual(x, u))
        report = check_identities(dataclasses.replace(problem, multiplicative=wrong), spec)
        assert report.status == "fail"
        assert report.details["split_gap"] > 1e-6

    def test_stepper_without_the_ito_term_is_caught(self):
        # the integrability test's mutant: a rate that restores the -sigma^2/2
        # of the log step no longer matches the drift
        problem, spec = _IDENTITY_CASES["consumption"]
        mult = problem.multiplicative
        wrong = dataclasses.replace(
            mult, linear_rate=lambda u: mult.linear_rate(u) + 0.5 * mult.volatility**2
        )
        report = check_identities(dataclasses.replace(problem, multiplicative=wrong), spec)
        assert report.status == "fail"
        assert report.details["split_gap"] > 1e-6
