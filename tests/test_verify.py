"""Optimality certification checks."""
import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from smpsolve import (
    ConstantControl,
    CostEstimate,
    RegressionBasis,
    TimeGrid,
    check_identities,
    check_pointwise_max,
    check_tvc,
    cost_dominance,
    path_costs,
    simulate_forward,
    solve_bsde_lsmc,
)
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

    @pytest.mark.parametrize(
        "name,steps,n_paths", [("production", 400, 500), ("consumption", 200, 500), ("sigma_zero", 20_000, 1)]
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


class TestPointwiseMax:
    def test_optimal_law_has_negligible_gap(self):
        params = ProductionPlanningParams()
        problem = production_problem(params)
        grid = TimeGrid(horizon=12.0, steps=240)
        ens = simulate_forward(problem, production_optimal_law(params), grid, 3000, seed=2)
        sol = solve_bsde_lsmc(problem, ens, PROD_BASIS)
        # sample clear of the terminal layer where the zero-terminal costate
        # departs from the stationary policy
        report = check_pointwise_max(problem, ens, sol, n_points=4000, tol=1e-3, max_time=6.0)
        assert report.status == "pass"
        assert report.statistic <= 1e-3

    def test_far_from_optimal_law_fails(self):
        params = ProductionPlanningParams()
        problem = production_problem(params)
        grid = TimeGrid(horizon=8.0, steps=160)
        ens = simulate_forward(problem, ConstantControl([params.u_high]), grid, 2000, seed=3)
        sol = solve_bsde_lsmc(problem, ens, PROD_BASIS)
        report = check_pointwise_max(problem, ens, sol, n_points=4000, tol=1e-3, max_time=6.0)
        assert report.status == "fail"
        assert report.statistic > 0.01


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
        rival = simulate_forward(
            problem, ConstantControl([params.cap]), grid, ens.n_paths, seed=4, noise=ens.noise
        )
        report = check_tvc(problem, ens, sol, rival)
        assert report.status == "pass"
        assert "route" not in report.details

    def test_implied_route_with_lighter_consumption(self):
        params, problem, grid, ens, sol = self._setup()
        quarter = 0.25 * params.resolved_beta()
        rival = simulate_forward(
            problem, ConstantControl([quarter]), grid, ens.n_paths, seed=4, noise=ens.noise
        )
        report = check_tvc(problem, ens, sol, rival)
        assert report.status == "pass"
        assert report.details.get("route") == "integrability"
        assert report.details["tail_decay_rate"] < 0.0

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_costate_fails(self, bad):
        # the implied-route setup passes on finite arrays; one bad path must fail it
        params, problem, grid, ens, sol = self._setup()
        quarter = 0.25 * params.resolved_beta()
        rival = simulate_forward(
            problem, ConstantControl([quarter]), grid, ens.n_paths, seed=4, noise=ens.noise
        )
        sol.Y[7] = bad
        with np.errstate(invalid="ignore"):
            report = check_tvc(problem, ens, sol, rival)
        assert report.status == "fail"

    def test_peak_memory_is_two_path_arrays(self):
        # the statistic and one temporary of shape (paths, steps) at a time
        n_paths, steps = 4000, 400
        params, problem, grid, ens, sol = self._setup(n_paths=n_paths, steps=steps)
        rival = simulate_forward(
            problem, ConstantControl([params.cap]), grid, n_paths, seed=4, noise=ens.noise
        )
        tracemalloc.start()
        try:
            check_tvc(problem, ens, sol, rival)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * n_paths * steps * 8

    def test_start_node_is_not_in_the_tail(self):
        # both ensembles start at x0, so m(0) = 0 would pass vacuously
        params, problem, grid, ens, sol = self._setup(n_paths=200, horizon=2.0, steps=2)
        rival = simulate_forward(
            problem, ConstantControl([params.cap]), grid, 200, seed=4, noise=ens.noise
        )
        report = check_tvc(problem, ens, sol, rival)
        assert report.details["tail_nodes"] == 1
        assert report.details["best_node"] == 1

    def test_grid_mismatch_rejected(self):
        params, problem, grid, ens, sol = self._setup(n_paths=100, horizon=2.0, steps=20)
        other = simulate_forward(
            problem, ConstantControl([params.cap]), TimeGrid(horizon=2.0, steps=10), 100, seed=4
        )
        with pytest.raises(ValueError):
            check_tvc(problem, ens, sol, other)


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
