"""Built-in models: oracles, registry, pipelines."""
import dataclasses
import json
import math
import tracemalloc

import numpy as np
import pytest

from smpsolve import (
    BlendedControl,
    FeedbackControl,
    NoiseBatch,
    PicardError,
    RegressionBasis,
    TimeGrid,
    VerificationReport,
    comparison_check,
    experiments,
    get_experiment,
    list_experiments,
    logistic_picard_solve,
    register_experiment,
    run_experiment,
    simulate_forward,
)
from smpsolve.experiments import (
    ConsumptionParams,
    ExperimentDefinition,
    LogisticParams,
    ProductionPlanningParams,
    RiccatiOracle,
    certified_consumption_threshold,
    consumption_optimal_law,
    consumption_problem,
    consumption_truncated_costate,
    logistic_region_constants,
    production_sigma_zero_cost,
)
from smpsolve.bsde import BasisTransform, BsdeSolution
from smpsolve.cli import main
from smpsolve.reports import FAIL, PASS


class TestParamsValidation:
    def test_consumption_rejects_bad_bounds(self):
        with pytest.raises(ValueError):
            ConsumptionParams(eps_u=2.0, cap=1.0)
        with pytest.raises(ValueError):
            ConsumptionParams(x0=-1.0)
        with pytest.raises(ValueError):
            ConsumptionParams(beta=0.0)

    def test_consumption_default_beta_sits_above_threshold(self):
        params = ConsumptionParams()
        assert params.resolved_beta() == pytest.approx(2 * 0.05 + 2 * 0.04 + 0.5)
        assert ConsumptionParams(beta=0.9).resolved_beta() == 0.9

    def test_production_rejects_empty_box(self):
        with pytest.raises(ValueError):
            ProductionPlanningParams(u_low=2.0, u_high=1.0)
        with pytest.raises(ValueError):
            ProductionPlanningParams(c=0.0)

    def test_logistic_needs_positive_gamma(self):
        with pytest.raises(ValueError):
            LogisticParams(gamma=0.0)
        with pytest.raises(ValueError):
            LogisticParams(u1=1.0, u2=0.5)


class TestRegistry:
    def test_builtins_present(self):
        names = [d.name for d in list_experiments()]
        assert names == ["consumption", "logistic", "production"]

    def test_get_unknown_raises(self):
        with pytest.raises(KeyError):
            get_experiment("portfolio")

    def test_duplicate_registration_rejected(self):
        existing = get_experiment("consumption")
        with pytest.raises(ValueError):
            register_experiment(existing)

    def test_default_check_outside_the_table_rejected(self, monkeypatch):
        monkeypatch.setattr(experiments, "_REGISTRY", dict(experiments._REGISTRY))
        bad = dataclasses.replace(
            get_experiment("production"), name="bad", default_checks=("assumptions", "uniqueness")
        )
        with pytest.raises(ValueError, match="uniqueness"):
            register_experiment(bad)
        assert "bad" not in experiments._REGISTRY

    def test_unknown_tvc_competitor_rejected(self, monkeypatch):
        monkeypatch.setattr(experiments, "_REGISTRY", dict(experiments._REGISTRY))
        bad = dataclasses.replace(
            get_experiment("production"), name="bad", tvc_competitor="constant_quarter"
        )
        with pytest.raises(ValueError, match="constant_quarter"):
            register_experiment(bad)
        assert "bad" not in experiments._REGISTRY


def steady_state(run):
    """The optimal inventory reverts to the target x1 (u1 = eta makes x1 its mean)."""
    ens = run.ensemble
    gap = abs(float(ens.states[:, -1, 0].mean()) - run.params.x1)
    return [
        VerificationReport(
            check="steady_state",
            status=PASS if gap <= 0.1 else FAIL,
            statistic=gap,
            tolerance=0.1,
            n_samples=ens.n_paths,
        )
    ]


class TestAddingAnExperiment:
    def test_registered_toy_runs_through_the_cli(self, monkeypatch, tmp_path):
        # a copy, so the toy is gone again after the test
        monkeypatch.setattr(experiments, "_REGISTRY", dict(experiments._REGISTRY))
        register_experiment(
            dataclasses.replace(
                get_experiment("production"),
                name="toy",
                summary="production planning with a steady-state check",
                default_checks=("assumptions", "steady_state"),
                checks={"steady_state": steady_state},
            )
        )
        code = main(["run", "-e", "toy", "--paths", "500", "--steps", "100", "--out", str(tmp_path)])
        assert code == 0
        payload = json.loads((tmp_path / "results.json").read_text())
        assert payload["experiment"] == "toy"
        statuses = {r["check"]: r["status"] for r in payload["reports"]}
        assert statuses == {"assumptions": "pass", "steady_state": "pass"}


def _riccati_rk4(params, s, substeps_per_rate):
    """Plain RK4 on the (phi, psi) pair from zero, in time-to-go order,
    with ceil(gap * rate * substeps_per_rate) substeps between the points s."""
    c, h, beta = params.c, params.h, params.beta
    drift, pull = params.u1 - params.eta, 2.0 * h * params.x1
    rate = math.sqrt(c * c * beta * beta + 4.0 * c * h) / c

    def rhs(phi, psi):
        dphi = phi * phi / (2.0 * c) - beta * phi - 2.0 * h
        return dphi, -beta * psi + phi * psi / (2.0 * c) + drift * phi + pull

    out = np.empty((len(s), 2))
    phi = psi = at = 0.0
    for j in np.argsort(s):
        n = max(1, math.ceil(abs(s[j] - at) * rate * substeps_per_rate))
        dt = (s[j] - at) / n
        for _ in range(n):
            k1 = rhs(phi, psi)
            k2 = rhs(phi + 0.5 * dt * k1[0], psi + 0.5 * dt * k1[1])
            k3 = rhs(phi + 0.5 * dt * k2[0], psi + 0.5 * dt * k2[1])
            k4 = rhs(phi + dt * k3[0], psi + dt * k3[1])
            phi += dt / 6.0 * (k1[0] + 2.0 * k2[0] + 2.0 * k3[0] + k4[0])
            psi += dt / 6.0 * (k1[1] + 2.0 * k2[1] + 2.0 * k3[1] + k4[1])
        out[j], at = (phi, psi), s[j]
    return out


def _settling_gaps(oracle):
    """|phi(40/beta) - phi_inf|, |psi(40/beta) - psi_inf|, far past the settling
    time, and the residual of phi_inf in phi^2 - 2 c beta phi - 4 c h = 0."""
    p, phi = oracle.params, oracle.phi_inf
    s = 40.0 / p.beta
    return (
        abs(float(oracle.phi_at(s)) - phi),
        abs(float(oracle.psi_at(s)) - oracle.psi_inf),
        abs(phi * phi - 2.0 * p.c * p.beta * phi - 4.0 * p.c * p.h),
    )


class TestRiccatiOracle:
    def test_frozen_symmetric_constants(self):
        # c = h = beta = 1, u1 = eta, x1 = 1: the quadratic has exact
        # surd-form roots, frozen here independently of the implementation
        params = ProductionPlanningParams(c=1.0, h=1.0, beta=1.0, u1=1.0, eta=1.0, x1=1.0)
        oracle = RiccatiOracle(params)
        assert oracle.phi_inf == pytest.approx(1.0 - math.sqrt(5.0), abs=1e-14)
        assert oracle.psi_inf == pytest.approx(math.sqrt(5.0) - 1.0, abs=1e-14)

    def test_default_constants(self):
        oracle = RiccatiOracle(ProductionPlanningParams())
        assert oracle.phi_inf == pytest.approx(-1.0, abs=1e-14)
        assert oracle.psi_inf == pytest.approx(2.0, abs=1e-14)
        assert oracle.offset == pytest.approx(-2.25, abs=1e-14)

    def test_ode_settles_on_algebraic_limit(self):
        oracle = RiccatiOracle(ProductionPlanningParams())
        phi_gap, psi_gap, residual = _settling_gaps(oracle)
        assert phi_gap <= 1e-6
        assert psi_gap <= 1e-6
        assert residual <= 1e-10
        # time-to-go zero carries the terminal data
        assert float(oracle.phi_at(0.0)) == 0.0
        assert float(oracle.psi_at(0.0)) == 0.0

    @pytest.mark.parametrize(
        "kw",
        [{}, dict(c=0.1, h=2.0, beta=0.2), dict(c=3.0, h=0.1, beta=1.5)],
        ids=["default", "stiff", "flat"],
    )
    def test_pair_matches_a_finer_rk4_at_the_grid_nodes(self, kw):
        params = ProductionPlanningParams(**kw)
        oracle = RiccatiOracle(params)
        grid = TimeGrid.auto(params.beta, 400)
        s = grid.horizon - grid.times()
        reference = _riccati_rk4(params, s, 1000)
        assert np.abs(oracle.phi_at(s) - reference[:, 0]).max() <= 1e-9
        assert np.abs(oracle.psi_at(s) - reference[:, 1]).max() <= 1e-9
        assert float(oracle.phi_at(0.0)) == float(oracle.psi_at(0.0)) == 0.0
        phi_gap, psi_gap, _ = _settling_gaps(oracle)
        assert phi_gap <= 1e-6
        assert psi_gap <= 1e-6

    def test_value_at_default_start(self):
        assert float(RiccatiOracle(ProductionPlanningParams()).value(1.0)) == pytest.approx(-0.75)

    @pytest.mark.parametrize(
        "kw, bound", [({}, 1e-4), (dict(sigma=1.5, h=2.0, beta=0.2), 1e-3)], ids=["default", "stiff"]
    )
    def test_sigma_zero_cost_track(self, kw, bound):
        params = ProductionPlanningParams(**kw)
        value, exact, rel = production_sigma_zero_cost(params)
        assert exact == pytest.approx(float(RiccatiOracle(dataclasses.replace(params, sigma=0.0)).value(params.x0)))
        assert rel == pytest.approx(abs(value - exact) / abs(exact))
        assert rel <= bound

    @staticmethod
    def _oracle(params, gain=1.0, n_paths=2000, steps=200, seed=3):
        definition = get_experiment("production")
        if gain != 1.0:
            oracle = RiccatiOracle(params)
            phi, psi = oracle.phi_inf, oracle.psi_inf
            law = FeedbackControl(lambda t, x: np.clip(
                params.u1 + gain * (phi * x[:, 0] + psi) / (2.0 * params.c), params.u_low, params.u_high
            ))
            definition = dataclasses.replace(
                definition, candidate=lambda run: law
            )
        problem = definition.problem(params)
        grid = TimeGrid.auto(problem.beta, steps)
        run = experiments.ExperimentRun(definition, params, problem, grid, n_paths, seed, definition.basis)
        (report,) = definition.checks["oracle"](run)
        return report

    def test_oracle_is_inconclusive_where_the_box_binds(self):
        # about 9% of the candidate's nodes sit on the box; the Riccati curve
        # (statistic near 0.48 against 0.05) does not apply there
        report = self._oracle(ProductionPlanningParams(c=0.1, x0=-3.0))
        assert report.details["box_share"] > experiments.ORACLE_MAX_BOX_SHARE
        assert report.status == "inconclusive"
        assert report.statistic > report.tolerance

    def test_oracle_passes_the_optimal_candidate_with_the_box_inactive(self):
        report = self._oracle(ProductionPlanningParams())
        assert report.details["box_share"] <= experiments.ORACLE_MAX_BOX_SHARE
        assert report.status == PASS

    def test_oracle_fails_a_wrong_gain_with_the_box_inactive(self):
        report = self._oracle(ProductionPlanningParams(), gain=0.8, n_paths=4000)
        assert report.details["box_share"] <= experiments.ORACLE_MAX_BOX_SHARE
        assert report.status == FAIL

    def test_oracle_check_reduces_one_time_node_at_a_time(self):
        n_paths, steps = 4000, 400
        definition = get_experiment("production")
        params = definition.params_type()
        problem = definition.problem(params)
        grid = TimeGrid.auto(problem.beta, steps)
        run = experiments.ExperimentRun(definition, params, problem, grid, n_paths, 3, definition.basis)
        run.solution  # simulated and solved before tracing starts
        tracemalloc.start()
        try:
            (report,) = definition.checks["oracle"](run)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.status == PASS
        assert peak <= 0.5 * n_paths * (steps + 1) * 8


class TestConsumptionOracles:
    def test_truncated_costate_identity(self):
        params = ConsumptionParams()
        beta = params.resolved_beta()
        t = np.linspace(0.0, 10.0, 7)
        g = consumption_truncated_costate(params, 10.0, t)
        assert np.allclose(g, (1.0 - np.exp(-beta * (10.0 - t))) / beta)
        assert consumption_truncated_costate(params, 10.0, 10.0) == pytest.approx(0.0)

    def test_certified_threshold(self):
        params = ConsumptionParams()
        want = max(2 * 0.05 + 2 * 0.04, 1.0 + 3 * 0.04 - 2 * 0.05)
        assert certified_consumption_threshold(params) == pytest.approx(want)
        assert certified_consumption_threshold(params) == pytest.approx(1.02)


def _integrability(grid=None, n_paths=2000, seed=3, problem=None):
    definition = get_experiment("consumption")
    params = ConsumptionParams()
    problem = definition.problem(params) if problem is None else problem
    grid = TimeGrid.auto(problem.beta, definition.default_steps) if grid is None else grid
    run = experiments.ExperimentRun(definition, params, problem, grid, n_paths, seed, definition.basis)
    (report,) = definition.checks["integrability"](run)
    return report


class TestIntegrability:
    def test_correct_stepper_passes(self):
        report = _integrability()
        assert report.status == PASS
        assert report.n_samples == 2000
        assert report.details["probe_times"] == pytest.approx([0.56, 1.05, 1.54, 2.03, 2.52, 3.01, 3.5, 4.06, 4.55, 5.04])
        assert report.details["clipped_paths"] == report.details["exploded_paths"] == 0

    def test_stepper_without_the_ito_term_fails(self):
        # drift rate + sigma^2/2 drops the -sigma^2/2 of the log step, which
        # moves E[1/X^2] by a factor e^{-sigma^2 t}, about 18% at t = 5
        problem = consumption_problem(ConsumptionParams())
        mult = problem.multiplicative
        mutant = dataclasses.replace(
            mult, linear_rate=lambda u: mult.linear_rate(u) + 0.5 * mult.volatility**2
        )
        report = _integrability(problem=dataclasses.replace(problem, multiplicative=mutant))
        assert report.status == FAIL

    def test_probes_past_the_horizon_are_dropped(self):
        report = _integrability(grid=TimeGrid(horizon=3.0, steps=60), n_paths=3000)
        assert report.details["probe_times"] == pytest.approx([0.5, 1.0, 1.5, 2.0, 2.5, 3.0])
        assert report.n_samples == 3000

    def test_grid_without_a_probe_node_is_inconclusive(self):
        report = _integrability(grid=TimeGrid(horizon=0.4, steps=8))
        assert report.status == "inconclusive"
        assert report.details["probe_times"] == []


class TestLogisticStructure:
    def test_region_constants_closed_form(self):
        params = LogisticParams()
        rc = logistic_region_constants(params)
        assert rc.r == pytest.approx(0.5)
        a, b = params.a, params.b
        want_R = (a + math.sqrt(a * a + 4 * a * b * params.gamma * params.u2)) / (2 * a * b)
        assert rc.R == pytest.approx(want_R)
        assert rc.C >= 0.0

    def test_picard_converges_on_a_small_grid(self):
        result = logistic_picard_solve(
            LogisticParams(), TimeGrid(horizon=2.0, steps=50), n_paths=1500, seed=0
        )
        assert result.converged
        assert result.iterations <= 20
        assert result.residuals[-1] <= 1e-4
        # negative costate pins the harvest at the lower corner
        assert float(result.solution.y0()[0]) < 0.0
        u = result.ensemble.controls
        assert np.allclose(u, LogisticParams().u1)

    def test_picard_stops_at_an_exact_fixed_point(self, monkeypatch):
        solves, simulations = [], []
        solve, simulate = experiments.solve_bsde_lsmc, experiments.simulate_forward

        def spy(*args, **kwargs):
            solves.append(solve(*args, **kwargs))
            return solves[-1]

        def simulate_spy(*args, **kwargs):
            simulations.append(args)
            return simulate(*args, **kwargs)

        monkeypatch.setattr(experiments, "solve_bsde_lsmc", spy)
        monkeypatch.setattr(experiments, "simulate_forward", simulate_spy)
        result = logistic_picard_solve(
            LogisticParams(), TimeGrid(horizon=2.0, steps=50), n_paths=1500, seed=0
        )
        # the last pass repeats the controls of the one before: it neither
        # simulates nor solves
        assert result.converged and result.residuals[-1] == 0.0
        assert len(solves) == len(simulations) == result.iterations
        fresh = solve(result.problem, result.ensemble, RegressionBasis(degree=4))
        assert np.array_equal(result.solution.Y, fresh.Y)
        # the last law, simulated, retraces the returned paths
        again = simulate(result.problem, result.law, result.grid, 1500, 0, noise=result.ensemble.noise)
        assert np.array_equal(again.states, result.ensemble.states)
        assert np.array_equal(again.controls, result.ensemble.controls)

    def test_picard_holds_one_pass_at_a_time(self, monkeypatch):
        import weakref

        passes = []  # weak references to each pass's ensemble and costate
        solve, simulate = experiments.solve_bsde_lsmc, experiments.simulate_forward

        def simulate_spy(*args, **kwargs):
            ens = simulate(*args, **kwargs)
            passes.append([weakref.ref(ens)])
            return ens

        def spy(problem, ens, basis):
            # every earlier pass's paths and costate are gone when a solve
            # starts, released without waiting for the cycle collector
            assert not any(ref() is not None for earlier in passes[:-1] for ref in earlier)
            sol = solve(problem, ens, basis)
            passes[-1].append(weakref.ref(sol))
            return sol

        monkeypatch.setattr(experiments, "solve_bsde_lsmc", spy)
        monkeypatch.setattr(experiments, "simulate_forward", simulate_spy)
        result = logistic_picard_solve(
            LogisticParams(), TimeGrid(horizon=2.0, steps=50), n_paths=1500, seed=0
        )
        assert result.converged and len(passes) == result.iterations >= 2
        assert passes[-1][0]() is result.ensemble and passes[-1][1]() is result.solution

    def test_a_law_that_differs_only_at_the_last_step_is_no_fixed_point(self):
        problem = experiments.logistic_problem(LogisticParams())
        grid = TimeGrid(horizon=2.0, steps=20)
        law = FeedbackControl(lambda t, x: 0.2 + 0.1 * x[:, 0])
        ens = simulate_forward(problem, law, grid, 300, seed=1)
        last = grid.times()[-2]
        shifted = FeedbackControl(lambda t, x: 0.2 + 0.1 * x[:, 0] + (1e-12 if t == last else 0.0))
        assert experiments._applies_same_controls(law, ens)
        assert not experiments._applies_same_controls(shifted, ens)


def _constant_surface(ensemble, value):
    """A stand-in costate: one value at every state and step, as a solution
    whose every step's basis is the constant alone."""
    steps = ensemble.grid.steps
    constant = BasisTransform(shift=np.zeros(1), scale=np.ones(1), degenerate=True)
    return BsdeSolution(
        ensemble=ensemble,
        Y=None,
        basis=RegressionBasis(degree=1),
        transforms=[constant] * steps,
        y_coeffs=[np.array([[value]])] * steps,
        z_coeffs=[np.zeros((1, 1))] * steps,
        condition_numbers=np.ones(steps),
        ridge_steps=[],
    )


class TestPicardSafeguards:
    # surfaces that flip sign with a growing scale: each pass moves the
    # costate further than the one before, and the controls never repeat
    @staticmethod
    def _solve(monkeypatch, values):
        surfaces = iter(values)
        monkeypatch.setattr(
            experiments, "solve_bsde_lsmc", lambda problem, ens, basis: _constant_surface(ens, next(surfaces))
        )
        return logistic_picard_solve(LogisticParams(), TimeGrid(horizon=2.0, steps=10), n_paths=50, seed=0)

    def test_a_residual_rise_blends_the_laws(self, monkeypatch):
        blends = []

        class Blend(BlendedControl):
            def __init__(self, laws, weights):
                super().__init__(laws, weights)
                blends.append(self.weights.tolist())

        monkeypatch.setattr(experiments, "BlendedControl", Blend)
        result = self._solve(monkeypatch, [1.0, -2.0, 3.0, 3.0])
        assert result.residuals == [3.0, 5.0, 0.0]
        assert result.converged and result.iterations == 3
        assert blends == [[0.5, 0.5]]

    def test_three_rises_in_a_row_abort(self, monkeypatch):
        with pytest.raises(PicardError, match=r"3 times in a row: \[3.0, 5.0, 7.0, 9.0\]"):
            self._solve(monkeypatch, [1.0, -2.0, 3.0, -4.0, 5.0])


class TestRunExperiment:
    def test_unknown_check_rejected(self):
        with pytest.raises(ValueError):
            run_experiment("consumption", checks=("assumptions", "volatility_smile"))

    def test_unknown_experiment_rejected(self):
        with pytest.raises(KeyError):
            run_experiment("portfolio")

    def test_problem_level_checks_skip_the_solve(self):
        result = run_experiment("consumption", checks=("assumptions", "identities"))
        assert result.ensemble is None
        assert result.solution is None
        assert {r.check for r in result.reports} == {"assumptions", "identities"}
        assert result.all_passed
        assert "condition_number_max" not in result.scalars

    @staticmethod
    def _count_calls(monkeypatch, *names):
        """Count the calls of each named experiments function; returns {name: [call, ...]}."""
        calls = {}
        for name in names:
            original = getattr(experiments, name)
            calls[name] = []

            def spy(*args, _name=name, _original=original, **kwargs):
                calls[_name].append(args)
                return _original(*args, **kwargs)

            monkeypatch.setattr(experiments, name, spy)
        return calls

    def test_path_checks_simulate_once_and_solve_nothing(self, monkeypatch):
        calls = self._count_calls(monkeypatch, "simulate_forward", "solve_bsde_lsmc")
        run = run_experiment(
            "production", grid=TimeGrid(horizon=8.0, steps=80), n_paths=500, checks=("costs", "positivity")
        )
        assert len(calls["simulate_forward"]) == 1 and calls["solve_bsde_lsmc"] == []
        assert run.ensemble is not None and run.solution is None
        assert "mean_state" in run.curves and "mean_costate" not in run.curves

    def test_picard_check_alone_records_the_loops_paths_and_costate(self):
        run = run_experiment("logistic", grid=TimeGrid(horizon=2.0, steps=20), n_paths=300, checks=("picard",))
        loop = run.candidate
        assert run.ensemble is loop.ensemble and run.solution is loop.solution
        assert run.scalars["y0_estimate"] == float(loop.solution.y0()[0])
        assert np.array_equal(run.curves["mean_costate"], loop.solution.Y[:, :, 0].mean(axis=0))
        assert run.scalars["picard_iterations"] == loop.iterations

    def test_reading_the_paths_after_a_problem_only_run_simulates_nothing(self, monkeypatch):
        calls = self._count_calls(monkeypatch, "simulate_forward", "solve_bsde_lsmc")
        run = run_experiment("consumption", checks=("assumptions",))
        assert run.ensemble is None and run.solution is None
        assert calls == {"simulate_forward": [], "solve_bsde_lsmc": []}

    def test_params_mapping_override(self):
        result = run_experiment(
            "production", params={"beta": 0.7}, checks=("assumptions",)
        )
        assert result.params.beta == 0.7
        assert result.all_passed

    def test_params_type_mismatch_rejected(self):
        with pytest.raises(TypeError):
            run_experiment("production", params=ConsumptionParams())

    def test_small_solve_produces_oracle_report(self):
        result = run_experiment(
            "consumption",
            grid=TimeGrid(horizon=8.0, steps=160),
            n_paths=3000,
            checks=("oracle",),
        )
        assert result.ensemble is not None and result.solution is not None
        report = result.report_by_name("oracle")
        assert report.status == "pass"
        assert "y0_estimate" in result.scalars

    @pytest.mark.parametrize("name", ["consumption", "production", "logistic"])
    def test_solve_conditioning_in_scalars(self, name):
        result = run_experiment(name, grid=TimeGrid(horizon=4.0, steps=40), n_paths=400, checks=["tvc", "costs"])
        conds, scalars = result.solution.condition_numbers, result.scalars
        assert scalars["condition_number_max"] == float(conds.max())
        assert scalars["condition_number_median"] == float(np.median(conds))
        assert 1.0 <= scalars["condition_number_median"] <= scalars["condition_number_max"]
        assert scalars["ridge_steps"] == len(result.solution.ridge_steps)
        # every streamed flow reports its degenerate paths
        rows = result.report_by_name("cost_dominance").details["competitors"]
        for details in [*rows.values(), result.report_by_name("transversality").details]:
            assert details["clipped_paths"] == details["exploded_paths"] == 0

    def test_stability_check_reports_the_gap(self):
        result = run_experiment(
            "production", grid=TimeGrid(horizon=8.0, steps=80), n_paths=500, checks=("stability",)
        )
        report = result.report_by_name("terminal_stability")
        assert report.status == "pass"
        assert 0.0 < report.statistic <= report.tolerance
        assert {"bound", "argmax_node"} <= set(report.details)
        # the interior figures: node 0 and the largest gap before the terminal node
        details = report.details
        assert 0 <= details["interior_argmax_node"] < 80
        assert 0.0 < details["node0_gap"] <= details["interior_gap"] <= report.statistic

    @pytest.mark.parametrize("name", ["consumption", "production"])
    def test_default_run_makes_one_backward_pass(self, monkeypatch, name):
        from smpsolve import bsde

        solves = []
        solve = bsde.solve_bsde_lsmc

        def spy(*args, **kwargs):
            solves.append(kwargs.get("companions", ()))
            return solve(*args, **kwargs)

        monkeypatch.setattr(experiments, "solve_bsde_lsmc", spy)
        monkeypatch.setattr(bsde, "solve_bsde_lsmc", spy)
        result = run_experiment(name, n_paths=2000)
        # stability rides the candidate's solve as its one companion
        assert len(solves) == 1 and len(solves[0]) == 1
        assert result.report_by_name("terminal_stability").status == PASS

    # logistic: the two Picard passes, then the cylinder check's one two-column pass
    @pytest.mark.parametrize("name, passes", [("consumption", 1), ("logistic", 3)])
    def test_default_run_counts_its_backward_passes(self, monkeypatch, name, passes):
        from smpsolve import bsde

        calls = []
        solve = bsde.solve_bsde_lsmc

        def counting(*args, **kwargs):
            calls.append(1)
            return solve(*args, **kwargs)

        monkeypatch.setattr(experiments, "solve_bsde_lsmc", counting)
        monkeypatch.setattr(bsde, "solve_bsde_lsmc", counting)
        run_experiment(name, n_paths=1000)
        assert len(calls) == passes

    def test_stability_of_a_solved_picard_candidate(self):
        # the fixed point's costate exists before the check: its column takes a solve of its own
        result = run_experiment("logistic", n_paths=2000, checks=("stability",))
        report = result.report_by_name("terminal_stability")
        assert report.status == PASS
        assert 0.0 < report.statistic <= report.tolerance

    @pytest.mark.parametrize("name", ["consumption", "production", "logistic"])
    def test_one_step_grid_leaves_tvc_inconclusive(self, name):
        # tvc skips the start and terminal nodes, and a 1-step grid has no other
        result = run_experiment(name, grid=TimeGrid(4.0, 1), n_paths=300, checks=["tvc"])
        assert [r.status for r in result.reports] == ["inconclusive"]

    def test_to_dict_is_json_ready(self):
        import json

        result = run_experiment("logistic", checks=("assumptions", "lyapunov"))
        d = result.to_dict()
        assert json.dumps(d)
        assert d["experiment"] == "logistic"
        assert d["all_passed"] is True
        assert set(d) == {
            "experiment",
            "params",
            "grid",
            "n_paths",
            "seed",
            "basis",
            "scalars",
            "reports",
            "costs",
            "all_passed",
        }


class TestSharedWork:
    """The cost and tvc checks store the candidate's paths alone and step each
    competitor once through a window."""

    @staticmethod
    def _watch(monkeypatch, name="consumption", checks=("tvc", "costs")):
        import weakref

        from smpsolve import forward

        alive, passes = [], []
        simulate, step = experiments.simulate_forward, forward.step_forward

        def simulate_spy(*args, **kwargs):
            ens = simulate(*args, **kwargs)
            alive.append(weakref.ref(ens))
            return ens

        def step_spy(problem, law, grid, noise, states, *args, **kwargs):
            # a streamed flow steps through a window of states shorter than
            # the grid; count the stored ensembles alive meanwhile
            if states.shape[1] < grid.steps + 1:
                passes.append(sum(ref() is not None for ref in alive))
            return step(problem, law, grid, noise, states, *args, **kwargs)

        monkeypatch.setattr(experiments, "simulate_forward", simulate_spy)
        monkeypatch.setattr(forward, "step_forward", step_spy)
        result = run_experiment(name, grid=TimeGrid(horizon=8.0, steps=80), n_paths=500, checks=list(checks))
        return result, alive, passes

    def test_one_path_cost_pass_per_ensemble(self, monkeypatch):
        result, alive, passes = self._watch(monkeypatch)
        competitors = experiments.consumption_competitors(result.params)
        # the candidate is the one stored ensemble; the tvc competitor is
        # stepped once, and costed in that same pass
        assert len(alive) == 1
        assert len(passes) == len(competitors)
        assert set(result.costs) == {"candidate", *competitors}
        assert result.report_by_name("cost_dominance").status == PASS
        assert result.report_by_name("transversality").status == PASS

    @pytest.mark.parametrize("checks", [("tvc", "costs"), ("costs",)], ids=["tvc+costs", "costs"])
    @pytest.mark.parametrize("name", ["consumption", "production", "logistic"])
    def test_at_most_two_ensembles_alive(self, monkeypatch, name, checks):
        result, _, passes = self._watch(monkeypatch, name, checks)
        # only the candidate's ensemble is alive while competitors are stepped,
        # and each competitor is stepped once
        assert passes and max(passes) == 1
        assert len(passes) == len(get_experiment(name).competitors(result.params))


SMALL_GRID = TimeGrid(horizon=2.0, steps=20)
_SHARED_NOISE_GROUPS = {
    "comparison_check": lambda: comparison_check(
        consumption_problem(ConsumptionParams()),
        simulate_forward(
            consumption_problem(ConsumptionParams()), consumption_optimal_law(ConsumptionParams()),
            SMALL_GRID, 200, seed=1,
        ),
    ),
    "logistic_picard_solve": lambda: logistic_picard_solve(
        LogisticParams(), SMALL_GRID, n_paths=300, seed=1
    ),
    **{
        f"run_experiment-{name}": (lambda name=name: run_experiment(
            name, grid=TimeGrid(horizon=8.0, steps=80), n_paths=500, checks=["tvc", "costs"]
        ))
        for name in ("consumption", "production", "logistic")
    },
    "consumption-integrability": lambda: run_experiment(
        "consumption", grid=TimeGrid(horizon=8.0, steps=80), n_paths=500, checks=["integrability"]
    ),
    "production-oracle": lambda: run_experiment(
        "production", grid=TimeGrid(horizon=8.0, steps=80), n_paths=500, checks=["oracle"]
    ),
}


@pytest.mark.parametrize("group", list(_SHARED_NOISE_GROUPS))
def test_noise_is_drawn_once_per_shared_noise_group(monkeypatch, group):
    # a redraw gives the identical batch, so only a count of the draws can see it
    draws = []
    generate = NoiseBatch.generate

    def spy(cls, *args, **kwargs):
        draws.append(args)
        return generate(*args, **kwargs)

    monkeypatch.setattr(NoiseBatch, "generate", classmethod(spy))
    _SHARED_NOISE_GROUPS[group]()
    assert len(draws) == 1


def _calls_in_package(*callees):
    """{(module, enclosing scope)} of every call of a function or method
    named in ``callees`` inside the smpsolve sources, by callee."""
    import ast
    import pathlib

    import smpsolve

    found = {name: set() for name in callees}

    def visit(node, module, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{scope}.{child.name}" if scope else child.name
            if isinstance(child, ast.Call):
                func = child.func
                name = getattr(func, "id", None) or getattr(func, "attr", None)
                if name in found:
                    found[name].add((module, scope))
            visit(child, module, inner)

    for path in sorted(pathlib.Path(smpsolve.__file__).parent.glob("*.py")):
        visit(ast.parse(path.read_text()), path.stem, "")
    return found


def test_only_the_candidate_flows_draw_noise():
    # every other flow rides the noise of an ensemble it is handed
    calls = _calls_in_package("generate", "simulate_forward")
    assert calls["generate"] == {("forward", "simulate_forward")}
    assert calls["simulate_forward"] == {
        ("experiments", "ExperimentRun.ensemble"),
        ("experiments", "logistic_picard_solve"),
    }
