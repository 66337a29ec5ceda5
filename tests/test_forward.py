"""Forward simulation: grids, noise, control laws, path checks."""
import math

import numpy as np
import pytest

from smpsolve import (
    BlendedControl,
    ConstantControl,
    FeedbackControl,
    NoiseBatch,
    OpenLoopControl,
    SimulationError,
    TimeGrid,
    apriori_gap_check,
    comparison_check,
    get_experiment,
    lyapunov_generator_check,
    positivity_check,
    simulate_forward,
)
from smpsolve.forward import EXPLOSION_GUARD, POSITIVITY_FLOOR, RegionConstants
from smpsolve.problems import (
    AssumptionConstants,
    CoefficientField,
    ControlDomain,
    DiscountedProblem,
    StateRegion,
)
from smpsolve.experiments import (
    ConsumptionParams,
    LogisticParams,
    ProductionPlanningParams,
    consumption_optimal_law,
    consumption_problem,
    logistic_problem,
    logistic_region_constants,
    logistic_sample_spec,
    production_problem,
)


def _halfline_problem(drift_value: float) -> DiscountedProblem:
    """Scalar positive-state problem with constant drift and no noise."""
    coeffs = CoefficientField(
        state_dim=1,
        noise_dim=1,
        control_dim=1,
        drift=lambda x, u: np.full_like(x, drift_value),
        diffusion=lambda x, u: np.zeros(x.shape[:-1] + (1, 1)),
        running_cost=lambda x, u: np.zeros(x.shape[:-1]),
        grad_drift=lambda x, u: np.zeros(x.shape[:-1] + (1, 1)),
        grad_cost=lambda x, u: np.zeros_like(x),
    )
    return DiscountedProblem(
        coefficients=coeffs,
        domain=ControlDomain([0.0], [1.0]),
        beta=1.0,
        constants=AssumptionConstants(0.0, 0.0, 0.0, 0.0),
        x0=np.array([0.2]),
        state_region=StateRegion.POSITIVE_HALF_LINE,
    )


class TestTimeGrid:
    def test_auto_horizon_covers_discount_tail(self):
        grid = TimeGrid.auto(beta=0.68, steps=200)
        assert grid.horizon == float(math.ceil(math.log(1e4) / 0.68))
        assert math.exp(-0.68 * grid.horizon) <= 1e-4

    def test_times_hit_endpoints_exactly(self):
        grid = TimeGrid(horizon=7.0, steps=140)
        t = grid.times()
        assert t.shape == (141,)
        assert t[0] == 0.0 and t[-1] == 7.0
        assert grid.dt == pytest.approx(0.05)

    def test_step_at_recovers_every_node_index(self):
        grids = [
            TimeGrid.auto(d.problem(d.params_type()).beta, d.default_steps)
            for d in map(get_experiment, ("consumption", "production", "logistic"))
        ]
        # the two horizons of the stability-decay acceptance criterion
        grids += [TimeGrid(math.log(1e2) / 0.5, 184), TimeGrid(math.log(1e3) / 0.5, 276)]
        for grid in grids:
            times = grid.times()
            assert [grid.step_at(t) for t in times[:-1]] == list(range(grid.steps))

    def test_step_at_rejects_times_off_the_grid(self):
        grid = TimeGrid(horizon=4.0, steps=20)
        for t in (grid.horizon, 9.0, -1e-12):
            with pytest.raises(ValueError):
                grid.step_at(t)

    def test_validation(self):
        with pytest.raises(ValueError):
            TimeGrid(horizon=-1.0, steps=10)
        with pytest.raises(ValueError):
            TimeGrid(horizon=1.0, steps=0)
        with pytest.raises(ValueError):
            TimeGrid.auto(beta=0.0, steps=10)


class TestNoiseBatch:
    def test_deterministic_by_seed(self):
        a = NoiseBatch.generate(7, 16, 10, 1, 0.1)
        b = NoiseBatch.generate(7, 16, 10, 1, 0.1)
        assert np.array_equal(a.increments, b.increments)
        c = NoiseBatch.generate(8, 16, 10, 1, 0.1)
        assert not np.array_equal(a.increments, c.increments)

    def test_paths_are_keyed_individually(self):
        # enlarging the batch must not change existing paths (common random numbers)
        small = NoiseBatch.generate(3, 10, 12, 1, 0.05)
        big = NoiseBatch.generate(3, 25, 12, 1, 0.05)
        assert np.array_equal(big.increments[:10], small.increments)

    def test_increment_scale(self):
        batch = NoiseBatch.generate(11, 200, 50, 1, 0.04)
        scaled = batch.increments / math.sqrt(0.04)
        assert abs(scaled.std() - 1.0) < 0.02

    def test_matches_a_fresh_generator_per_path(self):
        # 300 paths span two draw blocks
        batch = NoiseBatch.generate(5, 300, 9, 2, 0.25)
        for p in range(300):
            gen = np.random.Generator(np.random.Philox(key=[5, p]))
            expected = (gen.standard_normal(9 * 2) * math.sqrt(0.25)).reshape(9, 2)
            assert np.array_equal(batch.increments[p], expected)


class TestTimeMajorLayout:
    """Every per-step slice ``a[:, i]`` is one contiguous block."""

    @staticmethod
    def _assert_steps_contiguous(a):
        for i in range(a.shape[1]):
            assert a[:, i].flags.c_contiguous

    def test_ensemble_and_noise(self):
        problem = consumption_problem(ConsumptionParams())
        grid = TimeGrid(horizon=1.0, steps=6)
        ens = simulate_forward(problem, ConstantControl([0.3]), grid, 40, seed=2)
        sub = ens.take_paths(np.arange(40) % 3 == 0)
        for e in (ens, sub):
            self._assert_steps_contiguous(e.states)
            self._assert_steps_contiguous(e.controls)
            self._assert_steps_contiguous(e.noise.increments)
        assert np.array_equal(sub.states, ens.states[::3])
        assert np.array_equal(sub.noise.increments, ens.noise.increments[::3])
        self._assert_steps_contiguous(NoiseBatch.generate(1, 30, 5, 2, 0.1).increments)


class TestControlLaws:
    def test_constant_broadcasts(self):
        law = ConstantControl([0.3, 0.7])
        u = law.control_at(0.0, np.zeros((5, 1)))
        assert u.shape == (5, 2)
        assert np.all(u == [0.3, 0.7])

    def test_open_loop_indexes_steps(self):
        table = np.arange(24, dtype=float).reshape(4, 6, 1)
        grid = TimeGrid(horizon=3.0, steps=6)
        law = OpenLoopControl(table, grid)
        u = law.control_at(grid.times()[2], np.zeros((4, 1)))
        assert np.array_equal(u, table[:, 2, :])

    def test_open_loop_rejects_a_table_of_another_grid(self):
        table = np.zeros((4, 6, 1))
        with pytest.raises(ValueError):
            OpenLoopControl(table, TimeGrid(horizon=3.0, steps=12))
        law = OpenLoopControl(table, TimeGrid(horizon=3.0, steps=6))
        with pytest.raises(ValueError):
            law.control_at(3.0, np.zeros((4, 1)))

    def test_feedback_uses_state(self):
        law = FeedbackControl(lambda t, x: 2.0 * x[:, 0:1])
        u = law.control_at(0.0, np.array([[1.0], [3.0]]))
        assert np.allclose(u, [[2.0], [6.0]])

    def test_blended_mixes_laws(self):
        law = BlendedControl([ConstantControl([0.0]), ConstantControl([1.0])], [0.25, 0.75])
        u = law.control_at(0.0, np.zeros((3, 1)))
        assert np.allclose(u, 0.75)


class TestSimulateForward:
    def test_consumption_mean_matches_lognormal(self):
        params = ConsumptionParams()
        problem = consumption_problem(params)
        grid = TimeGrid(horizon=1.0, steps=50)
        ens = simulate_forward(problem, ConstantControl([0.0]), grid, 20000, seed=2)
        terminal = ens.states[:, -1, 0]
        # control clips to eps_u ~ 0; exact per-step lognormal, so no time-step bias
        target = params.x0 * math.exp((params.mu - params.eps_u) * 1.0)
        se = terminal.std() / math.sqrt(terminal.size)
        assert abs(terminal.mean() - target) <= 4.0 * se

    def test_production_mean_is_exact_for_additive_noise(self):
        params = ProductionPlanningParams()
        problem = production_problem(params)
        grid = TimeGrid(horizon=2.0, steps=80)
        ens = simulate_forward(problem, ConstantControl([2.0]), grid, 20000, seed=5)
        terminal = ens.states[:, -1, 0]
        target = params.x0 + (2.0 - params.eta) * 2.0
        se = terminal.std() / math.sqrt(terminal.size)
        assert abs(terminal.mean() - target) <= 4.0 * se
        assert abs(terminal.std() - params.sigma * math.sqrt(2.0)) < 0.02

    def test_controls_are_clipped_to_box(self):
        problem = production_problem(ProductionPlanningParams())
        grid = TimeGrid(horizon=0.5, steps=5)
        ens = simulate_forward(problem, ConstantControl([99.0]), grid, 4, seed=0)
        assert np.all(ens.controls <= problem.domain.upper)

    def test_positivity_floor_engages(self):
        problem = _halfline_problem(-5.0)
        grid = TimeGrid(horizon=1.0, steps=10)
        ens = simulate_forward(problem, ConstantControl([0.0]), grid, 3, seed=0)
        assert ens.euler_crossed.all()
        assert ens.floor_clipped.all()
        assert ens.states.min() == POSITIVITY_FLOOR
        report = positivity_check(ens)
        assert report.status == "fail"
        assert report.details["floor_clips"] == 3

    def test_explosion_guard_freezes_and_errors(self):
        coeffs = CoefficientField(
            state_dim=1,
            noise_dim=1,
            control_dim=1,
            drift=lambda x, u: 3.0 * x,
            diffusion=lambda x, u: np.zeros(x.shape[:-1] + (1, 1)),
            running_cost=lambda x, u: np.zeros(x.shape[:-1]),
            grad_drift=lambda x, u: np.full(x.shape[:-1] + (1, 1), 3.0),
            grad_cost=lambda x, u: np.zeros_like(x),
        )
        problem = DiscountedProblem(
            coefficients=coeffs,
            domain=ControlDomain([0.0], [1.0]),
            beta=1.0,
            constants=AssumptionConstants(3.0, 3.0, 0.0, 0.0),
            x0=np.array([1.0]),
        )
        # Euler steps of x' = 3x from 1 reach 1.24^100 ~ 2e9 > EXPLOSION_GUARD = 1e8
        grid = TimeGrid(horizon=8.0, steps=100)
        with pytest.raises(SimulationError):
            simulate_forward(problem, ConstantControl([0.0]), grid, 8, seed=0)
        # from 1e-3 the same growth stays at 2e6; one path in 100 is the 1% limit
        x0 = np.full((100, 1), 1e-3)
        x0[37] = 1.0
        ens = simulate_forward(problem, ConstantControl([0.0]), grid, 100, seed=0, x0=x0)
        assert np.flatnonzero(ens.exploded).tolist() == [37]
        assert np.isfinite(ens.states).all()
        frozen = ens.states[37, :, 0]
        assert frozen[-1] == frozen[-2] <= EXPLOSION_GUARD

    def test_noise_shape_mismatch_rejected(self):
        problem = production_problem(ProductionPlanningParams())
        grid = TimeGrid(horizon=1.0, steps=10)
        wrong = NoiseBatch.generate(0, 4, 9, 1, grid.dt)
        with pytest.raises(ValueError):
            simulate_forward(problem, ConstantControl([1.0]), grid, 4, seed=0, noise=wrong)

    def test_open_loop_replay_reproduces_paths(self):
        problem = consumption_problem(ConsumptionParams())
        grid = TimeGrid(horizon=2.0, steps=40)
        ens = simulate_forward(problem, consumption_optimal_law(ConsumptionParams()), grid, 50, seed=9)
        replay = simulate_forward(problem, ens.open_loop(), grid, 50, seed=9, noise=ens.noise)
        assert np.allclose(replay.states, ens.states)
        assert np.allclose(replay.controls, ens.controls)


class TestWeightedIntegrals:
    def test_trapezoid_against_closed_form(self):
        beta, a, horizon = 0.5, 0.3, 2.0
        grid = TimeGrid(horizon=horizon, steps=2000)
        t = grid.times()
        values = np.exp(a * t)
        got = grid.discounted_weights(beta) @ values
        want = (1.0 - math.exp((a - beta) * horizon)) / (beta - a)
        assert got == pytest.approx(want, rel=1e-6)

    @pytest.mark.parametrize("steps", [1, 7, 400])
    def test_weights_are_the_discounted_trapezoid(self, steps):
        beta, grid = 0.3, TimeGrid(horizon=5.0, steps=steps)
        t = grid.times()
        values = np.random.default_rng(steps).standard_normal((6, steps + 1))
        want = np.trapezoid(values * np.exp(-beta * t), t, axis=-1)
        np.testing.assert_allclose(values @ grid.discounted_weights(beta), want, rtol=1e-13)


class TestPathChecks:
    def test_two_start_stability_passes(self):
        problem = production_problem(ProductionPlanningParams())
        grid = TimeGrid(horizon=4.0, steps=80)
        report = apriori_gap_check(
            problem, ConstantControl([1.5]), grid, [1.0], [3.0], n_paths=200, seed=1
        )
        assert report.status == "pass"

    def test_sandwich_brackets_interior_law(self):
        params = ConsumptionParams()
        problem = consumption_problem(params)
        grid = TimeGrid(horizon=3.0, steps=60)
        report = comparison_check(
            problem, consumption_optimal_law(params), grid, n_paths=400, seed=3
        )
        assert report.check == "sandwich"
        assert report.status == "pass"
        assert report.statistic == 0.0

    def test_sandwich_needs_envelope(self):
        problem = production_problem(ProductionPlanningParams())
        grid = TimeGrid(horizon=1.0, steps=10)
        with pytest.raises(ValueError):
            comparison_check(problem, ConstantControl([1.0]), grid, n_paths=4, seed=0)

    def test_positivity_clean_run(self):
        params = ConsumptionParams()
        problem = consumption_problem(params)
        grid = TimeGrid(horizon=3.0, steps=60)
        ens = simulate_forward(problem, consumption_optimal_law(params), grid, 500, seed=4)
        report = positivity_check(ens)
        assert report.status == "pass"
        assert report.details["euler_crossings"] == 0

    def test_lyapunov_generator_bound(self):
        params = LogisticParams()
        problem = logistic_problem(params)
        regions = logistic_region_constants(params)
        rng = np.random.default_rng(0)
        x = logistic_sample_spec(params).draw_states(rng, 4000)
        report = lyapunov_generator_check(problem, x, regions)
        assert report.status == "pass"
        assert report.details["K_near"] <= report.details["K_near_reference"] + 1e-9

    def test_region_constants_validation(self):
        with pytest.raises(ValueError):
            RegionConstants(r=2.0, R=1.0, C=0.0)
        with pytest.raises(ValueError):
            RegionConstants(r=0.5, R=1.0, C=-1.0)
