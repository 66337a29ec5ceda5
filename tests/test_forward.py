"""Forward simulation: grids, noise, control laws, path checks."""
import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from smpsolve import (
    BlendedControl,
    ConstantControl,
    FeedbackControl,
    NoiseBatch,
    SimulationError,
    TimeGrid,
    comparison_check,
    get_experiment,
    lyapunov_generator_check,
    positivity_check,
    simulate_forward,
    step_forward,
)
from smpsolve.bsde import BsdeSolution, RegressionBasis, solve_bsde_lsmc
from smpsolve.forward import (
    EXPLOSION_GUARD,
    POSITIVITY_FLOOR,
    ROW_ALIGN,
    SANDWICH_MARGIN,
    SANDWICH_MAX_FRACTION,
    AdjointFeedbackControl,
    PathEnsemble,
    RegionConstants,
    time_major,
)
from smpsolve.reports import FAIL, PASS, VerificationReport
from smpsolve.problems import (
    AssumptionConstants,
    CoefficientField,
    ControlDomain,
    DiscountedProblem,
    MultiplicativeStructure,
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
    production_optimal_law,
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
    def test_times_are_built_once_and_read_only(self):
        grid = TimeGrid(horizon=3.0, steps=7)
        assert grid.times() is grid.times()
        with pytest.raises(ValueError):
            grid.times()[1] = 0.0
        assert grid == TimeGrid(horizon=3.0, steps=7)

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

    def test_last_node_is_the_horizon(self):
        # i * (T / N) rounds past T at i = N on some grids, e.g. T = 14, N = 200
        for horizon in range(1, 60):
            for steps in (100, 200, 250, 400, 500):
                grid = TimeGrid(float(horizon), steps)
                t = grid.times()
                assert t[-1] == horizon
                assert (grid.horizon - t).min() >= 0.0
                np.testing.assert_array_equal(t[:-1], np.arange(steps) * (horizon / steps))

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

    def test_a_smaller_batch_is_a_prefix(self):
        # enlarging the batch must not change existing paths (common random
        # numbers); 300 of 700 paths cross a 256-path draw block
        small = NoiseBatch.generate(3, 300, 12, 1, 0.05)
        big = NoiseBatch.generate(3, 700, 12, 1, 0.05)
        assert np.array_equal(big.increments[:300], small.increments)

    def test_increment_scale(self):
        batch = NoiseBatch.generate(11, 200, 50, 1, 0.04)
        scaled = batch.increments / math.sqrt(0.04)
        assert abs(scaled.std() - 1.0) < 0.02

    @pytest.mark.parametrize("noise_dim", [1, 2])
    def test_matches_a_fresh_generator_per_path(self, noise_dim):
        # 300 paths span a whole draw block and a part one
        batch = NoiseBatch.generate(5, 300, 9, noise_dim, 0.25)
        for p in range(300):
            gen = np.random.Generator(np.random.Philox(key=[5, p]))
            expected = (gen.standard_normal(9 * noise_dim) * math.sqrt(0.25)).reshape(9, noise_dim)
            assert _same_bits(batch.increments[p], expected)

    def test_seeds_beyond_int64_are_rejected(self):
        # a key cast through float64 would give 2**63 and 2**63 + 1 one stream
        NoiseBatch.generate(2**63 - 1, 2, 3, 1, 0.1)
        for seed in (2**63, 2**63 + 1, -1):
            with pytest.raises(ValueError, match="seed"):
                NoiseBatch.generate(seed, 2, 3, 1, 0.1)


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

    def test_feedback_uses_state(self):
        law = FeedbackControl(lambda t, x: 2.0 * x[:, 0:1])
        u = law.control_at(0.0, np.array([[1.0], [3.0]]))
        assert np.allclose(u, [[2.0], [6.0]])

    def test_blended_mixes_laws(self):
        law = BlendedControl([ConstantControl([0.0]), ConstantControl([1.0])], [0.25, 0.75])
        u = law.control_at(0.0, np.zeros((3, 1)))
        assert np.allclose(u, 0.75)


class TestRecomputedControls:
    """An ensemble stores no controls table: ``ens.control(i, rows)``
    recomputes the controls the stepper applied from the stored states."""

    P = 1000  # not a multiple of ROW_ALIGN, so the last chunk is short

    @staticmethod
    def _costate_law(problem, params, grid, n_paths):
        # the production maximizer u1 + y / (2c) stays inside the box, so
        # every bit of the fitted costate reaches the control
        ens = simulate_forward(problem, production_optimal_law(params), grid, n_paths, seed=2)
        sol = solve_bsde_lsmc(problem, ens, RegressionBasis(degree=4))
        return AdjointFeedbackControl(sol, lambda t, x, y: params.u1 + y[:, 0] / (2.0 * params.c)), sol

    @pytest.mark.parametrize("kind", ["constant", "feedback", "blended", "costate"])
    def test_control_is_the_applied_control_to_the_bit(self, kind):
        params = ProductionPlanningParams()
        problem = production_problem(params)
        grid = TimeGrid(horizon=2.0, steps=30)
        feedback = production_optimal_law(params)
        law = {
            "constant": lambda: ConstantControl([2.5]),
            "feedback": lambda: feedback,
            "blended": lambda: BlendedControl([feedback, ConstantControl([0.3])], [0.7, 0.3]),
            "costate": lambda: self._costate_law(problem, params, grid, 700)[0],
        }[kind]()
        ens = simulate_forward(problem, law, grid, self.P, seed=3)
        # the table the stepper applied, kept in a whole-grid controls window
        states, applied = time_major(self.P, grid.steps + 1, 1), time_major(self.P, grid.steps, 1)
        step_forward(problem, law, grid, ens.noise, states, applied, [lambda s, x, u: None])
        assert np.array_equal(states, ens.states)
        if kind != "constant":
            inside = (applied > problem.domain.lower) & (applied < problem.domain.upper)
            assert inside.mean() > 0.9
        P = self.P
        rng = np.random.default_rng(4)
        for i in range(grid.steps):
            assert np.array_equal(ens.control(i), applied[:, i])
            for rows in (slice(0, 100), slice(3, 101), slice(ROW_ALIGN, 10 * ROW_ALIGN + 1), slice(P - 5, P),
                         slice(P - 1, None), slice(10, 10)):
                assert np.array_equal(ens.control(i, rows), applied[rows, i])
            # sampled paths, in any order, and the last path
            for rows in (rng.choice(P, size=40, replace=False), np.sort(rng.choice(P, size=7, replace=False)),
                         np.array([P - 1, 5])):
                assert np.array_equal(ens.control(i, rows), applied[rows, i])
        assert np.array_equal(ens.controls, applied)

    def test_rows_must_be_a_contiguous_slice(self):
        problem = production_problem(ProductionPlanningParams())
        ens = simulate_forward(problem, ConstantControl([1.0]), TimeGrid(horizon=1.0, steps=4), 10, seed=0)
        with pytest.raises(ValueError):
            ens.control(0, slice(0, 10, 2))

    def test_a_costate_law_keeps_surfaces_alone(self):
        import weakref

        params = ProductionPlanningParams()
        problem = production_problem(params)
        law, sol = self._costate_law(problem, params, TimeGrid(horizon=2.0, steps=30), 300)
        held = [sol, sol.ensemble]
        refs = [weakref.ref(sol), weakref.ref(sol.ensemble)]
        assert not any(isinstance(v, (BsdeSolution, PathEnsemble)) for v in vars(law).values())
        x = np.linspace(0.0, 3.0, 11)[:, None]
        assert np.array_equal(law.y_at(7, x), sol.y_at(7, x))
        del held, sol
        assert [ref() for ref in refs] == [None, None]
        with pytest.raises(ValueError):
            law.y_at(30, x)


class TestSimulateForward:
    def test_the_ensemble_stores_states_and_noise_alone(self):
        params = ProductionPlanningParams()
        problem = production_problem(params)
        grid = TimeGrid.auto(problem.beta, 400)
        tracemalloc.start()
        try:
            ens = simulate_forward(problem, production_optimal_law(params), grid, 4000, seed=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * (ens.states.nbytes + ens.noise.increments.nbytes)

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

    @pytest.mark.parametrize(
        "name, kw", [("consumption", dict(sigma=1.2, beta=4.0)), ("logistic", dict(sigma=1.5, beta=6.0))]
    )
    def test_multiplicative_crossing_flags_match_the_euler_candidate(self, name, kw):
        # coarse steps and loud noise: most paths cross, and logistic paths clip
        definition = get_experiment(name)
        params = definition.params_type(**kw)
        problem = definition.problem(params)
        grid = TimeGrid(horizon=4.0, steps=8)
        for law in definition.competitors(params).values():
            ens = simulate_forward(problem, law, grid, 5000, seed=0)
            x, u, dW = ens.states[:, :-1], ens.controls, ens.noise.increments
            drift = problem.coefficients.drift(x, u)
            diffusion = problem.coefficients.diffusion(x, u)
            euler = x + drift * grid.dt + np.einsum("pinc,pic->pin", diffusion, dW)
            want = (euler[:, :, 0] <= 0.0).any(axis=1)
            assert 0.5 * ens.n_paths < want.sum() < ens.n_paths
            np.testing.assert_array_equal(ens.euler_crossed, want)

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

    def test_non_finite_drift_freezes_at_last_finite_state(self):
        # unit drift, except NaN above 100.45 and +inf in (-99.55, -50)
        def drift(x, u):
            b = np.ones_like(x)
            b[x > 100.45] = np.nan
            b[(x > -99.55) & (x < -50.0)] = np.inf
            return b

        coeffs = CoefficientField(
            state_dim=1,
            noise_dim=1,
            control_dim=1,
            drift=drift,
            diffusion=lambda x, u: np.zeros(x.shape[:-1] + (1, 1)),
            running_cost=lambda x, u: np.zeros(x.shape[:-1]),
            grad_drift=lambda x, u: np.zeros(x.shape[:-1] + (1, 1)),
            grad_cost=lambda x, u: np.zeros_like(x),
        )
        problem = DiscountedProblem(
            coefficients=coeffs,
            domain=ControlDomain([0.0], [1.0]),
            beta=1.0,
            constants=AssumptionConstants(0.0, 0.0, 0.0, 0.0),
            x0=np.array([0.0]),
        )
        grid = TimeGrid(horizon=1.0, steps=10)
        # 2 of 200 paths explode, the 1% limit
        x0 = np.zeros((200, 1))
        x0[50], x0[150] = 100.0, -100.0
        ens = simulate_forward(problem, ConstantControl([0.0]), grid, 200, seed=0, x0=x0)
        assert np.flatnonzero(ens.exploded).tolist() == [50, 150]
        assert np.isfinite(ens.states).all()
        for p, sign in ((50, 1.0), (150, -1.0)):
            path = ens.states[p, :, 0]
            # five unit-drift steps of 0.1, then the next candidate is NaN or +inf
            assert np.all(np.diff(path[:6]) > 0.0)
            np.testing.assert_allclose(path[5], sign * 100.0 + 0.5)
            assert (path[5:] == path[5]).all()
        np.testing.assert_allclose(ens.states[0, :, 0], grid.times())

    @pytest.mark.parametrize("window", [1, 3, 10])
    def test_windowed_pass_reproduces_the_stored_tables(self, window):
        # the path that explodes (at step 4, after a first window of 3 steps)
        # and the paths clipped at the floor keep their flags and frozen
        # values across the reused window
        coeffs = CoefficientField(
            state_dim=1,
            noise_dim=1,
            control_dim=1,
            drift=lambda x, u: 3.0 * x - u,
            diffusion=lambda x, u: np.full(x.shape[:-1] + (1, 1), 0.1),
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
            state_region=StateRegion.POSITIVE_HALF_LINE,
        )
        grid = TimeGrid(horizon=8.0, steps=10)
        x0 = np.full((200, 1), 0.2)
        x0[5] = 1e6
        law = FeedbackControl(lambda t, x: np.where(x[:, 0] < 0.3, 1.0, 0.0))
        ens = simulate_forward(problem, law, grid, 200, seed=2, x0=x0)
        assert ens.exploded.sum() == 1 and ens.floor_clipped.any()

        states, controls = time_major(200, window + 1, 1), time_major(200, window, 1)
        seen = []

        def visit(s, x, u):
            assert x.shape[1] == u.shape[1] + 1
            seen.append(s)
            np.testing.assert_array_equal(x, ens.states[:, s : s + x.shape[1]])
            np.testing.assert_array_equal(u, ens.controls[:, s : s + u.shape[1]])

        flags = step_forward(problem, law, grid, ens.noise, states, controls, [visit], x0=x0)
        assert seen == list(range(0, 10, window))
        for got, want in zip(flags, (ens.euler_crossed, ens.floor_clipped, ens.exploded)):
            np.testing.assert_array_equal(got, want)

    def test_noise_shape_mismatch_rejected(self):
        problem = production_problem(ProductionPlanningParams())
        grid = TimeGrid(horizon=1.0, steps=10)
        wrong = NoiseBatch.generate(0, 4, 9, 1, grid.dt)
        with pytest.raises(ValueError):
            simulate_forward(problem, ConstantControl([1.0]), grid, 4, seed=0, noise=wrong)

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
    def test_sandwich_brackets_interior_law(self):
        params = ConsumptionParams()
        problem = consumption_problem(params)
        grid = TimeGrid(horizon=3.0, steps=60)
        ens = simulate_forward(problem, consumption_optimal_law(params), grid, 400, seed=3)
        report = comparison_check(problem, ens)
        assert report.check == "sandwich"
        assert report.status == "pass"
        assert report.statistic == 0.0

    def test_sandwich_needs_envelope(self):
        problem = production_problem(ProductionPlanningParams())
        grid = TimeGrid(horizon=1.0, steps=10)
        with pytest.raises(ValueError):
            comparison_check(problem, simulate_forward(problem, ConstantControl([1.0]), grid, 4, seed=0))

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


# (paths, grid): whole windows of 4 steps; windows of 6 steps that leave 5
# for the last of 23; a single step
PATH_CHECK_GRIDS = {
    "whole_windows": (4096, TimeGrid(horizon=2.0, steps=20)),
    "ragged_window": (3000, TimeGrid(horizon=2.3, steps=23)),
    "one_step": (500, TimeGrid(horizon=0.5, steps=1)),
}


def _stored_sandwich(problem, ens) -> VerificationReport:
    """The sandwich check on stored envelopes, as it was computed before streaming."""
    lower, upper = (
        simulate_forward(problem, ConstantControl(c), ens.grid, ens.n_paths, 0, noise=ens.noise)
        for c in problem.sandwich_controls
    )
    below = ens.states[:, :, 0] < lower.states[:, :, 0] - SANDWICH_MARGIN
    above = ens.states[:, :, 0] > upper.states[:, :, 0] + SANDWICH_MARGIN
    frac = float((below | above).mean())
    return VerificationReport(
        check="sandwich",
        status=PASS if frac <= SANDWICH_MAX_FRACTION else FAIL,
        statistic=frac,
        tolerance=SANDWICH_MAX_FRACTION,
        n_samples=int(below.size),
        details={
            "below_fraction": float(below.mean()),
            "above_fraction": float(above.mean()),
            "clipped_paths": int((lower.floor_clipped | upper.floor_clipped).sum()),
            "exploded_paths": int((lower.exploded | upper.exploded).sum()),
        },
        notes="fraction of nodes outside the envelope bracket",
    )


def _wider_box(problem, widen: float):
    """``problem`` with its control box widened by ``widen`` on both sides, and a
    law that plays the lower corner of the wider box on even paths and the
    upper one on odd paths, so that its states leave both envelopes."""
    lo, hi = problem.domain.lower - widen, problem.domain.upper + widen
    wide = dataclasses.replace(problem, domain=ControlDomain(lo, hi))
    law = FeedbackControl(lambda t, x: np.where(np.arange(x.shape[0]) % 2 == 0, lo[0], hi[0]))
    return wide, law


class TestStreamedPathChecks:
    """``comparison`` steps its envelopes through a window on the audited
    ensemble's noise and agrees with stored envelopes."""

    @pytest.mark.parametrize("wide", [False, True], ids=["interior", "wider_box"])
    @pytest.mark.parametrize("grid_name", list(PATH_CHECK_GRIDS))
    @pytest.mark.parametrize("name", ["consumption", "logistic"])
    def test_sandwich_matches_stored_envelopes(self, name, grid_name, wide):
        n_paths, grid = PATH_CHECK_GRIDS[grid_name]
        definition = get_experiment(name)
        params = definition.params_type()
        problem = definition.problem(params)
        if wide:
            stepped, law = _wider_box(problem, 0.5)
        else:
            stepped, law = problem, next(iter(definition.competitors(params).values()))
        ens = simulate_forward(stepped, law, grid, n_paths, seed=5)
        report = comparison_check(problem, ens)
        assert report == _stored_sandwich(problem, ens)
        if wide:
            # a law outside the envelopes' control box escapes on both sides
            assert report.status == FAIL
            assert report.details["below_fraction"] > 0.0
            assert report.details["above_fraction"] > 0.0

    def test_peak_memory_is_window_sized(self):
        n_paths, steps = 4000, 400
        params = ConsumptionParams()
        problem = consumption_problem(params)
        grid = TimeGrid(horizon=14.0, steps=steps)
        ens = simulate_forward(problem, consumption_optimal_law(params), grid, n_paths, seed=3)
        tracemalloc.start()
        try:
            comparison_check(problem, ens)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.2 * n_paths * (steps + 1) * 8


def _same_bits(a, b) -> bool:
    """Equal to the bit: signed zeros and NaN payloads included."""
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _reference_flow(problem, law, grid, noise, x0):
    """The stepper written out with einsum and full masks at every step:
    (states, euler_crossed, floor_clipped, exploded)."""
    P, n = x0.shape
    states = np.empty((P, grid.steps + 1, n))
    states[:, 0] = x0
    crossed, clipped, exploded = (np.zeros(P, dtype=bool) for _ in range(3))
    positive = problem.state_region is StateRegion.POSITIVE_HALF_LINE
    mult = problem.multiplicative if positive else None
    c, dt = problem.coefficients, grid.dt
    for i in range(grid.steps):
        x = states[:, i]
        u = np.clip(law.control_at(grid.times()[i], x), problem.domain.lower, problem.domain.upper)
        dW = noise.increments[:, i]
        if mult is None:
            x_new = c.drift(x, u) * dt + x + np.einsum("pic,pc->pi", c.diffusion(x, u), dW)
            euler = x_new[:, 0].copy()
        else:
            rate, vol = mult.linear_rate(u), mult.volatility
            res = mult.residual(x, u) * dt
            euler = ((rate * dt + 1.0) + vol * dW[:, 0]) * x[:, 0] + res
            x_new = (np.exp((rate - 0.5 * vol * vol) * dt + vol * dW[:, 0]) * x[:, 0] + res)[:, None]
        if positive:
            crossed |= euler <= 0.0
            low = x_new[:, 0] <= POSITIVITY_FLOOR
            clipped |= low
            x_new[low, 0] = POSITIVITY_FLOOR
        exploded |= ~(np.abs(x_new).max(axis=1) <= EXPLOSION_GUARD)
        x_new[exploded] = x[exploded]
        states[:, i + 1] = x_new
    return states, crossed, clipped, exploded


def _whole_space_problem(n: int, d: int) -> DiscountedProblem:
    """Linear drift with state-dependent noise in n states and d noises."""

    def diffusion(x, u):
        scale = 0.2 + 0.1 * np.cos(x)
        return scale[..., :, None] * np.linspace(0.5, 1.5, d)

    coeffs = CoefficientField(
        state_dim=n,
        noise_dim=d,
        control_dim=1,
        drift=lambda x, u: x - u,
        diffusion=diffusion,
        running_cost=lambda x, u: np.zeros(x.shape[:-1]),
        grad_drift=lambda x, u: np.broadcast_to(np.eye(n), x.shape[:-1] + (n, n)),
        grad_cost=lambda x, u: np.zeros_like(x),
    )
    return DiscountedProblem(
        coefficients=coeffs,
        domain=ControlDomain([-1.0], [1.0]),
        beta=4.0,
        constants=AssumptionConstants(1.0, 1.0, 0.1, 0.1),
        x0=np.zeros(n),
    )


def _half_line_problem(multiplicative: bool) -> DiscountedProblem:
    """A loud scalar half-line problem whose paths cross, clip at the floor
    (pushed from [0.004, 0.01)) and leave the guard (above 1e7 the rate is
    2, or the drift 1e9); a NaN control turns a path NaN."""

    def residual(x, u):
        return np.where((x[:, 0] >= 0.004) & (x[:, 0] < 0.01), -1.0, 0.0) + 0.0 * u[:, 0]

    def drift(x, u):
        return u * x + residual(x, u)[:, None]

    def euler_drift(x, u):
        return np.where(x > 1e7, 1e9, 0.0) + residual(x, u)[:, None]

    coeffs = CoefficientField(
        state_dim=1,
        noise_dim=1,
        control_dim=1,
        drift=drift if multiplicative else euler_drift,
        diffusion=(lambda x, u: x[..., :, None]) if multiplicative else (lambda x, u: np.full(x.shape + (1,), 0.6)),
        running_cost=lambda x, u: np.zeros(x.shape[:-1]),
        grad_drift=lambda x, u: u[..., :, None],
        grad_cost=lambda x, u: np.zeros_like(x),
    )
    return DiscountedProblem(
        coefficients=coeffs,
        domain=ControlDomain([0.0], [2.0]),
        beta=10.0,
        constants=AssumptionConstants(2.0, 2.0, 1.0, 1.0),
        x0=np.array([1.0]),
        state_region=StateRegion.POSITIVE_HALF_LINE,
        multiplicative=MultiplicativeStructure(1.0, lambda u: u[:, 0], residual) if multiplicative else None,
    )


class TestStepKernels:
    """The stepper's products, in-place sums and bound-gated masks, against
    the einsum and full-mask reference, to the bit."""

    @pytest.mark.parametrize("n, d", [(2, 1), (1, 2)])
    def test_euler_matches_the_einsum_reference(self, n, d):
        problem = _whole_space_problem(n, d)
        grid = TimeGrid(horizon=3.0, steps=30)
        x0 = np.random.default_rng(4).standard_normal((500, n))
        # one path leaves the guard: x' = x grows it 1.1-fold per step
        x0[17] = 9e7
        law = FeedbackControl(lambda t, x: np.sin(t + x[:, 0]))
        ens = simulate_forward(problem, law, grid, 500, seed=6, x0=x0)
        states, *flags = _reference_flow(problem, law, grid, ens.noise, x0)
        assert ens.exploded.tolist() == flags[2].tolist() and np.flatnonzero(flags[2]).tolist() == [17]
        assert _same_bits(ens.states, states)
        for got, want in zip((ens.euler_crossed, ens.floor_clipped, ens.exploded), flags):
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("multiplicative", [True, False])
    def test_half_line_matches_the_mask_reference(self, multiplicative):
        problem = _half_line_problem(multiplicative)
        grid = TimeGrid(horizon=5.0, steps=10)
        # the loud paths start small, so that they cross by less than 0.01,
        # where a loose crossing test would not look
        x0 = np.full((1000, 1), 1e-7)
        x0[:4], x0[4:8], x0[8:58] = 5e7, 5000.0, 0.005

        def control(t, x):
            # NaN at one step only, so that the other steps take the tests
            # gated on each array's min and max
            nan_now = (x[:, 0] > 500.0) & (x[:, 0] < 1e6) & (t == 2.0)
            return np.where(x[:, 0] > 1e6, 2.0, np.where(nan_now, np.nan, 0.05))

        law = FeedbackControl(control)
        ens = simulate_forward(problem, law, grid, 1000, seed=8, x0=x0)
        states, crossed, clipped, exploded = _reference_flow(problem, law, grid, ens.noise, x0)
        # every bound is hit: guard and NaN paths freeze, low paths clip, loud paths cross
        assert np.flatnonzero(exploded).tolist() == list(range(8))
        assert (states[4:8, 5:] == states[4:8, 4:5]).all()
        assert clipped[8:58].mean() > 0.5 and crossed[58:].mean() > 0.2
        assert np.isfinite(states).all()
        assert _same_bits(ens.states, states)
        np.testing.assert_array_equal(ens.euler_crossed, crossed)
        np.testing.assert_array_equal(ens.floor_clipped, clipped)
        np.testing.assert_array_equal(ens.exploded, exploded)
