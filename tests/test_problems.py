"""Problem definitions, Hamiltonians, assumption audits."""
import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from smpsolve import (
    AssumptionConstants,
    CoefficientField,
    ConcavitySpec,
    ControlDomain,
    DiscountedProblem,
    SampleSpec,
    beta_threshold,
    concavity_probe,
    finite_diff_grad_x,
    grad_x_hamiltonian,
    hamiltonian,
    maximize_hamiltonian_in_u,
    validate_assumptions,
)
from smpsolve.experiments import (
    ConsumptionParams,
    LogisticParams,
    ProductionPlanningParams,
    consumption_problem,
    consumption_sample_spec,
    logistic_problem,
    logistic_sample_spec,
    production_problem,
    production_sample_spec,
)


def _cases():
    return [
        (consumption_problem(ConsumptionParams()), consumption_sample_spec(ConsumptionParams())),
        (production_problem(ProductionPlanningParams()), production_sample_spec(ProductionPlanningParams())),
        (logistic_problem(LogisticParams()), logistic_sample_spec(LogisticParams())),
    ]


def _draw(problem, spec, count, seed):
    rng = np.random.default_rng(seed)
    x = spec.draw_states(rng, count)
    u = problem.domain.sample(rng, count)
    y = rng.standard_normal((count, problem.state_dim))
    z = rng.standard_normal((count, problem.state_dim, problem.noise_dim))
    return x, u, y, z


class TestControlDomain:
    def test_rejects_crossed_bounds(self):
        with pytest.raises(ValueError):
            ControlDomain([1.0], [0.0])

    def test_rejects_infinite_bounds(self):
        with pytest.raises(ValueError):
            ControlDomain([0.0], [math.inf])

    def test_sample_stays_in_box(self):
        dom = ControlDomain([0.0, -1.0], [2.0, 1.0])
        u = dom.sample(np.random.default_rng(0), 500)
        assert u.shape == (500, 2)
        assert np.all(u >= dom.lower) and np.all(u <= dom.upper)


class TestHamiltonians:
    @pytest.mark.parametrize("problem,spec", _cases(), ids=["consumption", "production", "logistic"])
    def test_gradient_matches_finite_differences(self, problem, spec):
        x, u, y, z = _draw(problem, spec, 500, 3)
        g = grad_x_hamiltonian(x, u, y, z, problem)
        fd = finite_diff_grad_x(x, u, y, z, problem)
        rel = np.abs(g - fd) / (1.0 + np.abs(g))
        assert float(rel.max()) <= 1e-6


class TestMaximizer:
    def test_production_quadratic_argmax(self):
        params = ProductionPlanningParams()
        problem = production_problem(params)
        rng = np.random.default_rng(5)
        x = rng.uniform(0.5, 3.5, size=(200, 1))
        y = rng.uniform(-3.0, 3.0, size=(200, 1))
        z = np.zeros((200, 1, 1))
        u, cert = maximize_hamiltonian_in_u(x, y, z, problem)
        expected = np.clip(params.u1 + y[:, 0] / (2.0 * params.c), params.u_low, params.u_high)
        assert np.allclose(u[:, 0], expected, atol=1e-9)
        assert cert.gap <= 1e-9

    def test_golden_section_agrees_with_analytic(self):
        params = LogisticParams()
        problem = logistic_problem(params)
        blind = dataclasses.replace(problem, stationary_control=None)
        rng = np.random.default_rng(8)
        x = rng.uniform(0.1, 2.0, size=(150, 1))
        y = rng.uniform(-1.0, 1.0, size=(150, 1))
        z = rng.standard_normal((150, 1, 1))
        u_a, _ = maximize_hamiltonian_in_u(x, y, z, problem)
        u_g, _ = maximize_hamiltonian_in_u(x, y, z, blind)
        assert np.allclose(u_a, u_g, atol=1e-6)


class TestAssumptionAudit:
    @pytest.mark.parametrize("problem,spec", _cases(), ids=["consumption", "production", "logistic"])
    def test_examples_pass_with_declared_constants(self, problem, spec):
        report = validate_assumptions(problem, spec)
        assert report.status == "pass", report.details

    def test_below_threshold_discount_fails(self):
        params = ConsumptionParams(beta=0.1)
        problem = consumption_problem(params)
        report = validate_assumptions(problem, consumption_sample_spec(params))
        assert report.status == "fail"
        entry = report.details["discount_margin"]
        assert not entry["pass"]
        assert entry["worst"] == pytest.approx(beta_threshold(problem) - 0.1)

    def test_understated_lipschitz_constant_fails(self):
        params = ConsumptionParams()
        problem = consumption_problem(params)
        weak = dataclasses.replace(
            problem, constants=AssumptionConstants(mu1=params.mu, mu2=params.mu, L=params.sigma / 2, M=params.sigma)
        )
        report = validate_assumptions(weak, consumption_sample_spec(params))
        assert report.status == "fail"
        assert not report.details["diffusion_lipschitz"]["pass"]


class TestBetaThreshold:
    def test_production_threshold_is_zero(self):
        assert beta_threshold(production_problem(ProductionPlanningParams())) == 0.0

    def test_consumption_threshold_formula(self):
        params = ConsumptionParams()
        expected = 2.0 * params.mu + 2.0 * params.sigma**2
        assert beta_threshold(consumption_problem(params)) == expected

    def test_logistic_threshold_formula(self):
        params = LogisticParams()
        expected = 2.0 * params.a + 2.0 * params.sigma**2
        assert beta_threshold(logistic_problem(params)) == expected

    def test_strictly_discounted_flag(self):
        assert consumption_problem(ConsumptionParams()).is_strictly_discounted()
        assert not consumption_problem(ConsumptionParams(beta=0.18)).is_strictly_discounted()


class TestConcavity:
    @pytest.mark.parametrize(
        "problem,specs",
        [
            pytest.param(consumption_problem(ConsumptionParams()), "consumption", id="consumption"),
            pytest.param(production_problem(ProductionPlanningParams()), "production", id="production"),
            pytest.param(logistic_problem(LogisticParams()), "logistic", id="logistic"),
        ],
    )
    def test_example_regions_are_concave(self, problem, specs):
        from smpsolve.experiments import (
            consumption_concavity_specs,
            logistic_concavity_specs,
            production_concavity_specs,
        )

        fns = {
            "consumption": lambda: consumption_concavity_specs(ConsumptionParams()),
            "production": lambda: production_concavity_specs(ProductionPlanningParams()),
            "logistic": lambda: logistic_concavity_specs(LogisticParams()),
        }
        for spec in fns[specs]():
            report = concavity_probe(problem, spec)
            assert report.status == "pass", report.details

    def test_convex_cost_is_flagged(self):
        # flip the production running gain's sign: -c(u-u1)^2 becomes convex
        coeffs = CoefficientField(
            state_dim=1,
            noise_dim=1,
            control_dim=1,
            drift=lambda x, u: u - 1.0,
            diffusion=lambda x, u: 0.5 * np.ones(x.shape[:-1] + (1, 1)),
            running_cost=lambda x, u: (u[..., 0] - 1.0) ** 2,
            grad_drift=lambda x, u: np.zeros(x.shape[:-1] + (1, 1)),
            grad_cost=lambda x, u: np.zeros_like(x),
        )
        problem = DiscountedProblem(
            coefficients=coeffs,
            domain=ControlDomain([0.0], [4.0]),
            beta=0.5,
            constants=AssumptionConstants(0.0, 0.0, 0.0, 0.0),
            x0=np.array([1.0]),
        )
        spec = ConcavitySpec(
            x_low=[-2.0],
            x_high=[2.0],
            yz_samples=((np.array([0.0]), np.zeros((1, 1))),),
            n_pairs=300,
            seed=1,
        )
        report = concavity_probe(problem, spec)
        assert report.status == "fail"


class TestSampleSpec:
    def test_draw_shapes_and_bounds(self):
        spec = SampleSpec(x_low=[0.2, 1.0], x_high=[5.0, 2.0], n_pairs=100, seed=4)
        x = spec.draw_states(np.random.default_rng(0), 64)
        assert x.shape == (64, 2)
        assert np.all(x >= [0.2, 1.0]) and np.all(x <= [5.0, 2.0])


def _certificate_from_the_table(x, y, z, u_star, problem):
    """The certificate as the whole (101, P) grid table gives it."""
    h_star = hamiltonian(x, u_star, y, z, problem)
    gap, warn = np.full(x.shape[0], np.inf), False
    for j in range(problem.control_dim):
        grid = np.linspace(problem.domain.lower[j], problem.domain.upper[j], 101)
        vals = np.empty((grid.size, x.shape[0]))
        for g_i, g in enumerate(grid):
            u_try = u_star.copy()
            u_try[:, j] = g
            vals[g_i] = hamiltonian(x, u_try, y, z, problem)
        second = vals[2:] - 2.0 * vals[1:-1] + vals[:-2]
        warn = warn or float(np.nanmax(second)) > 1e-8
        gap = np.minimum(gap, h_star - np.nanmax(vals, axis=0))
    return float(np.min(gap)), warn


def _convex_production():
    """Production with its gain negated: H is convex in u."""
    problem = production_problem(ProductionPlanningParams())
    cost = problem.coefficients.running_cost
    flipped = dataclasses.replace(problem.coefficients, running_cost=lambda x, u: -cost(x, u))
    return dataclasses.replace(problem, coefficients=flipped), production_sample_spec(ProductionPlanningParams())


class TestMaximizerCertificate:
    @pytest.mark.parametrize(
        "problem,spec", [*_cases(), _convex_production()], ids=["consumption", "production", "logistic", "convex"]
    )
    def test_rolling_certificate_is_the_table_certificate(self, problem, spec):
        x, _, y, z = _draw(problem, spec, 10_000, 12)
        tracemalloc.start()
        try:
            u_star, cert = maximize_hamiltonian_in_u(x, y, z, problem)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the whole (101, P) table of H over the grid, with its second
        # differences, held 23 MiB at 10k points
        assert peak <= 2 * 2**20
        gap, warn = _certificate_from_the_table(x, y, z, u_star, problem)
        assert cert.gap == gap
        assert cert.concavity_warning is warn
