"""Built-in experiments and the registry that runs them.

Every experiment goes through one pipeline, :func:`run_experiment`: build the
problem, simulate the candidate forward and regress its costate backward when
a check needs them, run the selected checks, record reference figures.  What
differs between models is data in an :class:`ExperimentDefinition`;
registering one with :func:`register_experiment` is the way to add a model,
and the command line then runs it by name.

Three problems ship with the package:

* ``consumption``   log-utility consumption of a geometric asset, with the
  known stationary policy u = beta and costate 1/(beta x);
* ``production``    linear-quadratic production planning, with a Riccati
  value function and affine costate;
* ``logistic``      harvested logistic growth, no closed form, solved by a
  damped Picard iteration on the control-costate pair.
"""
from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Collection, Dict, List, Mapping, Sequence

import numpy as np

from .bsde import (
    BsdeSolution,
    CostateVisitor,
    NodeReduction,
    RegressionBasis,
    TerminalStabilityGap,
    cylinder_consistency_check,
    solve_bsde_lsmc,
    stability_threshold,
)
from .forward import (
    AdjointFeedbackControl,
    BlendedControl,
    ConstantControl,
    ControlLaw,
    FeedbackControl,
    NoiseBatch,
    PathEnsemble,
    RegionConstants,
    TimeGrid,
    comparison_check,
    degenerate_paths,
    lyapunov_generator_check,
    lyapunov_ratio,
    positivity_check,
    simulate_forward,
    step_forward,
    stream_competitor,
    time_major,
)
from .problems import (
    AssumptionConstants,
    CoefficientField,
    ConcavitySpec,
    ControlDomain,
    DiscountedProblem,
    MultiplicativeStructure,
    SampleSpec,
    StateRegion,
    beta_threshold,
    concavity_probe,
    validate_assumptions,
)
from .reports import FAIL, INCONCLUSIVE, PASS, CostEstimate, VerificationReport
from .verify import (
    PathCostSum,
    PointwiseSample,
    TailCostate,
    check_identities,
    check_pointwise_max,
    check_tvc,
    cost_dominance,
    path_costs,
)

Array = np.ndarray

PICARD_TOL = 1e-4
PICARD_MAX_ITERATIONS = 20
UNIQUENESS_TOL = 1e-3
# times at or just after which consumption `integrability` compares E[1/X^2]
# with its closed form, fixed before any run
INTEGRABILITY_PROBE_TIMES = tuple(0.5 * k for k in range(1, 11))
# largest share of the candidate's (path, step) nodes on the control box at
# which production `oracle` still holds the box inactive, as its Riccati
# curve and sigma-zero value assume
ORACLE_MAX_BOX_SHARE = 0.01


# ---------------------------------------------------------------------------
# consumption of a geometric asset


@dataclass(frozen=True)
class ConsumptionParams:
    """Wealth dX = X (mu - u) dt + sigma X dW, running gain ln(u X).

    ``beta`` defaults to the admissibility threshold 2 mu + 2 sigma^2 plus
    one half, which keeps the stationary policy u = beta interior whenever
    beta < cap.  ``eps_u`` is the lower control bound (the log gain needs
    u > 0).
    """

    mu: float = 0.05
    sigma: float = 0.2
    cap: float = 1.0
    x0: float = 1.0
    beta: float | None = None
    eps_u: float = 1e-8

    def __post_init__(self) -> None:
        if self.sigma < 0 or self.x0 <= 0:
            raise ValueError("sigma must be >= 0 and x0 > 0")
        if not (0 < self.eps_u < self.cap):
            raise ValueError("need 0 < eps_u < cap")
        if self.beta is not None and self.beta <= 0:
            raise ValueError("beta must be positive")

    def resolved_beta(self) -> float:
        if self.beta is not None:
            return self.beta
        return 2.0 * self.mu + 2.0 * self.sigma**2 + 0.5


def certified_consumption_threshold(params: ConsumptionParams) -> float:
    """Discount level above which every admissible policy is square-summable.

    max(2 mu + 2 sigma^2, cap + 3 sigma^2 - 2 mu): the first entry controls
    the state, the second the reciprocal moments entering the costate.
    """
    return max(
        2.0 * params.mu + 2.0 * params.sigma**2,
        params.cap + 3.0 * params.sigma**2 - 2.0 * params.mu,
    )


def consumption_problem(params: ConsumptionParams) -> DiscountedProblem:
    mu, sigma = params.mu, params.sigma

    def drift(x, u):
        return x * (mu - u)

    def diffusion(x, u):
        return sigma * x[..., :, None]

    def running_cost(x, u):
        return np.log(u[..., 0] * x[..., 0])

    def grad_drift(x, u):
        return (mu - u)[..., :, None]

    def grad_cost(x, u):
        return 1.0 / x

    def grad_diffusion(x, u):
        out = np.zeros(x.shape[:-1] + (1, 1, 1))
        out[..., 0, 0, 0] = sigma
        return out

    def stationary(x, y, z):
        xy = x[..., 0] * y[..., 0]
        # H is increasing in u when x*y <= 0, so the box roof is the argmax
        u = np.where(xy > 0.0, 1.0 / np.where(xy > 0.0, xy, 1.0), np.inf)
        return u[..., None]

    coeffs = CoefficientField(
        state_dim=1,
        noise_dim=1,
        control_dim=1,
        drift=drift,
        diffusion=diffusion,
        running_cost=running_cost,
        grad_drift=grad_drift,
        grad_cost=grad_cost,
        grad_diffusion=grad_diffusion,
    )
    return DiscountedProblem(
        coefficients=coeffs,
        domain=ControlDomain([params.eps_u], [params.cap]),
        beta=params.resolved_beta(),
        constants=AssumptionConstants(mu1=mu, mu2=mu, L=sigma, M=sigma),
        x0=np.array([params.x0]),
        state_region=StateRegion.POSITIVE_HALF_LINE,
        stationary_control=stationary,
        multiplicative=MultiplicativeStructure(
            volatility=sigma,
            linear_rate=lambda u: mu - u[:, 0],
        ),
        sandwich_controls=(np.array([params.cap]), np.array([params.eps_u])),
    )


def consumption_optimal_law(params: ConsumptionParams) -> ControlLaw:
    """Stationary policy: consume at the discount rate (clipped to the box)."""
    rate = min(max(params.resolved_beta(), params.eps_u), params.cap)
    return ConstantControl([rate])


def consumption_truncated_costate(params: ConsumptionParams, horizon: float, t):
    """g(t) = (1 - e^{-beta (horizon - t)}) / beta, at the times ``t``.

    The zero-terminal problem on [0, horizon] has the exact costate
    y(t, x) = g(t)/x, with z(t, x) = -sigma g(t)/x.
    """
    beta = params.resolved_beta()
    return (1.0 - np.exp(-beta * (horizon - np.asarray(t)))) / beta


def consumption_competitors(params: ConsumptionParams) -> Dict[str, ControlLaw]:
    beta = params.resolved_beta()
    lo, hi = params.eps_u, params.cap
    x0 = params.x0

    def clip(u):
        return np.clip(u, lo, hi)

    return {
        "constant_quarter": ConstantControl([clip(0.25 * beta)]),
        "constant_half": ConstantControl([clip(0.5 * beta)]),
        "constant_strong": ConstantControl([clip(min(1.5 * beta, 0.97 * hi))]),
        "constant_cap": ConstantControl([hi]),
        "sinusoid": FeedbackControl(
            lambda t, x: clip(beta * (1.0 + 0.5 * math.sin(t))) * np.ones(x.shape[0])
        ),
        "proportional_state": FeedbackControl(lambda t, x: clip(beta * x[:, 0] / x0)),
        "sqrt_state": FeedbackControl(
            lambda t, x: clip(beta * np.sqrt(np.maximum(x[:, 0], 0.0) / x0))
        ),
    }


def consumption_sample_spec(params: ConsumptionParams) -> SampleSpec:
    return SampleSpec(
        x_low=[0.2 * params.x0], x_high=[5.0 * params.x0], n_pairs=2000, seed=7
    )


def consumption_concavity_specs(params: ConsumptionParams) -> List[ConcavitySpec]:
    """Probe boxes inside the concavity region x u |y| < 1 of the Hamiltonian.

    The Hessian in (x, u) at fixed (y, z) is [[-1/x^2, -y], [-y, -1/u^2]],
    negative semidefinite exactly when x u |y| <= 1.  Along the true costate
    x y = 1/beta, so realistic y levels scale like 1/(beta x).
    """
    beta = params.resolved_beta()
    u_hi = min(params.cap, beta)
    z_level = -params.sigma / beta
    specs = []
    for i, y_level in enumerate((0.5 / beta, 1.0 / beta, 2.0 / beta)):
        x_hi = 0.98 / (y_level * u_hi)
        specs.append(
            ConcavitySpec(
                x_low=[0.05 * x_hi],
                x_high=[x_hi],
                yz_samples=((np.array([y_level]), np.array([[z_level]])),),
                u_low=np.array([params.eps_u]),
                u_high=np.array([u_hi]),
                n_pairs=400,
                seed=31 + i,
            )
        )
    return specs


# ---------------------------------------------------------------------------
# linear-quadratic production planning


@dataclass(frozen=True)
class ProductionPlanningParams:
    """Inventory dX = (u - eta) dt + sigma dW, gain -c(u-u1)^2 - h(x-x1)^2."""

    eta: float = 1.0
    u1: float = 1.0
    x1: float = 2.0
    sigma: float = 0.5
    c: float = 1.0
    h: float = 0.5
    beta: float = 0.5
    x0: float = 1.0
    u_low: float = 0.0
    u_high: float = 4.0

    def __post_init__(self) -> None:
        if self.c <= 0 or self.h < 0:
            raise ValueError("need c > 0 and h >= 0")
        if self.beta <= 0:
            raise ValueError("beta must be positive")
        if self.u_low >= self.u_high:
            raise ValueError("empty control box")


class RiccatiOracle:
    """Production's quadratic value in closed form, stationary and in time-to-go.

    The stationary value V(x) = phi_inf x^2 / 2 + psi_inf x + offset
    (:meth:`value`) solves
    beta V = (u1 - eta) V' + V'^2/(4c) + sigma^2 phi_inf / 2 - h (x - x1)^2;
    phi_inf is the concave root of phi^2 - 2 c beta phi - 4 c h = 0.

    The finite-horizon pair from zero data, in time-to-go s: the Riccati
    equation phi' = phi^2/(2c) - beta phi - 2h has roots r1 = phi_inf <= 0 < r2, and
    w = (phi - r1)/(phi - r2) solves w' = -k w with k = (r2 - r1)/(2c), so

        phi(s) = r1 - r1 E (r2 - r1) / (r2 - r1 E),   E = e^{-k s}.

    psi' = -beta psi + phi psi/(2c) + (u1 - eta) phi + 2 h x1 is linear, and
    from psi(0) = 0 it is

        psi(s) = [C0 (1 - e^{as})/(-a) + (2c C1/r2)(e^{as} - E)] / (1 - w0 E)

    with a = -(beta + k)/2, w0 = r1/r2, C0 = (u1 - eta) r1 + 2 h x1 and
    C1 = (u1 - eta) r2 + 2 h x1.  No divisor is small: -a >= beta/2, r2 > 0
    and 1 - w0 E >= 1.
    """

    def __init__(self, params: ProductionPlanningParams) -> None:
        c, h, beta = params.c, params.h, params.beta
        drift = params.u1 - params.eta
        root = math.sqrt(c * c * beta * beta + 4.0 * c * h)
        self.params = params
        # the roots r1 = phi_inf and r2 of r^2/(2c) - beta r - 2h, and k = (r2 - r1)/(2c)
        phi = self.phi_inf = c * beta - root
        self._r2, self._k = c * beta + root, root / c
        psi = self.psi_inf = (phi * drift + 2.0 * h * params.x1) / (beta - phi / (2.0 * c))
        self.offset = (
            drift * psi + psi * psi / (4.0 * c) + 0.5 * params.sigma**2 * phi - h * params.x1**2
        ) / beta

    def value(self, x) -> Array:
        """The stationary value V(x)."""
        x = np.asarray(x, dtype=float)
        return 0.5 * self.phi_inf * x * x + self.psi_inf * x + self.offset

    def phi_at(self, s):
        r1, r2, k = self.phi_inf, self._r2, self._k
        e = np.exp(-k * np.asarray(s, dtype=float))
        return r1 - r1 * e * (r2 - r1) / (r2 - r1 * e)

    def psi_at(self, s):
        p = self.params
        r1, r2, k = self.phi_inf, self._r2, self._k
        a = -0.5 * (p.beta + k)
        drift, pull = p.u1 - p.eta, 2.0 * p.h * p.x1
        c0, c1 = drift * r1 + pull, drift * r2 + pull
        s = np.asarray(s, dtype=float)
        ea, e = np.exp(a * s), np.exp(-k * s)
        return (c0 * (1.0 - ea) / -a + 2.0 * p.c * c1 / r2 * (ea - e)) / (1.0 - r1 / r2 * e)


def production_problem(params: ProductionPlanningParams) -> DiscountedProblem:
    eta, sigma = params.eta, params.sigma
    c, h = params.c, params.h
    u1, x1 = params.u1, params.x1

    def drift(x, u):
        return u - eta

    def diffusion(x, u):
        out = np.empty(x.shape[:-1] + (1, 1))
        out[..., 0, 0] = sigma
        return out

    def running_cost(x, u):
        return -c * (u[..., 0] - u1) ** 2 - h * (x[..., 0] - x1) ** 2

    def grad_drift(x, u):
        return np.zeros(x.shape[:-1] + (1, 1))

    def grad_cost(x, u):
        return -2.0 * h * (x - x1)

    def stationary(x, y, z):
        return u1 + y[..., 0:1] / (2.0 * c)

    coeffs = CoefficientField(
        state_dim=1,
        noise_dim=1,
        control_dim=1,
        drift=drift,
        diffusion=diffusion,
        running_cost=running_cost,
        grad_drift=grad_drift,
        grad_cost=grad_cost,
    )
    return DiscountedProblem(
        coefficients=coeffs,
        domain=ControlDomain([params.u_low], [params.u_high]),
        beta=params.beta,
        constants=AssumptionConstants(mu1=0.0, mu2=0.0, L=0.0, M=0.0),
        x0=np.array([params.x0]),
        stationary_control=stationary,
    )


def production_optimal_law(params: ProductionPlanningParams) -> ControlLaw:
    oracle = RiccatiOracle(params)
    phi, psi = oracle.phi_inf, oracle.psi_inf

    def fn(t, x):
        u = params.u1 + (phi * x[:, 0] + psi) / (2.0 * params.c)
        return np.clip(u, params.u_low, params.u_high)

    return FeedbackControl(fn)


def production_sigma_zero_cost(params: ProductionPlanningParams):
    """Deterministic sanity point: the noise-free cost must hit the value.

    Steps one path of the sigma = 0 problem under the stationary policy on
    a batch of zero increments, so no noise is drawn, and costs it in the
    same pass (:class:`PathCostSum`).  Euler's first-order error is
    extrapolated away: the estimate is 2 v(2000) - v(1000) from runs at 2000
    and 1000 steps.  Returns (estimate, exact, relative_error) with
    exact = V(x0) at sigma = 0.
    """
    frozen = dataclasses.replace(params, sigma=0.0)
    problem = production_problem(frozen)
    law = production_optimal_law(frozen)

    def cost(steps: int) -> float:
        grid = TimeGrid.auto(frozen.beta, steps)
        noise = NoiseBatch(dt=grid.dt, increments=np.zeros((1, steps, problem.noise_dim)))
        states = time_major(1, steps + 1, problem.state_dim)
        controls = time_major(1, steps, problem.control_dim)
        costing = PathCostSum(problem, grid)
        step_forward(problem, law, grid, noise, states, controls, [costing])
        return float(costing.total[0])

    value = 2.0 * cost(2000) - cost(1000)
    exact = float(RiccatiOracle(frozen).value(frozen.x0))
    rel = abs(value - exact) / max(1e-12, abs(exact))
    return value, exact, rel


def production_competitors(params: ProductionPlanningParams) -> Dict[str, ControlLaw]:
    lo, hi = params.u_low, params.u_high
    x1 = params.x1

    def clip(u):
        return np.clip(u, lo, hi)

    return {
        "constant_reference": ConstantControl([clip(params.u1)]),
        "constant_low": ConstantControl([clip(lo + 0.0625 * (hi - lo))]),
        "constant_high": ConstantControl([clip(lo + 0.75 * (hi - lo))]),
        "idle": ConstantControl([lo]),
        "overshoot_gain": FeedbackControl(lambda t, x: clip(2.0 * x1 - x[:, 0] - params.eta + params.u1)),
        "undershoot_gain": FeedbackControl(
            lambda t, x: clip(params.u1 + (x1 - x[:, 0]) / 8.0)
        ),
        "bang_bang": FeedbackControl(lambda t, x: np.where(x[:, 0] < x1, hi, lo)),
        "sinusoid": FeedbackControl(
            lambda t, x: clip(params.u1 + math.sin(t)) * np.ones(x.shape[0])
        ),
    }


def production_sample_spec(params: ProductionPlanningParams) -> SampleSpec:
    half = 4.0 + abs(params.x0 - params.x1)
    return SampleSpec(
        x_low=[params.x1 - half], x_high=[params.x1 + half], n_pairs=2000, seed=5
    )


def production_concavity_specs(params: ProductionPlanningParams) -> List[ConcavitySpec]:
    oracle = RiccatiOracle(params)
    phi, psi = oracle.phi_inf, oracle.psi_inf
    z_level = params.sigma * phi
    y_levels = (phi * (params.x1 - 3.0) + psi, psi * 0.5, phi * (params.x1 + 3.0) + psi)
    samples = tuple(
        (np.array([y]), np.array([[z_level]])) for y in y_levels
    )
    return [
        ConcavitySpec(
            x_low=[params.x1 - 4.0],
            x_high=[params.x1 + 4.0],
            yz_samples=samples,
            n_pairs=600,
            seed=13,
        )
    ]


# ---------------------------------------------------------------------------
# harvested logistic growth


@dataclass(frozen=True)
class LogisticParams:
    """Biomass dX = a X (1 - b X) dt + gamma u dt + sigma X dW on (0, inf).

    Gain -(c x^2 + h u^2); gamma must be positive so the control actually
    reaches the dynamics.  ``beta`` should exceed 2a + 2 sigma^2 for the
    certification machinery to apply.
    """

    a: float = 1.0
    b: float = 1.0
    gamma: float = 0.5
    sigma: float = 0.3
    c: float = 1.0
    h: float = 1.0
    u1: float = 0.1
    u2: float = 1.0
    x0: float = 0.5
    beta: float = 3.6

    def __post_init__(self) -> None:
        if self.a <= 0 or self.b <= 0:
            raise ValueError("need a > 0 and b > 0")
        if self.gamma <= 0:
            raise ValueError("gamma must be positive, the control enters through it")
        if self.c < 0 or self.h <= 0:
            raise ValueError("need c >= 0 and h > 0")
        if not (0 <= self.u1 < self.u2):
            raise ValueError("need 0 <= u1 < u2")
        if self.x0 <= 0 or self.sigma < 0 or self.beta <= 0:
            raise ValueError("need x0 > 0, sigma >= 0, beta > 0")


def logistic_problem(params: LogisticParams) -> DiscountedProblem:
    a, b, gamma, sigma = params.a, params.b, params.gamma, params.sigma
    c, h = params.c, params.h

    def drift(x, u):
        return a * x * (1.0 - b * x) + gamma * u

    def diffusion(x, u):
        return sigma * x[..., :, None]

    def running_cost(x, u):
        return -(c * x[..., 0] ** 2 + h * u[..., 0] ** 2)

    def grad_drift(x, u):
        return (a - 2.0 * a * b * x)[..., :, None]

    def grad_cost(x, u):
        return -2.0 * c * x

    def grad_diffusion(x, u):
        out = np.zeros(x.shape[:-1] + (1, 1, 1))
        out[..., 0, 0, 0] = sigma
        return out

    def stationary(x, y, z):
        return gamma * y[..., 0:1] / (2.0 * h)

    def residual(x, u):
        return -a * b * x[:, 0] ** 2 + gamma * u[:, 0]

    coeffs = CoefficientField(
        state_dim=1,
        noise_dim=1,
        control_dim=1,
        drift=drift,
        diffusion=diffusion,
        running_cost=running_cost,
        grad_drift=grad_drift,
        grad_cost=grad_cost,
        grad_diffusion=grad_diffusion,
    )
    return DiscountedProblem(
        coefficients=coeffs,
        domain=ControlDomain([params.u1], [params.u2]),
        beta=params.beta,
        constants=AssumptionConstants(mu1=a, mu2=a, L=sigma, M=sigma),
        x0=np.array([params.x0]),
        state_region=StateRegion.POSITIVE_HALF_LINE,
        stationary_control=stationary,
        multiplicative=MultiplicativeStructure(
            volatility=sigma,
            linear_rate=lambda u: np.full(u.shape[0], a),
            residual=residual,
        ),
        sandwich_controls=(np.array([params.u1]), np.array([params.u2])),
    )


def logistic_control_law(params: LogisticParams) -> Callable[[float, Array, Array], Array]:
    """Costate-to-control map u = clip(gamma y / (2h), u1, u2).

    Piecewise linear in y with breakpoints 2 h u1 / gamma and
    2 h u2 / gamma.
    """

    def rule(t, x, y):
        return np.clip(params.gamma * y[..., 0] / (2.0 * params.h), params.u1, params.u2)

    return rule


def logistic_region_constants(params: LogisticParams) -> RegionConstants:
    """Region split for the Lyapunov drift test of V = 1 + 1/x + x^2.

    r = 1/(2b) (drift pushes up below it even at zero harvest support),
    R = largest zero of a x (1 - b x) + gamma u2 (drift pushes down above it),
    C = sampled sup of (L V)+ / V over 2001 points of the middle band and
    the control box corners.
    """
    a, b = params.a, params.b
    r = 1.0 / (2.0 * b)
    R = (a + math.sqrt(a * a + 4.0 * a * b * params.gamma * params.u2)) / (2.0 * a * b)
    ratio = lyapunov_ratio(logistic_problem(params), np.linspace(r, R, 2001))
    return RegionConstants(r=r, R=R, C=max(0.0, float(ratio.max())))


class PicardError(RuntimeError):
    """Raised when the control-costate iteration diverges."""


@dataclass
class PicardResult:
    """The closed loop's last pass: its law, the ensemble simulated under the
    law before it, and the costate solved there; ``residuals`` holds one
    entry per pass."""

    problem: DiscountedProblem
    law: ControlLaw
    ensemble: PathEnsemble
    solution: BsdeSolution
    residuals: List[float]
    converged: bool

    @property
    def grid(self) -> TimeGrid:
        return self.ensemble.grid

    @property
    def iterations(self) -> int:
        return len(self.residuals)

    @property
    def report(self) -> VerificationReport:
        return VerificationReport(
            check="picard_fixed_point",
            status=PASS if self.converged else FAIL,
            statistic=self.residuals[-1],
            tolerance=PICARD_TOL,
            n_samples=self.ensemble.n_paths,
            details={
                "iterations": self.iterations,
                "max_iterations": PICARD_MAX_ITERATIONS,
                "residuals": [float(r) for r in self.residuals],
            },
            notes="sup-norm change of the costate surface per pass",
        )


def _applies_same_controls(law: ControlLaw, ens: PathEnsemble) -> bool:
    """Whether ``law``, clipped to the box, gives ``ens``'s controls to the
    bit at every step of ``ens``'s own states; stops at the first step that
    differs.

    Stepped from the same x0 on the same noise, ``law`` would then retrace
    ``ens``: by induction on the step, the same states meet the same
    controls.  So this is the test of simulating ``law`` and comparing the
    two controls tables, without the simulation.
    """
    times = ens.grid.times()
    return all(
        np.array_equal(ens.domain.clip(law.control_at(times[i], ens.states[:, i])), ens.control(i))
        for i in range(ens.grid.steps)
    )


def logistic_picard_solve(
    params: LogisticParams,
    grid: TimeGrid,
    n_paths: int,
    seed: int,
    basis: RegressionBasis | None = None,
    initial_law: ControlLaw | None = None,
    visitors: Sequence[CostateVisitor] = (),
) -> PicardResult:
    """Damped Picard iteration on the control-costate fixed point.

    One pass: simulate the forward flow under the current policy on a fixed
    noise batch, solve the backward equation, and refresh the policy through
    the costate surface.  The residual is the sup over grid nodes and paths
    of the change in the costate surface, evaluated on the freshly simulated
    states; it converges at ``PICARD_TOL`` = 1e-4 within 20 passes.  A
    residual increase blends the new policy into the old one with weight
    0.5; three consecutive increases abort.  A policy that applies the last
    pass's controls on the last pass's states is a fixed point
    (:func:`_applies_same_controls`): it records residual 0 and stops
    without simulating or solving again.  One pass is held at a time: the
    last pass's paths and costate are released before the next pass
    simulates, and the residual reads the last costate surface through its
    law.  Every pass's backward solve carries ``visitors``, so they hold the
    values of the last pass solved, the one returned.
    """
    problem = logistic_problem(params)
    if basis is None:
        basis = RegressionBasis(degree=4)
    if initial_law is None:
        initial_law = ConstantControl([0.5 * (params.u1 + params.u2)])
    rule = logistic_control_law(params)

    ens = simulate_forward(problem, initial_law, grid, n_paths, seed)
    sol = solve_bsde_lsmc(problem, ens, basis, visitors=visitors)
    # the law of the last costate surface; law adds the damping to it
    surface = AdjointFeedbackControl(sol, rule)
    law: ControlLaw = surface

    residuals: List[float] = []
    converged = False
    increases = 0
    for _ in range(PICARD_MAX_ITERATIONS):
        if _applies_same_controls(law, ens):
            residuals.append(0.0)
            law = surface
            converged = True
            break
        noise = ens.noise
        # one pass at a time: the last pass's paths and costate are released
        # before this pass allocates its own
        ens = sol = None
        ens = simulate_forward(problem, law, grid, n_paths, seed, noise=noise)
        sol = solve_bsde_lsmc(problem, ens, basis, visitors=visitors)
        res = 0.0
        for i in range(grid.steps):
            x_i = ens.states[:, i, :]
            res = max(res, float(np.abs(sol.y_at(i, x_i) - surface.y_at(i, x_i)).max()))
        residuals.append(res)
        surface = AdjointFeedbackControl(sol, rule)
        if len(residuals) >= 2 and res > residuals[-2]:
            increases += 1
            if increases >= 3:
                raise PicardError(
                    f"residual increased {increases} times in a row: {residuals}"
                )
            law = BlendedControl([law, surface], [0.5, 0.5])
        else:
            increases = 0
            law = surface
        if res <= PICARD_TOL:
            converged = True
            break

    return PicardResult(
        problem=problem, law=law, ensemble=ens, solution=sol, residuals=residuals, converged=converged
    )


def logistic_local_uniqueness_probe(
    params: LogisticParams,
    grid: TimeGrid,
    n_paths: int,
    seed: int,
    basis: RegressionBasis | None = None,
) -> VerificationReport:
    """Restart the fixed-point iteration from both box corners.

    All starts must converge to the same costate at time zero within
    ``UNIQUENESS_TOL`` = 1e-3; a split would indicate several local fixed
    points at this resolution.
    """
    y0_values = []
    for start in (params.u1, params.u2):
        result = logistic_picard_solve(
            params,
            grid,
            n_paths,
            seed,
            basis=basis,
            initial_law=ConstantControl([start]),
        )
        y0_values.append(float(result.solution.y0()[0]))
    spread = max(y0_values) - min(y0_values)
    return VerificationReport(
        check="local_uniqueness",
        status=PASS if spread <= UNIQUENESS_TOL else FAIL,
        statistic=spread,
        tolerance=UNIQUENESS_TOL,
        n_samples=n_paths,
        details={"y0_by_start": y0_values},
        notes="costate at time zero across fixed-point restarts",
    )


def logistic_competitors(params: LogisticParams) -> Dict[str, ControlLaw]:
    """Five constant laws strictly inside (u1, u2] plus a few shaped ones.

    None of the constants equals the corner the closed loop settles on, so
    every paired cost comparison has a nonzero margin.
    """
    u1, u2 = params.u1, params.u2
    span = u2 - u1
    mid = 0.5 * (u1 + u2)
    return {
        "constant_low": ConstantControl([u1 + 0.1 * span]),
        "constant_third": ConstantControl([u1 + 0.25 * span]),
        "constant_mid": ConstantControl([mid]),
        "constant_upper": ConstantControl([u1 + 0.75 * span]),
        "constant_high": ConstantControl([u2]),
        "sinusoid": FeedbackControl(
            lambda t, x: np.clip(mid + 0.5 * span * math.sin(t), u1, u2)
            * np.ones(x.shape[0])
        ),
        "ramp_down": FeedbackControl(
            lambda t, x: (u1 + span * math.exp(-t)) * np.ones(x.shape[0])
        ),
        "threshold": FeedbackControl(
            lambda t, x: np.where(x[:, 0] < params.x0, u2, u1)
        ),
    }


def logistic_sample_spec(params: LogisticParams) -> SampleSpec:
    upper = logistic_region_constants(params).R * 1.5
    return SampleSpec(x_low=[0.02], x_high=[upper], n_pairs=2000, seed=17)


def logistic_concavity_specs(params: LogisticParams) -> List[ConcavitySpec]:
    """Probe the region y >= -c/(ab) where the state curvature -2aby - 2c <= 0."""
    a, b, c = params.a, params.b, params.c
    floor = -c / (a * b) if c > 0 else -0.5
    y_levels = (0.9 * floor, 0.4 * floor, 0.0, abs(floor) * 0.2 + 0.01)
    samples = tuple((np.array([y]), np.array([[0.0]])) for y in y_levels)
    upper = logistic_region_constants(params).R
    return [
        ConcavitySpec(
            x_low=[0.02],
            x_high=[upper],
            yz_samples=samples,
            n_pairs=500,
            seed=23,
        )
    ]


# ---------------------------------------------------------------------------
# registry and runner


@dataclass
class ExperimentRun:
    """One run of an experiment: what its definition's callables receive and
    what :func:`run_experiment` returns.

    ``candidate`` is the policy under audit, computed on first use.  A law's
    paths and costate, ``ensemble`` and ``solution``, are simulated and
    solved the first time a check reads them; a closed loop
    (:class:`PicardResult`) brings its own.  Companion flows are never
    stored: ``tvc``, ``costs``, ``comparison`` and ``integrability`` step
    each one through a window on the candidate's noise
    (:func:`stream_competitor`).  ``competitor_costs`` keeps the per-path
    costs of the competitors already stepped, with their flow's
    :func:`degenerate_paths` counts, so the tvc competitor is stepped once
    when both checks run.  No Y table is stored either: when the run is
    built, each of the selected ``checks`` that reads the costate declares
    its visitor (:attr:`ExperimentDefinition.visitor_table`), kept by check
    name in ``visitors``, and the candidate's backward passes carry those
    and ``extra_visitors`` (``pass_visitors``).  After the run,
    ``ensemble`` and ``solution`` are None unless a check computed them or
    the candidate is a closed loop.
    """

    definition: "ExperimentDefinition"
    params: object
    problem: DiscountedProblem
    grid: TimeGrid
    n_paths: int
    seed: int
    basis: RegressionBasis
    checks: Collection[str] = ()
    extra_visitors: Sequence[CostateVisitor] = ()
    reports: List[VerificationReport] = field(default_factory=list)
    scalars: Dict[str, float] = field(default_factory=dict)
    curves: Dict[str, Array] = field(default_factory=dict)
    costs: Dict[str, CostEstimate] = field(default_factory=dict)
    competitor_costs: Dict[str, tuple[Array, dict]] = field(default_factory=dict)
    visitors: Dict[str, CostateVisitor] = field(init=False)

    def __post_init__(self) -> None:
        made = {c: make(self) for c, make in self.definition.visitor_table.items() if c in self.checks}
        self.visitors = {c: v for c, v in made.items() if v is not None}

    @property
    def pass_visitors(self) -> tuple:
        """Every visitor the candidate's backward passes carry."""
        return (*self.visitors.values(), *self.extra_visitors)

    @cached_property
    def candidate(self) -> ControlLaw | PicardResult:
        """The policy under audit: a law, or a closed loop."""
        return self.definition.candidate(self)

    @cached_property
    def ensemble(self) -> PathEnsemble:
        candidate = self.candidate
        if isinstance(candidate, PicardResult):
            return candidate.ensemble
        return simulate_forward(self.problem, candidate, self.grid, self.n_paths, self.seed)

    @cached_property
    def solution(self) -> BsdeSolution:
        if isinstance(self.candidate, PicardResult):
            return self.candidate.solution
        return solve_bsde_lsmc(self.problem, self.ensemble, self.basis, visitors=self.pass_visitors)

    @property
    def name(self) -> str:
        return self.definition.name

    @property
    def all_passed(self) -> bool:
        return all(r.status != FAIL for r in self.reports)

    def report_by_name(self, check: str) -> VerificationReport:
        for r in self.reports:
            if r.check == check:
                return r
        raise KeyError(f"no report named {check!r}")

    def to_dict(self) -> dict:
        return {
            "experiment": self.name,
            "params": dataclasses.asdict(self.params),
            "grid": {"horizon": self.grid.horizon, "steps": self.grid.steps},
            "n_paths": self.n_paths,
            "seed": self.seed,
            "basis": {"degree": self.basis.degree, "reciprocal": self.basis.reciprocal},
            "scalars": {k: float(v) for k, v in sorted(self.scalars.items())},
            "reports": [r.to_dict() for r in self.reports],
            "costs": {k: v.to_dict() for k, v in sorted(self.costs.items())},
            "all_passed": self.all_passed,
        }


def _before_terminal_layer(width: float, short: float, fraction: float):
    """Window ending ``width`` before the horizon; ``fraction`` of it up to ``short``."""
    return lambda horizon: horizon - width if horizon > short else fraction * horizon


@dataclass(frozen=True)
class ExperimentDefinition:
    """Registry entry: everything :func:`run_experiment` knows about one model.

    ``problem``, ``competitors``, ``sample_spec`` and ``concavity_specs`` map
    a ``params_type`` instance to the problem (whose beta sets the default
    horizon), the named laws the candidate must beat, and the audit sampling
    plans.  ``candidate(run)`` returns the policy under audit: a
    :class:`ControlLaw`, whose paths and costate the run simulates and
    solves, or a closed loop (:class:`PicardResult`) that brings its own.
    ``scalars(run)`` records reference figures in ``run.scalars`` and
    ``run.curves``; it runs after the checks, when ``run.ensemble`` and
    ``run.solution`` are None unless the run computed them.  ``checks`` maps
    the experiment's own check names to ``check(run) -> [reports]``; they run
    before the generic ones.  ``visitors`` maps those of them that read the
    costate to ``make(run)``, the :class:`CostateVisitor` that rides the
    candidate's backward pass for them (a closed loop's ``candidate`` solves
    with ``run.pass_visitors``).  ``pointwise_window`` maps the horizon to the
    last time the pointwise check samples (None: the whole grid).
    """

    name: str
    summary: str
    params_type: type
    default_steps: int
    default_paths: int
    default_checks: tuple
    tvc_competitor: str
    basis: RegressionBasis
    problem: Callable[[object], DiscountedProblem]
    candidate: Callable[[ExperimentRun], ControlLaw | PicardResult]
    competitors: Callable[[object], Dict[str, ControlLaw]]
    sample_spec: Callable[[object], SampleSpec]
    concavity_specs: Callable[[object], List[ConcavitySpec]]
    scalars: Callable[[ExperimentRun], None] = lambda run: None
    checks: Mapping[str, Callable[[ExperimentRun], list]] = field(default_factory=dict)
    visitors: Mapping[str, Callable[[ExperimentRun], CostateVisitor | None]] = field(default_factory=dict)
    pointwise_tol: float = 1e-6
    pointwise_window: Callable[[float], float | None] = lambda horizon: None

    @property
    def check_table(self) -> Dict[str, Callable[[ExperimentRun], list]]:
        """Every check this experiment runs, by name, in run order: its own
        checks, then the generic ones it does not redefine."""
        table = dict(self.checks)
        for name, check in _GENERIC_CHECKS.items():
            table.setdefault(name, check)
        return table

    @property
    def visitor_table(self) -> Dict[str, Callable[[ExperimentRun], CostateVisitor | None]]:
        """The costate visitor each check that reads Y declares, by check
        name: its own checks' first, then the generic ones it does not
        redefine.  A maker returns None where its check needs no visitor."""
        table = {name: make for name, make in _GENERIC_VISITORS.items() if name not in self.checks}
        table.update(self.visitors)
        return table


def _pointwise_max(run: ExperimentRun) -> List[VerificationReport]:
    run.solution  # the candidate's backward pass fills the sample
    return [check_pointwise_max(run.problem, run.visitors["pointwise_max"], tol=run.definition.pointwise_tol)]


def _stability(run: ExperimentRun) -> List[VerificationReport]:
    gap = run.visitors.get("stability")
    if gap is None:
        threshold = stability_threshold(run.problem)
        return [
            VerificationReport(
                check="terminal_stability",
                status=INCONCLUSIVE,
                notes=f"not applicable: beta {run.problem.beta:g} is below 2 mu2 + 2 M^2 = {threshold:g}",
            )
        ]
    run.solution  # the candidate's backward pass steps the column
    return [gap.report()]


def _tvc(run: ExperimentRun) -> List[VerificationReport]:
    name = run.definition.tvc_competitor
    law = run.definition.competitors(run.params)[name]
    run.solution  # the candidate's backward pass keeps the tail of Y
    # the competitor is costed in the same pass, for costs to read
    costing = PathCostSum(run.problem, run.grid)
    report = check_tvc(run.problem, run.visitors["tvc"], law, costing)
    counts = {k: report.details[k] for k in ("clipped_paths", "exploded_paths")}
    run.competitor_costs[name] = costing.total, counts
    return [report]


def _costs(run: ExperimentRun) -> List[VerificationReport]:
    ens = run.ensemble
    costs, degenerate = {"candidate": path_costs(run.problem, ens)}, {}
    for name, law in run.definition.competitors(run.params).items():
        if name not in run.competitor_costs:
            costing = PathCostSum(run.problem, run.grid)
            flags = stream_competitor(run.problem, ens, law, costing)
            run.competitor_costs[name] = costing.total, degenerate_paths(flags)
        costs[name], degenerate[name] = run.competitor_costs[name]
    for name, j in costs.items():
        run.costs[name] = CostEstimate.from_path_costs(j, run.grid.horizon, label=name)
    return [cost_dominance(costs.pop("candidate"), costs, degenerate)]


# checks every experiment runs; each is called only when selected, and the
# candidate's paths and costate are computed only when a check asks for them
_GENERIC_CHECKS = {
    "assumptions": lambda run: [validate_assumptions(run.problem, run.definition.sample_spec(run.params))],
    "identities": lambda run: [check_identities(run.problem, run.definition.sample_spec(run.params))],
    "concavity": lambda run: [
        concavity_probe(run.problem, spec) for spec in run.definition.concavity_specs(run.params)
    ],
    "pointwise_max": _pointwise_max,
    "positivity": lambda run: [positivity_check(run.ensemble)],
    "stability": _stability,
    "tvc": _tvc,
    "costs": _costs,
}

# the visitors of the generic checks that read the costate
_GENERIC_VISITORS = {
    "pointwise_max": lambda run: PointwiseSample(
        seed=run.seed + 4, max_time=run.definition.pointwise_window(run.grid.horizon)
    ),
    # the premise beta >= 2 mu2 + 2 M^2 unmet: the check is inconclusive
    "stability": lambda run: (
        TerminalStabilityGap(run.problem, run.basis)
        if run.problem.beta >= stability_threshold(run.problem) else None
    ),
    "tvc": lambda run: TailCostate(),
}


_REGISTRY: Dict[str, ExperimentDefinition] = {}


def register_experiment(definition: ExperimentDefinition) -> None:
    """Add a model; its default checks and tvc competitor must be ones it defines."""
    name = definition.name
    if name in _REGISTRY:
        raise ValueError(f"experiment {name!r} already registered")
    unknown = set(definition.default_checks) - set(definition.check_table)
    if unknown:
        raise ValueError(f"default checks of {name!r} are not in its check table: {sorted(unknown)}")
    if definition.tvc_competitor not in definition.competitors(definition.params_type()):
        raise ValueError(f"tvc competitor {definition.tvc_competitor!r} is not a competitor of {name!r}")
    _REGISTRY[name] = definition


def get_experiment(name: str) -> ExperimentDefinition:
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise KeyError(f"unknown experiment {name!r}; available: {known}") from None


def list_experiments() -> List[ExperimentDefinition]:
    return [_REGISTRY[k] for k in sorted(_REGISTRY)]


# The built-in entries call the module functions by name at run time instead
# of holding the function objects, so wrappers installed on this module after
# import (profilers, tracers) see every call.


def _consumption_oracle(run: ExperimentRun) -> List[VerificationReport]:
    # Y X = g(t) exactly, so the product curve isolates the solver error
    params, grid = run.params, run.grid
    times = grid.times()
    run.solution  # the candidate's backward pass reduces mean(Y X) node by node
    prod = run.visitors["oracle"].values[:, 0]
    g = consumption_truncated_costate(params, grid.horizon, times)
    keep = np.exp(-run.problem.beta * (grid.horizon - times)) <= 0.5
    rel = np.abs(prod[keep] - g[keep]) / g[keep]
    stat = float(rel.max())
    run.curves["costate_times_state"] = prod
    return [
        VerificationReport(
            check="oracle",
            status=PASS if stat <= 0.05 else FAIL,
            statistic=stat,
            tolerance=0.05,
            n_samples=run.n_paths,
            details={
                "y0_estimate": float(run.solution.y0()[0]),
                "y0_exact": float(g[0] / params.x0),
                "nodes_compared": int(keep.sum()),
            },
            notes="mean of Y X against the closed-form curve g(t)",
        )
    ]


def _consumption_integrability(run: ExperimentRun) -> List[VerificationReport]:
    """Reciprocal second moment vs its closed form under a constant policy.

    For constant u the wealth is geometric, and the multiplicative stepper
    propagates it exactly in the log, so at every grid node E[X_t^{-2}]
    equals x0^{-2} exp((3 sigma^2 - 2 mu + 2u) t).  The policy u = cap/2,
    which makes the certified discount threshold tight, is stepped on the
    candidate's noise (:func:`stream_competitor`).  The mean of 1/X^2 must
    track the closed form within 3 SE at the first node at or after each of
    ``INTEGRABILITY_PROBE_TIMES``; probes past the horizon are dropped, and
    with none left the check is inconclusive.
    """
    params, grid = run.params, run.grid
    u_val = min(max(0.5 * params.cap, params.eps_u), params.cap)
    exponent = 3.0 * params.sigma**2 - 2.0 * params.mu + 2.0 * u_val
    nodes = np.array(
        [math.ceil(t / grid.dt - 1e-9) for t in INTEGRABILITY_PROBE_TIMES if t <= grid.horizon], dtype=int
    )
    times = grid.times()[nodes]
    details = {
        "exponent": exponent,
        "policy": u_val,
        "certified_threshold": certified_consumption_threshold(params),
        "probe_times": times.tolist(),
    }
    if nodes.size == 0:
        return [VerificationReport(
            check="integrability", status=INCONCLUSIVE, details=details,
            notes=f"no grid node at or after {INTEGRABILITY_PROBE_TIMES[0]:g} before the horizon",
        )]

    mc, sd = np.empty(nodes.size), np.empty(nodes.size)

    def moments(s: int, x: Array, u: Array) -> None:
        for k in np.flatnonzero((nodes >= s) & (nodes <= s + u.shape[1])):
            inv_sq = 1.0 / np.square(x[:, nodes[k] - s, 0])
            mc[k], sd[k] = inv_sq.mean(), inv_sq.std(ddof=1)

    ens = run.ensemble
    flags = stream_competitor(run.problem, ens, ConstantControl([u_val]), moments)
    se = sd / math.sqrt(ens.n_paths)
    exact = params.x0**-2 * np.exp(exponent * times)
    rel_dev = np.abs(mc - exact) / exact
    rel_tol = 3.0 * se / exact
    worst = int(np.argmax(rel_dev - rel_tol))
    ok = bool(np.all(rel_dev <= rel_tol + 1e-12))
    return [VerificationReport(
        check="integrability",
        status=PASS if ok else FAIL,
        statistic=float(rel_dev[worst]),
        tolerance=float(rel_tol[worst]),
        n_samples=ens.n_paths,
        standard_error=float(se[worst]),
        details={**details, **degenerate_paths(flags)},
        notes="E[1/X^2] against its closed form under a constant policy",
    )]


def _consumption_scalars(run: ExperimentRun) -> None:
    params, beta = run.params, run.problem.beta
    g = consumption_truncated_costate(params, run.grid.horizon, run.grid.times())
    run.scalars["y0_exact"] = float(g[0] / params.x0)
    run.scalars["stationary_policy"] = min(beta, params.cap)
    run.scalars["beta"] = beta
    run.scalars["beta_threshold"] = beta_threshold(run.problem)
    run.scalars["certified_threshold"] = certified_consumption_threshold(params)
    run.curves["g_exact"] = g


register_experiment(
    ExperimentDefinition(
        name="consumption",
        summary="log-utility consumption of a geometric asset (closed form: u = beta)",
        params_type=ConsumptionParams,
        default_steps=200,
        default_paths=20_000,
        default_checks=(
            "assumptions", "identities", "concavity", "oracle", "integrability",
            "pointwise_max", "stability", "tvc", "costs", "positivity",
        ),
        tvc_competitor="constant_quarter",
        basis=RegressionBasis(degree=4, reciprocal=True),
        problem=lambda params: consumption_problem(params),
        candidate=lambda run: consumption_optimal_law(run.params),
        competitors=lambda params: consumption_competitors(params),
        sample_spec=lambda params: consumption_sample_spec(params),
        concavity_specs=lambda params: consumption_concavity_specs(params),
        scalars=_consumption_scalars,
        checks={
            "oracle": _consumption_oracle,
            "integrability": _consumption_integrability,
        },
        visitors={"oracle": lambda run: NodeReduction(lambda node: (node.y[:, 0] * node.x[:, 0]).mean())},
        # the stationary candidate meets the zero-terminal costate only away
        # from the horizon
        pointwise_tol=1e-3,
        pointwise_window=_before_terminal_layer(10.0, 12.0, 0.4),
    )
)


def _riccati_phi_psi(run: ExperimentRun) -> tuple[Array, Array]:
    """The Riccati curves phi and psi at each node's time to go."""
    oracle = RiccatiOracle(run.params)
    s = run.grid.horizon - run.grid.times()
    return oracle.phi_at(s), oracle.psi_at(s)


def _production_oracle_visitor(run: ExperimentRun) -> NodeReduction:
    """Per node, in the backward pass: the mean relative gap of Y to the
    Riccati costate, and the count of the step's controls on the box."""
    phi_s, psi_s = _riccati_phi_psi(run)
    lower, upper = run.problem.domain.lower, run.problem.domain.upper

    def reduce(node):
        exact = phi_s[node.i] * node.x[:, 0] + psi_s[node.i]
        gap = (np.abs(node.y[:, 0] - exact) / (1.0 + np.abs(exact))).mean()
        on_box = 0 if node.u is None else np.count_nonzero((node.u <= lower) | (node.u >= upper))
        return gap, on_box

    return NodeReduction(reduce, width=2)


def _production_oracle(run: ExperimentRun) -> List[VerificationReport]:
    params, grid = run.params, run.grid
    phi_s, _ = _riccati_phi_psi(run)
    run.solution  # the candidate's backward pass reduces the node gaps
    node_gap, on_box = run.visitors["oracle"].values.T
    ens = run.ensemble
    stat = float(node_gap.max())
    box_share = int(on_box.sum()) / (ens.n_paths * grid.steps * ens.domain.dim)
    det_value, det_exact, det_rel = production_sigma_zero_cost(params)
    ok = stat <= 0.05 and det_rel <= 0.005
    status = PASS if ok else FAIL
    notes = "costate vs the Riccati curve, plus the noise-free value point"
    if box_share > ORACLE_MAX_BOX_SHARE:
        # the curve and V(x0) assume an inactive box
        status, notes = INCONCLUSIVE, f"not applicable: {box_share:.1%} of the candidate's nodes sit on the box"
    run.curves["phi_of_time_to_go"] = phi_s
    return [
        VerificationReport(
            check="oracle",
            status=status,
            statistic=stat,
            tolerance=0.05,
            n_samples=run.n_paths,
            details={
                "sigma_zero_cost": det_value,
                "sigma_zero_exact": det_exact,
                "sigma_zero_rel_error": det_rel,
                "box_share": box_share,
            },
            notes=notes,
        )
    ]


def _production_scalars(run: ExperimentRun) -> None:
    params = run.params
    oracle = RiccatiOracle(params)
    run.scalars["phi_inf"] = oracle.phi_inf
    run.scalars["psi_inf"] = oracle.psi_inf
    run.scalars["value_at_x0"] = float(oracle.value(params.x0))
    # the stationary costate is affine, y(x) = phi x + psi
    run.scalars["y0_exact"] = oracle.phi_inf * params.x0 + oracle.psi_inf


register_experiment(
    ExperimentDefinition(
        name="production",
        summary="linear-quadratic production planning (closed form: Riccati value)",
        params_type=ProductionPlanningParams,
        default_steps=400,
        default_paths=20_000,
        default_checks=(
            "assumptions", "identities", "concavity", "oracle", "pointwise_max",
            "stability", "tvc", "costs",
        ),
        tvc_competitor="constant_high",
        basis=RegressionBasis(degree=4),
        problem=lambda params: production_problem(params),
        candidate=lambda run: production_optimal_law(run.params),
        competitors=lambda params: production_competitors(params),
        sample_spec=lambda params: production_sample_spec(params),
        concavity_specs=lambda params: production_concavity_specs(params),
        scalars=_production_scalars,
        checks={
            "oracle": _production_oracle,
        },
        visitors={"oracle": _production_oracle_visitor},
        # the stationary candidate meets the zero-terminal costate only away
        # from the horizon
        pointwise_tol=1e-3,
        pointwise_window=_before_terminal_layer(6.0, 8.0, 0.5),
    )
)


def _logistic_lyapunov(run: ExperimentRun) -> List[VerificationReport]:
    regions = logistic_region_constants(run.params)
    xs = np.geomspace(1e-3, 3.0 * regions.R, 4001)[:, None]
    run.scalars["region_r"] = regions.r
    run.scalars["region_R"] = regions.R
    run.scalars["region_C"] = regions.C
    return [lyapunov_generator_check(run.problem, xs, regions)]


def _logistic_scalars(run: ExperimentRun) -> None:
    # the closed loop's costate is there once the loop has run
    if run.solution is not None:
        residuals = run.candidate.residuals
        run.scalars["picard_iterations"] = len(residuals)
        run.scalars["picard_residual"] = residuals[-1]
        run.scalars["mean_policy_at_0"] = float(run.ensemble.control(0)[:, 0].mean())


register_experiment(
    ExperimentDefinition(
        name="logistic",
        summary="harvested logistic growth on (0, inf), solved by Picard iteration",
        params_type=LogisticParams,
        default_steps=250,
        default_paths=15_000,
        default_checks=(
            "assumptions", "identities", "concavity", "picard", "pointwise_max",
            "comparison", "positivity", "cylinder", "lyapunov", "tvc", "costs",
        ),
        tvc_competitor="constant_high",
        basis=RegressionBasis(degree=4),
        problem=lambda params: logistic_problem(params),
        candidate=lambda run: logistic_picard_solve(
            run.params, run.grid, run.n_paths, run.seed, basis=run.basis, visitors=run.pass_visitors
        ),
        competitors=lambda params: logistic_competitors(params),
        sample_spec=lambda params: logistic_sample_spec(params),
        concavity_specs=lambda params: logistic_concavity_specs(params),
        scalars=_logistic_scalars,
        checks={
            "picard": lambda run: [run.candidate.report],
            "comparison": lambda run: [comparison_check(run.problem, run.ensemble)],
            "cylinder": lambda run: [cylinder_consistency_check(
                run.problem, run.ensemble, run.basis,
                truncation_m=10.0, truncation_p=50.0, cylinder=5.0,
            )],
            "lyapunov": _logistic_lyapunov,
            "uniqueness": lambda run: [logistic_local_uniqueness_probe(
                run.params, run.grid, min(run.n_paths, 8000), run.seed, basis=run.basis
            )],
        },
        # the fixed-point candidate is consistent with its own surface, so the
        # pointwise check keeps the default tolerance on the whole grid
    )
)


def run_experiment(
    name: str,
    params=None,
    grid: TimeGrid | None = None,
    n_paths: int | None = None,
    seed: int = 0,
    basis: RegressionBasis | None = None,
    checks=None,
    visitors: Sequence[CostateVisitor] = (),
) -> ExperimentRun:
    """Build, solve and audit one registered experiment; returns the run.

    ``params`` may be a params instance or a mapping of field overrides.
    ``checks`` selects which reports to produce (default: the experiment's
    registered list); an empty selection, a name outside the experiment's
    check table and ``n_paths`` below 2 are errors.  The forward simulation
    and the backward solve only run when a selected check needs them, so
    problem-level audits stay cheap and leave ``ensemble`` and ``solution``
    None.  The selected checks that read the costate declare their
    visitors before the candidate's first backward pass, and every pass
    carries them, with ``visitors``, further :class:`CostateVisitor` objects
    of the caller's (say a :class:`~smpsolve.bsde.CostateTable` for a dump).
    """
    definition = get_experiment(name)
    if params is None:
        params = definition.params_type()
    elif isinstance(params, dict):
        params = definition.params_type(**params)
    elif not isinstance(params, definition.params_type):
        raise TypeError(f"params must be a {definition.params_type.__name__} or a dict")

    table = definition.check_table
    selected = set(definition.default_checks if checks is None else checks)
    if not selected:
        raise ValueError(f"no checks selected for {name!r}")
    unknown = selected - set(table)
    if unknown:
        raise ValueError(f"unknown checks for {name!r}: {sorted(unknown)}")

    problem = definition.problem(params)
    grid = TimeGrid.auto(problem.beta, definition.default_steps) if grid is None else grid
    n_paths = definition.default_paths if n_paths is None else n_paths
    if n_paths < 2:
        raise ValueError(f"n_paths must be >= 2, got {n_paths}")
    basis = definition.basis if basis is None else basis
    run = ExperimentRun(definition, params, problem, grid, n_paths, seed, basis, selected, visitors)
    for check, produce in table.items():
        if check in selected:
            run.reports.extend(produce(run))

    # the checks are done: a closed loop keeps its own paths and costate, and
    # what no check computed stays None instead of being computed on a read
    loop = vars(run).get("candidate")
    if isinstance(loop, PicardResult):
        run.ensemble, run.solution = loop.ensemble, loop.solution
    vars(run).setdefault("ensemble", None)
    vars(run).setdefault("solution", None)

    definition.scalars(run)
    ens, sol = run.ensemble, run.solution
    run.curves["times"] = grid.times()
    if ens is not None:
        run.curves["mean_state"] = ens.states[:, :, 0].mean(axis=0)
        run.curves["mean_control"] = np.array([ens.control(i)[:, 0].mean() for i in range(grid.steps)])
    if sol is not None:
        run.scalars["y0_estimate"] = float(sol.y0()[0])
        run.scalars["condition_number_max"] = float(sol.condition_numbers.max())
        run.scalars["condition_number_median"] = float(np.median(sol.condition_numbers))
        run.scalars["ridge_steps"] = len(sol.ridge_steps)
        run.curves["mean_costate"] = sol.y_means[:, 0]
    return run
