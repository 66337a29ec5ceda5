"""Problem definitions for infinite-horizon discounted stochastic control.

A problem is the data of a controlled SDE on a state region G (all of R^n or
the positive half-line), a compact control box U, a running reward f, and a
discount rate beta > 0:

    dX_t = b(X_t, u_t) dt + sigma(X_t, u_t) dW_t,
    J(u) = E integral_0^inf e^{-beta t} f(X_t, u_t) dt  ->  max.

Problems are always posed as maximizations; register minimization examples
with f negated.

The generalized Hamiltonian used throughout is

    H(x, u, y, z) = <b(x,u), y> + Tr(sigma(x,u)' z) + f(x,u) - beta <x, y>,

and the adjoint (costate) equation is driven by its x-gradient.  The plain
Hamiltonian omits the discount coupling term; the two differ by exactly
beta <x, y>, which is enforced by tests.

Shape conventions: callables are vectorized over leading batch axes.  States
are (..., n), controls (..., k), costates y (..., n), and z matrices
(..., n, d).  Drift gradients are (..., n, n) with [i, j] = d b_i / d x_j;
diffusion gradients are (..., n, d, j) with [i, c, j] = d sigma_ic / d x_j.
For n > 1 the costate products use the transpose action (grad b)' y, the
convention consistent with H being differentiated in x (the finite-difference
consistency tests pin this down).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable

import numpy as np

from .reports import FAIL, INCONCLUSIVE, PASS, VerificationReport

Array = np.ndarray


class StateRegion(Enum):
    """State region G of the controlled SDE."""

    WHOLE_SPACE = "whole_space"
    POSITIVE_HALF_LINE = "positive_half_line"


@dataclass(frozen=True)
class ControlDomain:
    """Compact box U = [lower_1, upper_1] x ... x [lower_k, upper_k]."""

    lower: Array
    upper: Array

    def __post_init__(self) -> None:
        lo = np.atleast_1d(np.asarray(self.lower, dtype=float))
        hi = np.atleast_1d(np.asarray(self.upper, dtype=float))
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)
        if lo.shape != hi.shape or lo.ndim != 1:
            raise ValueError("lower and upper must be 1-d arrays of equal length")
        if not (np.isfinite(lo).all() and np.isfinite(hi).all()):
            raise ValueError("control bounds must be finite")
        if np.any(lo > hi):
            raise ValueError("lower bound exceeds upper bound")

    @property
    def dim(self) -> int:
        return self.lower.shape[0]

    def clip(self, u: Array) -> Array:
        return np.clip(u, self.lower, self.upper)

    def sample(self, rng: np.random.Generator, size: int) -> Array:
        w = rng.random((size, self.dim))
        return self.lower + w * (self.upper - self.lower)


@dataclass(frozen=True)
class CoefficientField:
    """Coefficient callables of a controlled SDE plus their x-gradients.

    ``grad_diffusion`` may be omitted when the diffusion does not depend on
    the state (its gradient is then taken to be zero); the gradient in x of
    Tr(sigma(x,u)' z) at fixed z is assembled from it.  Analytic information
    about u-derivatives enters through ``DiscountedProblem.stationary_control``
    rather than through extra fields here.
    """

    state_dim: int
    noise_dim: int
    control_dim: int
    drift: Callable[[Array, Array], Array]
    diffusion: Callable[[Array, Array], Array]
    running_cost: Callable[[Array, Array], Array]
    grad_drift: Callable[[Array, Array], Array]
    grad_cost: Callable[[Array, Array], Array]
    grad_diffusion: Callable[[Array, Array], Array] | None = None

    def __post_init__(self) -> None:
        for name in ("state_dim", "noise_dim", "control_dim"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")

    def dsigma_dot_z(self, x: Array, u: Array, z: Array) -> Array:
        """Gradient in x of Tr(sigma(x,u)' z) at fixed z, shape (..., n)."""
        if self.grad_diffusion is None:
            shape = np.broadcast_shapes(np.shape(x), z.shape[:-2] + (self.state_dim,))
            return np.zeros(shape)
        gs = np.asarray(self.grad_diffusion(x, u), dtype=float)
        return np.einsum("...icj,...ic->...j", gs, z)


@dataclass(frozen=True)
class AssumptionConstants:
    """Structural constants of a problem.

    mu1  one-sided monotonicity rate of the drift in x,
         <x1-x2, b(x1,u)-b(x2,u)> <= mu1 |x1-x2|^2;
    mu2  quadratic-form bound on the drift gradient,
         <v, grad_x b(x,u) v> <= mu2 |v|^2;
    L    Lipschitz constant of the diffusion in x;
    M    bound on the summed gradients of the diffusion columns.
    """

    mu1: float
    mu2: float
    L: float
    M: float

    def __post_init__(self) -> None:
        if self.L < 0 or self.M < 0:
            raise ValueError("L and M must be nonnegative")
        for name in ("mu1", "mu2", "L", "M"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")


@dataclass(frozen=True)
class MultiplicativeStructure:
    """Decomposition b(x,u) = rate(u) * x + residual(x,u), sigma(x,u) = vol * x.

    Only meaningful for scalar problems on the positive half-line.  The
    forward stepper uses it to propagate the linear part of the dynamics
    exactly in the log, which keeps paths positive.
    """

    volatility: float
    linear_rate: Callable[[Array], Array]
    residual: Callable[[Array, Array], Array] | None = None


@dataclass(frozen=True)
class DiscountedProblem:
    """A discounted control problem ready for simulation and certification.

    ``stationary_control`` optionally registers the analytic stationary point
    of u -> H(x, u, y, z); the maximizer clips it to the control box.  Values
    of +/-inf are allowed and select the corresponding box face.
    ``sandwich_controls`` optionally names the constant controls whose state
    paths envelope every admissible law from below/above under shared noise.
    """

    coefficients: CoefficientField
    domain: ControlDomain
    beta: float
    constants: AssumptionConstants
    x0: Array
    state_region: StateRegion = StateRegion.WHOLE_SPACE
    stationary_control: Callable[[Array, Array, Array], Array] | None = None
    multiplicative: MultiplicativeStructure | None = None
    sandwich_controls: tuple[Array, Array] | None = None
    label: str = ""

    def __post_init__(self) -> None:
        if not (self.beta > 0 and math.isfinite(self.beta)):
            raise ValueError("beta must be positive and finite")
        x0 = np.atleast_1d(np.asarray(self.x0, dtype=float))
        object.__setattr__(self, "x0", x0)
        if x0.shape != (self.coefficients.state_dim,):
            raise ValueError("x0 must have shape (state_dim,)")
        if self.domain.dim != self.coefficients.control_dim:
            raise ValueError("control domain dimension mismatch")
        if self.state_region is StateRegion.POSITIVE_HALF_LINE:
            if self.coefficients.state_dim != 1:
                raise ValueError("positive half-line region requires state_dim == 1")
            if not np.all(x0 > 0):
                raise ValueError("x0 must be positive on the positive half-line")

    @property
    def state_dim(self) -> int:
        return self.coefficients.state_dim

    @property
    def noise_dim(self) -> int:
        return self.coefficients.noise_dim

    @property
    def control_dim(self) -> int:
        return self.coefficients.control_dim

    def is_strictly_discounted(self) -> bool:
        """True when beta clears the certification threshold strictly."""
        return self.beta > beta_threshold(self)


def beta_threshold(problem: DiscountedProblem) -> float:
    """Smallest discount rate above which the certification machinery applies.

    Returns max(2 mu1 + 2 L^2, 2 mu2 + 2 M^2).  The forward estimates need
    beta above the first entry, the costate equation above the second.
    """
    c = problem.constants
    return max(2.0 * c.mu1 + 2.0 * c.L**2, 2.0 * c.mu2 + 2.0 * c.M**2)


def _prep(problem: DiscountedProblem, x, u, y, z):
    n, d = problem.state_dim, problem.noise_dim
    x = np.asarray(x, dtype=float)
    u = np.asarray(u, dtype=float)
    y = np.asarray(y, dtype=float)
    z = np.asarray(z, dtype=float)
    if x.ndim == 0 or x.shape[-1] != n:
        raise ValueError(f"x must have trailing dimension {n}")
    if u.shape[-1] != problem.control_dim:
        raise ValueError("u has wrong control dimension")
    if y.shape[-1] != n:
        raise ValueError("y has wrong state dimension")
    if z.shape[-2:] != (n, d):
        raise ValueError(f"z must have trailing shape ({n}, {d})")
    return x, u, y, z


def hamiltonian(x, u, y, z, problem: DiscountedProblem) -> Array:
    """Generalized Hamiltonian <b,y> + Tr(sigma'z) + f - beta <x,y>."""
    x, u, y, z = _prep(problem, x, u, y, z)
    return hamiltonian_plain(x, u, y, z, problem) - problem.beta * np.einsum(
        "...i,...i->...", x, y
    )


def hamiltonian_plain(x, u, y, z, problem: DiscountedProblem) -> Array:
    """Undiscounted Hamiltonian <b,y> + Tr(sigma'z) + f."""
    x, u, y, z = _prep(problem, x, u, y, z)
    c = problem.coefficients
    b = np.asarray(c.drift(x, u), dtype=float)
    s = np.asarray(c.diffusion(x, u), dtype=float)
    f = np.asarray(c.running_cost(x, u), dtype=float)
    return (
        np.einsum("...i,...i->...", b, y)
        + np.einsum("...ic,...ic->...", s, z)
        + f
    )


def grad_x_hamiltonian(x, u, y, z, problem: DiscountedProblem) -> Array:
    """x-gradient of the generalized Hamiltonian, the costate driver.

    Equals (grad_x b)' y + (gradient of Tr(sigma' z)) + grad_x f - beta y.
    """
    x, u, y, z = _prep(problem, x, u, y, z)
    c = problem.coefficients
    gb = np.asarray(c.grad_drift(x, u), dtype=float)
    term_b = np.einsum("...ij,...i->...j", gb, y)
    term_s = c.dsigma_dot_z(x, u, z)
    term_f = np.asarray(c.grad_cost(x, u), dtype=float)
    return term_b + term_s + term_f - problem.beta * y


def _central_difference(fn, x: Array, j: int, rel_step: float) -> Array:
    """(fn(x + h e_j) - fn(x - h e_j)) / 2h with h = rel_step (1 + |x_j|).

    ``fn`` maps states (..., n) to values (...) or (..., m); h broadcasts
    over any trailing value axes.
    """
    h = rel_step * (1.0 + np.abs(x[..., j]))
    xp = x.copy()
    xm = x.copy()
    xp[..., j] = x[..., j] + h
    xm[..., j] = x[..., j] - h
    fp = np.asarray(fn(xp), dtype=float)
    fm = np.asarray(fn(xm), dtype=float)
    return (fp - fm) / (2.0 * h.reshape(h.shape + (1,) * (fp.ndim - h.ndim)))


def finite_diff_grad_x(x, u, y, z, problem: DiscountedProblem, rel_step: float = 1e-5) -> Array:
    """Central finite difference of the generalized Hamiltonian in x."""
    x, u, y, z = _prep(problem, x, u, y, z)
    grads = [
        _central_difference(lambda xs: hamiltonian(xs, u, y, z, problem), x, j, rel_step)
        for j in range(problem.state_dim)
    ]
    return np.stack(grads, axis=-1)


@dataclass
class HamiltonianMaxCertificate:
    """Certificate attached to a pointwise Hamiltonian maximization.

    ``gap`` is H(u*) minus the best value found on a reference grid; it must
    not be materially negative.  ``concavity_warning`` flags a positive
    sampled second difference along some control coordinate.
    """

    gap: float
    concavity_warning: bool = False


def _batch_golden_section(f, lo: Array, hi: Array, tol: float, max_iter: int = 200):
    """Vectorized golden-section maximization of f over [lo, hi] per row."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a = lo.astype(float).copy()
    b = hi.astype(float).copy()
    for _ in range(max_iter):
        if np.all(b - a <= tol):
            break
        c = b - invphi * (b - a)
        d = a + invphi * (b - a)
        keep_left = f(c) >= f(d)
        b = np.where(keep_left, d, b)
        a = np.where(keep_left, a, c)
    return 0.5 * (a + b)


def maximize_hamiltonian_in_u(
    x,
    y,
    z,
    problem: DiscountedProblem,
    grid_points: int = 101,
    tol: float = 1e-10,
):
    """Maximize u -> H(x, u, y, z) over the control box.

    Uses the registered analytic stationary point (clipped to the box) when
    the problem provides one, otherwise golden-section search per control
    coordinate (coordinate ascent for k > 1).  Returns ``(u_star, cert)``
    where ``cert.gap`` compares H(u_star) against a reference grid of
    ``grid_points`` values per coordinate and ``cert.concavity_warning``
    reports positive curvature sampled along the grid.

    Inputs broadcast over leading axes; u_star has shape (..., k).
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    z = np.asarray(z, dtype=float)
    scalar_in = x.ndim == 1
    if scalar_in:
        x = x[None, :]
        y = y[None, :]
        z = z[None, :, :]
    batch = np.broadcast_shapes(x.shape[:-1], y.shape[:-1], z.shape[:-2])
    x = np.broadcast_to(x, batch + x.shape[-1:]).reshape(-1, x.shape[-1])
    y = np.broadcast_to(y, batch + y.shape[-1:]).reshape(-1, y.shape[-1])
    z = np.broadcast_to(z, batch + z.shape[-2:]).reshape(-1, *z.shape[-2:])
    P = x.shape[0]
    k = problem.control_dim
    dom = problem.domain

    def ham_at(u_flat):
        return hamiltonian(x, u_flat, y, z, problem)

    if problem.stationary_control is not None:
        u_raw = np.asarray(problem.stationary_control(x, y, z), dtype=float)
        u_raw = np.broadcast_to(u_raw, (P, k)).copy()
        u_raw = np.nan_to_num(u_raw, nan=0.0, posinf=np.inf, neginf=-np.inf)
        u_star = dom.clip(u_raw)
    else:
        u_star = np.broadcast_to(0.5 * (dom.lower + dom.upper), (P, k)).copy()
        for sweep in range(1 if k == 1 else 3):
            for j in range(k):
                lo = np.full(P, dom.lower[j])
                hi = np.full(P, dom.upper[j])

                def f_coord(v, j=j):
                    u_try = u_star.copy()
                    u_try[:, j] = v
                    return ham_at(u_try)

                u_star[:, j] = _batch_golden_section(f_coord, lo, hi, tol)

    h_star = ham_at(u_star)

    # Reference grid certificate and curvature probe, per coordinate.
    gap = np.full(P, np.inf)
    warn = False
    for j in range(k):
        grid = np.linspace(dom.lower[j], dom.upper[j], grid_points)
        vals = np.empty((grid_points, P))
        for g_i, g in enumerate(grid):
            u_try = u_star.copy()
            u_try[:, j] = g
            vals[g_i] = ham_at(u_try)
        second = vals[2:] - 2.0 * vals[1:-1] + vals[:-2]
        if second.size and float(np.nanmax(second)) > 1e-8:
            warn = True
        gap = np.minimum(gap, h_star - np.nanmax(vals, axis=0))

    cert = HamiltonianMaxCertificate(gap=float(np.min(gap)), concavity_warning=warn)
    u_out = u_star.reshape(batch + (k,))
    if scalar_in:
        u_out = u_out[0]
    return u_out, cert


@dataclass(frozen=True)
class SampleSpec:
    """Sampling plan over G x G x U for the assumption audit.

    Pairs (x1, x2) are drawn uniformly from [x_low, x_high]^n, controls
    uniformly from the box.  Pairs closer than ``degenerate_tol`` are
    discarded before ratios are formed.
    """

    x_low: Array
    x_high: Array
    n_pairs: int = 2000
    seed: int = 0
    degenerate_tol: float = 1e-12

    def __post_init__(self) -> None:
        lo = np.atleast_1d(np.asarray(self.x_low, dtype=float))
        hi = np.atleast_1d(np.asarray(self.x_high, dtype=float))
        object.__setattr__(self, "x_low", lo)
        object.__setattr__(self, "x_high", hi)
        if np.any(lo >= hi):
            raise ValueError("x_low must be strictly below x_high")
        if self.n_pairs < 10:
            raise ValueError("n_pairs too small to be meaningful")

    def draw_states(self, rng: np.random.Generator, count: int) -> Array:
        w = rng.random((count, self.x_low.shape[0]))
        return self.x_low + w * (self.x_high - self.x_low)


def validate_assumptions(
    problem: DiscountedProblem,
    spec: SampleSpec,
    slack: float = 1e-9,
) -> VerificationReport:
    """Audit the declared structural constants against sampled ratios.

    Per assumption the worst observed ratio is compared with the declared
    constant (plus ``slack`` to absorb roundoff at equality cases):

    - finiteness of all coefficient fields at the samples,
    - drift monotonicity ratio vs mu1,
    - diffusion Lipschitz ratio vs L,
    - gradient consistency of grad_drift / grad_cost vs finite differences,
    - drift-gradient quadratic form vs mu2,
    - summed diffusion-column gradient norms vs M,
    - strict discount margin: beta above max(2 mu1 + 2 L^2, 2 mu2 + 2 M^2).
    """
    rng = np.random.default_rng(spec.seed)
    c = problem.coefficients
    consts = problem.constants
    n = problem.state_dim
    x1 = spec.draw_states(rng, spec.n_pairs)
    x2 = spec.draw_states(rng, spec.n_pairs)
    u = problem.domain.sample(rng, spec.n_pairs)
    keep = np.linalg.norm(x1 - x2, axis=-1) > spec.degenerate_tol
    x1k, x2k, uk = x1[keep], x2[keep], u[keep]
    dx = x1k - x2k
    dx2 = np.einsum("...i,...i->...", dx, dx)

    details: dict = {}
    ok_all = True

    def record(name: str, worst: float, declared: float, ok: bool, extra=None):
        nonlocal ok_all
        entry = {"worst": float(worst), "declared": float(declared), "pass": bool(ok)}
        if extra:
            entry.update(extra)
        details[name] = entry
        ok_all = ok_all and ok

    # finiteness over all sampled points
    vals = [
        np.asarray(c.drift(x1, u), dtype=float),
        np.asarray(c.diffusion(x1, u), dtype=float),
        np.asarray(c.running_cost(x1, u), dtype=float),
        np.asarray(c.grad_drift(x1, u), dtype=float),
        np.asarray(c.grad_cost(x1, u), dtype=float),
    ]
    finite = all(np.isfinite(v).all() for v in vals)
    record("finite_fields", 0.0 if finite else math.inf, 0.0, finite)

    # drift monotonicity: <dx, b(x1,u)-b(x2,u)> / |dx|^2 <= mu1
    db = np.asarray(c.drift(x1k, uk), dtype=float) - np.asarray(c.drift(x2k, uk), dtype=float)
    ratios = np.einsum("...i,...i->...", dx, db) / dx2
    worst = float(np.max(ratios))
    record("drift_monotonicity", worst, consts.mu1, worst <= consts.mu1 + slack)

    # diffusion Lipschitz: ||sigma(x1,u)-sigma(x2,u)|| / |dx| <= L
    ds = np.asarray(c.diffusion(x1k, uk), dtype=float) - np.asarray(
        c.diffusion(x2k, uk), dtype=float
    )
    ratios = np.sqrt(np.einsum("...ic,...ic->...", ds, ds) / dx2)
    worst = float(np.max(ratios))
    record("diffusion_lipschitz", worst, consts.L, worst <= consts.L + slack)

    # gradient consistency against central differences
    probe = spec.draw_states(rng, min(200, x1k.shape[0]))
    probe_u = problem.domain.sample(rng, probe.shape[0])
    fd_err = 0.0
    gb = np.asarray(c.grad_drift(probe, probe_u), dtype=float)
    gf = np.asarray(c.grad_cost(probe, probe_u), dtype=float)
    for j in range(n):
        fd_b = _central_difference(lambda xs: c.drift(xs, probe_u), probe, j, 1e-6)
        fd_f = _central_difference(lambda xs: c.running_cost(xs, probe_u), probe, j, 1e-6)
        scale_b = 1.0 + np.abs(gb[:, :, j])
        fd_err = max(fd_err, float(np.max(np.abs(fd_b - gb[:, :, j]) / scale_b)))
        fd_err = max(fd_err, float(np.max(np.abs(fd_f - gf[:, j]) / (1.0 + np.abs(gf[:, j])))))
    record("gradients_consistent", fd_err, 1e-5, fd_err <= 1e-5)

    # drift gradient quadratic form: <v, grad_b v> / |v|^2 <= mu2
    v = rng.standard_normal((x1k.shape[0], n))
    v /= np.linalg.norm(v, axis=-1, keepdims=True)
    gbk = np.asarray(c.grad_drift(x1k, uk), dtype=float)
    quad = np.einsum("...i,...ij,...j->...", v, gbk, v)
    worst = float(np.max(quad))
    record("drift_gradient_form", worst, consts.mu2, worst <= consts.mu2 + slack)

    # summed diffusion-column gradient norms <= M
    if c.grad_diffusion is None:
        record("diffusion_gradient_bound", 0.0, consts.M, 0.0 <= consts.M + slack)
    else:
        gs = np.asarray(c.grad_diffusion(x1k, uk), dtype=float)
        norms = np.sqrt(np.einsum("...icj,...icj->...c", gs, gs))
        worst = float(np.max(norms.sum(axis=-1)))
        record("diffusion_gradient_bound", worst, consts.M, worst <= consts.M + slack)

    threshold = beta_threshold(problem)
    record(
        "discount_margin",
        threshold - problem.beta,
        0.0,
        problem.is_strictly_discounted(),
        extra={"beta": problem.beta, "threshold": threshold},
    )

    margin = max(
        details["drift_monotonicity"]["worst"] - consts.mu1,
        details["diffusion_lipschitz"]["worst"] - consts.L,
        details["drift_gradient_form"]["worst"] - consts.mu2,
        details["diffusion_gradient_bound"]["worst"] - consts.M,
        details["discount_margin"]["worst"],
    )
    return VerificationReport(
        check="assumptions",
        status=PASS if ok_all else FAIL,
        statistic=float(margin),
        tolerance=slack,
        n_samples=int(x1k.shape[0]),
        details=details,
        notes="worst ratio minus declared constant, per assumption in details",
    )


@dataclass(frozen=True)
class ConcavitySpec:
    """Sampling plan for the midpoint concavity probe.

    (x, u) pairs are drawn from the product box [x_low, x_high] x
    [u_low, u_high]; each (y, z) entry in ``yz_samples`` is held fixed while
    pairs are tested.  Defaults for u bounds come from the control domain.
    """

    x_low: Array
    x_high: Array
    yz_samples: tuple
    u_low: Array | None = None
    u_high: Array | None = None
    n_pairs: int = 500
    seed: int = 0
    tol: float = 1e-9


def concavity_probe(problem: DiscountedProblem, spec: ConcavitySpec) -> VerificationReport:
    """Midpoint test of joint concavity of (x, u) -> H(x, u, y, z).

    For sampled pairs p, q checks H((p+q)/2) >= (H(p) + H(q))/2 - tol and
    reports the count and worst magnitude of violations.  The probe is local
    to the supplied boxes; concavity outside them is not claimed.
    """
    rng = np.random.default_rng(spec.seed)
    x_lo = np.atleast_1d(np.asarray(spec.x_low, dtype=float))
    x_hi = np.atleast_1d(np.asarray(spec.x_high, dtype=float))
    u_lo = problem.domain.lower if spec.u_low is None else np.atleast_1d(spec.u_low)
    u_hi = problem.domain.upper if spec.u_high is None else np.atleast_1d(spec.u_high)

    violations = 0
    worst = 0.0
    total = 0
    for y, z in spec.yz_samples:
        y = np.atleast_1d(np.asarray(y, dtype=float))
        z = np.asarray(z, dtype=float).reshape(problem.state_dim, problem.noise_dim)
        xp = x_lo + rng.random((spec.n_pairs, x_lo.shape[0])) * (x_hi - x_lo)
        xq = x_lo + rng.random((spec.n_pairs, x_lo.shape[0])) * (x_hi - x_lo)
        up = u_lo + rng.random((spec.n_pairs, u_lo.shape[0])) * (u_hi - u_lo)
        uq = u_lo + rng.random((spec.n_pairs, u_lo.shape[0])) * (u_hi - u_lo)
        hp = hamiltonian(xp, up, y, z, problem)
        hq = hamiltonian(xq, uq, y, z, problem)
        hm = hamiltonian(0.5 * (xp + xq), 0.5 * (up + uq), y, z, problem)
        defect = 0.5 * (hp + hq) - hm
        bad = defect > spec.tol
        violations += int(bad.sum())
        total += spec.n_pairs
        if bad.any():
            worst = max(worst, float(defect[bad].max()))

    status = PASS if violations == 0 else FAIL
    return VerificationReport(
        check="concavity",
        status=status,
        statistic=float(worst),
        tolerance=spec.tol,
        n_samples=total,
        details={"violations": violations, "yz_samples": len(spec.yz_samples)},
        notes="midpoint concavity over sampled boxes",
    )
