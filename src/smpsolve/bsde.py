"""Regression-based solver for the adjoint (costate) backward equation.

The costate pair (Y, Z) of a discounted problem solves

    -dY_t = grad_x H(X_t, u_t, Y_t, Z_t) dt - Z_t dW_t

on the truncated horizon [0, T] with terminal condition Y_T = xi (zero by
default, justified by the exponential decay of the terminal's influence).
The scheme is backward induction with conditional expectations replaced by
least-squares projections on a per-step polynomial basis:

    Z_i = E[(Y_{i+1} - E[Y_{i+1}|X_i]) dW_i' | X_i] / dt,
    Y_i = E[Y_{i+1}|X_i] + driver(X_i, u_i, ., Z_i) dt,

with the driver evaluated first at the explicit predictor E[Y_{i+1}|X_i] and
then once more at the corrected value (two-pass explicit scheme).
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from functools import partial
from itertools import combinations_with_replacement

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .forward import PathEnsemble, TimeGrid, time_major
from .problems import DiscountedProblem, grad_x_hamiltonian
from .reports import FAIL, INCONCLUSIVE, PASS, VerificationReport

Array = np.ndarray

COND_LIMIT = 1e12
RIDGE_LAMBDA = 1e-8
MAX_BAD_FRACTION = 0.01
CYLINDER_TOL = 1e-8


class RegressionError(RuntimeError):
    """Raised when regression targets are too corrupted to fit."""


@dataclass(frozen=True)
class RegressionBasis:
    """Polynomial basis for the per-step conditional expectation regressions.

    Monomials in the standardized state, of total degree <= ``degree`` for
    several state dimensions.  ``reciprocal`` appends a standardized 1/x
    column, useful for problems on the positive half-line whose costate has
    reciprocal structure.
    """

    degree: int = 4
    reciprocal: bool = False

    def __post_init__(self) -> None:
        if self.degree < 1:
            raise ValueError("degree must be >= 1")

    def fit(self, x: Array, valid: Array | None = None):
        """Build the design matrix at states ``x`` and return its transform."""
        x = np.asarray(x, dtype=float)
        ref = x if valid is None else x[valid]
        shift = ref.mean(axis=0)
        scale = ref.std(axis=0)
        degenerate = bool(np.all(scale < 1e-12 * (1.0 + np.abs(shift))))
        scale = np.where(scale < 1e-300, 1.0, scale)
        rec_shift = rec_scale = None
        if self.reciprocal:
            if np.any(ref <= 0):
                raise ValueError("reciprocal basis column needs positive states")
            rec = 1.0 / ref[:, 0]
            rec_shift = float(rec.mean())
            rec_scale = float(max(rec.std(), 1e-300))
        transform = BasisTransform(
            shift=shift,
            scale=scale,
            degenerate=degenerate,
            reciprocal_shift=rec_shift,
            reciprocal_scale=rec_scale,
        )
        return self.design(x, transform), transform

    def design(self, x: Array, transform: "BasisTransform") -> Array:
        """Columns 1, the monomials by degree, then the reciprocal column.

        Monomials of one degree follow ``combinations_with_replacement``;
        each is its prefix monomial times one standardized coordinate.
        """
        x = np.asarray(x, dtype=float)
        P = x.shape[0]
        if transform.degenerate:
            return np.ones((P, 1))
        s = (x - transform.shift) / transform.scale
        monomials = [()]
        for deg in range(1, self.degree + 1):
            monomials += combinations_with_replacement(range(x.shape[1]), deg)
        # column-major, so that each column is written in one contiguous pass
        out = np.empty((P, len(monomials) + self.reciprocal), order="F")
        out[:, 0] = 1.0
        column = {(): 0}
        for j, combo in enumerate(monomials[1:], start=1):
            column[combo] = j
            np.multiply(out[:, column[combo[:-1]]], s[:, combo[-1]], out=out[:, j])
        if self.reciprocal:
            rec = out[:, -1]
            np.maximum(x[:, 0], 1e-300, out=rec)
            np.divide(1.0, rec, out=rec)
            rec -= transform.reciprocal_shift
            rec /= transform.reciprocal_scale
        return out


@dataclass(frozen=True)
class BasisTransform:
    """Per-step affine standardization, stored so surfaces can be re-evaluated."""

    shift: Array
    scale: Array
    degenerate: bool = False
    reciprocal_shift: float | None = None
    reciprocal_scale: float | None = None


def _least_squares(design: Array, valid: Array | None):
    """Factor the rows ``valid`` of ``design`` once for all fits on it.

    Cholesky of the Gram matrix A'A when cond(A) <= sqrt(COND_LIMIT): the
    normal equations square the condition number, which then stays within
    COND_LIMIT.  Worse-conditioned designs take QR, with a ridge fallback
    above COND_LIMIT.  Returns (fit, condition_number, used_ridge), where
    ``fit(targets)`` gives the coefficients for targets indexed like the
    rows of ``design``.
    """
    a = design if valid is None else design[valid]
    gram = a.T @ a
    cond = math.sqrt(np.linalg.cond(gram))
    ridged = False
    if cond <= math.sqrt(COND_LIMIT):
        factor = cho_factor(gram, check_finite=False)
        q, solve = a, partial(cho_solve, factor, check_finite=False)
    else:
        q, r = np.linalg.qr(a)
        sv = np.linalg.svd(r, compute_uv=False)
        cond = float(sv[0] / sv[-1]) if sv[-1] > 0 else math.inf
        ridged = cond > COND_LIMIT
        if ridged:
            # normal equations: solve (a'a + lambda I) coef = a' b
            q, r = a, gram + RIDGE_LAMBDA * np.eye(a.shape[1])
        solve = partial(np.linalg.solve, r)

    def fit(targets: Array) -> Array:
        b = targets if valid is None else targets[valid]
        return solve(q.T @ b)

    return fit, cond, ridged


@dataclass
class BsdeSolution:
    """Backward solve output: node values, surfaces, and fit diagnostics.

    ``Y`` has shape (P, N+1, n) and ``Z`` (P, N, n, d), both stored
    time-major (see :func:`smpsolve.forward.time_major`).  ``y_coeffs`` holds,
    per step i < N, the fit of the realized Y_i: the costate surface.
    """

    grid: TimeGrid
    Y: Array
    Z: Array
    basis: RegressionBasis
    transforms: list
    y_coeffs: list
    condition_numbers: Array
    ridge_steps: list

    def y0(self) -> Array:
        """Costate at time zero, averaged over paths."""
        return self.Y[:, 0, :].mean(axis=0)

    def y_at(self, step: int, x: Array) -> Array:
        """Evaluate the fitted costate surface of step ``step``, 0 <= step < N, at states x."""
        if not 0 <= step < self.grid.steps:
            raise ValueError(f"no costate surface at step {step} of a {self.grid.steps}-step grid")
        design = self.basis.design(np.asarray(x, dtype=float), self.transforms[step])
        return design @ self.y_coeffs[step]


def solve_bsde_lsmc(
    problem: DiscountedProblem,
    ensemble: PathEnsemble,
    basis: RegressionBasis,
    terminal: Array | None = None,
    driver_state_cap: float | None = None,
) -> BsdeSolution:
    """Solve the adjoint backward equation along a simulated ensemble.

    ``terminal`` gives per-path terminal values (P, n); omitted means zero.
    ``driver_state_cap`` replaces the state by min(X, cap) inside the driver
    only, the truncation used by the growth-controlled variant for problems
    on the positive half-line; the forward states and the diffusion term are
    untouched.  It must be positive.

    Each step factors its design once; the fits of E[Y_{i+1}|X_i], of Z_i
    and of the Y_i surface share that factorization.  Exploded paths are
    excluded from every regression.  Non-finite targets beyond
    ``MAX_BAD_FRACTION`` of paths abort with :class:`RegressionError`;
    isolated ones are masked out.  A ridge fallback is warned about.
    """
    if driver_state_cap is not None and not (driver_state_cap > 0):
        raise ValueError("driver_state_cap must be positive")
    grid = ensemble.grid
    P, N = ensemble.n_paths, grid.steps
    n, d = problem.state_dim, problem.noise_dim
    dt = grid.dt

    Y = time_major(P, N + 1, n)
    Z = time_major(P, N, n, d)
    if terminal is None:
        Y[:, N, :] = 0.0
    else:
        term = np.asarray(terminal, dtype=float)
        if term.shape != (P, n):
            raise ValueError("terminal must have shape (n_paths, state_dim)")
        Y[:, N, :] = term

    transforms: list = [None] * N
    y_coeffs: list = [None] * N
    conds = np.empty(N)
    ridge_steps: list[int] = []
    base_valid = ~ensemble.exploded

    for i in range(N - 1, -1, -1):
        x_i = ensemble.states[:, i, :]
        u_i = ensemble.controls[:, i, :]
        dW = ensemble.noise.increments[:, i, :]
        target_y = Y[:, i + 1, :]

        finite = np.isfinite(target_y).all(axis=1)
        valid = base_valid & finite
        bad_fraction = 1.0 - float(finite[base_valid].mean()) if base_valid.any() else 1.0
        if bad_fraction > MAX_BAD_FRACTION:
            raise RegressionError(
                f"step {i}: {bad_fraction:.1%} of regression targets are non-finite"
            )
        if not valid.any():
            raise RegressionError(f"step {i}: no usable paths remain")
        mask = None if valid.all() else valid

        design, transform = basis.fit(x_i, valid=mask)
        fit, cond, ridged = _least_squares(design, mask)
        y_pred = design @ fit(target_y)

        resid = np.where(valid[:, None], target_y - y_pred, 0.0)
        target_z = (resid[:, :, None] * dW[:, None, :]).reshape(P, n * d) / dt
        z_i = (design @ fit(target_z)).reshape(P, n, d)

        x_eff = np.minimum(x_i, driver_state_cap) if driver_state_cap is not None else x_i
        g = grad_x_hamiltonian(x_eff, u_i, y_pred, z_i, problem)
        y_half = y_pred + g * dt
        g = grad_x_hamiltonian(x_eff, u_i, y_half, z_i, problem)
        y_i = y_pred + g * dt

        Y[:, i, :] = y_i
        Z[:, i, :, :] = z_i
        transforms[i] = transform
        y_coeffs[i] = fit(y_i)
        conds[i] = cond
        if ridged and not transform.degenerate:
            ridge_steps.append(i)

    if ridge_steps:
        warnings.warn(
            f"ridge fallback used at {len(ridge_steps)} regression steps "
            f"(worst condition {conds.max():.3g})",
            RuntimeWarning,
            stacklevel=2,
        )

    return BsdeSolution(
        grid=grid,
        Y=Y,
        Z=Z,
        basis=basis,
        transforms=transforms,
        y_coeffs=y_coeffs,
        condition_numbers=conds,
        ridge_steps=sorted(ridge_steps),
    )


def terminal_stability_gap(
    problem: DiscountedProblem,
    ensemble: PathEnsemble,
    basis: RegressionBasis,
    xi_values: Array,
) -> VerificationReport:
    """Compare zero-terminal and xi-terminal solves on one ensemble.

    The xi terminal is projected on the final-step basis (a stand-in for its
    conditional expectation given X_T).  The gap is

        max_i  mean( e^{-beta t_i} |Y^0_i - Y^xi_i|^2 )

    and the reference bound is e^{-beta T} * mean(|xi|^2).  Pass when
    gap <= bound * (1 + 0.25) + 3 SE.  Requires beta >= 2 mu2 + 2 M^2.
    The scheme is affine in (Y, Z) with ``grad_cost`` its only free term, so
    Y^xi - Y^0 is one solve with ``grad_cost`` zero and terminal xi.  The
    report's statistic is the gap; ``details`` hold the bound and argmax node.
    """
    c = problem.constants
    if problem.beta < 2.0 * c.mu2 + 2.0 * c.M**2:
        raise ValueError("terminal stability needs beta >= 2 mu2 + 2 M^2")
    xi = np.asarray(xi_values, dtype=float)
    if xi.ndim == 1:
        xi = xi[:, None]
    P = ensemble.n_paths
    if xi.shape != (P, problem.state_dim):
        raise ValueError("xi_values must have shape (n_paths, state_dim)")

    x_T = ensemble.states[:, -1, :]
    valid = None if not ensemble.exploded.any() else ~ensemble.exploded
    design, _ = basis.fit(x_T, valid=valid)
    fit, _, _ = _least_squares(design, valid)
    xi_proj = design @ fit(xi)

    no_cost = replace(problem.coefficients, grad_cost=lambda x, u: np.zeros_like(x))
    diff = solve_bsde_lsmc(replace(problem, coefficients=no_cost), ensemble, basis, terminal=xi_proj).Y
    sq = np.einsum("pin,pin->pi", diff, diff)
    weighted = sq * np.exp(-problem.beta * ensemble.grid.times())
    node_means = weighted.mean(axis=0)
    i_star = int(np.argmax(node_means))
    gap = float(node_means[i_star])
    se = float(weighted[:, i_star].std(ddof=1) / math.sqrt(P)) if P > 1 else 0.0

    bound = float(
        math.exp(-problem.beta * ensemble.grid.horizon)
        * np.einsum("pn,pn->p", xi, xi).mean()
    )
    tol = bound * (1.0 + 0.25) + 3.0 * se
    return VerificationReport(
        check="terminal_stability",
        status=PASS if gap <= tol else FAIL,
        statistic=gap,
        tolerance=tol,
        n_samples=P,
        standard_error=se,
        details={"bound": bound, "argmax_node": i_star, "horizon": ensemble.grid.horizon},
        notes="weighted squared gap between zero- and xi-terminal solves",
    )


def cylinder_consistency_check(
    problem: DiscountedProblem,
    ensemble: PathEnsemble,
    basis: RegressionBasis,
    truncation_m: float,
    truncation_p: float,
    cylinder: float,
) -> VerificationReport:
    """Truncation consistency on paths that never leave a bounded cylinder.

    Restricts the ensemble to paths with sup_t |X_t| < cylinder, refits the
    backward solve on that subset under both truncation levels (both above
    the cylinder), and compares the solutions.  On the subset the two capped
    drivers coincide pointwise, so the solves must agree to roundoff, 1e-8.
    """
    if not (cylinder < truncation_m and cylinder < truncation_p):
        raise ValueError("truncation levels must exceed the cylinder radius")
    sup_abs = np.abs(ensemble.states).max(axis=(1, 2))
    mask = sup_abs < cylinder
    kept = int(mask.sum())
    if kept == 0:
        return VerificationReport(
            check="cylinder_consistency",
            status=INCONCLUSIVE,
            statistic=None,
            n_samples=0,
            notes=f"no path stayed inside the cylinder of radius {cylinder:g}",
        )
    sub = ensemble.take_paths(mask)
    sol_m = solve_bsde_lsmc(problem, sub, basis, driver_state_cap=truncation_m)
    sol_p = solve_bsde_lsmc(problem, sub, basis, driver_state_cap=truncation_p)
    diff_y = float(np.abs(sol_m.Y - sol_p.Y).max())
    diff_z = float(np.abs(sol_m.Z - sol_p.Z).max())
    status = PASS if diff_y <= CYLINDER_TOL else FAIL
    return VerificationReport(
        check="cylinder_consistency",
        status=status,
        statistic=diff_y,
        tolerance=CYLINDER_TOL,
        n_samples=kept,
        details={"z_difference": diff_z, "kept_fraction": kept / ensemble.n_paths},
        notes=f"per-subset refit at truncations {truncation_m:g} and {truncation_p:g}",
    )


def martingale_residual_report(
    problem: DiscountedProblem,
    ensemble: PathEnsemble,
    solution: BsdeSolution,
    max_time: float | None = None,
) -> VerificationReport:
    """Per-step mean of Y_{i+1} - Y_i + driver dt - Z dW, against SE of zero.

    A systematic driver error accumulates in the mean; a correct scheme
    leaves only sampling noise.  The regression behind Y pins the fit
    residual's sample mean at zero, so the fluctuation of the step mean is
    carried by the Z dW term; the standard error must include it, not just
    the spread of the combined residual.  The tolerance max(3, sqrt(2 ln 40m))
    widens with the number m of steps tested (the statistic is a maximum).

    The final backward step is always skipped: with a deterministic terminal
    value the conditional-mean fit there is exact and Z vanishes, so that
    step has no martingale component; its residual is pure one-step
    quadrature error and the ratio would compare bias against an unrelated
    spread.  ``max_time`` widens that exclusion to a whole terminal window,
    for problems whose driver moments grow so fast along the horizon that
    the quadrature bias of the zero-terminal truncation outruns the noise
    scale near the boundary.
    """
    grid = ensemble.grid
    dt = grid.dt
    last = grid.steps - 1
    if max_time is not None:
        last = min(last, max(1, int(math.floor(max_time / dt))))
    tolerance = max(3.0, math.sqrt(2.0 * math.log(40.0 * last)))
    keep = ~ensemble.exploded
    P = int(keep.sum())
    worst = 0.0
    worst_step = -1
    for i in range(last):
        g = grad_x_hamiltonian(
            ensemble.states[keep, i, :],
            ensemble.controls[keep, i, :],
            solution.Y[keep, i, :],
            solution.Z[keep, i, :, :],
            problem,
        )
        zdw = np.einsum(
            "pnd,pd->pn", solution.Z[keep, i, :, :], ensemble.noise.increments[keep, i, :]
        )
        resid = solution.Y[keep, i + 1, :] - solution.Y[keep, i, :] + g * dt - zdw
        mean = resid.mean(axis=0)
        var = zdw.var(axis=0, ddof=1) + resid.var(axis=0, ddof=1)
        se = np.sqrt(var / P)
        score = float(np.max(np.abs(mean) / np.maximum(se, 1e-300)))
        if score > worst:
            worst, worst_step = score, i
    status = PASS if worst <= tolerance else FAIL
    return VerificationReport(
        check="martingale_residual",
        status=status,
        statistic=worst,
        tolerance=tolerance,
        n_samples=P,
        details={"worst_step": worst_step, "steps_tested": last, "max_time": max_time},
        notes="largest |mean residual| / SE over steps",
    )
