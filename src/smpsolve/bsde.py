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
from typing import Callable, Sequence

import numpy as np

from .forward import PathEnsemble, TimeGrid, time_major
from .problems import DiscountedProblem
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
        # G^{-1} b = L^{-T} (L^{-1} b) for G = L L'; the product L^{-T} L^{-1}
        # formed once would lose digits to cancellation on the Gram's scale
        l_inv = np.linalg.inv(np.linalg.cholesky(gram))
        q, solve = a, lambda b: l_inv.T @ (l_inv @ b)
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
    """Backward solve output: surfaces, node means and fit diagnostics.

    ``ensemble`` is the ensemble the costate was solved on, and ``grid`` is
    its grid.  No (P, N+1, n) table of the realized Y is stored: the solve
    hands each node to its visitors (:class:`CostateVisitor`) and keeps only
    ``y_means``, the path mean of Y_i at every node i = 0..N, shape (N+1, n).
    Z is not stored either.  Per step i < N, ``y_coeffs`` holds the fit of
    the realized Y_i, the costate surface, and ``z_coeffs`` the fit of Z_i
    that the solve itself evaluated; :meth:`y_at` and :meth:`z_at` evaluate
    them.
    """

    ensemble: PathEnsemble
    y_means: Array
    basis: RegressionBasis
    transforms: list
    y_coeffs: list
    z_coeffs: list
    condition_numbers: Array
    ridge_steps: list

    @property
    def grid(self) -> TimeGrid:
        return self.ensemble.grid

    def y0(self) -> Array:
        """Costate at time zero, averaged over paths."""
        return self.y_means[0]

    def y_at(self, step: int, x: Array) -> Array:
        """Evaluate the fitted costate surface of step ``step``, 0 <= step < N, at states x."""
        return self._surface(self.y_coeffs, step, x)

    def z_at(self, step: int, x: Array) -> Array:
        """Evaluate the Z_i surface of step ``step``, 0 <= step < N, at states x: (rows, n, d).

        At the step's own states this is the solve's Z_i to the bit: the same
        design and the same product.
        """
        z = self._surface(self.z_coeffs, step, x)
        return z.reshape(z.shape[0], self.ensemble.state_dim, -1)

    def _surface(self, coeffs: list, step: int, x: Array) -> Array:
        if not 0 <= step < self.grid.steps:
            raise ValueError(f"no costate surface at step {step} of a {self.grid.steps}-step grid")
        design = self.basis.design(np.asarray(x, dtype=float), self.transforms[step])
        return design @ coeffs[step]


@dataclass(frozen=True)
class BackwardNode:
    """One node of a backward pass, as its visitors see it.

    Node ``i`` of the grid holds the states x_i (P, n), the controls u_i
    (P, k) that step i applied, and the solve's Y_i (P, n) and Z_i
    (P, n, d).  ``advance(problem, y_next, driver_state_cap=None)`` steps
    one more column on this step's design and factorization: from the
    column's (P, n) values at node i+1 it returns its (Y_i, Z_i), with the
    driver of ``problem`` and its own state cap, on the rows of the
    costate's regression (a non-finite value there is a
    :class:`RegressionError`).  The terminal node N has no step: ``u``,
    ``z`` and ``advance`` are None.  The arrays are the solve's own, valid
    during the visit: a visitor copies what it keeps.
    """

    i: int
    x: Array
    u: Array | None
    y: Array
    z: Array | None
    advance: Callable[..., tuple] | None


class CostateVisitor:
    """What a backward solve hands its nodes to, in place of a stored Y.

    :func:`solve_bsde_lsmc` calls ``start(ensemble)`` once, before its first
    node, with the ensemble it rides, and then the visitor itself with each
    :class:`BackwardNode`, from N down to 0.  A visitor reused by a later
    solve starts over, so it holds the values of the last solve it rode.
    """

    def start(self, ensemble: PathEnsemble) -> None:
        pass

    def __call__(self, node: BackwardNode) -> None:
        raise NotImplementedError


class CostateTable(CostateVisitor):
    """Keeps the whole (P, N+1, n) Y table, time-major, as ``Y``.

    The one stored costate table: for a dump of the costate
    (:func:`smpsolve.io.save_costates`) and for tests.
    """

    Y: Array | None = None

    def start(self, ensemble: PathEnsemble) -> None:
        self.Y = time_major(ensemble.n_paths, ensemble.grid.steps + 1, ensemble.state_dim)

    def __call__(self, node: BackwardNode) -> None:
        self.Y[:, node.i] = node.y


class NodeReduction(CostateVisitor):
    """Keeps ``reduce(node)``, ``width`` numbers per node, as the (N+1, width)
    ``values``: a per-node figure of Y formed in the pass, not from a table."""

    values: Array | None = None

    def __init__(self, reduce: Callable[[BackwardNode], object], width: int = 1) -> None:
        self.reduce, self.width = reduce, width

    def start(self, ensemble: PathEnsemble) -> None:
        self.values = np.full((ensemble.grid.steps + 1, self.width), np.nan)

    def __call__(self, node: BackwardNode) -> None:
        self.values[node.i] = self.reduce(node)


def _driver(problem: DiscountedProblem, x: Array, u: Array, z: Array) -> Callable[[Array], Array]:
    """y -> ``grad_x_hamiltonian(x, u, y, z, problem)`` to the bit, with the
    y-free terms formed once.

    The terms are summed in the order that function sums them, and a scalar
    state's contraction with the drift gradient is a product: a one-term sum
    from +0.0 differs from it only in a -0.0 product, which the +0.0-based
    ``dsigma_dot_z`` term then absorbs.
    """
    c = problem.coefficients
    gb = np.asarray(c.grad_drift(x, u), dtype=float)
    term_s = c.dsigma_dot_z(x, u, z)
    term_f = np.asarray(c.grad_cost(x, u), dtype=float)

    if problem.state_dim == 1:
        contract = lambda y: gb[..., 0, :] * y
    else:
        contract = partial(np.einsum, "...ij,...i->...j", gb)

    def grad(y: Array) -> Array:
        g = contract(y)
        g += term_s
        g += term_f
        g -= problem.beta * y
        return g

    return grad


def _backward_step(problem, design, fit, valid, target_y, x_eff, u_i, dW, dt):
    """One explicit two-pass step of a column: Y_i, Z_i and the Z_i coefficients from Y_{i+1}.

    The predictor and the corrector share the driver's y-free terms, which
    are released with the step."""
    P, n = target_y.shape
    d = dW.shape[1]
    y_pred = design @ fit(target_y)
    resid = np.where(valid[:, None], target_y - y_pred, 0.0)
    target_z = (resid[:, :, None] * dW[:, None, :]).reshape(P, n * d) / dt
    z_coeffs = fit(target_z)
    z_i = (design @ z_coeffs).reshape(P, n, d)
    grad = _driver(problem, x_eff, u_i, z_i)
    y_half = y_pred + grad(y_pred) * dt
    return y_pred + grad(y_half) * dt, z_i, z_coeffs


def _check_cap(cap) -> None:
    if cap is not None and not (cap > 0):
        raise ValueError("driver_state_cap must be positive")


def solve_bsde_lsmc(
    problem: DiscountedProblem,
    ensemble: PathEnsemble,
    basis: RegressionBasis,
    terminal: Array | None = None,
    driver_state_cap: float | None = None,
    visitors: Sequence[CostateVisitor] = (),
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

    No node table is stored.  Each node's (x_i, u_i, Y_i, Z_i) is handed,
    from N down to 0, to every one of ``visitors`` (:class:`CostateVisitor`),
    which reduce, gather or keep what their readers need; the solve itself
    keeps the path mean of each Y_i.  A visitor may step a companion column
    of its own on each step's design and factorization
    (:attr:`BackwardNode.advance`); the costate is the same to the bit with
    or without it.
    """
    _check_cap(driver_state_cap)
    grid = ensemble.grid
    P, N = ensemble.n_paths, grid.steps
    n = problem.state_dim
    dt = grid.dt

    if terminal is None:
        y_next = np.zeros((P, n))
    else:
        # C order, as the rows of a time-major table are
        y_next = np.ascontiguousarray(terminal, dtype=float)
        if y_next.shape != (P, n):
            raise ValueError("terminal must have shape (n_paths, state_dim)")
    for v in visitors:
        v.start(ensemble)
    y_means = np.empty((N + 1, n))

    def hand(node: BackwardNode) -> None:
        y_means[node.i] = node.y.mean(axis=0)
        for v in visitors:
            v(node)

    hand(BackwardNode(N, ensemble.states[:, N, :], None, y_next, None, None))

    transforms: list = [None] * N
    y_coeffs: list = [None] * N
    z_coeffs: list = [None] * N
    conds = np.empty(N)
    ridge_steps: list[int] = []
    base_valid = ~ensemble.exploded

    for i in range(N - 1, -1, -1):
        x_i = ensemble.states[:, i, :]
        u_i = ensemble.control(i)
        dW = ensemble.noise.increments[:, i, :]
        target_y = y_next

        finite = np.isfinite(target_y).all(axis=1)
        valid = base_valid & finite
        bad_fraction = 1.0 - float(finite[base_valid].mean()) if base_valid.any() else 1.0
        if bad_fraction > MAX_BAD_FRACTION:
            raise RegressionError(
                f"step {i}: {bad_fraction:.1%} of regression targets are non-finite"
            )
        mask = None if valid.all() else valid

        design, transform = basis.fit(x_i, valid=mask)
        fit, cond, ridged = _least_squares(design, mask)

        def step(column_problem, target, cap):
            x_eff = x_i if cap is None else np.minimum(x_i, cap)
            return _backward_step(column_problem, design, fit, valid, target, x_eff, u_i, dW, dt)

        def advance(column_problem, y_next, driver_state_cap=None):
            _check_cap(driver_state_cap)
            target = np.asarray(y_next, dtype=float)
            if target.shape != (P, n):
                raise ValueError("a companion column must have shape (n_paths, state_dim)")
            if not np.isfinite(target[valid]).all():
                raise RegressionError(f"step {i}: non-finite companion targets")
            return step(column_problem, target, driver_state_cap)[:2]

        y_i, z_i, z_coeffs[i] = step(problem, target_y, driver_state_cap)

        transforms[i] = transform
        y_coeffs[i] = fit(y_i)
        conds[i] = cond
        if ridged and not transform.degenerate:
            ridge_steps.append(i)

        hand(BackwardNode(i, x_i, u_i, y_i, z_i, advance))
        # release this step's Z_i before the next step allocates its own
        y_next, z_i = y_i, None

    if ridge_steps:
        warnings.warn(
            f"ridge fallback used at {len(ridge_steps)} regression steps "
            f"(worst condition {conds.max():.3g})",
            RuntimeWarning,
            stacklevel=2,
        )

    return BsdeSolution(
        ensemble=ensemble,
        y_means=y_means,
        basis=basis,
        transforms=transforms,
        y_coeffs=y_coeffs,
        z_coeffs=z_coeffs,
        condition_numbers=conds,
        ridge_steps=sorted(ridge_steps),
    )


def stability_threshold(problem: DiscountedProblem) -> float:
    """2 mu2 + 2 M^2: the discount at or above which a terminal's influence
    on the costate decays, the premise of the stability check."""
    c = problem.constants
    return 2.0 * c.mu2 + 2.0 * c.M**2


class TerminalStabilityGap(CostateVisitor):
    """The stability check as a visitor of a backward solve.

    The xi terminal is projected on the final-step basis (a stand-in for its
    conditional expectation given X_T).  The scheme is affine in (Y, Z) with
    ``grad_cost`` its only free term, so Y^xi - Y^0 solves the same scheme
    with ``grad_cost`` zero and terminal xi: the visitor steps that column
    (:attr:`BackwardNode.advance`).  Riding the candidate's own solve, it
    costs one more set of fits per step and stores no costate table.  It
    keeps, per node, the mean (``node_means``) and SD over paths of
    e^{-beta t_i} |Y^0_i - Y^xi_i|^2.  The gap is the largest node mean and
    the reference bound is e^{-beta T} * mean(|xi|^2).  Pass when
    gap <= bound * (1 + 0.25) + 3 SE.  Requires beta >=
    :func:`stability_threshold`.

    ``xi_values`` is (P, n) or (P,), on the paths of the solve it rides;
    None takes each solve's own terminal states X_T.
    """

    def __init__(
        self,
        problem: DiscountedProblem,
        basis: RegressionBasis,
        xi_values: Array | None = None,
    ) -> None:
        if problem.beta < stability_threshold(problem):
            raise ValueError("terminal stability needs beta >= 2 mu2 + 2 M^2")
        no_cost = replace(problem.coefficients, grad_cost=lambda x, u: np.zeros_like(x))
        self.problem = replace(problem, coefficients=no_cost)
        self.basis, self.xi_values = basis, xi_values
        self.node_means = None

    def start(self, ensemble: PathEnsemble) -> None:
        x_T = ensemble.states[:, -1, :]
        xi = x_T if self.xi_values is None else np.asarray(self.xi_values, dtype=float)
        if xi.ndim == 1:
            xi = xi[:, None]
        P = ensemble.n_paths
        if xi.shape != (P, self.problem.state_dim):
            raise ValueError("xi_values must have shape (n_paths, state_dim)")
        valid = None if not ensemble.exploded.any() else ~ensemble.exploded
        design, _ = self.basis.fit(x_T, valid=valid)
        fit, _, _ = _least_squares(design, valid)
        self._y = design @ fit(xi)

        grid = ensemble.grid
        self.n_paths, self.horizon = P, grid.horizon
        xi_mean_sq = np.einsum("pn,pn->p", xi, xi).mean()
        self.bound = float(math.exp(-self.problem.beta * grid.horizon) * xi_mean_sq)
        self._weights = np.exp(-self.problem.beta * grid.times())
        self.node_means = np.full(grid.steps + 1, np.nan)
        self._sds = np.zeros(grid.steps + 1)

    def __call__(self, node: BackwardNode) -> None:
        y = self._y
        if node.advance is not None:
            y, _ = node.advance(self.problem, y)
        # the column's last values are released with the pass
        self._y = y if node.i > 0 else None
        weighted = np.einsum("pn,pn->p", y, y) * self._weights[node.i]
        self.node_means[node.i] = weighted.mean()
        if self.n_paths > 1:
            self._sds[node.i] = weighted.std(ddof=1)

    def report(self) -> VerificationReport:
        """The verdict on the largest node gap; ``details`` add the bound,
        the node-0 gap and the largest gap over nodes 0..N-1 with its node."""
        means = self.node_means
        if means is None or np.isnan(means).any():
            raise RuntimeError("the stability column is unsolved or not finite")
        i_star = int(np.argmax(means))
        inner = int(np.argmax(means[:-1]))
        gap = float(means[i_star])
        se = float(self._sds[i_star] / math.sqrt(self.n_paths))
        tol = self.bound * (1.0 + 0.25) + 3.0 * se
        return VerificationReport(
            check="terminal_stability",
            status=PASS if gap <= tol else FAIL,
            statistic=gap,
            tolerance=tol,
            n_samples=self.n_paths,
            standard_error=se,
            details={
                "bound": self.bound,
                "argmax_node": i_star,
                "horizon": self.horizon,
                "node0_gap": float(means[0]),
                "interior_gap": float(means[inner]),
                "interior_argmax_node": inner,
            },
            notes="weighted squared gap between zero- and xi-terminal solves",
        )


def terminal_stability_gap(
    problem: DiscountedProblem,
    ensemble: PathEnsemble,
    basis: RegressionBasis,
    xi_values: Array,
) -> VerificationReport:
    """The :class:`TerminalStabilityGap` report, from a solve of its own.

    For a costate that is already solved: the visitor rides a solve of
    ``problem`` on ``ensemble`` that stores nothing.  A run whose candidate
    is still to be solved hands the visitor to that solve instead.
    """
    gap = TerminalStabilityGap(problem, basis, xi_values)
    solve_bsde_lsmc(problem, ensemble, basis, visitors=(gap,))
    return gap.report()


class _CylinderGaps(CostateVisitor):
    """Steps a second column under its own state cap and keeps, per node,
    the largest |Y - Y_cap| and |Z - Z_cap| against the solve's costate."""

    def __init__(self, problem: DiscountedProblem, cap: float) -> None:
        self.problem, self.cap = problem, cap

    def start(self, ensemble: PathEnsemble) -> None:
        N = ensemble.grid.steps
        self._y = np.zeros((ensemble.n_paths, self.problem.state_dim))
        self.y_gaps, self.z_gaps = np.zeros(N + 1), np.zeros(N)

    def __call__(self, node: BackwardNode) -> None:
        if node.advance is not None:
            self._y, z = node.advance(self.problem, self._y, self.cap)
            self.z_gaps[node.i] = np.abs(node.z - z).max()
        self.y_gaps[node.i] = np.abs(node.y - self._y).max()


def cylinder_consistency_check(
    problem: DiscountedProblem,
    ensemble: PathEnsemble,
    basis: RegressionBasis,
    truncation_m: float,
    truncation_p: float,
    cylinder: float,
) -> VerificationReport:
    """Truncation consistency on paths that never leave a bounded cylinder.

    Restricts the ensemble to paths with sup_t |X_t| < cylinder and solves
    the backward equation on them once, with two columns: the costate under
    ``driver_state_cap=truncation_m`` and a second column under
    ``truncation_p`` (both above the cylinder), stepped by a visitor that
    keeps each node's largest |Y_m - Y_p| and |Z_m - Z_p|; no Y is stored.  When every path stays inside, the ensemble itself is solved,
    uncopied.  On the subset the two capped drivers coincide pointwise, so
    the columns must agree to roundoff, 1e-8.
    """
    if not (cylinder < truncation_m and cylinder < truncation_p):
        raise ValueError("truncation levels must exceed the cylinder radius")
    P, N = ensemble.n_paths, ensemble.grid.steps
    sup_abs = np.zeros(P)
    for i in range(N + 1):
        np.maximum(sup_abs, np.abs(ensemble.states[:, i, :]).max(axis=1), out=sup_abs)
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
    sub = ensemble if kept == P else ensemble.take_paths(mask)
    gaps = _CylinderGaps(problem, truncation_p)
    solve_bsde_lsmc(problem, sub, basis, driver_state_cap=truncation_m, visitors=(gaps,))
    diff_y = float(gaps.y_gaps.max())
    status = PASS if diff_y <= CYLINDER_TOL else FAIL
    return VerificationReport(
        check="cylinder_consistency",
        status=status,
        statistic=diff_y,
        tolerance=CYLINDER_TOL,
        n_samples=kept,
        details={"z_difference": float(gaps.z_gaps.max()), "kept_fraction": kept / P},
        notes=f"per-subset refit at truncations {truncation_m:g} and {truncation_p:g}",
    )
