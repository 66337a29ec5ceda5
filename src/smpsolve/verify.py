"""Optimality certification for a candidate control.

The sufficient criterion behind these checks: if the executed control
maximizes the Hamiltonian along its own trajectory, the Hamiltonian is
concave in state and control, and the transversality statistic vanishes at
infinity against every admissible competitor, then the candidate is optimal.
Each piece gets a sampled counterpart here, plus direct cost comparisons as
a blunt cross-check.
"""
from __future__ import annotations

import math
import weakref
from typing import Dict

import numpy as np

from .bsde import BackwardNode, CostateVisitor
from .forward import (
    ControlLaw,
    PathEnsemble,
    TimeGrid,
    _block_steps,
    degenerate_paths,
    stream_competitor,
    time_major,
)
from .problems import (
    DiscountedProblem,
    SampleSpec,
    finite_diff_grad_x,
    grad_x_hamiltonian,
    hamiltonian,
    maximize_hamiltonian_in_u,
)
from .reports import FAIL, INCONCLUSIVE, PASS, VerificationReport

Array = np.ndarray

COST_SE_SLACK = 2.0
# a competitor whose cost difference has an SE at most this fraction of the
# candidate's mean absolute cost differs from it deterministically, and so
# does a tvc node whose SE is at most this fraction of its mean |statistic|
DETERMINISTIC_SE = 1e-12
GRADIENT_TOL = 1e-6


class PathCostSum:
    """Window visitor: discounted running cost per path, trapezoid in time.

    Called as ``visit(s, x, u)`` on consecutive blocks, with ``u`` the
    controls of steps s..e-1 and ``x`` the nodes s..e; the step nodes
    contract the running cost against :meth:`TimeGrid.discounted_weights`,
    and after the last block the terminal node, which reuses the last step's
    control, is added.  ``total`` then holds the per-path costs.  The running
    cost must be elementwise over the (path, step) axes.
    """

    def __init__(self, problem: DiscountedProblem, grid: TimeGrid) -> None:
        self.cost = problem.coefficients.running_cost
        self.weights = grid.discounted_weights(problem.beta)
        self.total: Array | None = None

    def __call__(self, s: int, x: Array, u: Array) -> None:
        e = s + u.shape[1]
        if self.total is None:
            # the dot's sum starts from +0.0, and so does the total
            self.total = np.zeros(x.shape[0])
        if e == s + 1:
            # a one-step window: the dot's one-term sum, as a product
            self.total += self.cost(x[:, 0], u[:, 0]) * self.weights[s]
        else:
            self.total += np.dot(self.cost(x[:, :-1], u), self.weights[s:e])
        if e == self.weights.size - 1:
            self.total += self.cost(x[:, -1], u[:, -1]) * self.weights[-1]


def path_costs(problem: DiscountedProblem, ensemble: PathEnsemble) -> Array:
    """Discounted running cost integral per path of a stored ensemble.

    The stored nodes are fed to :class:`PathCostSum` in blocks of about
    ``PATH_COST_BLOCK`` nodes, the same blocks in which
    :func:`stream_competitor` steps a competitor, so a streamed and a stored
    ensemble of the same paths cost the same to the bit.  Each block's
    controls are recomputed (:meth:`PathEnsemble.control`) into one reused
    window.
    """
    x, steps = ensemble.states, ensemble.grid.steps
    block = _block_steps(ensemble.n_paths, steps)
    u = time_major(ensemble.n_paths, block, ensemble.domain.dim)
    total = PathCostSum(problem, ensemble.grid)
    for s in range(0, steps, block):
        e = min(s + block, steps)
        for i in range(s, e):
            u[:, i - s] = ensemble.control(i)
        total(s, x[:, s : e + 1], u[:, : e - s])
    return total.total


class PointwiseSample(CostateVisitor):
    """Gathers a backward pass's (x, u, y, z) at sampled (path, step) nodes.

    Each solve it rides draws ``n_points`` distinct nodes (all of them if
    fewer) before its first node, from ``np.random.default_rng(seed)``:
    steps before ``max_time`` (None: the whole grid, at least one step) on
    paths that did not explode.  At each sampled step the states, the
    applied controls and the solve's Y_i and Z_i of the sampled paths are
    copied out, in sample order, so they are the values the solve formed, to
    the bit.  ``count`` is the number of nodes drawn and ``steps_sampled``
    the steps they were drawn from.
    """

    def __init__(self, n_points: int = 10_000, seed: int = 0, max_time: float | None = None) -> None:
        self.n_points, self.seed, self.max_time = n_points, seed, max_time
        self.complete = False

    def start(self, ensemble: PathEnsemble) -> None:
        grid = ensemble.grid
        n_steps = grid.steps
        if self.max_time is not None:
            n_steps = max(1, min(n_steps, int(math.ceil(self.max_time / grid.dt))))
        paths = np.flatnonzero(~ensemble.exploded)
        total = paths.size * n_steps
        count = min(self.n_points, total)
        flat = np.random.default_rng(self.seed).choice(total, size=count, replace=False)
        self._paths, steps = paths[flat // n_steps], flat % n_steps
        self._rows = {int(i): np.flatnonzero(steps == i) for i in np.unique(steps)}
        self.count, self.steps_sampled = count, n_steps
        n, k, d = ensemble.state_dim, ensemble.domain.dim, ensemble.noise.noise_dim
        self.x, self.u = np.empty((count, n)), np.empty((count, k))
        self.y, self.z = np.empty((count, n)), np.empty((count, n, d))
        self.complete = False

    def __call__(self, node: BackwardNode) -> None:
        rows = self._rows.get(node.i)
        if rows is not None:
            p = self._paths[rows]
            self.x[rows], self.u[rows] = node.x[p], node.u[p]
            self.y[rows], self.z[rows] = node.y[p], node.z[p]
        self.complete = node.i == 0


def check_pointwise_max(
    problem: DiscountedProblem,
    sample: PointwiseSample,
    tol: float = 1e-6,
) -> VerificationReport:
    """Executed control vs the Hamiltonian maximizer at sampled path points.

    ``sample`` is the :class:`PointwiseSample` that rode the costate's
    backward pass.  At its nodes the maximizer is recomputed with the
    realized costate pair, and the check reports the 99.9th percentile of
    the relative gap (H* - H_exec) / max(1, |H*|).  Negative gaps (the
    numeric maximizer losing to the executed value) count as zero, so a
    maximizer short of the maximum lowers the reference: when its own
    certificate ``maximizer_gap_bound`` is below -``tol`` the check is
    inconclusive.

    The sample's ``max_time`` restricts it to nodes before that time.  A
    stationary candidate policy certified against the zero-terminal costate
    keeps a boundary layer near the horizon where the two legitimately
    disagree; excluding the layer certifies the stationary region on its
    own.
    """
    if not sample.complete:
        raise RuntimeError("the pointwise sample did not ride a whole backward pass")
    if sample.count == 0:
        return VerificationReport(
            check="pointwise_max",
            status=INCONCLUSIVE,
            notes="no usable paths",
        )
    x, y, z, u_exec = sample.x, sample.y, sample.z, sample.u
    u_star, cert = maximize_hamiltonian_in_u(x, y, z, problem)
    h_star = hamiltonian(x, u_star, y, z, problem)
    h_exec = hamiltonian(x, u_exec, y, z, problem)
    gap = np.maximum(h_star - h_exec, 0.0)
    rel = gap / np.maximum(1.0, np.abs(h_star))
    stat = float(np.percentile(rel, 99.9))
    status, notes = PASS if stat <= tol else FAIL, "99.9th percentile of the relative Hamiltonian gap"
    if cert.gap < -tol:
        status, notes = INCONCLUSIVE, f"not applicable: a reference grid beats the maximizer by {-cert.gap:.3g}"
    return VerificationReport(
        check="pointwise_max",
        status=status,
        statistic=stat,
        tolerance=tol,
        n_samples=sample.count,
        details={
            "max_relative_gap": float(rel.max()),
            "mean_relative_gap": float(rel.mean()),
            "negative_gap_fraction": float((h_star < h_exec).mean()),
            "maximizer_gap_bound": cert.gap,
            "concavity_warning": cert.concavity_warning,
            "steps_sampled": sample.steps_sampled,
            "max_time": sample.max_time,
        },
        notes=notes,
    )


class TailCostate(CostateVisitor):
    """Keeps a backward pass's Y on the transversality tail only.

    ``Y`` holds nodes ``first`` .. N-1, time-major: the last 10% of nodes
    0..N-1, at least 2 where the grid has them and never node 0, the only
    nodes :func:`check_tvc` decides on.  ``ensemble`` is the
    ensemble the pass rode; it is held weakly, so a closed loop's earlier
    passes are not kept alive by it.
    """

    Y: Array | None = None

    def start(self, ensemble: PathEnsemble) -> None:
        steps = ensemble.grid.steps
        self.first = steps - min(steps - 1, max(2, int(math.ceil(0.1 * steps))))
        self.Y = time_major(ensemble.n_paths, steps - self.first, ensemble.state_dim)
        self._ensemble = weakref.ref(ensemble)
        self.complete = False

    def __call__(self, node: BackwardNode) -> None:
        if self.first <= node.i < self.first + self.Y.shape[1]:
            self.Y[:, node.i - self.first] = node.y
        self.complete = node.i == 0

    @property
    def ensemble(self) -> PathEnsemble:
        ensemble = None if self.Y is None else self._ensemble()
        if ensemble is None or not self.complete:
            raise RuntimeError("the tail costate did not ride a whole backward pass of live paths")
        return ensemble


def check_tvc(
    problem: DiscountedProblem,
    tail: TailCostate,
    law: ControlLaw,
    *visitors,
) -> VerificationReport:
    """Transversality statistic against a competitor law on the same noise.

    Tracks m(t) = E[e^{-beta t} <Y_t, X'_t - X_t>] on the shared grid, where
    Y is kept by ``tail`` (a :class:`TailCostate` that rode the costate's
    backward pass), X is the paths that pass rode, and X' is ``law``
    stepped on their noise by :func:`stream_competitor`: m and its SE are
    gathered one window at a time, and further ``visitors`` (say a
    :class:`PathCostSum`) see the same pass.  A node whose SE is at most
    ``DETERMINISTIC_SE`` times its mean |e^{-beta t} <Y_t, X'_t - X_t>| is
    roundoff around a deterministic value, and its SE is 0.  The details
    count the competitor's clipped and exploded paths.  The direct criterion
    holds when some tail node (the last 10% of nodes, at least 2 where the
    grid has them) satisfies m <= 3 SE (the limit inferior only needs a
    subsequence).  When the tail is positive but
    provably transient, the fallback applies: strict discounting makes the
    weighted norms of state and costate finite, which forces m(t) -> 0 along
    a subsequence, so the condition is implied; the report then passes with
    a note and carries the fitted tail decay rate (compare against -beta).
    A non-finite costate fails both routes through m(t) itself.  m is
    formed on the tail nodes only, the only ones the verdict and the
    details read.

    ``details.route`` names the deciding rule.  The direct route, and a
    failure, report m, 3 SE and SE at ``best_node`` as statistic, tolerance
    and standard error; the implied route (``integrability``) reports the
    decay rate against tolerance 0.  Node N-1's m and SE are in the details.

    The terminal node is excluded: Y vanishes there by the truncation's
    terminal condition, which would satisfy the criterion vacuously.  So is
    node 0, where both ensembles start at x0; a grid with no node in between
    is inconclusive.
    """
    ensemble = tail.ensemble
    grid, n_paths = ensemble.grid, ensemble.n_paths
    first, n_tail = tail.first, tail.Y.shape[1]
    times = grid.times()[first : grid.steps]
    m, se, scale = np.empty(n_tail), np.empty(n_tail), np.empty(n_tail)

    def gather(s: int, x: Array, u: Array) -> None:
        a, e = max(s, first), s + u.shape[1]
        if a >= e:
            return
        weighted = np.einsum(
            "pin,pin->pi", tail.Y[:, a - first : e - first, :], x[:, a - s : e - s, :] - ensemble.states[:, a:e, :]
        )
        weighted *= np.exp(-problem.beta * times[a - first : e - first])
        m[a - first : e - first] = weighted.mean(axis=0)
        se[a - first : e - first] = weighted.std(axis=0, ddof=1)
        scale[a - first : e - first] = np.abs(weighted, out=weighted).mean(axis=0)

    flags = stream_competitor(problem, ensemble, law, gather, *visitors)
    if grid.steps < 2:
        notes = "no grid node between the start and the horizon"
        return VerificationReport(
            check="transversality", status=INCONCLUSIVE, details=degenerate_paths(flags), notes=notes
        )
    se /= math.sqrt(n_paths)
    # roundoff around a deterministic node value
    se[se <= DETERMINISTIC_SE * scale] = 0.0

    score = m - 3.0 * se
    direct = bool((score <= 0.0).any())
    best = int(np.argmin(score))
    i_best = best + first

    details = {
        "tail_nodes": n_tail,
        "best_node": i_best,
        "best_margin": float(score.min()),
        "last_node_m": float(m[-1]),
        "last_node_se": float(se[-1]),
        "route": "direct",
        "strictly_discounted": problem.is_strictly_discounted(),
        **degenerate_paths(flags),
    }

    decay_rate = None
    if n_tail >= 2 and (m > 0).all():
        fit = np.polyfit(times, np.log(m), 1)
        decay_rate = float(fit[0])
        details["tail_decay_rate"] = decay_rate

    stat, tol, stat_se = float(m[best]), float(3.0 * se[best]), float(se[best])
    if direct:
        status, notes = PASS, "tail node within 3 SE of zero"
    elif problem.is_strictly_discounted() and decay_rate is not None and decay_rate < 0:
        status = PASS
        notes = (
            "implied: positive transient tail; finite weighted norms under strict "
            "discounting force the statistic to zero"
        )
        details["route"] = "integrability"
        stat, tol, stat_se = decay_rate, 0.0, None
    else:
        status, notes = FAIL, "tail statistic stays positive without a decay certificate"

    return VerificationReport(
        check="transversality",
        status=status,
        statistic=stat,
        tolerance=tol,
        n_samples=n_paths,
        standard_error=stat_se,
        details=details,
        notes=notes,
    )


def cost_dominance(
    candidate_costs: Array,
    competitor_costs: Dict[str, Array],
    degenerate: Dict[str, dict] | None = None,
) -> VerificationReport:
    """Paired cost comparison of the candidate against each competitor.

    The arguments are per-path discounted costs (:func:`path_costs`, or a
    :class:`PathCostSum` of a streamed competitor) of ensembles that share
    the driving noise, so per-path differences are low-variance.  A
    competitor is dominated when
    mean(J_candidate - J_competitor) >= -2 SE(diff) (``COST_SE_SLACK``);
    the check passes when every competitor is dominated, and is inconclusive
    when there is none to compare against.  A difference whose SE is at most
    ``DETERMINISTIC_SE`` times the candidate's mean absolute cost is roundoff
    around a deterministic value: its SE is reported as 0 and the verdict is
    the sign of the mean.  ``degenerate`` maps a competitor to the
    :func:`~smpsolve.forward.degenerate_paths` counts of its flow, which its
    row records.
    """
    rows = {}
    all_ok = True
    worst = math.inf
    roundoff = DETERMINISTIC_SE * float(np.abs(candidate_costs).mean())
    for name, j in competitor_costs.items():
        if j.shape != candidate_costs.shape:
            raise ValueError(f"competitor {name!r} has a different path count")
        d = candidate_costs - j
        se = float(d.std(ddof=1) / math.sqrt(d.size)) if d.size > 1 else 0.0
        deterministic = se <= roundoff
        if deterministic:
            se = 0.0
        mean = float(d.mean())
        ok = mean >= -COST_SE_SLACK * se
        rows[name] = {
            "mean_gain": mean,
            "standard_error": se,
            "deterministic": deterministic,
            "dominated": ok,
            **(degenerate or {}).get(name, {}),
        }
        all_ok = all_ok and ok
        worst = min(worst, mean + COST_SE_SLACK * se)
    return VerificationReport(
        check="cost_dominance",
        status=INCONCLUSIVE if not rows else PASS if all_ok else FAIL,
        statistic=None if not rows else worst,
        tolerance=0.0,
        n_samples=candidate_costs.size,
        details={"competitors": rows, "candidate_cost": float(candidate_costs.mean())},
        notes=f"candidate gain vs {len(rows)} competitors, paired by common noise",
    )


def _relative_gap(approx, exact) -> float:
    """max |approx - exact| / (1 + |exact|)."""
    exact = np.asarray(exact, dtype=float)
    return float(np.max(np.abs(approx - exact) / (1.0 + np.abs(exact))))


def check_identities(
    problem: DiscountedProblem,
    spec: SampleSpec,
    n_points: int = 2000,
) -> VerificationReport:
    """Analytic state gradient of the Hamiltonian against finite differences.

    At random (x, u, y, z) samples the gradient gap is
    max |FD - grad_x H| / (1 + |grad_x H|), with FD the central difference
    of :func:`finite_diff_grad_x`.  A wrong ``grad_drift``,
    ``grad_diffusion`` or ``grad_cost`` shows here.  The forward stepper
    steps a :class:`~smpsolve.problems.MultiplicativeStructure` in place of
    the drift and diffusion, so ``split_gap`` (in the details) compares
    linear_rate(u) x + residual(x, u) with the drift and volatility x with
    the diffusion in the same relative measure.  The statistic is the
    larger gap; pass within ``GRADIENT_TOL`` = 1e-6.
    """
    rng = np.random.default_rng(spec.seed)
    n, d = problem.state_dim, problem.noise_dim
    x = spec.draw_states(rng, n_points)
    u = problem.domain.sample(rng, n_points)
    y = rng.standard_normal((n_points, n))
    z = rng.standard_normal((n_points, n, d))

    gap = _relative_gap(finite_diff_grad_x(x, u, y, z, problem), grad_x_hamiltonian(x, u, y, z, problem))
    details = {}
    mult, c = problem.multiplicative, problem.coefficients
    if mult is not None:
        drift = np.reshape(mult.linear_rate(u), (n_points, 1)) * x
        if mult.residual is not None:
            drift = drift + np.reshape(mult.residual(x, u), (n_points, 1))
        details["split_gap"] = max(
            _relative_gap(drift, c.drift(x, u)), _relative_gap(mult.volatility * x[:, :, None], c.diffusion(x, u))
        )
        gap = max(gap, details["split_gap"])
    return VerificationReport(
        check="identities",
        status=PASS if gap <= GRADIENT_TOL else FAIL,
        statistic=gap,
        tolerance=GRADIENT_TOL,
        n_samples=n_points,
        details=details,
        notes="analytic grad_x H vs central finite differences",
    )
