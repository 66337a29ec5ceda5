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
from typing import Dict

import numpy as np

from .bsde import BsdeSolution
from .forward import (
    ControlLaw,
    PathEnsemble,
    TimeGrid,
    _block_steps,
    degenerate_paths,
    stream_competitor,
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
        part = np.dot(self.cost(x[:, :-1], u), self.weights[s:e])
        if self.total is None:
            self.total = part
        else:
            self.total += part
        if e == self.weights.size - 1:
            self.total += self.cost(x[:, -1], u[:, -1]) * self.weights[-1]


def path_costs(problem: DiscountedProblem, ensemble: PathEnsemble) -> Array:
    """Discounted running cost integral per path of a stored ensemble.

    The stored nodes are fed to :class:`PathCostSum` in blocks of about
    ``PATH_COST_BLOCK`` nodes, the same blocks in which
    :func:`stream_competitor` steps a competitor, so a streamed and a stored
    ensemble of the same paths cost the same to the bit.
    """
    x, u = ensemble.states, ensemble.controls
    steps = ensemble.grid.steps
    block = _block_steps(ensemble.n_paths, steps)
    total = PathCostSum(problem, ensemble.grid)
    for s in range(0, steps, block):
        e = min(s + block, steps)
        total(s, x[:, s : e + 1], u[:, s:e])
    return total.total


def check_pointwise_max(
    problem: DiscountedProblem,
    ensemble: PathEnsemble,
    solution: BsdeSolution,
    n_points: int = 10_000,
    tol: float = 1e-6,
    seed: int = 0,
    max_time: float | None = None,
) -> VerificationReport:
    """Executed control vs the Hamiltonian maximizer at sampled path points.

    Samples (path, step) nodes, recomputes the maximizer there with the
    realized costate pair, and reports the 99.9th percentile of the
    relative gap (H* - H_exec) / max(1, |H*|).  Negative gaps (the numeric
    maximizer losing to the executed value) count as zero.

    ``max_time`` restricts sampling to nodes before it.  A stationary
    candidate policy certified against the zero-terminal costate keeps a
    boundary layer near the horizon where the two legitimately disagree;
    excluding the layer certifies the stationary region on its own.
    """
    grid = ensemble.grid
    n_steps = grid.steps
    if max_time is not None:
        n_steps = max(1, min(n_steps, int(math.ceil(max_time / grid.dt))))
    keep = ~ensemble.exploded
    paths = np.flatnonzero(keep)
    total = paths.size * n_steps
    if total == 0:
        return VerificationReport(
            check="pointwise_max",
            status=INCONCLUSIVE,
            notes="no usable paths",
        )
    rng = np.random.default_rng(seed)
    count = min(n_points, total)
    flat = rng.choice(total, size=count, replace=False)
    p_idx = paths[flat // n_steps]
    i_idx = flat % n_steps

    x = ensemble.states[p_idx, i_idx, :]
    u_exec = ensemble.controls[p_idx, i_idx, :]
    y = solution.Y[p_idx, i_idx, :]
    z = solution.Z[p_idx, i_idx, :, :]

    u_star, cert = maximize_hamiltonian_in_u(x, y, z, problem)
    h_star = hamiltonian(x, u_star, y, z, problem)
    h_exec = hamiltonian(x, u_exec, y, z, problem)
    gap = np.maximum(h_star - h_exec, 0.0)
    rel = gap / np.maximum(1.0, np.abs(h_star))
    stat = float(np.percentile(rel, 99.9))
    status = PASS if stat <= tol else FAIL
    return VerificationReport(
        check="pointwise_max",
        status=status,
        statistic=stat,
        tolerance=tol,
        n_samples=count,
        details={
            "max_relative_gap": float(rel.max()),
            "mean_relative_gap": float(rel.mean()),
            "negative_gap_fraction": float((h_star < h_exec).mean()),
            "maximizer_gap_bound": cert.gap,
            "concavity_warning": cert.concavity_warning,
            "steps_sampled": n_steps,
            "max_time": max_time,
        },
        notes="99.9th percentile of the relative Hamiltonian gap",
    )


def check_tvc(
    problem: DiscountedProblem,
    ensemble: PathEnsemble,
    solution: BsdeSolution,
    law: ControlLaw,
    *visitors,
) -> VerificationReport:
    """Transversality statistic against a competitor law on the same noise.

    Tracks m(t) = E[e^{-beta t} <Y_t, X'_t - X_t>] on the shared grid, where
    X' is ``law`` stepped on the candidate's noise by
    :func:`stream_competitor`: m and its SE are gathered one window at a
    time, and further ``visitors`` (say a :class:`PathCostSum`) see the same
    pass.  A node whose SE is at most ``DETERMINISTIC_SE`` times its mean
    |e^{-beta t} <Y_t, X'_t - X_t>| is roundoff around a deterministic value,
    and its SE is 0.  The details count the competitor's clipped and
    exploded paths.  The direct criterion holds when some tail node (the
    last 10% of nodes, at least 2 where the grid has them) satisfies
    m <= 3 SE (the limit inferior only needs a subsequence).  When the tail is positive but
    provably transient, the fallback applies: strict discounting makes the
    weighted norms of state and costate finite, which forces m(t) -> 0 along
    a subsequence, so the condition is implied; the report then passes with
    a note and carries the fitted tail decay rate (compare against -beta).
    A non-finite costate fails both routes through m(t) itself.

    The terminal node is excluded: Y vanishes there by the truncation's
    terminal condition, which would satisfy the criterion vacuously.  So is
    node 0, where both ensembles start at x0; a grid with no node in between
    is inconclusive.
    """
    grid, n_paths = ensemble.grid, ensemble.n_paths
    if solution.grid != grid or solution.Y.shape[0] != n_paths:
        raise ValueError("the costate must belong to the candidate's paths and grid")
    times = grid.times()[:-1]
    m, se, scale = np.empty(grid.steps), np.empty(grid.steps), np.empty(grid.steps)

    def gather(s: int, x: Array, u: Array) -> None:
        e = s + u.shape[1]
        weighted = np.einsum(
            "pin,pin->pi", solution.Y[:, s:e, :], x[:, :-1, :] - ensemble.states[:, s:e, :]
        )
        weighted *= np.exp(-problem.beta * times[s:e])
        m[s:e] = weighted.mean(axis=0)
        se[s:e] = weighted.std(axis=0, ddof=1)
        scale[s:e] = np.abs(weighted, out=weighted).mean(axis=0)

    flags = stream_competitor(problem, ensemble, law, gather, *visitors)
    if grid.steps < 2:
        notes = "no grid node between the start and the horizon"
        return VerificationReport(
            check="transversality", status=INCONCLUSIVE, details=degenerate_paths(flags), notes=notes
        )
    se /= math.sqrt(n_paths)
    # roundoff around a deterministic node value
    se[se <= DETERMINISTIC_SE * scale] = 0.0

    n_tail = min(m.size - 1, max(2, int(math.ceil(0.1 * m.size))))
    tail = slice(m.size - n_tail, m.size)
    score = m[tail] - 3.0 * se[tail]
    direct = bool((score <= 0.0).any())
    i_best = int(np.argmin(score)) + (m.size - n_tail)

    details = {
        "tail_nodes": n_tail,
        "best_node": i_best,
        "best_margin": float(score.min()),
        "strictly_discounted": problem.is_strictly_discounted(),
        **degenerate_paths(flags),
    }

    decay_rate = None
    tail_m = m[tail]
    if n_tail >= 2 and (tail_m > 0).all():
        fit = np.polyfit(times[tail], np.log(tail_m), 1)
        decay_rate = float(fit[0])
        details["tail_decay_rate"] = decay_rate

    if direct:
        status, notes = PASS, "tail node within 3 SE of zero"
    elif problem.is_strictly_discounted() and decay_rate is not None and decay_rate < 0:
        status = PASS
        notes = (
            "implied: positive transient tail; finite weighted norms under strict "
            "discounting force the statistic to zero"
        )
        details["route"] = "integrability"
    else:
        status, notes = FAIL, "tail statistic stays positive without a decay certificate"

    return VerificationReport(
        check="transversality",
        status=status,
        statistic=float(m[-1]),
        tolerance=float(3.0 * se[-1]),
        n_samples=n_paths,
        standard_error=float(se[-1]),
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


def check_identities(
    problem: DiscountedProblem,
    spec: SampleSpec,
    n_points: int = 2000,
) -> VerificationReport:
    """Analytic state gradient of the Hamiltonian against finite differences.

    At random (x, u, y, z) samples the statistic is
    max |grad_x H - FD| / (1 + |grad_x H|), with FD the central difference
    of :func:`finite_diff_grad_x`; pass within ``GRADIENT_TOL`` = 1e-6.  A
    wrong ``grad_drift``, ``grad_diffusion`` or ``grad_cost`` shows here.
    """
    rng = np.random.default_rng(spec.seed)
    n, d = problem.state_dim, problem.noise_dim
    x = spec.draw_states(rng, n_points)
    u = problem.domain.sample(rng, n_points)
    y = rng.standard_normal((n_points, n))
    z = rng.standard_normal((n_points, n, d))

    g = grad_x_hamiltonian(x, u, y, z, problem)
    g_fd = finite_diff_grad_x(x, u, y, z, problem)
    gap = float(np.max(np.abs(g - g_fd) / (1.0 + np.abs(g))))
    return VerificationReport(
        check="identities",
        status=PASS if gap <= GRADIENT_TOL else FAIL,
        statistic=gap,
        tolerance=GRADIENT_TOL,
        n_samples=n_points,
        notes="analytic grad_x H vs central finite differences",
    )
