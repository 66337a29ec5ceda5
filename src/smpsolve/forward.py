"""Forward simulation of controlled SDEs and pathwise diagnostics.

The stepper is Euler-Maruyama on the whole space.  On the positive half-line,
problems that declare a multiplicative structure (linear drift part plus
sigma(x) = vol * x) are stepped with the linear part propagated exactly in
the log and the drift remainder added afterwards; this keeps paths positive
for moderate step sizes.  Residual negativity is clipped at a small floor and
flagged, never silently.

Noise is counter-based: increment block of path p is a pure function of
(seed, path index), with the (step, component) layout fixed inside the block.
:func:`simulate_forward` is the only place that draws it; ensembles that must
share their Brownian motion pass the first ensemble's ``noise`` to the others.
A flow that only accompanies an ensemble (a competitor, a sandwich envelope)
is stepped on its noise by :func:`stream_competitor` through
one reused window and never stored.

Per-step arrays (states, noise increments, costates) have the logical shape
(paths, steps, ...) but are stored time-major by :func:`time_major`, so the
slice ``a[:, i]`` that every step reads and writes is contiguous.  A stored
ensemble keeps no controls: they are a function of its states, and
:meth:`PathEnsemble.control` recomputes them from the law that applied them.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

from .problems import ControlDomain, DiscountedProblem, StateRegion
from .reports import FAIL, PASS, VerificationReport

if TYPE_CHECKING:
    from .bsde import BsdeSolution

Array = np.ndarray

EXPLOSION_GUARD = 1e8
MAX_EXPLODED_FRACTION = 0.01
DISCOUNT_TAIL = 1e-4
POSITIVITY_FLOOR = 1e-12
SANDWICH_MARGIN = 1e-9
SANDWICH_MAX_FRACTION = 1e-3
# paths per noise draw buffer: 256 paths x 250 steps is 0.5 MB.  Freeing the
# buffer raises glibc's dynamic mmap threshold above the 8-byte-per-path
# temporaries of every later step (160 KB at 20k paths, above the 128 KiB
# default), so the heap reuses them instead of mapping each one afresh
NOISE_BLOCK = 256
# a surface evaluated on part of an ensemble's rows is evaluated on the whole
# chunks of this many rows that hold them (see _row_chunks)
ROW_ALIGN = 64


class SimulationError(RuntimeError):
    """Raised when an ensemble is too degenerate to be useful."""


def time_major(n_paths: int, steps: int, *tail: int) -> Array:
    """Uninitialized array of logical shape (n_paths, steps, *tail).

    It is stored as (steps, n_paths, *tail) and returned transposed, so that
    ``a[:, i]`` is contiguous.  Callers that need path-major memory use
    ``np.ascontiguousarray``.
    """
    return np.empty((steps, n_paths, *tail)).swapaxes(0, 1)


def _row_chunks(rows, n_rows: int) -> tuple:
    """The whole ``ROW_ALIGN``-row chunks of ``range(n_rows)`` that hold
    ``rows`` (a slice or row indices), and where ``rows`` sit among them.

    A surface's matrix product takes a row through a kernel path that
    depends on the row's place among the rows it is evaluated with: on a
    subset, the tail rows can differ from the full-width product in the last
    bit.  Evaluated on the covering chunks, each row keeps its place modulo
    ``ROW_ALIGN`` and the last chunk its short tail, and the rows match the
    full-width product to the bit.  Returns (cover, where), so that
    ``f(x[cover])[where]`` is ``f(x)[rows]``; a slice covers with a slice.
    """
    if isinstance(rows, slice):
        start, stop, stride = rows.indices(n_rows)
        if stride != 1:
            raise ValueError("rows must be a contiguous slice or row indices")
        lo = start - start % ROW_ALIGN
        hi = min(n_rows, -(-stop // ROW_ALIGN) * ROW_ALIGN)
        return slice(lo, hi), slice(start - lo, stop - lo)
    rows = np.asarray(rows)
    chunks = np.unique(rows // ROW_ALIGN)
    cover = (chunks[:, None] * ROW_ALIGN + np.arange(ROW_ALIGN)).ravel()
    cover = cover[cover < n_rows]
    return cover, np.searchsorted(cover, rows)


def _take_paths(a: Array, index: Array) -> Array:
    """``a[index]`` for a path mask or path indices, stored time-major."""
    index = np.asarray(index)
    if index.dtype == bool:
        index = np.flatnonzero(index)
    return np.take(a.swapaxes(0, 1), index, axis=1).swapaxes(0, 1)


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid t_i = i * horizon / steps, i = 0..steps."""

    horizon: float
    steps: int

    def __post_init__(self) -> None:
        if not (self.horizon > 0 and math.isfinite(self.horizon)):
            raise ValueError("horizon must be positive and finite")
        if self.steps < 1:
            raise ValueError("steps must be >= 1")

    @property
    def dt(self) -> float:
        return self.horizon / self.steps

    def times(self) -> Array:
        """The N + 1 grid times, built once per grid and read-only."""
        return self._times

    @cached_property
    def _times(self) -> Array:
        # i * T / N; the product can round past T at i = N, so t_N is set to T
        t = np.arange(self.steps + 1) * (self.horizon / self.steps)
        t[-1] = self.horizon
        t.flags.writeable = False
        return t

    def step_at(self, t: float) -> int:
        """Step i with t_i <= t < t_{i+1}: floor(t / dt + 1e-9), for 0 <= t < horizon."""
        if not 0.0 <= t < self.horizon:
            raise ValueError(f"time {t:g} is outside the grid [0, {self.horizon:g})")
        return math.floor(t / self.dt + 1e-9)

    def discounted_weights(self, beta: float) -> Array:
        """Trapezoid weights dt * e^{-beta t_i}, halved at both ends: w @ v is the
        discounted integral of the node values v over the grid."""
        w = self.dt * np.exp(-beta * self.times())
        w[[0, -1]] *= 0.5
        return w

    @classmethod
    def auto(cls, beta: float, steps: int) -> "TimeGrid":
        """Horizon ceil(ln(1/DISCOUNT_TAIL)/beta), so that e^{-beta T} <= DISCOUNT_TAIL."""
        if beta <= 0:
            raise ValueError("beta must be positive")
        horizon = math.ceil(math.log(1.0 / DISCOUNT_TAIL) / beta)
        return cls(horizon=float(max(horizon, 1)), steps=steps)


@dataclass
class NoiseBatch:
    """Brownian increments for an ensemble, reproducible by construction.

    ``increments[p, i, c]`` is the c-th component of the increment over step
    i for path p, distributed N(0, dt).  :meth:`generate` keys path p by
    (seed, p); given the key, position (i, c) inside the block is fixed, so
    identical seeds give bit-identical batches and a larger batch extends a
    smaller one.  ``increments`` is stored time-major (see :func:`time_major`).
    """

    dt: float
    increments: Array

    @property
    def n_paths(self) -> int:
        return self.increments.shape[0]

    @property
    def n_steps(self) -> int:
        return self.increments.shape[1]

    @property
    def noise_dim(self) -> int:
        return self.increments.shape[2]

    @classmethod
    def generate(
        cls, seed: int, n_paths: int, n_steps: int, noise_dim: int, dt: float
    ) -> "NoiseBatch":
        if n_paths < 1 or n_steps < 1 or noise_dim < 1:
            raise ValueError("n_paths, n_steps and noise_dim must be >= 1")
        if dt <= 0:
            raise ValueError("dt must be positive")
        if not 0 <= seed < 2**63:
            raise ValueError(f"seed must lie in [0, 2**63), got {seed}")
        increments = time_major(n_paths, n_steps, noise_dim)
        # draws need contiguous rows, so each block of paths is drawn path by
        # path into a small buffer and then copied over time-major, in the
        # table's memory order
        block = np.empty((min(n_paths, NOISE_BLOCK), n_steps * noise_dim))
        # one generator, re-keyed per path: the same stream as a fresh
        # Generator(Philox(key=[seed, p])) for every path
        gen = np.random.Generator(np.random.Philox(key=[seed, 0]))
        fresh = gen.bit_generator.state
        for start in range(0, n_paths, NOISE_BLOCK):
            rows = block[: n_paths - start]
            for r, row in enumerate(rows):
                fresh["state"]["key"][1] = start + r
                gen.bit_generator.state = fresh
                gen.standard_normal(out=row)
            rows *= math.sqrt(dt)
            staged = rows.reshape(len(rows), n_steps, noise_dim)
            increments[start : start + len(rows)].swapaxes(0, 1)[...] = staged.swapaxes(0, 1)
        return cls(dt=dt, increments=increments)

    def take_paths(self, index: Array) -> "NoiseBatch":
        return NoiseBatch(dt=self.dt, increments=_take_paths(self.increments, index))


class ControlLaw:
    """Base class; subclasses produce control values u(t, x) per state row."""

    def control_at(self, t: float, x: Array) -> Array:
        raise NotImplementedError


class ConstantControl(ControlLaw):
    def __init__(self, value) -> None:
        self.value = np.atleast_1d(np.asarray(value, dtype=float))

    def control_at(self, t: float, x: Array) -> Array:
        return np.broadcast_to(self.value, (x.shape[0], self.value.shape[0]))


class FeedbackControl(ControlLaw):
    """Markov feedback u = fn(t, x) with fn vectorized over paths."""

    def __init__(self, fn: Callable[[float, Array], Array]) -> None:
        self.fn = fn

    def control_at(self, t: float, x: Array) -> Array:
        u = np.asarray(self.fn(t, x), dtype=float)
        if u.ndim == 1:
            u = u[:, None]
        return u


class AdjointFeedbackControl(ControlLaw):
    """Feedback through a solved costate: u = law(t, x, y(t, x)).

    y(t, x) is the costate surface of ``solution`` at the step of its own
    grid that holds t; times outside that grid raise ``ValueError``.  The
    law keeps the surfaces only, the solve's grid, basis, per-step transforms
    and ``y_coeffs``, and not the solution with its paths.
    """

    def __init__(
        self,
        solution: BsdeSolution,
        law: Callable[[float, Array, Array], Array],
    ) -> None:
        self.grid, self.basis = solution.grid, solution.basis
        self.transforms, self.y_coeffs = solution.transforms, solution.y_coeffs
        self.law = law

    def y_at(self, step: int, x: Array) -> Array:
        """The costate surface of step ``step``, 0 <= step < N, at states x,
        to the bit as :meth:`smpsolve.bsde.BsdeSolution.y_at` evaluates it."""
        if not 0 <= step < self.grid.steps:
            raise ValueError(f"no costate surface at step {step} of a {self.grid.steps}-step grid")
        return self.basis.design(np.asarray(x, dtype=float), self.transforms[step]) @ self.y_coeffs[step]

    def control_at(self, t: float, x: Array) -> Array:
        y = self.y_at(self.grid.step_at(t), x)
        u = np.asarray(self.law(t, x, y), dtype=float)
        if u.ndim == 1:
            u = u[:, None]
        return u


class BlendedControl(ControlLaw):
    """Convex combination of laws; used for damped fixed-point iterations."""

    def __init__(self, laws, weights) -> None:
        self.laws = list(laws)
        self.weights = np.asarray(weights, dtype=float)
        if len(self.laws) != self.weights.shape[0]:
            raise ValueError("one weight per law required")
        if abs(self.weights.sum() - 1.0) > 1e-12 or np.any(self.weights < 0):
            raise ValueError("weights must be a convex combination")

    def control_at(self, t: float, x: Array) -> Array:
        acc = None
        for w, law in zip(self.weights, self.laws):
            u = law.control_at(t, x)
            acc = w * u if acc is None else acc + w * u
        return acc


@dataclass
class PathEnsemble:
    """Simulated ensemble: states, noise, exit flags, and the law that drove it.

    ``states`` has shape (P, N+1, n), stored time-major (see
    :func:`time_major`).  No controls table is stored: step i applied
    ``law.control_at(t_i, X_i)`` clipped to the box ``domain``, a function of
    the stored states, and :meth:`control` recomputes it.  Flags are per
    path: ``euler_crossed`` marks paths whose raw Euler candidate went
    nonpositive at some step (diagnostic, the actual scheme may have stayed
    positive), ``floor_clipped`` marks paths clipped at the positivity floor,
    ``exploded`` marks paths frozen after leaving the explosion guard or
    producing non-finite values.
    """

    grid: TimeGrid
    states: Array
    law: ControlLaw
    domain: ControlDomain
    noise: NoiseBatch
    euler_crossed: Array
    floor_clipped: Array
    exploded: Array

    @property
    def n_paths(self) -> int:
        return self.states.shape[0]

    @property
    def state_dim(self) -> int:
        return self.states.shape[2]

    def control(self, i: int, rows=slice(None)) -> Array:
        """The controls step i applied on the paths ``rows`` (a slice or path
        indices), shape (rows, k).

        This is the expression :func:`step_forward` applied, on the same
        states, so the values match to the bit.  Part of the paths is
        evaluated on the whole row chunks that hold it (:func:`_row_chunks`),
        so that a surface law keeps the bits of its full-width call.
        """
        cover, where = _row_chunks(rows, self.n_paths)
        u = self.domain.clip(self.law.control_at(self.grid.times()[i], self.states[cover, i]))
        return u[where]

    @property
    def controls(self) -> Array:
        """The whole (P, N, k) controls table, time-major, built on every read
        from :meth:`control`; for tests and small ensembles."""
        table = time_major(self.n_paths, self.grid.steps, self.domain.dim)
        for i in range(self.grid.steps):
            table[:, i] = self.control(i)
        return table

    def take_paths(self, index: Array) -> "PathEnsemble":
        """The paths ``index`` (a mask or path indices) as an ensemble of their
        own, under the same law.  Its controls are recomputed on its own
        states, where a row's place among the rows changes: under a surface
        law they may differ from the parent's in the last bit (see
        :func:`_row_chunks`)."""
        return PathEnsemble(
            grid=self.grid,
            states=_take_paths(self.states, index),
            law=self.law,
            domain=self.domain,
            noise=self.noise.take_paths(index),
            euler_crossed=self.euler_crossed[index],
            floor_clipped=self.floor_clipped[index],
            exploded=self.exploded[index],
        )


def _resolve_x0(problem: DiscountedProblem, x0, n_paths: int) -> Array:
    if x0 is None:
        base = problem.x0
    else:
        base = np.asarray(x0, dtype=float)
    if base.ndim <= 1:
        base = np.atleast_1d(base)
        if base.shape != (problem.state_dim,):
            raise ValueError("x0 must have shape (state_dim,)")
        return np.broadcast_to(base, (n_paths, problem.state_dim)).copy()
    if base.shape != (n_paths, problem.state_dim):
        raise ValueError("per-path x0 must be (n_paths, state_dim)")
    return base.copy()


def step_forward(
    problem: DiscountedProblem,
    law: ControlLaw,
    grid: TimeGrid,
    noise: NoiseBatch,
    states: Array,
    controls: Array | None = None,
    visitors: Sequence[Callable[[int, Array, Array], None]] = (),
    x0=None,
) -> tuple[Array, Array, Array]:
    """Step the controlled SDE over ``grid`` through a caller-owned window.

    ``states`` holds the W + 1 nodes of W steps and ``controls`` their W
    controls, both time-major (see :func:`time_major`).  The steps are taken
    W at a time: when the window holding steps s..e-1 is full, each visitor
    is called as ``visit(s, states[:, :e-s+1], controls[:, :e-s])``, seeing
    nodes s..e and the controls of those steps, and the window is then
    reused, its last node carried to its first slot.  A window of
    ``grid.steps`` steps is the whole table, stepped in one pass.  Without
    ``controls``, which only visitors read, each step's controls go to a
    one-step buffer.

    Step i applies ``law.control_at(t_i, x)``, clipped to the problem's box.
    On the half-line, states are clipped at ``POSITIVITY_FLOOR`` and flagged.
    Paths that leave ``EXPLOSION_GUARD`` or turn non-finite are frozen at
    their last finite value and flagged; the pass errors out if more than
    ``MAX_EXPLODED_FRACTION`` of paths explode.  Returns the per-path flags
    (euler_crossed, floor_clipped, exploded) of :class:`PathEnsemble`.
    """
    n_paths = noise.n_paths
    if noise.n_steps != grid.steps or noise.noise_dim != problem.noise_dim:
        raise ValueError("noise batch shape does not match the requested run")
    if abs(noise.dt - grid.dt) > 1e-15 * max(1.0, grid.dt):
        raise ValueError("noise batch dt does not match the grid")
    window = states.shape[1] - 1
    if window < 1 or states.shape[0] != n_paths:
        raise ValueError("the window must hold W steps and their W + 1 nodes for every path")
    if controls is None:
        if visitors:
            raise ValueError("visitors read the window's controls: pass a controls window")
        u = np.empty((n_paths, problem.control_dim))
    elif controls.shape[:2] != (n_paths, window):
        raise ValueError("the window must hold W steps and their W + 1 nodes for every path")

    dt = grid.dt
    times = grid.times()
    positive = problem.state_region is StateRegion.POSITIVE_HALF_LINE
    x = states[:, 0]
    x[...] = _resolve_x0(problem, x0, n_paths)
    if positive and np.any(x <= 0):
        raise ValueError("initial states must be positive on the half-line")

    crossed = np.zeros(n_paths, dtype=bool)
    clipped = np.zeros(n_paths, dtype=bool)
    exploded = np.zeros(n_paths, dtype=bool)
    frozen = False

    coeff = problem.coefficients
    lower, upper = problem.domain.lower, problem.domain.upper
    mult = problem.multiplicative if positive else None
    scalar_noise = problem.noise_dim == 1

    for i in range(grid.steps):
        j = i % window
        if i and not j:
            # the visited window is reused from its last node on
            states[:, 0] = states[:, window]
            x = states[:, 0]
        if controls is not None:
            u = controls[:, j]
        np.clip(law.control_at(times[i], x), lower, upper, out=u)
        dW = noise.increments[:, i, :]
        x_new = states[:, j + 1]

        if mult is None:
            b = np.asarray(coeff.drift(x, u), dtype=float)
            sig = np.asarray(coeff.diffusion(x, u), dtype=float)
            np.multiply(b, dt, out=x_new)
            x_new += x
            if scalar_noise:
                # the einsum's one-term sum as a product: they differ only in
                # the sign of a zero, which adding it to x + b dt drops unless
                # that is -0.0 as well
                x_new += sig[:, :, 0] * dW
            else:
                x_new += np.einsum("pic,pc->pi", sig, dW)
            euler = x_new[:, 0]
        else:
            # b = rate x + residual and sigma = vol x, so the Euler candidate,
            # which only feeds the crossing flag, is
            # x (1 + rate dt + vol dW) + residual dt
            core = x_new[:, 0]
            rate = np.asarray(mult.linear_rate(u), dtype=float).reshape(n_paths)
            vol = mult.volatility
            shock = vol * dW[:, 0]
            euler = rate * dt
            euler += 1.0
            euler += shock
            euler *= x[:, 0]
            np.subtract(rate, 0.5 * vol * vol, out=core)
            core *= dt
            core += shock
            np.exp(core, out=core)
            core *= x[:, 0]
            if mult.residual is not None:
                res = np.asarray(mult.residual(x, u), dtype=float).reshape(n_paths) * dt
                euler += res
                core += res
        if positive:
            # NaN fails both tests, so it builds the masks, which skip it
            if not euler.min() > 0.0:
                crossed |= euler <= 0.0
            if not x_new.min() > POSITIVITY_FLOOR:
                low = x_new[:, 0] <= POSITIVITY_FLOOR
                clipped |= low
                x_new[low, 0] = POSITIVITY_FLOOR
            # every state is now at or above the floor, or NaN
            inside = x_new.max() <= EXPLOSION_GUARD
        else:
            inside = max(x_new.max(), -x_new.min()) <= EXPLOSION_GUARD

        # one scalar test while every path is in bounds; NaN and inf fail it
        if frozen or not inside:
            exploded |= ~(np.abs(x_new).max(axis=1) <= EXPLOSION_GUARD)
            frozen = bool(exploded.any())
            x_new[exploded] = x[exploded]
        x = x_new
        if j == window - 1 or i == grid.steps - 1:
            for visit in visitors:
                visit(i - j, states[:, : j + 2], controls[:, : j + 1])

    frac = float(exploded.mean())
    if frac > MAX_EXPLODED_FRACTION:
        raise SimulationError(
            f"{frac:.1%} of paths exploded (guard {EXPLOSION_GUARD:g}); "
            "refine the grid or check the problem scaling"
        )
    return crossed, clipped, exploded


def simulate_forward(
    problem: DiscountedProblem,
    law: ControlLaw,
    grid: TimeGrid,
    n_paths: int,
    seed: int,
    noise: NoiseBatch | None = None,
    x0=None,
) -> PathEnsemble:
    """Simulate the controlled SDE over ``grid`` and record the ensemble.

    This is :func:`step_forward` with one window of states the size of the
    grid, so the ensemble keeps every node, and no controls window: the
    ensemble keeps ``law`` instead (see :meth:`PathEnsemble.control`).  See
    :func:`step_forward` for the scheme, the clipping and the explosion
    guard.  Without ``noise`` the batch is drawn from ``seed``.
    """
    if noise is None:
        noise = NoiseBatch.generate(seed, n_paths, grid.steps, problem.noise_dim, grid.dt)
    elif noise.n_paths != n_paths:
        raise ValueError("noise batch shape does not match the requested run")
    states = time_major(n_paths, grid.steps + 1, problem.state_dim)
    crossed, clipped, exploded = step_forward(problem, law, grid, noise, states, x0=x0)
    return PathEnsemble(
        grid=grid,
        states=states,
        law=law,
        domain=problem.domain,
        noise=noise,
        euler_crossed=crossed,
        floor_clipped=clipped,
        exploded=exploded,
    )


# (path, step) nodes per window of :func:`stream_competitor` and per block of
# :func:`smpsolve.verify.path_costs`
PATH_COST_BLOCK = 1 << 14


def _block_steps(n_paths: int, steps: int) -> int:
    """Whole steps per block of about ``PATH_COST_BLOCK`` nodes, at least one."""
    return min(steps, -(-PATH_COST_BLOCK // n_paths))


def stream_competitor(
    problem: DiscountedProblem, ensemble: PathEnsemble, law: ControlLaw, *visitors
) -> tuple[Array, Array, Array]:
    """Step ``law`` on ``ensemble``'s noise without storing its paths.

    The competitor starts from the ensemble's initial states and shares its
    Brownian increments (common random numbers).  It is stepped by :func:`step_forward` through one window of
    ``PATH_COST_BLOCK`` nodes (whole steps), and every visitor sees each
    finished window as ``visit(s, x, u)``: the nodes s..e and the controls of
    steps s..e-1, to be compared with ``ensemble.states[:, s:e+1]``.  No
    table of all its nodes is ever allocated; a law that explodes raises
    :class:`SimulationError` as :func:`simulate_forward` would.  Returns the
    competitor's (euler_crossed, floor_clipped, exploded) path flags.
    """
    grid, n_paths = ensemble.grid, ensemble.n_paths
    window = _block_steps(n_paths, grid.steps)
    states = time_major(n_paths, window + 1, problem.state_dim)
    controls = time_major(n_paths, window, problem.control_dim)
    return step_forward(
        problem, law, grid, ensemble.noise, states, controls, visitors, x0=ensemble.states[:, 0]
    )


def degenerate_paths(*flags: tuple[Array, Array, Array]) -> dict:
    """``clipped_paths`` and ``exploded_paths``: the paths that any of the
    (euler_crossed, floor_clipped, exploded) triples of :func:`step_forward` flags."""
    clipped = np.logical_or.reduce([f[1] for f in flags])
    exploded = np.logical_or.reduce([f[2] for f in flags])
    return {"clipped_paths": int(clipped.sum()), "exploded_paths": int(exploded.sum())}


def comparison_check(problem: DiscountedProblem, ensemble: PathEnsemble) -> VerificationReport:
    """Sandwich check: envelope constant controls bracket the ensemble's paths.

    Steps the ``problem.sandwich_controls`` constants on the ensemble's noise
    from its initial states (:func:`stream_competitor`) and counts, window by
    window, the (path, node) pairs where the ensemble's state escapes
    [lower - 1e-9, upper + 1e-9]; pass when at most 1e-3 of them escape.
    The envelopes are ordered, so no node escapes both.  ``clipped_paths``
    and ``exploded_paths`` count paths degenerate in either envelope.
    """
    if problem.sandwich_controls is None:
        raise ValueError("problem declares no sandwich controls")
    states = ensemble.states[:, :, 0]

    def escapes(control, compare, offset: float) -> tuple[int, tuple]:
        count = 0

        def visit(s: int, x: Array, u: Array) -> None:
            nonlocal count
            # node s was counted with the window before, unless it is node 0
            lo, e = int(s > 0), s + u.shape[1]
            count += int(np.count_nonzero(compare(states[:, s + lo : e + 1], x[:, lo:, 0] + offset)))

        flags = stream_competitor(problem, ensemble, ConstantControl(control), visit)
        return count, flags

    lower, upper = problem.sandwich_controls
    below, lower_flags = escapes(lower, np.less, -SANDWICH_MARGIN)
    above, upper_flags = escapes(upper, np.greater, SANDWICH_MARGIN)
    size = states.size
    frac = (below + above) / size
    return VerificationReport(
        check="sandwich",
        status=PASS if frac <= SANDWICH_MAX_FRACTION else FAIL,
        statistic=frac,
        tolerance=SANDWICH_MAX_FRACTION,
        n_samples=size,
        details={
            "below_fraction": below / size,
            "above_fraction": above / size,
            **degenerate_paths(lower_flags, upper_flags),
        },
        notes="fraction of nodes outside the envelope bracket",
    )


def positivity_check(ensemble: PathEnsemble) -> VerificationReport:
    """Report hard-zero crossing and explosion counts for an ensemble.

    Counts paths whose raw Euler candidate crossed <= 0 (even where the
    positivity-preserving step stayed positive), paths clipped at the floor,
    and paths that hit the explosion guard.
    """
    crossings = int(ensemble.euler_crossed.sum())
    clips = int(ensemble.floor_clipped.sum())
    explosions = int(ensemble.exploded.sum())
    status = PASS if crossings == 0 and clips == 0 and explosions == 0 else FAIL
    return VerificationReport(
        check="positivity",
        status=status,
        statistic=float(crossings + clips),
        tolerance=0.0,
        n_samples=ensemble.n_paths,
        details={
            "euler_crossings": crossings,
            "floor_clips": clips,
            "explosions": explosions,
        },
        notes="paths with any nonpositive Euler candidate / floor clip / explosion",
    )


def lyapunov_ratio(problem: DiscountedProblem, x: Array) -> Array:
    """max over the control box corners of L V(x) / V(x), for V(x) = 1 + 1/x + x^2.

    L V = b(x,u) V'(x) + 0.5 sigma(x,u)^2 V''(x) at each positive scalar
    state of the 1-d array ``x``.
    """
    xcol = x[:, None]
    v = 1.0 + 1.0 / x + x * x
    vp = -1.0 / x**2 + 2.0 * x
    vpp = 2.0 / x**3 + 2.0
    worst = np.full(x.shape, -np.inf)
    for u_const in (problem.domain.lower, problem.domain.upper):
        u = np.broadcast_to(np.atleast_1d(u_const), (x.shape[0], problem.control_dim))
        b = np.asarray(problem.coefficients.drift(xcol, u), dtype=float)[:, 0]
        sig = np.asarray(problem.coefficients.diffusion(xcol, u), dtype=float)[:, 0, 0]
        worst = np.maximum(worst, (b * vp + 0.5 * sig * sig * vpp) / v)
    return worst


@dataclass(frozen=True)
class RegionConstants:
    """Region split (0, r), [r, R], (R, inf) with drift bound C on the tails."""

    r: float
    R: float
    C: float

    def __post_init__(self) -> None:
        if not (0 < self.r < self.R):
            raise ValueError("need 0 < r < R")
        if self.C < 0:
            raise ValueError("C must be nonnegative")


def lyapunov_generator_check(
    problem: DiscountedProblem,
    x_samples: Array,
    regions: RegionConstants,
) -> VerificationReport:
    """Generator drift test for V(x) = 1 + 1/x + x^2.

    Evaluates L V(x) = b(x,u) V'(x) + 0.5 sigma(x,u)^2 V''(x) at the sampled
    states and the two corners of the control box, and finds
    the smallest K with L V <= K V per region.  The tail regions are compared
    with the reference constants

        near zero:   max(L^2 + C, L^2 + 2 mu1),
        large x:     max(L^2, 2 C + L^2),

    derived from the declared diffusion Lipschitz constant L, the drift
    monotonicity constant mu1 and the region drift bound C.  The middle
    region's empirical constant is reported but has no reference value.
    """
    if problem.state_dim != 1:
        raise ValueError("the Lyapunov check is scalar-state only")
    x = np.asarray(x_samples, dtype=float).reshape(-1)
    if np.any(x <= 0):
        raise ValueError("samples must be positive")

    worst_ratio = lyapunov_ratio(problem, x)
    consts = problem.constants
    k_near_ref = max(consts.L**2 + regions.C, consts.L**2 + 2.0 * consts.mu1)
    k_far_ref = max(consts.L**2, 2.0 * regions.C + consts.L**2)

    near = x < regions.r
    far = x > regions.R
    mid = ~near & ~far

    def region_max(mask) -> float:
        return float(worst_ratio[mask].max()) if mask.any() else -math.inf

    k_near = region_max(near)
    k_far = region_max(far)
    k_mid = region_max(mid)
    k_all = float(worst_ratio.max())

    ok = math.isfinite(k_all)
    if near.any():
        ok = ok and k_near <= k_near_ref + 1e-9
    if far.any():
        ok = ok and k_far <= k_far_ref + 1e-9
    return VerificationReport(
        check="lyapunov_generator",
        status=PASS if ok else FAIL,
        statistic=k_all,
        n_samples=int(x.shape[0]),
        details={
            "K_near": k_near,
            "K_near_reference": k_near_ref,
            "K_mid": k_mid,
            "K_far": k_far,
            "K_far_reference": k_far_ref,
            "r": regions.r,
            "R": regions.R,
            "C": regions.C,
        },
        notes="smallest K with LV <= K V per region; tails vs reference constants",
    )
