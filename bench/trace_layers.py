"""Layer tracing for the smpsolve benchmark, installed from outside the package.

:func:`install` wraps every public function and every public method of the
layer modules (``forward``, ``bsde``, ``verify``, ``problems``,
``experiments``, ``io``) and rebinds each name wherever smpsolve looks it up:
the defining module, every module that bound it by ``from``-import, and the
classes that carry the methods.  Each call records one span (name, layer,
parent span, start, end) in memory; nothing is written until the run ends.

The wrappers only pass calls through, so a traced run computes the same
numbers, to the bit, as an untraced one.  A few spans also feed work
counters (noise draws, regression rows, duplicate solves, ...), computed
from the call's arguments and result after the span has closed.
"""
from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import sys
import time
import weakref
from collections import Counter, defaultdict

import numpy as np

LAYERS = ("forward", "bsde", "verify", "problems", "experiments", "io")

# least-squares fits per backward step in solve_bsde_lsmc: E[Y_{i+1}|X_i],
# Z_i and the realized Y_i surface
FITS_PER_STEP = 3

MIB = float(1 << 20)

# span names whose summed time (outermost occurrence) is reported inclusively
INCLUSIVE = {
    "forward.noise_s": ("forward.NoiseBatch.generate",),
    "bsde.solve_s": ("bsde.solve_bsde_lsmc",),
    "bsde.surface_eval_s": ("bsde.BsdeSolution.y_at",),
    "bsde.stability_s": ("bsde.terminal_stability_gap",),
    "bsde.cylinder_s": ("bsde.cylinder_consistency_check",),
    "verify.path_cost_s": ("verify.path_costs",),
    "verify.tvc_s": ("verify.check_tvc",),
    "verify.pointwise_s": ("verify.check_pointwise_max",),
    # the problem-level audits; check_identities lives in verify.py but
    # audits the problem definition alone, like the other two
    "problems.audit_s": (
        "problems.validate_assumptions",
        "verify.check_identities",
        "problems.concavity_probe",
    ),
    "problems.hmax_s": ("problems.maximize_hamiltonian_in_u",),
    "experiments.picard_s": ("experiments.logistic_picard_solve",),
}

# call counts, read off the spans
CALLS = {
    "forward.simulate_calls": "forward.simulate_forward",
    "bsde.solve_calls": "bsde.solve_bsde_lsmc",
    "bsde.surface_evals": "bsde.BsdeSolution.y_at",
    "verify.path_cost_evals": "verify.path_costs",
}

# work counts, computed by the hooks below from each call's arguments and result
COUNTERS = (
    "forward.noise_draws",
    "forward.path_steps",
    "forward.exploded_paths",
    "forward.clipped_paths",
    "bsde.regression_rows",
    "bsde.duplicate_solves",
    "bsde.ridge_steps",
    "experiments.picard_iterations",
)


class Tracer:
    """Span recorder and work counters for one traced run."""

    def __init__(self) -> None:
        # one list per span: [name, layer, parent index or -1, start, end]
        self.spans: list = []
        self.counts = defaultdict(int)
        self._stack: list = []
        self._solves: list = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        """Wrap the layer modules of the already imported smpsolve package."""
        replaced = {}
        for layer in LAYERS:
            module = importlib.import_module(f"smpsolve.{layer}")
            for name, obj in list(vars(module).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    replaced[obj] = self._wrap(layer, name, obj)
                elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                    self._wrap_methods(layer, obj)
        # rebind every module-level name that points at a wrapped function,
        # which covers ``from .forward import simulate_forward`` and the like
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "smpsolve" or mod_name.startswith("smpsolve.")):
                continue
            for name, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in replaced:
                    setattr(module, name, replaced[obj])

    def _wrap_methods(self, layer: str, cls) -> None:
        for name, attr in list(vars(cls).items()):
            if name.startswith("_"):
                continue
            qualname = f"{cls.__name__}.{name}"
            if isinstance(attr, classmethod):
                setattr(cls, name, classmethod(self._wrap(layer, qualname, attr.__func__)))
            elif isinstance(attr, staticmethod):
                setattr(cls, name, staticmethod(self._wrap(layer, qualname, attr.__func__)))
            elif inspect.isfunction(attr):
                setattr(cls, name, self._wrap(layer, qualname, attr))

    def _wrap(self, layer: str, qualname: str, fn):
        name = f"{layer}.{qualname}"
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        hook = _HOOKS.get(name)
        signature = inspect.signature(fn) if hook is not None else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, layer, stack[-1] if stack else -1, 0.0, 0.0]
            stack.append(len(spans))
            spans.append(span)
            span[3] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = clock()
                stack.pop()
            if hook is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                hook(self, bound.arguments, result)
            return result

        return traced

    # -- counters -----------------------------------------------------------

    def _count_noise(self, args, noise) -> None:
        self.counts["forward.noise_draws"] += int(noise.increments.size)
        self.counts["forward.ensemble_bytes"] += int(noise.increments.nbytes)

    def _count_simulation(self, args, ens) -> None:
        c = self.counts
        c["forward.path_steps"] += ens.states.shape[0] * (ens.states.shape[1] - 1)
        c["forward.ensemble_bytes"] += int(ens.states.nbytes + ens.controls.nbytes)
        c["forward.exploded_paths"] += int(ens.exploded.sum())
        c["forward.clipped_paths"] += int(ens.floor_clipped.sum())

    def _count_solve(self, args, sol) -> None:
        c = self.counts
        ens = args["ensemble"]
        valid_rows = int((~ens.exploded).sum())
        c["bsde.regression_rows"] += valid_rows * ens.grid.steps * FITS_PER_STEP
        c["bsde.ridge_steps"] += len(sol.ridge_steps)
        terminal = args["terminal"]
        digest = None
        if terminal is not None:
            digest = hashlib.blake2b(np.ascontiguousarray(terminal, dtype=float), digest_size=16).digest()
        key = (args["basis"], digest, args["driver_state_cap"])
        alive = []
        duplicate = False
        for ref, earlier in self._solves:
            seen = ref()
            if seen is None:
                continue
            alive.append((ref, earlier))
            duplicate = duplicate or (seen is ens and earlier == key)
        if duplicate:
            c["bsde.duplicate_solves"] += 1
        else:
            alive.append((weakref.ref(ens), key))
        self._solves = alive

    def _count_picard(self, args, result) -> None:
        self.counts["experiments.picard_iterations"] += int(result.iterations)

    # -- summary ------------------------------------------------------------

    def summary(self, wall_s: float) -> dict:
        """Per-layer metrics of the finished run whose root lasted ``wall_s``."""
        spans = self.spans
        self_time = self._self_times()
        top_level = sum(end - start for _, _, parent, start, end in spans if parent < 0)

        metrics = {}
        for layer in LAYERS:
            metrics[f"{layer}.self_s"] = sum(
                t for s, t in zip(spans, self_time) if s[1] == layer
            )
        metrics["forward.simulate_s"] = sum(
            t for s, t in zip(spans, self_time) if s[0] == "forward.simulate_forward"
        )
        metrics["forward.law_s"] = sum(
            t for s, t in zip(spans, self_time)
            if s[1] == "forward" and s[0].endswith(".control_at")
        )
        for metric, names in INCLUSIVE.items():
            metrics[metric] = self._outermost(set(names))
        metrics["io.write_s"] = self._outermost(
            {s[0] for s in spans if s[1] == "io"}
        )
        calls = Counter(s[0] for s in spans)
        for metric, name in CALLS.items():
            metrics[metric] = calls[name]
        for counter in COUNTERS:
            metrics[counter] = self.counts[counter]
        metrics["forward.ensemble_mb"] = self.counts["forward.ensemble_bytes"] / MIB
        metrics["run.traced_s"] = wall_s
        metrics["run.unattributed_s"] = wall_s - top_level
        metrics["trace.spans"] = len(spans)
        return metrics

    def _outermost(self, names: set) -> float:
        """Summed duration of spans in ``names`` not nested in another one."""
        inside = [False] * len(self.spans)
        total = 0.0
        for i, (name, layer, parent, start, end) in enumerate(self.spans):
            covered = parent >= 0 and (inside[parent] or self.spans[parent][0] in names)
            inside[i] = covered
            if name in names and not covered:
                total += end - start
        return total

    def _self_times(self) -> list:
        """Each span's duration minus the durations of its direct children."""
        own = [end - start for _, _, _, start, end in self.spans]
        for i, (_, _, parent, _, _) in enumerate(self.spans):
            if parent >= 0:
                own[parent] -= self.spans[i][4] - self.spans[i][3]
        return own

    def by_name(self) -> dict:
        """Calls, inclusive and self seconds per span name."""
        table: dict = {}
        for span, own in zip(self.spans, self._self_times()):
            row = table.setdefault(span[0], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += span[4] - span[3]
            row["self_s"] += own
        return table


_HOOKS = {
    "forward.NoiseBatch.generate": Tracer._count_noise,
    "forward.simulate_forward": Tracer._count_simulation,
    "bsde.solve_bsde_lsmc": Tracer._count_solve,
    "experiments.logistic_picard_solve": Tracer._count_picard,
}
