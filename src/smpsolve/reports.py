"""Result containers shared by the numeric checks.

Every check in this package reports through :class:`VerificationReport` so the
CLI can render uniform pass/fail tables and serialize runs to JSON.  Monte
Carlo cost figures travel as :class:`CostEstimate`.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

PASS = "pass"
FAIL = "fail"
INCONCLUSIVE = "inconclusive"

_STATUSES = (PASS, FAIL, INCONCLUSIVE)


@dataclass
class VerificationReport:
    """Outcome of a single numeric check.

    Parameters
    ----------
    check : str
        Short identifier of the check ("pointwise_max", "assumptions", ...).
    status : str
        One of "pass", "fail", "inconclusive".
    statistic : float or None
        Headline number the verdict is based on.
    tolerance : float or None
        Threshold the statistic was compared against.
    n_samples : int or None
        Sample count behind the statistic.  Required whenever the statistic
        is a Monte Carlo estimate.
    standard_error : float or None
        Standard error of the statistic when it is an MC estimate.
    details : dict
        Additional named numbers (kept JSON serializable).
    notes : str
        Free-form context, e.g. why a check was inconclusive.
    """

    check: str
    status: str
    statistic: float | None = None
    tolerance: float | None = None
    n_samples: int | None = None
    standard_error: float | None = None
    details: dict = field(default_factory=dict)
    notes: str = ""

    def __post_init__(self) -> None:
        if self.status not in _STATUSES:
            raise ValueError(f"status must be one of {_STATUSES}, got {self.status!r}")

    def to_dict(self) -> dict:
        return {
            "check": self.check,
            "status": self.status,
            "statistic": self.statistic,
            "tolerance": self.tolerance,
            "n_samples": self.n_samples,
            "standard_error": self.standard_error,
            "details": self.details,
            "notes": self.notes,
        }

    def summary_line(self) -> str:
        bits = [f"{self.check}: {self.status.upper()}"]
        if self.statistic is not None:
            bits.append(f"stat={self.statistic:.6g}")
        if self.tolerance is not None:
            bits.append(f"tol={self.tolerance:.6g}")
        if self.standard_error is not None:
            bits.append(f"se={self.standard_error:.3g}")
        if self.notes:
            bits.append(self.notes)
        return "  ".join(bits)


@dataclass
class CostEstimate:
    """Monte Carlo estimate of a discounted cost functional.

    ``value`` is the sample mean of the pathwise discounted integrals,
    ``standard_error`` its standard error, and ``tail_bound`` an optional
    analytic bound on the mass truncated beyond ``horizon``.
    """

    value: float
    standard_error: float
    n_paths: int
    horizon: float
    tail_bound: float | None = None
    label: str = ""

    def __post_init__(self) -> None:
        if not math.isfinite(self.value):
            raise ValueError("cost estimate is not finite")
        if not math.isfinite(self.standard_error) or self.standard_error < 0:
            raise ValueError("standard error must be finite and >= 0")
        if self.n_paths <= 0:
            raise ValueError("n_paths must be positive")

    @classmethod
    def from_path_costs(cls, costs, horizon: float, label: str = "") -> "CostEstimate":
        """Mean and standard error of per-path discounted costs."""
        P = costs.size
        se = float(costs.std(ddof=1) / math.sqrt(P)) if P > 1 else 0.0
        return cls(float(costs.mean()), se, P, horizon, label=label)

    def to_dict(self) -> dict:
        return {
            "label": self.label,
            "value": self.value,
            "standard_error": self.standard_error,
            "n_paths": self.n_paths,
            "horizon": self.horizon,
            "tail_bound": self.tail_bound,
        }
