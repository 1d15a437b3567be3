"""Adaptive quadrature of line integrals along piecewise-parameterized paths.

Thin wrapper over QUADPACK's Gauss-Kronrod integrator with an explicit
evaluation budget, so path integrals carry an error estimate and a hard cap.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy.integrate import quad

from .errors import NumericError

REL_TARGET = 1e-10
MAX_EVALS_PER_PATH = 1_000_000


@dataclass(frozen=True)
class QuadResult:
    value: float
    error_estimate: float
    evaluations: int


class EvalBudget:
    """Counts integrand evaluations and trips once the budget is exhausted."""

    def __init__(self, limit: int):
        self.limit = limit
        self.used = 0

    def charge(self, n: int = 1):
        self.used += n
        if self.used > self.limit:
            raise NumericError(
                f"quadrature evaluation budget of {self.limit} exhausted"
            )


def integrate_scalar(
    f: Callable[[float], float],
    a: float,
    b: float,
    *,
    rel_tol: float = REL_TARGET,
    budget: EvalBudget | None = None,
) -> QuadResult:
    """Adaptive integral of f over [a, b]."""
    budget = budget or EvalBudget(MAX_EVALS_PER_PATH)

    def counted(x: float) -> float:
        budget.charge()
        return f(x)

    value, err = quad(counted, a, b, epsabs=1e-14, epsrel=rel_tol, limit=200)
    return QuadResult(value, err, budget.used)


def line_integral(
    one_form: Callable[[np.ndarray], np.ndarray],
    segments: Sequence[Callable[[float], tuple[np.ndarray, np.ndarray]]],
    *,
    rel_tol: float = REL_TARGET,
) -> QuadResult:
    """Integral of a one-form along a path given as parameterized segments.

    Each segment maps s in [0, 1] to (point, velocity); the integrand is the
    pairing one_form(point) . velocity.
    """
    budget = EvalBudget(MAX_EVALS_PER_PATH)
    total = 0.0
    err = 0.0
    for seg in segments:
        def integrand(s: float, seg=seg) -> float:
            point, velocity = seg(s)
            return float(np.dot(one_form(point), velocity))

        r = integrate_scalar(integrand, 0.0, 1.0, rel_tol=rel_tol, budget=budget)
        total += r.value
        err += r.error_estimate
    return QuadResult(total, err, budget.used)
