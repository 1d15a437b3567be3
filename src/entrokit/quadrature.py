"""Adaptive quadrature of line integrals along piecewise-parameterized paths.

Integrals come from a globally adaptive Gauss-Kronrod rule: the 7-point
Gauss rule embedded in the 15-point Kronrod rule, with the abscissae,
weights and error estimate of QUADPACK's ``qk15`` (Piessens et al., 1983).
Each step bisects the interval with the largest error estimate, until the
summed estimate meets the tolerance or the interval cap is reached.  An
explicit evaluation budget gives every path integral a hard cap.
"""

from __future__ import annotations

import heapq
import itertools
import math
import operator
import sys
from typing import Callable, Sequence

from .core import FrozenRecord
from .errors import NumericError

REL_TARGET = 1e-10
MAX_EVALS_PER_PATH = 1_000_000
_ABS_TOL = 1e-14
_MAX_INTERVALS = 200

# Kronrod abscissae on [-1, 1], largest first, and their weights; the centre
# 0 is kept apart.  Odd positions (1, 3, 5) and the centre are the abscissae
# of the embedded 7-point Gauss rule, whose weights are _WG and _WG_CENTRE.
_XGK = (
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144845693013,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
)
_WGK = (
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
)
_WGK_CENTRE = 0.209482141084727828012999174891714
_WG = (
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
)
_WG_CENTRE = 0.417959183673469387755102040816327
_EPS = sys.float_info.epsilon
_UFLOW = sys.float_info.min


class QuadResult(FrozenRecord):
    def __init__(self, value: float, error_estimate: float, evaluations: int):
        self.__dict__.update(value=value, error_estimate=error_estimate, evaluations=evaluations)


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


def _qk15(f: Callable[[float], float], a: float, b: float) -> tuple[float, float, float]:
    """The K15 and G7 sums of f over [a, b], and QUADPACK's error estimate."""
    centre, half = 0.5 * (a + b), 0.5 * (b - a)
    fc = f(centre)
    resk, resg = _WGK_CENTRE * fc, _WG_CENTRE * fc
    resabs = abs(resk)
    pairs = []
    for j, x in enumerate(_XGK):
        f1, f2 = f(centre - half * x), f(centre + half * x)
        pairs.append((f1, f2))
        resk += _WGK[j] * (f1 + f2)
        resabs += _WGK[j] * (abs(f1) + abs(f2))
        if j % 2:
            resg += _WG[j // 2] * (f1 + f2)
    mean = 0.5 * resk
    resasc = _WGK_CENTRE * abs(fc - mean) + sum(
        w * (abs(f1 - mean) + abs(f2 - mean)) for w, (f1, f2) in zip(_WGK, pairs)
    )
    resabs *= abs(half)
    resasc *= abs(half)
    err = abs((resk - resg) * half)
    if resasc != 0.0 and err != 0.0:
        err = resasc * min(1.0, (200.0 * err / resasc) ** 1.5)
    if resabs > _UFLOW / (50.0 * _EPS):
        err = max(50.0 * _EPS * resabs, err)
    return resk * half, resg * half, err


def integrate_scalar(
    f: Callable[[float], float],
    a: float,
    b: float,
    *,
    rel_tol: float = REL_TARGET,
    budget: EvalBudget | None = None,
) -> QuadResult:
    """Adaptive integral of f over [a, b].

    Stops once the summed error estimate is at most
    max(1e-14, rel_tol * |value|), or at 200 intervals with the estimate
    reached so far.
    """
    budget = budget or EvalBudget(MAX_EVALS_PER_PATH)

    def counted(x: float) -> float:
        budget.charge()
        return f(x)

    # Max-heap on the error estimate; the counter breaks ties by age.
    order = itertools.count()
    value, _, err = _qk15(counted, a, b)
    heap = [(-err, next(order), a, b, value)]
    while True:
        value = math.fsum(iv[4] for iv in heap)
        err = math.fsum(-iv[0] for iv in heap)
        if err <= max(_ABS_TOL, rel_tol * abs(value)) or len(heap) >= _MAX_INTERVALS:
            return QuadResult(value, err, budget.used)
        _, _, lo, hi, _ = heapq.heappop(heap)
        mid = 0.5 * (lo + hi)
        for left, right in ((lo, mid), (mid, hi)):
            part, _, part_err = _qk15(counted, left, right)
            heapq.heappush(heap, (-part_err, next(order), left, right, part))


def line_integral(
    one_form: Callable[[Sequence[float]], Sequence[float]],
    segments: Sequence[Callable[[float], tuple[Sequence[float], Sequence[float]]]],
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
            return float(sum(map(operator.mul, one_form(point), velocity)))

        r = integrate_scalar(integrand, 0.0, 1.0, rel_tol=rel_tol, budget=budget)
        total += r.value
        err += r.error_estimate
    return QuadResult(total, err, budget.used)
