"""Entropy from accessibility alone, by interpolation between two reference
states.

Given references X0 strictly below X1, the unique fraction lam with
X equivalent to the pair ((1-lam)X0, lam X1) is located by bisection using
nothing but accessibility queries; the entropy of X is then the lam-weighted
mix of the reference values.  A table built this way is certified against
ground truth up to the affine gauge any valid entropy carries, and the
tightest equilibrium values around a nonequilibrium state bound its entropy
from both sides.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .core import (
    AccessibilityRelation,
    State,
    StateLike,
    composite_state,
)
from .errors import CapabilityError, DegenerateFitError, DomainError, NumericError

LAMBDA_TOL = 1e-9
LAMBDA_MAX_ITER = 200


@dataclass(frozen=True)
class ReferencePair:
    """Two strictly ordered reference states with assigned entropy values."""

    x0: State
    x1: State
    s0: float
    s1: float

    def __post_init__(self):
        if not self.s0 < self.s1:
            raise DomainError("reference entropies must satisfy s0 < s1")


@dataclass
class EntropyTable:
    """Constructed entropy values on a set of states, and the states the
    construction skipped, with the reason."""

    entries: dict[State, float] = field(default_factory=dict)
    skipped: dict[State, str] = field(default_factory=dict)

    def value(self, state: State) -> float:
        return self.entries[state]


def _require_induced_scaling(rel: AccessibilityRelation):
    if rel.mode != "induced":
        raise CapabilityError("interpolation needs an induced, scalable relation")
    model = rel.models[0]
    if not model.supports_scaling:
        raise CapabilityError(f"model {model.id!r} cannot form scaled copies")
    return model


def find_lambda(
    rel: AccessibilityRelation,
    x: State,
    refs: ReferencePair,
    tol: float = LAMBDA_TOL,
    max_iter: int = LAMBDA_MAX_ITER,
) -> float:
    """Bisect for the fraction lam with x ~ ((1-lam) x0, lam x1).

    Only accessibility queries are used.  Ties inside the bracket resolve
    toward equivalence so the search terminates even when the interpolant
    lands exactly on x.
    """
    model = _require_induced_scaling(rel)
    x0, x1 = refs.x0, refs.x1
    if not (rel.leq(x0, x1) and not rel.leq(x1, x0)):
        raise DomainError("reference states must be strictly ordered")
    if not rel.leq(x0, x):
        raise DomainError("state lies below the lower reference")
    if not rel.leq(x, x1):
        raise DomainError("state lies above the upper reference")
    if rel.equivalent(x, x0):
        return 0.0
    if rel.equivalent(x, x1):
        return 1.0

    def interpolant(lam: float) -> StateLike:
        return composite_state(
            [model.scale_state(x0, 1.0 - lam), model.scale_state(x1, lam)]
        )

    lo, hi = 0.0, 1.0
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        probe = interpolant(mid)
        fwd = rel.leq(probe, x)
        bwd = rel.leq(x, probe)
        if fwd and bwd:
            return mid
        if fwd:
            lo = mid
        else:
            hi = mid
        if hi - lo <= tol:
            return 0.5 * (lo + hi)
    raise NumericError(
        f"bisection did not reach tolerance {tol} in {max_iter} iterations"
    )


def entropy_from_accessibility(
    rel: AccessibilityRelation,
    refs: ReferencePair,
    states: Sequence[State],
    tol: float = LAMBDA_TOL,
) -> EntropyTable:
    """Table of interpolated entropies over the given states.

    States outside the reference bracket are recorded as skipped rather than
    failing the whole table.
    """
    table = EntropyTable()
    for s in states:
        try:
            lam = find_lambda(rel, s, refs, tol=tol)
        except DomainError as exc:
            table.skipped[s] = str(exc)
            continue
        table.entries[s] = (1.0 - lam) * refs.s0 + lam * refs.s1
    return table


# ---------------------------------------------------------------------------
# Affine certification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AffineFit:
    a: float
    b: float
    max_residual: float

    @property
    def orientation_ok(self) -> bool:
        return self.a > 0


def affine_match(f: Sequence[float], g: Sequence[float]) -> AffineFit:
    """Least-squares a, b minimizing |a*f + b - g|, with the max residual.

    A valid entropy is unique up to exactly this freedom, so two correct
    tables must match with a positive slope and a residual at noise level.
    """
    f = np.asarray(f, dtype=float)
    g = np.asarray(g, dtype=float)
    if f.shape != g.shape or f.ndim != 1:
        raise DomainError("affine_match needs two equal-length value vectors")
    if f.size < 3:
        raise DegenerateFitError("affine fit needs at least three states")
    if np.ptp(g) == 0.0:
        raise DegenerateFitError("target values are constant; fit is degenerate")
    if np.ptp(f) == 0.0:
        raise DegenerateFitError("source values are constant; fit is degenerate")
    design = np.column_stack([f, np.ones_like(f)])
    (a, b), *_ = np.linalg.lstsq(design, g, rcond=None)
    residuals = np.abs(a * f + b - g)
    return AffineFit(float(a), float(b), float(residuals.max()))


# ---------------------------------------------------------------------------
# Nonequilibrium sandwich bounds
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SandwichBounds:
    s_minus: Optional[float]
    s_plus: Optional[float]
    ok: bool
    message: str = ""


def sandwich_bounds(
    rel: AccessibilityRelation,
    x: State,
    gamma: Sequence[State],
    table: EntropyTable,
) -> SandwichBounds:
    """Tightest equilibrium entropy bracket around x over the sampled grid.

    A missing side is reported as a violation of the sandwich requirement,
    not raised: that outcome is itself a finding.
    """
    if not gamma:
        raise DomainError("sandwich bounds need a non-empty equilibrium grid")
    below = [table.value(g) for g in gamma if g in table.entries and rel.leq(g, x)]
    above = [table.value(g) for g in gamma if g in table.entries and rel.leq(x, g)]
    s_minus = max(below) if below else None
    s_plus = min(above) if above else None
    if s_minus is None or s_plus is None:
        side = "lower" if s_minus is None else "upper"
        return SandwichBounds(
            s_minus, s_plus, False,
            message=f"no {side} equilibrium state found: sandwich requirement violated",
        )
    return SandwichBounds(s_minus, s_plus, True)
