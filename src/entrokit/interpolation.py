"""Entropy from accessibility alone, by interpolation between two reference
states.

Given references X0 strictly below X1, the unique fraction lam with
X equivalent to the pair ((1-lam)X0, lam X1) is located by bisection using
nothing but accessibility queries; the entropy of X is then the lam-weighted
mix of the reference values.  A table bisects all its states in lockstep:
each step asks the relation once, through ``leq_mixtures``, about every
state still open.  A table built this way is certified against
ground truth up to the affine gauge any valid entropy carries, and the
tightest equilibrium values around a nonequilibrium state bound its entropy
from both sides.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

import numpy as np

from .core import AccessibilityRelation, State
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


def find_lambda(
    rel: AccessibilityRelation,
    states: Sequence[State],
    refs: ReferencePair,
    tol: float = LAMBDA_TOL,
    max_iter: int = LAMBDA_MAX_ITER,
) -> list[Union[float, str]]:
    """Bisect, for all states in lockstep, for the fraction lam with
    x ~ ((1-lam) x0, lam x1).

    Returns, in order, each state's lam, or the reason a state outside the
    reference bracket is skipped.  Only accessibility queries are used:
    ``leq`` to place each state against the references, then one
    ``leq_mixtures`` per bisection step for every state still open.  Ties
    inside the bracket resolve toward equivalence so the search terminates
    even when the interpolant lands exactly on x.
    """
    _require_induced_scaling(rel)
    x0, x1 = refs.x0, refs.x1
    if not (rel.leq(x0, x1) and not rel.leq(x1, x0)):
        return ["reference states must be strictly ordered"] * len(states)
    out: list[Union[float, str, None]] = []
    for x in states:
        try:
            if not rel.leq(x0, x):
                out.append("state lies below the lower reference")
            elif not rel.leq(x, x1):
                out.append("state lies above the upper reference")
            elif rel.equivalent(x, x0):
                out.append(0.0)
            elif rel.equivalent(x, x1):
                out.append(1.0)
            else:
                out.append(None)
        except DomainError as exc:
            out.append(str(exc))

    # Every step hands leq_mixtures the same tuple of states, so the relation
    # reads each of them once; a state whose lam is found bisects on, unread,
    # until the last one's is.
    todo = [i for i, lam in enumerate(out) if lam is None]
    ys = tuple(states[i] for i in todo)
    lo, hi, lams = np.zeros(len(ys)), np.ones(len(ys)), np.zeros(len(ys))
    open_ = np.ones(len(ys), dtype=bool)
    for _ in range(max_iter):
        if not open_.any():
            break
        mid = 0.5 * (lo + hi)
        fwd, bwd = rel.leq_mixtures(x0, x1, mid, ys)
        lo, hi = np.where(fwd, mid, lo), np.where(fwd, hi, mid)
        tie = open_ & fwd & bwd
        close = open_ & ~tie & (hi - lo <= tol)
        lams = np.where(tie, mid, np.where(close, 0.5 * (lo + hi), lams))
        open_ &= ~(tie | close)
    if open_.any():
        raise NumericError(
            f"bisection did not reach tolerance {tol} in {max_iter} iterations"
        )
    for i, lam in zip(todo, lams.tolist()):
        out[i] = lam
    return out


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
    for s, lam in zip(states, find_lambda(rel, states, refs, tol=tol)):
        if isinstance(lam, str):
            table.skipped[s] = lam
        else:
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
    """Tightest equilibrium entropy bracket around x over the sampled grid,
    from one ``leq_many`` query of x against the grid's tabled states.

    A missing side is reported as a violation of the sandwich requirement,
    not raised: that outcome is itself a finding.
    """
    if not gamma:
        raise DomainError("sandwich bounds need a non-empty equilibrium grid")
    members = tuple(g for g in gamma if g in table.entries)
    x_to_g, g_to_x = rel.leq_many([(x, 1.0)], [(members, 1.0)])
    below = [table.value(g) for g, ok in zip(members, g_to_x.tolist()) if ok]
    above = [table.value(g) for g, ok in zip(members, x_to_g.tolist()) if ok]
    s_minus = max(below) if below else None
    s_plus = min(above) if above else None
    if s_minus is None or s_plus is None:
        side = "lower" if s_minus is None else "upper"
        return SandwichBounds(
            s_minus, s_plus, False,
            message=f"no {side} equilibrium state found: sandwich requirement violated",
        )
    return SandwichBounds(s_minus, s_plus, True)
