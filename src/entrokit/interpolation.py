"""Entropy from accessibility alone, by interpolation between two reference
states.

Given references X0 strictly below X1, the unique fraction lam with
X equivalent to the pair ((1-lam)X0, lam X1) is located by bisection using
nothing but accessibility queries; the entropy of X is then the lam-weighted
mix of the reference values.  A table bisects all its states in lockstep:
each step asks the relation one ``leq_many`` query about every state
still open.  A table built this way is certified against
ground truth up to the affine gauge any valid entropy carries, and the
tightest equilibrium values around a nonequilibrium state bound its entropy
from both sides.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence, Union

from .core import AccessibilityRelation, FrozenRecord, Record, State
from .errors import CapabilityError, DegenerateFitError, DomainError, NumericError

LAMBDA_TOL = 1e-9
LAMBDA_MAX_ITER = 200


class ReferencePair(FrozenRecord):
    """Two strictly ordered reference states with assigned entropy values."""

    def __init__(self, x0: State, x1: State, s0: float, s1: float):
        if not s0 < s1:
            raise DomainError("reference entropies must satisfy s0 < s1")
        self.__dict__.update(x0=x0, x1=x1, s0=s0, s1=s1)


class EntropyTable(Record):
    """Constructed entropy values on a set of states, and the states the
    construction skipped, with the reason."""

    def __init__(self, entries: dict[State, float] = None, skipped: dict[State, str] = None):
        self.__dict__.update(entries={} if entries is None else entries,
                             skipped={} if skipped is None else skipped)


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
    reference bracket is skipped.  Only accessibility queries are used: two
    ``leq_many`` to place every state against the references, then one per
    bisection step, of every open state against its mixture.  Ties inside
    the bracket resolve toward equivalence so the search terminates even
    when the interpolant lands exactly on x.
    """
    _require_induced_scaling(rel)
    x0, x1 = refs.x0, refs.x1
    if not (rel.leq(x0, x1) and not rel.leq(x1, x0)):
        return ["reference states must be strictly ordered"] * len(states)
    out = _placements(rel, x0, x1, tuple(states))

    # Every step hands leq_many the same tuple of states, so the relation
    # reads each of them once; a state whose lam is found bisects on, unread,
    # until the last one's is.
    todo = [i for i, lam in enumerate(out) if lam is None]
    ys = tuple(states[i] for i in todo)
    lo, hi, lams = [0.0] * len(ys), [1.0] * len(ys), [None] * len(ys)
    open_ = list(range(len(ys)))
    for _ in range(max_iter):
        if not open_:
            break
        mid = [0.5 * (a + b) for a, b in zip(lo, hi)]
        fwd, bwd = rel.leq_many([(x0, [1.0 - m for m in mid]), (x1, mid)], [(ys, 1.0)])
        lo = [m if f else a for f, m, a in zip(fwd, mid, lo)]
        hi = [b if f else m for f, m, b in zip(fwd, mid, hi)]
        # Brackets start as [0, 1] and halve exactly: all reach tol at once.
        closed = hi[0] - lo[0] <= tol
        for i in open_:
            if fwd[i] and bwd[i]:
                lams[i] = mid[i]
            elif closed:
                lams[i] = 0.5 * (lo[i] + hi[i])
        open_ = [] if closed else [i for i in open_ if lams[i] is None]
    if open_:
        raise NumericError(
            f"bisection did not reach tolerance {tol} in {max_iter} iterations"
        )
    for i, lam in zip(todo, lams):
        out[i] = lam
    return out


def _placements(rel: AccessibilityRelation, x0: State, x1: State, states: tuple) -> list:
    """Per state: the reason it is skipped (the message of a DomainError
    that ``leq`` raises for it among them), 0.0 or 1.0 where it is
    equivalent to x0 or x1, and None where it lies strictly between."""
    try:
        rows = zip(
            *rel.leq_many([(x0, 1.0)], [(states, 1.0)]),
            *rel.leq_many([(states, 1.0)], [(x1, 1.0)]),
        )
    except DomainError as exc:
        if len(states) == 1:
            return [str(exc)]
        return [place for x in states for place in _placements(rel, x0, x1, (x,))]
    return [
        "state lies below the lower reference" if not above_x0
        else "state lies above the upper reference" if not below_x1
        else 0.0 if at_x0 else 1.0 if at_x1 else None
        for above_x0, at_x0, below_x1, at_x1 in rows
    ]


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

class AffineFit(FrozenRecord):
    def __init__(self, a: float, b: float, max_residual: float):
        self.__dict__.update(a=a, b=b, max_residual=max_residual)

    @property
    def orientation_ok(self) -> bool:
        return self.a > 0


def affine_match(f: Sequence[float], g: Sequence[float]) -> AffineFit:
    """Least-squares a, b minimizing |a*f + b - g|, with the max residual.

    A valid entropy is unique up to exactly this freedom, so two correct
    tables must match with a positive slope and a residual at noise level.
    """
    f, g = list(map(float, f)), list(map(float, g))
    if len(f) != len(g):
        raise DomainError("affine_match needs two equal-length value vectors")
    if len(f) < 3:
        raise DegenerateFitError("affine fit needs at least three states")
    if max(g) == min(g):
        raise DegenerateFitError("target values are constant; fit is degenerate")
    if max(f) == min(f):
        raise DegenerateFitError("source values are constant; fit is degenerate")
    # The closed-form fit about the means, each sum taken exactly rounded.
    f_mean, g_mean = math.fsum(f) / len(f), math.fsum(g) / len(g)
    df = [x - f_mean for x in f]
    a = math.fsum(x * (y - g_mean) for x, y in zip(df, g)) / math.fsum(x * x for x in df)
    b = g_mean - a * f_mean
    return AffineFit(a, b, max(abs(a * x + b - y) for x, y in zip(f, g)))


# ---------------------------------------------------------------------------
# Nonequilibrium sandwich bounds
# ---------------------------------------------------------------------------

class SandwichBounds(FrozenRecord):
    def __init__(self, s_minus: Optional[float], s_plus: Optional[float], ok: bool,
                 message: str = ""):
        self.__dict__.update(s_minus=s_minus, s_plus=s_plus, ok=ok, message=message)


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
    below = [table.entries[g] for g, ok in zip(members, g_to_x) if ok]
    above = [table.entries[g] for g, ok in zip(members, x_to_g) if ok]
    s_minus = max(below) if below else None
    s_plus = min(above) if above else None
    if s_minus is None or s_plus is None:
        side = "lower" if s_minus is None else "upper"
        return SandwichBounds(
            s_minus, s_plus, False,
            message=f"no {side} equilibrium state found: sandwich requirement violated",
        )
    return SandwichBounds(s_minus, s_plus, True)
