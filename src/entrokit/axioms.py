"""Order-axiom checks for accessibility relations.

Finite relations are scanned exhaustively; transitivity asks n² queries and
reports universes above ``TRANSITIVITY_CAP`` as not applicable.  Induced
relations are checked by seeded sampling.  Every failure carries witnesses
that replay as violations when re-queried.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, fields, is_dataclass
from enum import Enum
from typing import Optional, Sequence

from .core import (
    Access,
    AccessibilityRelation,
    CompositeState,
    State,
    accessible,
    composite_relation,
    composite_state,
)
from .errors import DomainError

DEFAULT_SAMPLES = 200
# Largest finite universe whose transitivity is scanned; above it the check
# is not applicable, so the cap fixes where verdicts end, not what they cost.
TRANSITIVITY_CAP = 200
STABILITY_EPS = tuple(0.5 ** k for k in range(1, 21))


class CheckStatus(str, Enum):
    PASS = "pass"
    FAIL = "fail"
    NOT_APPLICABLE = "not_applicable"


@dataclass
class CheckResult:
    check_name: str
    status: CheckStatus
    witnesses: list = field(default_factory=list)
    samples_used: int = 0
    tolerance_used: Optional[float] = None
    message: str = ""

    def __post_init__(self):
        if self.status is CheckStatus.FAIL and not self.witnesses:
            raise DomainError("a failing check must provide witnesses")

    @property
    def passed(self) -> bool:
        return self.status is CheckStatus.PASS

    @property
    def failed(self) -> bool:
        return self.status is CheckStatus.FAIL

    def to_dict(self) -> dict:
        return {
            "check": self.check_name,
            "status": self.status.value,
            "witnesses": [describe(w) for w in self.witnesses],
            "samples_used": self.samples_used,
            "tolerance_used": self.tolerance_used,
            "message": self.message,
        }


def verdict(name: str, ok: bool, witnesses: list, **fields) -> CheckResult:
    """PASS with no witnesses when ``ok`` holds, otherwise FAIL carrying
    ``witnesses``; ``fields`` are the remaining CheckResult fields."""
    return CheckResult(
        name, CheckStatus.PASS if ok else CheckStatus.FAIL, [] if ok else witnesses, **fields
    )


def not_applicable(name: str, message: str) -> CheckResult:
    """A check whose premise the target does not meet; ``message`` says why."""
    return CheckResult(name, CheckStatus.NOT_APPLICABLE, [], message=message)


def describe(obj):
    """JSON-friendly rendering of witnesses (states, records, tuples)."""
    if isinstance(obj, State):
        out = {
            "space": obj.space_id,
            "coords": list(obj.coords),
            "energy": obj.energy,
            "kind": obj.kind.value,
        }
        if obj.scale != 1.0:
            out["scale"] = obj.scale
        return out
    if isinstance(obj, CompositeState):
        return {"parts": [describe(p) for p in obj.parts]}
    if isinstance(obj, (tuple, list)):
        return [describe(o) for o in obj]
    if isinstance(obj, dict):
        return {k: describe(v) for k, v in obj.items()}
    if isinstance(obj, Enum):
        return obj.value
    if is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: describe(getattr(obj, f.name)) for f in fields(obj)}
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    return repr(obj)


def _rng(seed_or_rng) -> random.Random:
    if isinstance(seed_or_rng, random.Random):
        return seed_or_rng
    return random.Random(seed_or_rng)


def _universe(rel: AccessibilityRelation, samples: int, rng) -> list:
    if rel.mode == "finite":
        return list(rel.elements)
    return rel.sample(rng, samples)


# ---------------------------------------------------------------------------
# A1 reflexivity
# ---------------------------------------------------------------------------

def check_reflexivity(rel, *, samples: int = DEFAULT_SAMPLES, seed=0) -> CheckResult:
    rng = _rng(seed)
    states = _universe(rel, samples, rng)
    bad = [x for x in states if not rel.equivalent(x, x)]
    return verdict("reflexivity", not bad, bad, samples_used=len(states))


# ---------------------------------------------------------------------------
# A2 transitivity
# ---------------------------------------------------------------------------

def check_transitivity(rel, *, samples: int = 500, seed=0) -> CheckResult:
    rng = _rng(seed)
    if rel.mode == "finite":
        elems = rel.elements
        n = len(elems)
        if n > TRANSITIVITY_CAP:
            return not_applicable(
                "transitivity",
                f"universe size {n} exceeds exhaustive-scan cap {TRANSITIVITY_CAP}",
            )
        # Row i is the bitset of the j with elems[i] ≼ elems[j], from n² leq
        # queries.  For x ≼ y, rows[y] & ~rows[x] holds the z with y ≼ z but
        # not x ≼ z; its lowest bit is the first z in element order.
        rows = [sum(1 << j for j, z in enumerate(elems) if rel.leq(x, z)) for x in elems]
        witness = next(
            (
                (x, y, elems[(bad & -bad).bit_length() - 1])
                for x, row in zip(elems, rows)
                for j, y in enumerate(elems)
                if row >> j & 1 and (bad := rows[j] & ~row)
            ),
            None,
        )
        return verdict("transitivity", witness is None, [witness], samples_used=n ** 3)

    witnesses = []
    count = 0
    for _ in range(samples):
        x, y, z = rel.sample(rng, 3)
        count += 1
        if rel.leq(x, y) and rel.leq(y, z) and not rel.leq(x, z):
            witnesses.append((x, y, z))
            break
    return verdict("transitivity", not witnesses, witnesses, samples_used=count)


# ---------------------------------------------------------------------------
# A3 consistency under composition
# ---------------------------------------------------------------------------

def _sample_ordered_pair(rel, rng, strict=False):
    """A pair (x, y) with x related to y, found in at most 200 draws; strict
    pairs exclude the converse."""
    for _ in range(200):
        x, y = rel.sample(rng, 2)
        if not rel.leq(x, y):
            x, y = y, x
        if not rel.leq(x, y):
            continue
        if strict and rel.leq(y, x):
            continue
        return x, y
    raise DomainError("could not sample an ordered pair of states")


def check_consistency(
    rel_a, rel_b, *, samples: int = DEFAULT_SAMPLES, seed=0
) -> CheckResult:
    """Composition preserves the order, including the strict part.

    Two clauses: related pairs compose to a related composite pair, and
    adjoining a common state preserves strict precedence.  The second clause
    is what exposes composites that merge their parts instead of adding them.
    """
    rng = _rng(seed)
    rel_comp = composite_relation([rel_a, rel_b])
    witnesses = []
    used = 0
    for _ in range(samples):
        x, y = _sample_ordered_pair(rel_a, rng)
        xp, yp = _sample_ordered_pair(rel_b, rng)
        used += 1
        if not rel_comp.leq(composite_state([x, xp]), composite_state([y, yp])):
            witnesses.append((x, xp, y, yp))
            break
    if not witnesses:
        for _ in range(samples // 2):
            x, y = _sample_ordered_pair(rel_a, rng, strict=True)
            z = rel_b.sample(rng, 1)[0]
            used += 1
            cx, cy = composite_state([x, z]), composite_state([y, z])
            if accessible(rel_comp, cx, cy) is not Access.FORWARD:
                witnesses.append((x, z, y, z))
                break
    return verdict("consistency", not witnesses, witnesses, samples_used=used)


# ---------------------------------------------------------------------------
# A4 scaling invariance
# ---------------------------------------------------------------------------

def check_scaling_invariance(
    rel, t_samples: Sequence[float] = (0.5, 2.0, 3.0), *,
    samples: int = 100, seed=0,
) -> CheckResult:
    rng = _rng(seed)
    if rel.mode == "finite":
        return not_applicable("scaling_invariance", "finite fixture declares no scaling support")
    model = rel.models[0]
    if not model.supports_scaling:
        return not_applicable(
            "scaling_invariance", f"model {model.id!r} cannot form scaled copies"
        )
    used = 0
    for t in t_samples:
        if t <= 0:
            raise DomainError(f"scale factor must be positive, got {t!r}")
        for _ in range(samples):
            x, y = _sample_ordered_pair(rel, rng)
            used += 1
            tx, ty = model.scale_state(x, t), model.scale_state(y, t)
            if not rel.leq(tx, ty):
                return verdict("scaling_invariance", False, [(x, y, t)], samples_used=used)
    return verdict("scaling_invariance", True, [], samples_used=used)


# ---------------------------------------------------------------------------
# A5 splitting and recombination
# ---------------------------------------------------------------------------

def check_splitting(
    rel, t: float = 0.5, *, samples: int = 100, seed=0
) -> CheckResult:
    if not (0.0 < t < 1.0):
        raise DomainError(f"splitting fraction must lie strictly in (0, 1), got {t!r}")
    rng = _rng(seed)
    if rel.mode == "finite" or not rel.models[0].supports_scaling:
        return not_applicable("splitting", "scaling unsupported")
    model = rel.models[0]
    witnesses = []
    used = 0
    for _ in range(samples):
        x = rel.sample(rng, 1)[0]
        used += 1
        split = composite_state([model.scale_state(x, t), model.scale_state(x, 1.0 - t)])
        if not (rel.leq(x, split) and rel.leq(split, x)):
            witnesses.append((x, t))
            break
    return verdict("splitting", not witnesses, witnesses, samples_used=used, tolerance_used=t)


# ---------------------------------------------------------------------------
# A6 stability
# ---------------------------------------------------------------------------

def check_stability(rel, *, samples: int = 100, seed=0) -> CheckResult:
    """Perturbations by vanishing scaled copies cannot flip accessibility.

    Checks the finite approximation: whenever the perturbed comparison holds
    for every epsilon in ``STABILITY_EPS`` (1/2 down to 2^-20), the
    unperturbed one must hold.  Crafted equal-entropy pairs probe the
    equality boundary, where relations comparing by strict inequality alone
    break.
    """
    rng = _rng(seed)
    if rel.mode == "finite" or not rel.models[0].supports_scaling:
        return not_applicable("stability", "scaling unsupported")
    model = rel.models[0]

    tuples = []
    for _ in range(samples):
        x, y, z0, z1 = rel.sample(rng, 4)
        tuples.append((x, y, z0, z1))
    if model.isentropic_partner is not None:
        for _ in range(10):
            x = rel.sample(rng, 1)[0]
            y = model.isentropic_partner(x, rng)
            if y is None:
                continue
            z0, z1 = _sample_ordered_pair(rel, rng, strict=True)
            tuples.append((x, y, z0, z1))

    witness, used = _stability_witness(rel, tuples)
    return verdict(
        "stability", witness is None, [witness], samples_used=used,
        tolerance_used=STABILITY_EPS[-1],
    )


def _stability_witness(rel, tuples: list) -> tuple[Optional[tuple], int]:
    """The first (x, y, z0, z1) whose perturbed comparison (x, eps z0) ≼
    (y, eps z1) holds for every eps in ``STABILITY_EPS`` while x ≼ y does
    not, and how many tuples were scanned to find it.

    Three ``leq_many`` queries, each over the tuples the one before kept:
    x ≼ y (a tuple where it holds is no witness), then the premise at the
    largest epsilon, then at the other 19.  Each rejects most of what is
    left, so a relation that answers row by row is asked less often than by
    a loop over the epsilons that stops at the first failure.
    """

    def premises(group, eps):
        k = len(eps)

        def rows(j):
            return [t[j] for t in group for _ in range(k)]

        ts = eps * len(group)
        fwd, _ = rel.leq_many(
            [(rows(0), 1.0), (rows(2), ts)], [(rows(1), 1.0), (rows(3), ts)], converse=False
        )
        return fwd.reshape(len(group), k).all(axis=1).tolist()

    ordered, _ = rel.leq_many(
        [([t[0] for t in tuples], 1.0)], [([t[1] for t in tuples], 1.0)], converse=False
    )
    kept = [i for i, ok in enumerate(ordered.tolist()) if not ok]
    for eps in (STABILITY_EPS[:1], STABILITY_EPS[1:]):
        kept = [i for i, ok in zip(kept, premises([tuples[i] for i in kept], eps)) if ok]
    return (tuples[kept[0]], kept[0] + 1) if kept else (None, len(tuples))


# ---------------------------------------------------------------------------
# Comparison hypothesis
# ---------------------------------------------------------------------------

def check_comparison(rel, *, samples: int = DEFAULT_SAMPLES, seed=0) -> CheckResult:
    rng = _rng(seed)
    if rel.mode == "finite":
        elems = rel.elements
        pairs = ((x, y) for i, x in enumerate(elems) for y in elems[i:])
    else:
        pairs = (rel.sample(rng, 2) for _ in range(samples))
    witnesses = []
    used = 0
    for x, y in pairs:
        used += 1
        if rel.compatible(x, y) and accessible(rel, x, y) is Access.INCOMPARABLE:
            witnesses.append((x, y))
            break
    return verdict("comparison", not witnesses, witnesses, samples_used=used)


# ---------------------------------------------------------------------------
# N1/N2: nonequilibrium extension
# ---------------------------------------------------------------------------

def check_n1_n2(
    rel, equilibrium_states: Sequence, nonequilibrium_states: Sequence = (), *,
    samples: int = DEFAULT_SAMPLES, seed=0,
) -> CheckResult:
    """The relation behaves on the extended set and sandwiches every
    nonequilibrium state between equilibrium ones.

    The first clause re-checks reflexivity, transitivity, plain consistency,
    and premise-sampled stability on the union; the second looks for the
    two-sided equilibrium bracket of each nonequilibrium state.
    """
    rng = _rng(seed)
    gamma = list(equilibrium_states)
    if not gamma:
        return not_applicable("n1_n2", "no equilibrium subset declared")
    hat = gamma + list(nonequilibrium_states)
    used = 0
    witnesses = []

    def pick(seq):
        return seq[rng.randrange(len(seq))]

    # N1(a): reflexivity and transitivity on the union.
    for x in hat:
        used += 1
        if not rel.equivalent(x, x):
            witnesses.append(("reflexivity", x))
    for _ in range(samples):
        x, y, z = pick(hat), pick(hat), pick(hat)
        used += 1
        if rel.leq(x, y) and rel.leq(y, z) and not rel.leq(x, z):
            witnesses.append(("transitivity", (x, y, z)))
            break

    # N1(b): composition keeps the order (plain clause).
    if rel.mode == "induced":
        for _ in range(samples // 2):
            x, y = pick(hat), pick(hat)
            if not rel.leq(x, y):
                x, y = y, x
            xp, yp = pick(hat), pick(hat)
            if not rel.leq(xp, yp):
                xp, yp = yp, xp
            used += 1
            if not rel.leq(composite_state([x, xp]), composite_state([y, yp])):
                witnesses.append(("consistency", (x, xp, y, yp)))
                break

    # N1(c): stability, premise-sampled only.  No draw depends on an answer,
    # and nothing draws after this clause, so all tuples are drawn at once.
    if rel.mode == "induced" and rel.models[0].supports_scaling:
        tuples = [
            (pick(hat), pick(hat), pick(gamma), pick(gamma)) for _ in range(samples // 4)
        ]
        witness, scanned = _stability_witness(rel, tuples)
        used += scanned
        if witness is not None:
            witnesses.append(("stability", witness))

    # N2: equilibrium sandwich for each nonequilibrium state.
    for x in nonequilibrium_states:
        used += 1
        below = any(rel.leq(g, x) for g in gamma)
        above = any(rel.leq(x, g) for g in gamma)
        if not (below and above):
            witnesses.append(("sandwich", x))

    return verdict("n1_n2", not witnesses, witnesses, samples_used=used)
