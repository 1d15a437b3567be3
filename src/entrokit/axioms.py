"""Order-axiom checks for accessibility relations.

Finite relations are scanned exhaustively; transitivity reads the
relation's bitset rows, asking no query, and reports universes above
``TRANSITIVITY_CAP`` as not applicable.  Induced relations are checked by
seeded sampling, each check with its own rng.  A sampled clause draws all
of its rows before it asks anything, so what it draws does not depend on
the relation's answers; it orders each pair column with one query, drops
the rows whose pair is unordered (or ties where a strict pair is needed),
judges the rest with batched ``leq_many`` queries, and reports the first
witness (``_scan``).  Every failure carries witnesses that replay as
violations when re-queried.
"""

from __future__ import annotations

import random
from enum import Enum
from typing import Optional, Sequence

from .core import CompositeState, Record, State, composite_relation
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


class CheckResult(Record):
    def __init__(self, check_name: str, status: CheckStatus, witnesses: list = None,
                 samples_used: int = 0, tolerance_used: Optional[float] = None,
                 message: str = ""):
        if status is CheckStatus.FAIL and not witnesses:
            raise DomainError("a failing check must provide witnesses")
        self.__dict__.update(
            check_name=check_name, status=status,
            witnesses=[] if witnesses is None else witnesses, samples_used=samples_used,
            tolerance_used=tolerance_used, message=message,
        )

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


def residual_verdict(
    name: str, residual: float, tol: float, *, samples_used: int, message: str = ""
) -> CheckResult:
    """PASS when ``residual < tol``, else FAIL witnessed by ``("residual", residual)``."""
    return verdict(
        name, residual < tol, [("residual", residual)],
        samples_used=samples_used, tolerance_used=tol, message=message,
    )


def fit_verdict(name: str, fit, tol: float, *, samples_used: int, message: str) -> CheckResult:
    """PASS when an ``AffineFit`` has a positive slope and a max residual
    below ``tol``, else FAIL witnessed by ``("fit", a, b, max_residual)``."""
    return verdict(
        name, fit.max_residual < tol and fit.orientation_ok,
        [("fit", fit.a, fit.b, fit.max_residual)],
        samples_used=samples_used, tolerance_used=tol, message=message,
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
    if isinstance(obj, Record):
        return {name: describe(value) for name, value in vars(obj).items()}
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    return repr(obj)


class _Pool(list):
    """States a check draws from uniformly, with replacement, as
    ``AccessibilityRelation.sample`` draws from a finite relation."""

    def sample(self, rng, n: int) -> list:
        return [self[rng.randrange(len(self))] for _ in range(n)]


def _ask(rel, xs: list, ys: list, converse: bool = True):
    """Row by row, whether xs[i] ≼ ys[i], and the converse unless
    ``converse`` is false: one ``leq_many`` query of an induced relation,
    ``leq`` row by row on a finite one."""
    if rel.mode == "induced":
        return rel.leq_many([(xs, 1.0)], [(ys, 1.0)], converse=converse)
    fwd = [rel.leq(x, y) for x, y in zip(xs, ys)]
    return fwd, [rel.leq(y, x) for x, y in zip(xs, ys)] if converse else None


def _columns(rows: list) -> list[list]:
    """The columns of a list of equal-length rows, each as a list."""
    return [list(column) for column in zip(*rows)]


# ---------------------------------------------------------------------------
# Batched sampling loops
# ---------------------------------------------------------------------------

def _scan(rng, n: int, draws: Sequence[tuple], judge) -> tuple[Optional[tuple], int]:
    """The first witness among ``n`` rows, all drawn before any is asked
    about, and how many rows were judged up to it (all kept, if none).

    Each ``(source, strict)`` of ``draws`` adds to a row a state of
    ``source`` where ``strict`` is None, else a pair that ``_ordered``
    orders or drops, dropping its row.  The rows are drawn in row-major
    order, with one ``sample`` call where every draw has the same source,
    else row by row.  ``judge(rows)`` gives, from batched queries, the
    witness of each kept row or None.
    """
    if n <= 0:
        return None, 0
    sizes = [1 if strict is None else 2 for _, strict in draws]
    width = sum(sizes)
    if all(source is draws[0][0] for source, _ in draws):
        flat = draws[0][0].sample(rng, n * width)
    else:
        flat = [s for _ in range(n) for (source, _), k in zip(draws, sizes)
                for s in source.sample(rng, k)]
    columns, j = [], 0
    for (source, strict), k in zip(draws, sizes):
        # Row i's items of this draw are flat[i * width + j:][:k].
        column = list(zip(*(flat[j + m::width] for m in range(k))))
        columns.append(column if strict is None else _ordered(source, column, strict))
        j += k
    rows = [sum(row, ()) for row in zip(*columns) if None not in row]
    found, witness = _first_witness(judge, rows)
    return witness, found + (witness is not None)


def _ordered(rel, pairs: Sequence, strict: bool) -> list:
    """Each pair (x, y) as (x, y) where x ≼ y, else (y, x) where y ≼ x, from
    one query; None where neither holds, or where both do and ``strict``
    asks for strict precedence.  DomainError where every pair is None."""
    fwd, bwd = _ask(rel, [x for x, _ in pairs], [y for _, y in pairs])
    kept = [
        None if not (f or b) or (strict and f and b) else (x, y) if f else (y, x)
        for (x, y), f, b in zip(pairs, fwd, bwd)
    ]
    if pairs and not any(kept):
        raise DomainError("could not sample an ordered pair of states")
    return kept


def _first_witness(judge, rows: list) -> tuple[int, Optional[tuple]]:
    """The index of the first row ``judge`` finds a witness in, and that
    witness; ``(len(rows), None)`` where it finds none.

    Where judging the rows together raises DomainError (a copy
    ``scale_state`` refuses), they are judged one at a time: a witness before
    the row that raises is still found, else the error surfaces from it.
    """
    if not rows:
        return 0, None
    try:
        found = judge(rows)
    except DomainError:
        found = (judge([row])[0] for row in rows)
    return next(((i, w) for i, w in enumerate(found) if w is not None), (len(rows), None))


# ---------------------------------------------------------------------------
# A1 reflexivity
# ---------------------------------------------------------------------------

def check_reflexivity(rel, *, samples: int = DEFAULT_SAMPLES, seed=0) -> CheckResult:
    rng = random.Random(seed)
    states = list(rel.elements) if rel.mode == "finite" else rel.sample(rng, samples)
    # x ≼ x is its own converse, so each state is asked about once.
    fwd, _ = _ask(rel, states, states, converse=False)
    bad = [x for x, f in zip(states, fwd) if not f]
    return verdict("reflexivity", not bad, bad, samples_used=len(states))


# ---------------------------------------------------------------------------
# A2 transitivity
# ---------------------------------------------------------------------------

def check_transitivity(rel, *, samples: int = 500, seed=0) -> CheckResult:
    if rel.mode == "finite":
        elems = rel.elements
        n = len(elems)
        if n > TRANSITIVITY_CAP:
            return not_applicable(
                "transitivity",
                f"universe size {n} exceeds exhaustive-scan cap {TRANSITIVITY_CAP}",
            )
        witness = _first_intransitive(elems, rel.rows)
        return verdict("transitivity", witness is None, [witness], samples_used=n ** 3)

    witness, used = _scan(
        random.Random(seed), samples, [(rel, None)] * 3, _transitivity_judge(rel)
    )
    return verdict("transitivity", witness is None, [witness], samples_used=used)


def _first_intransitive(elems: list, rows: list[int]) -> Optional[tuple]:
    """The first (x, y, z) in element order with x ≼ y and y ≼ z but not
    x ≼ z, read off the bitset rows; None where the order is transitive.

    Row i is the bitset of the j with elems[i] ≼ elems[j].  For each x ≼ y,
    taken as the set bits of x's row from the lowest, rows[y] & ~rows[x]
    holds the z with y ≼ z but not x ≼ z; its lowest bit is the first z.
    A row equal to one already found transitive is skipped.
    """
    seen = set()
    for x, row in zip(elems, rows):
        if row in seen:
            continue
        seen.add(row)
        not_row, bits = ~row, row
        while bits:
            low = bits & -bits
            j = low.bit_length() - 1
            bad = rows[j] & not_row
            if bad:
                return x, elems[j], elems[(bad & -bad).bit_length() - 1]
            bits ^= low
    return None


def _transitivity_judge(rel):
    """Judges rows (x, y, z): a witness where x ≼ y and y ≼ z but not x ≼ z,
    the three asked in one query of 3k rows."""

    def judge(rows):
        xs, ys, zs = _columns(rows)
        k = len(rows)
        leq, _ = _ask(rel, xs + ys + xs, ys + zs + zs, converse=False)
        return [
            row if a and b and not c else None
            for row, a, b, c in zip(rows, leq, leq[k:], leq[2 * k:])
        ]

    return judge


# ---------------------------------------------------------------------------
# A3 consistency under composition
# ---------------------------------------------------------------------------

def check_consistency(
    rel_a, rel_b, *, samples: int = DEFAULT_SAMPLES, seed=0
) -> CheckResult:
    """Composition preserves the order, including the strict part.

    Two clauses: related pairs compose to a related composite pair, and
    adjoining a common state preserves strict precedence.  The second clause
    is what exposes composites that merge their parts instead of adding them.
    """
    rng = random.Random(seed)
    rel_comp = composite_relation([rel_a, rel_b])

    def composed(rows):
        x, y, xp, yp = _columns(rows)
        fwd, _ = rel_comp.leq_many(
            [(x, 1.0), (xp, 1.0)], [(y, 1.0), (yp, 1.0)], converse=False
        )
        return [None if f else w for f, w in zip(fwd, zip(x, xp, y, yp))]

    def strict_kept(rows):
        x, y, z = _columns(rows)
        fwd, bwd = rel_comp.leq_many([(x, 1.0), (z, 1.0)], [(y, 1.0), (z, 1.0)])
        # accessible(rel_comp, (x, z), (y, z)) must be Access.FORWARD.
        return [
            None if f and not b else w for f, b, w in zip(fwd, bwd, zip(x, z, y, z))
        ]

    witness, used = _scan(rng, samples, [(rel_a, False), (rel_b, False)], composed)
    if witness is None:
        witness, more = _scan(rng, samples // 2, [(rel_a, True), (rel_b, None)], strict_kept)
        used += more
    return verdict("consistency", witness is None, [witness], samples_used=used)


# ---------------------------------------------------------------------------
# A4 scaling invariance
# ---------------------------------------------------------------------------

def check_scaling_invariance(
    rel, t_samples: Sequence[float] = (0.5, 2.0, 3.0), *,
    samples: int = 100, seed=0,
) -> CheckResult:
    rng = random.Random(seed)
    if rel.mode == "finite":
        return not_applicable("scaling_invariance", "finite fixture declares no scaling support")
    model = rel.models[0]
    if not model.supports_scaling:
        return not_applicable(
            "scaling_invariance", f"model {model.id!r} cannot form scaled copies"
        )

    def judge(rows):
        x, y = _columns(rows)
        fwd, _ = rel.leq_many([(x, t)], [(y, t)], converse=False)  # t of the loop below
        return [None if f else (*w, t) for f, w in zip(fwd, rows)]

    used = 0
    for t in t_samples:
        if t <= 0:
            raise DomainError(f"scale factor must be positive, got {t!r}")
        witness, more = _scan(rng, samples, [(rel, False)], judge)
        used += more
        if witness is not None:
            return verdict("scaling_invariance", False, [witness], samples_used=used)
    return verdict("scaling_invariance", True, [], samples_used=used)


# ---------------------------------------------------------------------------
# A5 splitting and recombination
# ---------------------------------------------------------------------------

def check_splitting(
    rel, t: float = 0.5, *, samples: int = 100, seed=0
) -> CheckResult:
    if not (0.0 < t < 1.0):
        raise DomainError(f"splitting fraction must lie strictly in (0, 1), got {t!r}")
    rng = random.Random(seed)
    if rel.mode == "finite" or not rel.models[0].supports_scaling:
        return not_applicable("splitting", "scaling unsupported")

    def judge(rows):
        (x,) = _columns(rows)
        # x against the composite of its t- and (1 - t)-copies, both ways.
        fwd, bwd = rel.leq_many([(x, 1.0)], [(x, t), (x, 1.0 - t)])
        return [None if f and b else (s, t) for f, b, s in zip(fwd, bwd, x)]

    witness, used = _scan(rng, samples, [(rel, None)], judge)
    return verdict(
        "splitting", witness is None, [witness], samples_used=used, tolerance_used=t
    )


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
    rng = random.Random(seed)
    if rel.mode == "finite" or not rel.models[0].supports_scaling:
        return not_applicable("stability", "scaling unsupported")
    model = rel.models[0]

    drawn = rel.sample(rng, 4 * samples)
    tuples = [tuple(drawn[i:i + 4]) for i in range(0, len(drawn), 4)]
    if model.isentropic_partner is not None:
        # x, its equal-entropy partner, then a pair (z0, z1) to order strictly.
        drawn = []
        for _ in range(10):
            x = rel.sample(rng, 1)[0]
            y = model.isentropic_partner(x, rng)
            if y is not None:
                drawn.append((x, y, rel.sample(rng, 2)))
        pairs = _ordered(rel, [z for _, _, z in drawn], strict=True)
        tuples += [(x, y, *z) for (x, y, _), z in zip(drawn, pairs) if z]

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
    left, so the later queries are short.
    """

    def premises(group, eps):
        k = len(eps)

        def rows(j):
            return [t[j] for t in group for _ in range(k)]

        ts = eps * len(group)
        fwd, _ = rel.leq_many(
            [(rows(0), 1.0), (rows(2), ts)], [(rows(1), 1.0), (rows(3), ts)], converse=False
        )
        return [all(fwd[j:j + k]) for j in range(0, len(fwd), k)]

    ordered, _ = rel.leq_many(
        [([t[0] for t in tuples], 1.0)], [([t[1] for t in tuples], 1.0)], converse=False
    )
    kept = [i for i, ok in enumerate(ordered) if not ok]
    for eps in (STABILITY_EPS[:1], STABILITY_EPS[1:]):
        kept = [i for i, ok in zip(kept, premises([tuples[i] for i in kept], eps)) if ok]
    return (tuples[kept[0]], kept[0] + 1) if kept else (None, len(tuples))


# ---------------------------------------------------------------------------
# Comparison hypothesis
# ---------------------------------------------------------------------------

def check_comparison(rel, *, samples: int = DEFAULT_SAMPLES, seed=0) -> CheckResult:
    if rel.mode == "finite":
        elems = rel.elements
        pairs = ((x, y) for i, x in enumerate(elems) for y in elems[i:])
        witnesses = []
        used = 0
        for x, y in pairs:
            used += 1
            if not (rel.leq(x, y) or rel.leq(y, x)):
                witnesses.append((x, y))
                break
        return verdict("comparison", not witnesses, witnesses, samples_used=used)

    def judge(rows):
        x, y = _columns(rows)
        fwd, bwd = rel.leq_many([(x, 1.0)], [(y, 1.0)])
        return [
            w if not (f or b) and rel.compatible(*w) else None
            for f, b, w in zip(fwd, bwd, rows)
        ]

    witness, used = _scan(random.Random(seed), samples, [(rel, None)] * 2, judge)
    return verdict("comparison", witness is None, [witness], samples_used=used)


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
    rng = random.Random(seed)
    gamma = _Pool(equilibrium_states)
    if not gamma:
        return not_applicable("n1_n2", "no equilibrium subset declared")
    noneq = list(nonequilibrium_states)
    hat = _Pool(gamma + noneq)
    witnesses = []

    # N1(a): reflexivity and transitivity on the union; x ≼ x is its own
    # converse, so each state is asked about once.
    fwd, _ = _ask(rel, hat, hat, converse=False)
    witnesses += [("reflexivity", x) for x, f in zip(hat, fwd) if not f]
    used = len(hat)
    witness, scanned = _scan(rng, samples, [(hat, None)] * 3, _transitivity_judge(rel))
    used += scanned
    if witness is not None:
        witnesses.append(("transitivity", witness))

    # N1(b): composition keeps the order (plain clause).  Each pair is
    # swapped where its first state does not precede the second.
    def composed(rows):
        x, y, xp, yp = _columns(rows)
        k = len(rows)
        ordered, _ = rel.leq_many([(x + xp, 1.0)], [(y + yp, 1.0)], converse=False)
        lo = [a if ok else b for a, b, ok in zip(x + xp, y + yp, ordered)]
        hi = [b if ok else a for a, b, ok in zip(x + xp, y + yp, ordered)]
        fwd, _ = rel.leq_many(
            [(lo[:k], 1.0), (lo[k:], 1.0)], [(hi[:k], 1.0), (hi[k:], 1.0)], converse=False
        )
        return [None if f else w for f, w in zip(fwd, zip(lo, lo[k:], hi, hi[k:]))]

    if rel.mode == "induced":
        witness, scanned = _scan(rng, samples // 2, [(hat, None)] * 4, composed)
        used += scanned
        if witness is not None:
            witnesses.append(("consistency", witness))

    # N1(c): stability, premise-sampled only.
    if rel.mode == "induced" and rel.models[0].supports_scaling:
        tuples = [(*hat.sample(rng, 2), *gamma.sample(rng, 2)) for _ in range(samples // 4)]
        witness, scanned = _stability_witness(rel, tuples)
        used += scanned
        if witness is not None:
            witnesses.append(("stability", witness))

    # N2: equilibrium sandwich for each nonequilibrium state, every (g, x)
    # asked both ways in one query.
    k = len(gamma)
    below, above = _ask(rel, gamma * len(noneq), [x for x in noneq for _ in gamma])
    witnesses += [
        ("sandwich", x) for i, x in enumerate(noneq)
        if not (any(below[i * k:(i + 1) * k]) and any(above[i * k:(i + 1) * k]))
    ]
    used += len(noneq)

    return verdict("n1_n2", not witnesses, witnesses, samples_used=used)
