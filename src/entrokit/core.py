"""Shared domain types: states, state spaces, composition, scaling, and the
adiabatic-accessibility preorder.

States are immutable values that carry their own energy.  A model system
bundles the functions that give them physical meaning (a ground-truth
entropy oracle, a process engine that plays nature).  The accessibility
relation is either an explicit finite pair set or induced from a model's
oracle: within one space or between compatible composites, X precedes Y
exactly when the oracle entropy of X does not exceed that of Y.
Construction code elsewhere in the package is required to interact with
models only through relation queries and engine calls, never by reading the
oracle directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from operator import mul
from typing import Callable, Hashable, Iterable, Optional, Sequence, Union

from .errors import CapabilityError, DomainError

# Absolute per-coordinate tolerance for deciding that two states are the same
# point; bisection and closed-form solvers produce near-equal states.
COORD_ATOL = 1e-12


class StateKind(str, Enum):
    EQUILIBRIUM = "equilibrium"
    STABLE_EQUILIBRIUM = "stable_equilibrium"
    NONEQUILIBRIUM = "nonequilibrium"


@dataclass(frozen=True)
class StateSpace:
    """A base state space.  Scaled copies of its states stay in it and carry
    their factor on the state (``State.scale``)."""

    id: str
    composition_tag: str


@dataclass(frozen=True)
class State:
    """A point in a state space.

    ``region`` is an opaque, equality-comparable descriptor of the regions of
    space occupied by the constituents; "no net change of the regions" is
    modelled as descriptor equality.  Separability and non-correlation are
    declared flags, not computed properties.  ``scale`` is the factor of a
    scaled copy: every extensive quantity is ``scale`` times that of the
    corresponding state of the unscaled base space.
    """

    space_id: str
    coords: tuple[float, ...]
    energy: float
    region: Hashable
    separable: bool = True
    uncorrelated: bool = True
    kind: StateKind = StateKind.STABLE_EQUILIBRIUM
    scale: float = 1.0

    def __post_init__(self):
        if not math.isfinite(self.energy):
            raise DomainError(f"state energy must be finite, got {self.energy!r}")
        if self.kind is StateKind.STABLE_EQUILIBRIUM and not (
            self.separable and self.uncorrelated
        ):
            raise DomainError(
                "a stable equilibrium state must be separable and uncorrelated"
            )


@dataclass(frozen=True)
class CompositeState:
    """An ordered tuple of subsystem states treated as one state."""

    parts: tuple[State, ...]

    def __post_init__(self):
        if not self.parts:
            raise DomainError("composite state needs at least one part")


StateLike = Union[State, CompositeState]


def states_equal(a: StateLike, b: StateLike) -> bool:
    """Coordinate-wise identity of two states within ``COORD_ATOL``."""
    pa, pb = parts_of(a), parts_of(b)
    if len(pa) != len(pb):
        return False
    for x, y in zip(pa, pb):
        if x.space_id != y.space_id or x.scale != y.scale or x.region != y.region:
            return False
        if len(x.coords) != len(y.coords):
            return False
        if any(abs(u - v) > COORD_ATOL for u, v in zip(x.coords, y.coords)):
            return False
    return True


def parts_of(state: StateLike) -> tuple[State, ...]:
    """Flatten a state into its tuple of atomic parts."""
    if isinstance(state, CompositeState):
        return state.parts
    return (state,)


def composite_state(parts: Sequence[StateLike]) -> CompositeState:
    """Build a composite state, flattening nested composites."""
    flat: list[State] = []
    for p in parts:
        flat.extend(parts_of(p))
    return CompositeState(tuple(flat))


@dataclass(frozen=True)
class ProcessRecord:
    """An executed process: end states, work, and its entropy bookkeeping.

    ``work_done`` is the work done *by* the system (raised-weight convention).
    ``sigma`` is the entropy generated; it is exactly zero iff the process is
    reversible.
    """

    kind: str  # "weight" | "weight_polygonal" | "standard_weight"
    initial: StateLike
    final: StateLike
    work_done: float
    reversible: bool = True
    sigma: float = 0.0

    def __post_init__(self):
        if (self.sigma == 0.0) != self.reversible:
            raise DomainError("reversible flag must agree with sigma == 0")
        if self.sigma < 0.0:
            raise DomainError("entropy generation cannot be negative")


class ModelSystem:
    """A concrete physical model: spaces, oracle entropy, and an engine.

    The oracle entropy is ground truth used by the engine ("nature") and by
    verification code; entropy-construction algorithms must not call it.
    ``entropy_atol`` is the absolute tolerance the induced relation uses to
    decide equivalence of near-equal oracle values.  ``scaled_entropies``,
    when given, maps a list of the model's states, a list of indices into it
    and a list of factors to the list of oracle entropies of each
    ``ts[i]``-scaled copy of ``states[index[i]]``, bit for bit as
    ``oracle_entropy(scale_state(s, t))`` gives it, and to a value that is
    not finite for a copy ``scale_state`` refuses (a factor or copy scale
    that is not positive and finite among them); the relation answers
    batched order queries with it.
    """

    def __init__(
        self,
        id: str,
        spaces: dict[str, StateSpace],
        oracle_entropy: Callable[[State], float],
        process_engine,
        is_normal: bool = True,
        energy_bounds: Optional[tuple[float, float]] = None,
        scale_state_fn: Optional[Callable[[State, float], State]] = None,
        entropy_atol: float = 0.0,
        isentropic_partner: Optional[Callable[[State, object], Optional[State]]] = None,
        scaled_entropies: Optional[
            Callable[[list[State], list[int], list[float]], list[float]]
        ] = None,
    ):
        if not is_normal:
            if energy_bounds is None or not math.isfinite(energy_bounds[1]):
                raise DomainError(
                    "a non-normal model must declare a finite upper energy bound"
                )
        self.id = id
        self.spaces = dict(spaces)
        self.oracle_entropy = oracle_entropy
        self.process_engine = process_engine
        self.is_normal = is_normal
        self.energy_bounds = energy_bounds
        self._scale_state_fn = scale_state_fn
        self.entropy_atol = entropy_atol
        self.isentropic_partner = isentropic_partner
        self.scaled_entropies = scaled_entropies
        if process_engine is not None:
            process_engine.bind(self)

    @property
    def supports_scaling(self) -> bool:
        return self._scale_state_fn is not None

    def scale_state(self, state: State, t: float) -> State:
        """The t-scaled copy of a state: every extensive quantity multiplied
        by t.  The copy stays in the state's space with scale t * state.scale.

        Raises CapabilityError for models that cannot form scaled copies
        (field systems, few-particle systems).
        """
        if not self.supports_scaling:
            raise CapabilityError(f"model {self.id!r} does not support scaled copies")
        if not (t > 0 and math.isfinite(t)):
            raise DomainError(f"scale factor must be positive, got {t!r}")
        if t == 1.0:
            return state
        if state.space_id not in self.spaces:
            raise DomainError(f"space {state.space_id!r} is not owned by model {self.id!r}")
        scale = t * state.scale
        if not (scale > 0 and math.isfinite(scale)):
            raise DomainError(f"scaled copy needs a positive, finite scale, got {scale!r}")
        return self._scale_state_fn(state, t)

    def relation(self) -> "AccessibilityRelation":
        return AccessibilityRelation.induced([self])


class Access(str, Enum):
    FORWARD = "forward"
    BACKWARD_ONLY = "backward_only"
    BOTH = "both"
    INCOMPARABLE = "incomparable"


class AccessibilityRelation:
    """The adiabatic-accessibility preorder, finite or model-induced.

    Finite mode stores an explicit pair set over hashable element ids; its
    reflexivity and transitivity are checked, never assumed.  Induced mode
    answers queries by comparing oracle entropies of compatible states, with
    an absolute equivalence tolerance taken from the owning model.
    """

    def __init__(self, mode, *, elements=None, pairs=None, models=None):
        self.mode = mode
        if mode == "finite":
            self.elements = list(elements)
            self._element_set = set(self.elements)
            self.pairs = set(tuple(p) for p in pairs)
            self.models = []
        elif mode == "induced":
            self.models = list(models)
            if not self.models:
                raise DomainError("induced relation needs at least one model")
            self._last_unit = (None, None)
        else:
            raise DomainError(f"unknown relation mode {mode!r}")

    # -- constructors -------------------------------------------------

    @classmethod
    def finite(cls, elements: Iterable[Hashable], pairs: Iterable[tuple]) -> "AccessibilityRelation":
        return cls("finite", elements=elements, pairs=pairs)

    @classmethod
    def induced(cls, models: Sequence[ModelSystem]) -> "AccessibilityRelation":
        return cls("induced", models=models)

    # -- induced-mode internals ----------------------------------------

    def _resolve(self, space_id: str) -> tuple[ModelSystem, StateSpace]:
        for m in self.models:
            space = m.spaces.get(space_id)
            if space is not None:
                return m, space
        raise DomainError(f"no model in this relation owns space {space_id!r}")

    def _profile(self, state: StateLike) -> tuple[dict[str, float], list[float], float]:
        """Composition totals, per-part oracle values and entropy atol of a
        state, read in one pass over its parts.

        leq needs all three for both of its states; resolving each part's
        model and space once here, instead of once per quantity, is what
        keeps composite queries (such as the consistency and splitting
        checks' pairs) cheap.
        """
        totals: dict[str, float] = {}
        values: list[float] = []
        atol = None
        for p in parts_of(state):
            m, sp = self._resolve(p.space_id)
            totals[sp.composition_tag] = totals.get(sp.composition_tag, 0.0) + p.scale
            values.append(m.oracle_entropy(p))
            atol = m.entropy_atol if atol is None else max(atol, m.entropy_atol)
        return totals, values, atol

    def _combine(self, values: list[float]) -> float:
        return sum(values)

    @staticmethod
    def _totals_match(tx: dict[str, float], ty: dict[str, float]) -> bool:
        if tx == ty:
            return True
        if set(tx) != set(ty):
            return False
        return all(math.isclose(tx[k], ty[k], rel_tol=1e-12) for k in tx)

    def compatible(self, x: StateLike, y: StateLike) -> bool:
        """Whether x and y live in comparable (possibly composite) spaces."""
        if self.mode == "finite":
            return True
        return self._totals_match(self._profile(x)[0], self._profile(y)[0])

    # -- queries --------------------------------------------------------

    def leq(self, x, y) -> bool:
        """X precedes Y: Y is adiabatically accessible from X."""
        if self.mode == "finite":
            if x not in self._element_set:
                raise DomainError(f"unknown element {x!r}")
            if y not in self._element_set:
                raise DomainError(f"unknown element {y!r}")
            return (x, y) in self.pairs
        tx, vx, ax = self._profile(x)
        ty, vy, ay = self._profile(y)
        if not self._totals_match(tx, ty):
            return False
        return self._combine(vx) <= self._combine(vy) + max(ax, ay)

    def equivalent(self, x, y) -> bool:
        return self.leq(x, y) and self.leq(y, x)

    def leq_mixtures(self, x0: State, x1: State, lams, ys: Sequence[StateLike]):
        """Each y_i against the mixture ((1-lam_i) x0, lam_i x1): ``leq_many``
        with those two parts on one side and y_i on the other."""
        if len(lams) != len(ys):
            raise DomainError("leq_mixtures needs one fraction per state")
        return self.leq_many([(x0, [1.0 - lam for lam in lams]), (x1, lams)], [(ys, 1.0)])

    def leq_many(self, xs: Sequence[tuple], ys: Sequence[tuple], *, converse: bool = True):
        """Row by row, the composite of the parts ``xs`` against that of the
        parts ``ys``.

        A part is a pair ``(states, ts)``: ``states`` is one State or a
        sequence of one per row, ``ts`` one factor or a sequence of one per
        row, and row i holds the ts[i]-scaled copy of states[i] (the state
        itself where the factor is 1).  A side of one part is that copy, not
        a composite of it.  Returns two lists of bools: ``fwd[i]`` is whether
        row i's ``xs`` side precedes its ``ys`` side and ``bwd[i]`` the
        converse, each exactly what ``leq`` answers for that pair; never an
        entropy.  ``converse=False`` leaves ``bwd`` None, which halves the
        ``leq`` calls of a relation that answers row by row.

        A plain induced relation answers from the oracle values of each
        distinct state, read once per query (through the model's
        ``scaled_entropies`` where a factor is not 1), and keeps those of a
        tuple of states with unit factors for as long as it is handed an
        equal tuple, as a bisection or a run of sandwich bounds does.  A
        relation subclass (which may define another order), a part whose
        states span several composition tags or entropy tolerances, a part
        with factors other than 1 whose states' model has no
        ``scaled_entropies`` (or that spans several models), and a row whose
        values are not finite or whose copies the model refuses are asked
        through ``leq``, so an error surfaces as ``leq`` raises it.
        """
        if self.mode != "induced":
            raise CapabilityError("batched queries need an induced relation")
        parts = [(states, ts if isinstance(ts, (int, float)) else list(ts))
                 for states, ts in xs + ys]
        rows = {len(states) for states, _ in parts if not isinstance(states, State)}
        rows |= {len(ts) for _, ts in parts if isinstance(ts, list)}
        if len(rows) != 1:
            raise DomainError("leq_many needs the same number of rows in every part")
        (n,) = rows
        parts = [(states, ts if isinstance(ts, list) else [ts] * n) for states, ts in parts]
        xs, ys = parts[:len(xs)], parts[len(xs):]
        batch = self._leq_many_batched(xs, ys, n) if type(self) is AccessibilityRelation else None
        if batch is None:
            batch = [False] * n, [False] * n, range(n)
        fwd, bwd, scalar = batch
        for i in scalar:
            x, y = self._row(xs, i), self._row(ys, i)
            fwd[i] = self.leq(x, y)
            if converse:
                bwd[i] = self.leq(y, x)
        return fwd, bwd if converse else None

    def _row(self, parts, i: int) -> StateLike:
        """Row i of one side of ``leq_many``, built as ``leq`` is asked it."""
        copies = []
        for states, ts in parts:
            state = states if isinstance(states, State) else states[i]
            t = ts[i]
            copies.append(
                state if t == 1.0 else self._resolve(state.space_id)[0].scale_state(state, t)
            )
        return copies[0] if len(copies) == 1 else composite_state(copies)

    def _leq_many_batched(self, xs, ys, n: int):
        """``leq_many`` with ``leq``'s arithmetic step for step: fwd, bwd and
        the rows ``leq`` must answer instead; None where the batch does not
        apply at all."""
        sides = []
        for parts in (xs, ys):
            columns = [self._part_columns(states, ts, n) for states, ts in parts]
            if None in columns:
                return None
            sides.append(columns)
        # leq sums the parts' values in order, as sum() does, and takes the
        # largest entropy atol of all parts.
        s_x, s_y = (_sum_columns([c[0] for c in columns]) for columns in sides)
        atol = max(c[2] for c in sides[0] + sides[1])
        # A value is not finite for a copy scale_state refuses, and then
        # neither is the sum of its side, nor that of all rows.
        scalar = []
        if not math.isfinite(sum(s_x) + sum(s_y)):
            scalar = [i for i, (a, b) in enumerate(zip(s_x, s_y)) if not math.isfinite(a + b)]
        fwd = [a <= b + atol for a, b in zip(s_x, s_y)]
        bwd = [b <= a + atol for a, b in zip(s_x, s_y)]
        # _totals_match: the same tags on both sides, each with amounts (summed
        # in part order, as _profile sums them) within math.isclose's 1e-12.
        tx, ty = (
            {tag: _sum_columns([c[1] for c in columns if c[3] == tag])
             for tag in dict.fromkeys(c[3] for c in columns)}
            for columns in sides
        )
        if tx.keys() != ty.keys():
            return [False] * n, [False] * n, scalar
        for tag, total in tx.items():
            if total != ty[tag]:
                match = [math.isclose(a, b, rel_tol=1e-12) for a, b in zip(total, ty[tag])]
                fwd = [m and f for m, f in zip(match, fwd)]
                bwd = [m and g for m, g in zip(match, bwd)]
        return fwd, bwd, scalar

    def _part_columns(self, states, ts: list[float], n: int):
        """Per row of one part: oracle value and amount, each a list, and
        the part's entropy atol and composition tag; None unless the
        part is made of single states with one tag and one atol whose owners
        can evaluate its copies in a batch.  A unit factor reads
        ``oracle_entropy``, since the copy is the state itself."""
        unit = ts.count(1.0) == n
        if unit and isinstance(states, tuple) and self._last_unit[0] == states:
            return self._last_unit[1]
        if isinstance(states, State):
            distinct, inv = [states], [0] * n
        else:
            # Distinct by identity: the rows of a query repeat state objects.
            first = {id(state): state for state in states}
            position = {key: k for k, key in enumerate(first)}
            distinct = list(first.values())
            inv = list(map(position.__getitem__, map(id, states)))
        if not all(isinstance(state, State) for state in distinct):
            return None
        try:
            owners = [self._resolve(state.space_id) for state in distinct]
        except DomainError:
            return None
        models = [m for m, _ in owners]
        tags = {space.composition_tag for _, space in owners}
        atols = {m.entropy_atol for m in models}
        if len(tags) != 1 or len(atols) != 1:
            return None
        if unit:
            values = [m.oracle_entropy(x) for x, m in zip(distinct, models)]
            values = list(map(values.__getitem__, inv))
        elif models[0].scaled_entropies is None or len(set(map(id, models))) > 1:
            return None
        else:
            values = models[0].scaled_entropies(distinct, inv, ts)
        scales = [state.scale for state in distinct]
        # An amount is t * scale, and t * 1.0 is t.
        if scales.count(1.0) == len(scales):
            amounts = ts
        else:
            amounts = list(map(mul, ts, map(scales.__getitem__, inv)))
        (tag,), (atol,) = tags, atols
        columns = (values, amounts, atol, tag)
        if unit and isinstance(states, tuple):
            self._last_unit = (states, columns)
        return columns

    def sample(self, rng, n: int) -> list:
        """Draw n universe elements (finite: with replacement from the list)."""
        if self.mode == "finite":
            if not self.elements:
                return []
            return [self.elements[rng.randrange(len(self.elements))] for _ in range(n)]
        engine = self.models[0].process_engine
        return [engine.sample_state(rng) for _ in range(n)]


def _sum_columns(columns: list[list[float]]) -> list[float]:
    """Row by row, the columns' values summed in column order."""
    total = columns[0]
    for column in columns[1:]:
        total = [a + b for a, b in zip(total, column)]
    return total


def accessible(rel: AccessibilityRelation, x, y) -> Access:
    """Tri-state accessibility classification of an ordered state pair."""
    fwd = rel.leq(x, y)
    bwd = rel.leq(y, x)
    if fwd and bwd:
        return Access.BOTH
    if fwd:
        return Access.FORWARD
    if bwd:
        return Access.BACKWARD_ONLY
    return Access.INCOMPARABLE


def composite_relation(rels: Sequence[AccessibilityRelation]) -> AccessibilityRelation:
    """Relation over composites whose parts come from the given relations.

    It has the class of the first relation, so a defect planted by
    overriding the relation's methods carries over to the composite.
    """
    models: list[ModelSystem] = []
    for r in rels:
        if r.mode != "induced":
            raise CapabilityError("composite relations require induced mode")
        for m in r.models:
            if m not in models:
                models.append(m)
    return type(rels[0]).induced(models)
