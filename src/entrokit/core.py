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
from enum import Enum
from operator import mul
from typing import Hashable, Iterable, Sequence, Union

from .errors import CapabilityError, DomainError

# Absolute per-coordinate tolerance for deciding that two states are the same
# point; bisection and closed-form solvers produce near-equal states.
COORD_ATOL = 1e-12


class StateKind(str, Enum):
    EQUILIBRIUM = "equilibrium"
    STABLE_EQUILIBRIUM = "stable_equilibrium"
    NONEQUILIBRIUM = "nonequilibrium"


class Record:
    """A plain value record.  ``__init__`` sets its fields into ``__dict__``
    in one update, in declaration order: ``repr`` and ``axioms.describe``
    list them in that order, and two records are equal when they are of one
    class with equal fields."""

    __hash__ = None

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.__dict__ == other.__dict__

    def __repr__(self) -> str:
        fields = ", ".join(f"{k}={v!r}" for k, v in self.__dict__.items())
        return f"{type(self).__name__}({fields})"

    def replace(self, **changes):
        """A copy with ``changes`` applied, checked as a new record is."""
        return type(self)(**{**self.__dict__, **changes})


class FrozenRecord(Record):
    """A record whose fields cannot be assigned or deleted once set, hashed
    by their values in order.  It keeps a ``__dict__`` and no slots, so
    ``copy`` and ``pickle`` restore it without calling ``__setattr__``."""

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is frozen: cannot change {name!r}")

    __delattr__ = __setattr__

    def __hash__(self):
        return hash(tuple(self.__dict__.values()))


class StateSpace(FrozenRecord):
    """A base state space.  Scaled copies of its states stay in it and carry
    their factor on the state (``State.scale``)."""

    def __init__(self, id: str, composition_tag: str):
        self.__dict__.update(id=id, composition_tag=composition_tag)


class State(FrozenRecord):
    """A point in a state space.

    ``region`` is an opaque, equality-comparable descriptor of the regions of
    space occupied by the constituents; "no net change of the regions" is
    modelled as descriptor equality.  Separability and non-correlation are
    declared flags, not computed properties.  ``scale`` is the factor of a
    scaled copy: every extensive quantity is ``scale`` times that of the
    corresponding state of the unscaled base space.
    """

    def __init__(self, space_id: str, coords: tuple[float, ...], energy: float,
                 region: Hashable, separable: bool = True, uncorrelated: bool = True,
                 kind: StateKind = StateKind.STABLE_EQUILIBRIUM, scale: float = 1.0):
        if not math.isfinite(energy):
            raise DomainError(f"state energy must be finite, got {energy!r}")
        if kind is StateKind.STABLE_EQUILIBRIUM and not (separable and uncorrelated):
            raise DomainError(
                "a stable equilibrium state must be separable and uncorrelated"
            )
        self.__dict__.update(
            space_id=space_id, coords=coords, energy=energy, region=region,
            separable=separable, uncorrelated=uncorrelated, kind=kind, scale=scale,
        )

    def __hash__(self):
        # The relation's dicts key on states: spelt out, the same value is a
        # third faster than the generic hash of the field values.
        return hash((self.space_id, self.coords, self.energy, self.region,
                     self.separable, self.uncorrelated, self.kind, self.scale))


class CompositeState(FrozenRecord):
    """An ordered tuple of subsystem states treated as one state."""

    def __init__(self, parts: tuple[State, ...]):
        if not parts:
            raise DomainError("composite state needs at least one part")
        self.__dict__["parts"] = parts


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


class ProcessRecord(FrozenRecord):
    """An executed process: end states, work, and its entropy bookkeeping.

    ``work_done`` is the work done *by* the system (raised-weight convention).
    ``sigma`` is the entropy generated; the process is reversible exactly
    when it is zero.
    """

    def __init__(self, initial: StateLike, final: StateLike, work_done: float,
                 sigma: float = 0.0):
        if sigma < 0.0:
            raise DomainError("entropy generation cannot be negative")
        self.__dict__.update(initial=initial, final=final, work_done=work_done, sigma=sigma)

    @property
    def reversible(self) -> bool:
        return self.sigma == 0.0


class ModelSystem:
    """A concrete physical model, read from its engine, which declares it:
    its ``model_id``, the ``space_id`` and ``composition_tag`` of its one
    base space, ``entropy_atol`` (the absolute tolerance the induced
    relation uses to decide equivalence of near-equal oracle values) and
    ``energy_bounds`` (None for a normal model, else a finite upper bound).
    The engine's ``oracle_entropy``, and its ``scale_state``,
    ``isentropic_partner`` and ``scaled_entropies`` where it has them,
    become instance attributes, so a copy can carry a defect in the order's
    oracle while its engine keeps nature's.

    The oracle entropy is ground truth used by the engine ("nature") and by
    verification code; entropy-construction algorithms must not call it.
    ``scaled_entropies`` maps a list of the model's states, a list of
    indices into it and a list of factors to the list of oracle entropies of
    each ``ts[i]``-scaled copy of ``states[index[i]]``, bit for bit as
    ``oracle_entropy(scale_state(s, t))`` gives it, and to a value that is
    not finite for a copy ``scale_state`` refuses (a factor or copy scale
    that is not positive and finite among them); the relation answers
    batched order queries with it, and reads unit factors from the oracle.
    """

    def __init__(self, process_engine):
        bounds = process_engine.energy_bounds
        if bounds is not None and not math.isfinite(bounds[1]):
            raise DomainError("a non-normal model must declare a finite upper energy bound")
        space = StateSpace(process_engine.space_id, process_engine.composition_tag)
        self.id = process_engine.model_id
        self.spaces = {space.id: space}
        self.process_engine = process_engine
        self.is_normal = bounds is None
        self.energy_bounds = bounds
        self.entropy_atol = process_engine.entropy_atol
        self.oracle_entropy = process_engine.oracle_entropy
        self._scale_state_fn = getattr(process_engine, "scale_state", None)
        self.isentropic_partner = getattr(process_engine, "isentropic_partner", None)
        self.scaled_entropies = getattr(process_engine, "scaled_entropies", None)

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

    Finite mode keeps the order over distinct hashable element ids as the
    bitset rows it is given: bit j of ``rows[i]`` is set exactly when
    elements[i] ≼ elements[j].  Its reflexivity and transitivity are
    checked, never assumed.  Induced mode answers queries by comparing
    oracle entropies of compatible states, with an absolute equivalence
    tolerance taken from the owning model.
    """

    def __init__(self, mode, *, elements=None, rows=None, models=None):
        self.mode = mode
        if mode == "finite":
            self.elements = list(elements)
            self._index = {x: i for i, x in enumerate(self.elements)}
            if len(self._index) != len(self.elements):
                duplicate = next(x for i, x in enumerate(self.elements) if self._index[x] != i)
                raise DomainError(f"duplicate element {duplicate!r}")
            self.rows = list(rows)
            n = len(self.elements)
            if len(self.rows) != n or any(row >> n for row in self.rows):
                raise DomainError(f"a finite relation on {n} elements needs {n} rows of {n} bits")
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
    def finite(cls, elements: Iterable[Hashable], rows: Iterable[int]) -> "AccessibilityRelation":
        return cls("finite", elements=elements, rows=rows)

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

    def compatible(self, x: StateLike, y: StateLike) -> bool:
        """Whether x and y live in comparable (possibly composite) spaces:
        the same composition totals."""
        if self.mode == "finite":
            return True
        sides = [[self._part_columns(p, [1.0], 1) for p in parts_of(s)] for s in (x, y)]
        return self._same_totals(sides, 1)[0]

    # -- the order's rule -------------------------------------------------
    # ``leq_many`` applies these to every row; a subclass that overrides
    # them plants another order.

    def _combine_columns(self, columns: list[list[float]]) -> list[float]:
        """Row by row, a side's entropy from its parts' values: their sum,
        in part order."""
        return _sum_columns(columns)

    def _compare_rows(self, xs, ys, a: list[float], b: list[float], atol: float) -> list[bool]:
        """Row by row, whether the side ``xs``, of entropy a, precedes the
        side ``ys``, of entropy b: a <= b + atol.  ``xs`` and ``ys`` are the
        sides' parts, from which ``_row`` builds a row's copies."""
        return [u <= v + atol for u, v in zip(a, b)]

    # -- queries --------------------------------------------------------

    def leq(self, x, y) -> bool:
        """X precedes Y: Y is adiabatically accessible from X.  Induced, the
        one-row ``leq_many`` query of the parts of X against those of Y."""
        if self.mode == "finite":
            i, j = self._index.get(x), self._index.get(y)
            if i is None:
                raise DomainError(f"unknown element {x!r}")
            if j is None:
                raise DomainError(f"unknown element {y!r}")
            return self.rows[i] >> j & 1 == 1
        fwd, _ = self.leq_many(
            [(p, 1.0) for p in parts_of(x)], [(p, 1.0) for p in parts_of(y)], converse=False
        )
        return fwd[0]

    def equivalent(self, x, y) -> bool:
        return self.leq(x, y) and self.leq(y, x)

    def leq_many(self, xs: Sequence[tuple], ys: Sequence[tuple], *, converse: bool = True):
        """Row by row, the composite of the parts ``xs`` against that of the
        parts ``ys``.

        A part is a pair ``(states, ts)``: ``states`` is one State or a
        sequence of one per row, ``ts`` one factor or a sequence of one per
        row, and row i holds the ts[i]-scaled copy of states[i] (the state
        itself where the factor is 1).  A query with no per-row part has one
        row; ``leq`` is such a query.  A side of one part is that copy, not
        a composite of it.  Returns two lists of bools: ``fwd[i]`` is whether
        row i's ``xs`` side precedes its ``ys`` side and ``bwd[i]`` the
        converse; never an entropy.  ``converse=False`` leaves ``bwd`` None.
        The LY table, the sandwich bounds and every sampled order-axiom check
        ask their rows through it, a clause or a table step at a time.

        Each part's oracle values are read once per distinct state (through
        ``oracle_entropy`` at factor 1, else ``scaled_entropies``), combined
        side by side with ``_combine_columns`` and compared with
        ``_compare_rows``; a row whose sides' composition totals differ is
        False both ways.  The values of a tuple of states with unit factors
        are kept for as long as the relation is handed an equal tuple, as a
        bisection or a run of sandwich bounds does.  A row with a copy
        ``scale_state`` refuses raises as it does.  A query with a part the
        batch cannot take (composite states, states that span several
        composition tags or entropy tolerances, or factors other than 1
        whose states' model has no ``scaled_entropies`` or that span several
        models) asks ``leq`` row by row of the copies ``scale_state`` builds.
        """
        if self.mode != "induced":
            raise CapabilityError("batched queries need an induced relation")
        if not (xs and ys):
            raise DomainError("leq_many needs a part on each side")
        parts = [(states, ts if isinstance(ts, (int, float)) else list(ts))
                 for states, ts in xs + ys]
        rows = {len(states) for states, _ in parts if not isinstance(states, State)}
        rows |= {len(ts) for _, ts in parts if isinstance(ts, list)}
        if len(rows) > 1:
            raise DomainError("leq_many needs the same number of rows in every part")
        n = rows.pop() if rows else 1
        parts = [(states, ts if isinstance(ts, list) else [ts] * n) for states, ts in parts]
        xs, ys = parts[:len(xs)], parts[len(xs):]
        batch = self._leq_many_batched(xs, ys, n, converse)
        if batch is not None:
            return batch
        fwd, bwd = [], []
        for i in range(n):
            x, y = self._row(xs, i), self._row(ys, i)
            fwd.append(self.leq(x, y))
            if converse:
                bwd.append(self.leq(y, x))
        return fwd, bwd if converse else None

    def _row(self, parts, i: int) -> StateLike:
        """Row i of one side of ``leq_many``: the copies ``scale_state``
        builds, as one state or a composite."""
        copies = []
        for states, ts in parts:
            state = states if isinstance(states, State) else states[i]
            t = ts[i]
            copies.append(
                state if t == 1.0 else self._resolve(state.space_id)[0].scale_state(state, t)
            )
        return copies[0] if len(copies) == 1 else composite_state(copies)

    def _leq_many_batched(self, xs, ys, n: int, converse: bool):
        """``leq_many`` from the parts' columns; None where a part is one
        the batch cannot take."""
        sides = []
        for parts in (xs, ys):
            columns = [self._part_columns(states, ts, n) for states, ts in parts]
            if None in columns:
                return None
            sides.append(columns)
        # A value is not finite for a copy scale_state refuses; building the
        # row's copies then raises as scale_state does.
        values = [c[0] for c in sides[0] + sides[1]]
        if not all(math.isfinite(sum(column)) for column in values):
            for i in range(n):
                if not all(math.isfinite(column[i]) for column in values):
                    self._row(xs, i), self._row(ys, i)
        a, b = (self._combine_columns([c[0] for c in columns]) for columns in sides)
        atol = max(c[2] for c in sides[0] + sides[1])
        fwd = self._compare_rows(xs, ys, a, b, atol)
        bwd = self._compare_rows(ys, xs, b, a, atol) if converse else None
        same = self._same_totals(sides, n)
        if not all(same):
            fwd = [s and f for s, f in zip(same, fwd)]
            bwd = [s and g for s, g in zip(same, bwd)] if converse else None
        return fwd, bwd

    @staticmethod
    def _same_totals(sides, n: int) -> list[bool]:
        """Row by row, whether the two sides' part columns have the same
        composition totals: the same tags, each with amounts (summed in part
        order) within math.isclose's 1e-12."""
        tx, ty = (
            {tag: _sum_columns([c[1] for c in columns if c[3] == tag])
             for tag in dict.fromkeys(c[3] for c in columns)}
            for columns in sides
        )
        if tx.keys() != ty.keys():
            return [False] * n
        same = [True] * n
        for tag, total in tx.items():
            if total != ty[tag]:
                same = [s and math.isclose(u, v, rel_tol=1e-12)
                        for s, u, v in zip(same, total, ty[tag])]
        return same

    def _part_columns(self, states, ts: list[float], n: int):
        """Per row of one part: oracle value and amount, each a list, and
        the part's entropy atol and composition tag; None unless the
        part is made of single states with one tag and one atol whose owners
        can evaluate its copies in a batch.  Owners are resolved once per
        space, and a space no model owns raises.  Unit factors read the
        states' values through ``oracle_entropy``, which raises where a
        state is malformed; other factors through ``scaled_entropies``."""
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
        owners = {
            space_id: self._resolve(space_id)
            for space_id in dict.fromkeys(state.space_id for state in distinct)
        }
        models = list({id(m): m for m, _ in owners.values()}.values())
        tags = {space.composition_tag for _, space in owners.values()}
        atols = {m.entropy_atol for m in models}
        if len(tags) != 1 or len(atols) != 1:
            return None
        if unit:
            oracles = {space_id: m.oracle_entropy for space_id, (m, _) in owners.items()}
            values = [oracles[x.space_id](x) for x in distinct]
            values = list(map(values.__getitem__, inv))
        elif len(models) > 1 or models[0].scaled_entropies is None:
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
        """Draw n universe elements: finite, with replacement from the list;
        induced, one ``sample_states`` call of the first model's engine."""
        if self.mode == "finite":
            if not self.elements:
                return []
            return [self.elements[rng.randrange(len(self.elements))] for _ in range(n)]
        return self.models[0].process_engine.sample_states(rng, n)


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
