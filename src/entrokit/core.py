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
from typing import Callable, Hashable, Iterable, Optional, Sequence, Union

import numpy as np

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
    when given, maps a state and an array of factors t to the oracle entropy
    of each t-scaled copy, bit for bit as ``oracle_entropy(scale_state(s, t))``
    gives it; the relation answers batched mixture queries with it.
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
        scaled_entropies: Optional[Callable[[State, np.ndarray], np.ndarray]] = None,
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
            self._last_targets = (None, None)
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
        """Each y_i against the mixture ((1-lam_i) x0, lam_i x1).

        Returns two boolean arrays: ``fwd[i]`` is whether the mixture
        precedes y_i and ``bwd[i]`` whether y_i precedes it, each exactly
        what ``leq`` answers for that pair.  A plain induced relation whose
        models supply ``scaled_entropies`` answers the whole batch in one
        pass, and reads the states of ``ys`` once for as long as it is handed
        the same tuple, as a bisection does; any other relation (a subclass
        may define another order) asks ``leq`` twice per mixture.
        """
        if self.mode != "induced":
            raise CapabilityError("mixtures need an induced relation")
        lams = np.asarray(lams, dtype=float)
        if lams.shape != (len(ys),):
            raise DomainError("leq_mixtures needs one fraction per state")
        if type(self) is AccessibilityRelation:
            batch = self._leq_mixtures_batched(x0, x1, lams, ys)
            if batch is not None:
                return batch
        fwd = np.zeros(len(ys), dtype=bool)
        bwd = np.zeros(len(ys), dtype=bool)
        m0, m1 = self._resolve(x0.space_id)[0], self._resolve(x1.space_id)[0]
        for i, (lam, y) in enumerate(zip(lams.tolist(), ys)):
            probe = composite_state([m0.scale_state(x0, 1.0 - lam), m1.scale_state(x1, lam)])
            fwd[i] = self.leq(probe, y)
            bwd[i] = self.leq(y, probe)
        return fwd, bwd

    def _leq_mixtures_batched(self, x0, x1, lams, ys):
        """``leq_mixtures`` from the models' ``scaled_entropies``, with
        ``leq``'s arithmetic step for step; None where it does not apply or a
        value is not finite, and the caller asks ``leq`` instead."""
        (m0, sp0), (m1, sp1) = self._resolve(x0.space_id), self._resolve(x1.space_id)
        if (
            m0.scaled_entropies is None
            or m1.scaled_entropies is None
            or sp0.composition_tag != sp1.composition_tag
        ):
            return None
        targets = self._mixture_targets(ys)
        if targets is None:
            return None
        s_y, amount_y, atol_y, tags = targets
        with np.errstate(all="ignore"):
            t0 = 1.0 - lams
            mixed = m0.scaled_entropies(x0, t0) + m1.scaled_entropies(x1, lams)
            amount = t0 * x0.scale + lams * x1.scale
        if not (np.isfinite(mixed).all() and np.isfinite(amount).all()):
            return None
        atol = np.maximum(max(m0.entropy_atol, m1.entropy_atol), atol_y)
        # _totals_match: equal amounts, or equal within math.isclose's 1e-12.
        gap = np.abs(amount_y - amount)
        match = np.array([tag == sp0.composition_tag for tag in tags], dtype=bool) & (
            (amount == amount_y)
            | (gap <= np.abs(1e-12 * amount_y))
            | (gap <= np.abs(1e-12 * amount))
        )
        return match & (mixed <= s_y + atol), match & (s_y <= mixed + atol)

    def _mixture_targets(self, ys):
        """Oracle entropy, amount, entropy atol and composition tag of each
        of ``ys``; None unless all are single states with finite values.
        The answer for the last tuple is kept: a tuple of frozen states
        cannot change."""
        if self._last_targets[0] is ys:
            return self._last_targets[1]
        if not all(isinstance(y, State) for y in ys):
            return None
        owners = [self._resolve(y.space_id) for y in ys]
        s_y = np.array([m.oracle_entropy(y) for y, (m, _) in zip(ys, owners)], dtype=float)
        amount_y = np.array([y.scale for y in ys], dtype=float)
        if not (np.isfinite(s_y).all() and np.isfinite(amount_y).all()):
            return None
        targets = (
            s_y,
            amount_y,
            np.array([m.entropy_atol for m, _ in owners], dtype=float),
            [sp.composition_tag for _, sp in owners],
        )
        if isinstance(ys, tuple):
            self._last_targets = (ys, targets)
        return targets

    def sample(self, rng, n: int) -> list:
        """Draw n universe elements (finite: with replacement from the list)."""
        if self.mode == "finite":
            if not self.elements:
                return []
            return [self.elements[rng.randrange(len(self.elements))] for _ in range(n)]
        engine = self.models[0].process_engine
        return [engine.sample_state(rng) for _ in range(n)]


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
