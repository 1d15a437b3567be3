"""Concrete model systems with closed-form oracles and process engines.

The engines play nature: they execute weight processes, polygonal chains,
and standard weight processes consistently with each model's oracle entropy
(total entropy never decreases, reversible means zero generation).  The
ideal gas also states its equation of state, temperature and pressure as
functions of its (U, V) coordinates at a given amount.  Two quasistatic
readers use it: the reservoir drain as a path integral of (dU + p dV)/T,
and the gas's simple system, which the caratheodory suite checks.
"""

from __future__ import annotations

import json
import math
import random
from math import lgamma

from .core import (
    AccessibilityRelation,
    ModelSystem,
    ProcessRecord,
    Record,
    State,
    StateKind,
    parts_of,
)
from .energy import AGAINST, ALONG, WeightPolygonal
from .errors import CapabilityError, DomainError, EngineError, ParseError
from .pfaffian import SimpleSystemModel
from .quadrature import line_integral
from .reservoir import Reservoir, StandardWeightProcessRecord

R_GAS = 8.314462618  # J/(mol K)
K_BOLTZMANN = 1.380649e-23  # J/K

REVERSIBLE_DS_TOL = 1e-12  # below this, a process counts as entropy-preserving

# The gas's isentropic partner of a state grows its volume by a factor of at
# most this, and so shrinks its energy by up to this ** (1 / c_v_hat).
ISENTROPIC_FACTOR_MAX = 1.3

# The gas keeps sampled nonequilibrium entropies this far inside the box's
# entropy range at each end, so the range must be wider than twice this.
NONEQ_ENTROPY_MARGIN = 1.0  # J/K

# The gas's equivalence tolerance: oracle entropies this close compare as
# equal.
GAS_ENTROPY_ATOL = 1e-10  # J/K

# The gas's Carathéodory window, as (temperature in K, volume in m^3) ranges:
# the box of its simple system, and the inner box where the caratheodory
# suite draws its paths and states.
CARATHEODORY_BOX = ((300.0, 600.0), (0.01, 0.02))
CARATHEODORY_INNER_BOX = ((320.0, 580.0), (0.011, 0.019))

# Model parameters are kept to these magnitudes, so that every product and
# quotient the oracles and engines form stays a finite, nonzero float.
PARAM_MIN, PARAM_MAX = 1e-100, 1e100


def _check_param(name: str, value: float, low: float = PARAM_MIN):
    if not low <= value <= PARAM_MAX:
        raise DomainError(f"{name} must lie in [{low:g}, {PARAM_MAX:g}], got {value!r}")


def _state_kind(deficit: float) -> StateKind:
    return StateKind.NONEQUILIBRIUM if deficit > 0 else StateKind.STABLE_EQUILIBRIUM


class _EngineBase:
    """Common bookkeeping for oracle-driven engines.

    An engine is the one declaration of its model, which ``ModelSystem``
    reads.  A subclass sets ``model_id``, ``space_id``, ``composition_tag``,
    ``entropy_atol`` and ``energy_bounds`` at construction, and defines
    ``oracle_entropy``, ``sample_states`` and its state constructors, and
    ``scale_state``, ``isentropic_partner`` and ``scaled_entropies`` where
    the model has them.
    """

    def sample_state(self, rng: random.Random) -> State:
        """One state, as ``sample_states`` draws it."""
        return self.sample_states(rng, 1)[0]

    def _delta_s(self, a, b) -> float:
        sa = sum(self.oracle_entropy(p) for p in parts_of(a))
        sb = sum(self.oracle_entropy(p) for p in parts_of(b))
        return sb - sa

    def weight_process(self, a, b) -> ProcessRecord:
        """A weight process from a to b; nature refuses entropy decreases."""
        ds = self._delta_s(a, b)
        if ds < -REVERSIBLE_DS_TOL:
            raise EngineError(
                "nature refuses: the requested weight process would lower entropy "
                f"by {-ds:.3e} J/K",
                witness=(a, b),
            )
        return self._record(a, b, ds)

    def _oriented_process(self, a, b, cutoff: float):
        """The weight process from a to b (ALONG) where its entropy change is
        at least ``cutoff``, else from b to a (AGAINST), and that direction.
        The change is computed once: the reverse's is its negation, exactly,
        since each side's sum is computed on its own."""
        ds = self._delta_s(a, b)
        if ds >= cutoff:
            return self._record(a, b, ds), ALONG
        return self._record(b, a, -ds), AGAINST

    @staticmethod
    def _record(a, b, ds: float) -> ProcessRecord:
        sigma = ds if ds >= REVERSIBLE_DS_TOL else 0.0
        ea = sum(p.energy for p in parts_of(a))
        eb = sum(p.energy for p in parts_of(b))
        return ProcessRecord(a, b, work_done=ea - eb, sigma=sigma)

    def connect_polygonal(self, a, b, rng: random.Random, legs: int = None) -> WeightPolygonal:
        """A random chain of weight processes joining a to b, each leg
        traversed in whichever direction nature permits."""
        if legs is None:
            legs = rng.randint(1, 4)
        if legs < 1:
            raise DomainError("a polygonal needs at least one leg")
        chain = [a, *self.sample_states(rng, legs - 1), b]
        leg_records = tuple(
            self._oriented_process(p, q, -REVERSIBLE_DS_TOL) for p, q in zip(chain, chain[1:])
        )
        return WeightPolygonal(leg_records, (a, b))

    def reversible_swp(self, a, b, r: Reservoir) -> StandardWeightProcessRecord:
        """Reversible standard weight process: the reservoir absorbs exactly
        the opposite of the system's entropy change."""
        ds_system = self._delta_s(a, b)
        delta = r.delta_energy_for_delta_entropy(-ds_system)
        return StandardWeightProcessRecord(system_pair=(a, b), delta_e_r=delta)

    def carnot_reservoir_delta(self, a, b, r: Reservoir) -> float:
        raise CapabilityError(
            f"model {self.model_id!r} provides no quasistatic integrator"
        )

    def simple_system(self) -> SimpleSystemModel:
        raise CapabilityError("quasistatic structure needs a simple system")

    def sample_nonequilibrium(self, rng: random.Random) -> State:
        raise CapabilityError("model has no nonequilibrium state family")

    def reversible_chain_via_ses(self, a1, a2, r: Reservoir):
        """a1 -> equal-entropy stable state -> (reservoir process) -> stable
        anchor of a2 -> a2; reversible end to end."""
        s1 = sum(self.oracle_entropy(p) for p in parts_of(a1))
        s2 = sum(self.oracle_entropy(p) for p in parts_of(a2))
        a3 = self.ses_with_entropy(s1, a1.region)
        a4 = self.ses_with_entropy(s2, a2.region)
        rec1 = self.weight_process(a1, a3)
        rec2 = self.reversible_swp(a3, a4, r)
        rec3 = self.weight_process(a4, a2)
        solver_residual = abs(self._delta_s(a1, a3)) + abs(self._delta_s(a4, a2))
        total_sigma = rec1.sigma + rec2.sigma + rec3.sigma + solver_residual
        return [rec1, rec2, rec3], total_sigma


# ---------------------------------------------------------------------------
# Ideal gas
# ---------------------------------------------------------------------------

class IdealGasEngine(_EngineBase):
    def __init__(self, n: float, c_v_hat: float, gauge: tuple[float, float, float],
                 box: tuple[tuple[float, float], tuple[float, float]], model_id: str):
        self.model_id = model_id
        self.space_id = f"{model_id}:base"
        self.composition_tag = f"gas:n={n}:cv={c_v_hat}"
        self.entropy_atol = GAS_ENTROPY_ATOL
        self.energy_bounds = None
        self.n0 = n
        self.cv = c_v_hat
        self.u_star, self.v_star, self.s_star = gauge
        self.box = box
        # The oracle entropies of the box's lower and upper corners.
        (ulo, uhi), (vlo, vhi) = box
        self.entropy_range = (
            self.oracle_entropy(self.state(ulo, vlo)),
            self.oracle_entropy(self.state(uhi, vhi)),
        )

    # -- state plumbing -------------------------------------------------

    def n_eff(self, state: State) -> float:
        return self.n0 * state.scale

    def state(self, u: float, v: float, deficit: float = 0.0,
              scale: float = 1.0) -> State:
        if u <= 0 or v <= 0:
            raise DomainError(f"ideal gas needs U > 0 and V > 0, got ({u}, {v})")
        if deficit < 0:
            raise DomainError("entropy deficit cannot be negative")
        return State(
            space_id=self.space_id,
            coords=(u, v, deficit),
            energy=u,
            region=("vol", v),
            kind=_state_kind(deficit),
            scale=scale,
        )

    def oracle_entropy(self, state: State) -> float:
        u, v, deficit = state.coords
        n = self.n_eff(state)
        s_eq = n * R_GAS * (
            self.cv * math.log(u / (n * self.u_star))
            + math.log(v / (n * self.v_star))
        ) + n * self.s_star
        return s_eq - deficit

    def scaled_entropies(self, states: list[State], index: list[int],
                         ts: list[float]) -> list[float]:
        """``oracle_entropy(scale_state(states[index[i]], ts[i]))`` for every
        i, bit for bit: the same float operations in the same order.  A copy
        that ``scale_state`` refuses, or whose log argument is not positive,
        gets NaN."""
        n0, u_star, v_star, s_star, cv = self.n0, self.u_star, self.v_star, self.s_star, self.cv
        columns = [(*s.coords, s.scale) for s in states]
        out = []
        # A copy's log arguments are intensive, so the copies of a state repeat
        # them up to rounding: a log is taken when its argument changes.
        last_u = last_v = log_u = log_v = math.nan
        for (u, v, deficit, scale), t in zip(map(columns.__getitem__, index), ts):
            n = n0 * (t * scale)
            nu = n * u_star
            nv = n * v_star
            # Each divisor and log argument is tested before it is used, where
            # oracle_entropy or scale_state would raise.
            if nu > 0 and nv > 0 and (lu := t * u / nu) > 0 and (lv := t * v / nv) > 0:
                if lu != last_u:
                    last_u, log_u = lu, math.log(lu)
                if lv != last_v:
                    last_v, log_v = lv, math.log(lv)
                out.append(n * R_GAS * (cv * log_u + log_v) + n * s_star - t * deficit)
            else:
                out.append(math.nan)
        return out

    def scale_state(self, state: State, t: float) -> State:
        u, v, deficit = state.coords
        u, v, scale = t * u, t * v, t * state.scale
        n = self.n0 * scale
        if not (u > 0 and v > 0 and n * self.u_star > 0 and n * self.v_star > 0):
            raise DomainError(
                f"scale factor {t!r} underflows the scaled copy: its U, V, "
                f"n * u_star and n * v_star must stay > 0"
            )
        return State(
            space_id=state.space_id,
            coords=(u, v, t * deficit),
            energy=u,
            region=("vol", v),
            kind=state.kind,
            scale=scale,
        )

    # -- sampling --------------------------------------------------------

    def sample_states(self, rng: random.Random, n: int) -> list[State]:
        """n stable states drawn uniformly from the box, U then V of each by
        ``random.uniform``'s formula, so the rng is read as n ``sample_state``
        calls read it."""
        (ulo, uhi), (vlo, vhi) = self.box
        du, dv = uhi - ulo, vhi - vlo
        draw, space_id = rng.random, self.space_id
        states = []
        for _ in range(n):
            u = ulo + du * draw()
            v = vlo + dv * draw()
            if u <= 0 or v <= 0:
                self.state(u, v)  # raises
            states.append(State(space_id, (u, v, 0.0), u, ("vol", v)))
        return states

    def sample_nonequilibrium(self, rng: random.Random) -> State:
        lo, hi = self.entropy_range
        for _ in range(1000):
            base = self.sample_state(rng)
            deficit = rng.uniform(0.05, 1.5)
            s = self.oracle_entropy(base) - deficit
            if lo + NONEQ_ENTROPY_MARGIN < s < hi - NONEQ_ENTROPY_MARGIN:
                return self.state(base.coords[0], base.coords[1], deficit)
        raise EngineError("could not sample a bracketed nonequilibrium state")

    def grid(self, nu: int = 21, nv: int = 21) -> list[State]:
        (ulo, uhi), (vlo, vhi) = self.box
        vs = _linspace(vlo, vhi, nv)
        return [self.state(u, v) for u in _linspace(ulo, uhi, nu) for v in vs]

    def gamma_grid(self) -> list[State]:
        # Deterministic equilibrium covering of the box, corners included,
        # so sandwich searches can bracket any interior entropy value.
        return self.grid(7, 7)

    def isentropic_partner(self, state: State, rng: random.Random) -> State:
        """A distinct state on the same entropy level set."""
        u, v, deficit = state.coords
        factor = rng.uniform(1.05, ISENTROPIC_FACTOR_MAX)
        v2 = v * factor
        u2 = u * factor ** (-1.0 / self.cv)
        return self.state(u2, v2, deficit, scale=state.scale)

    # -- stable-state solvers ---------------------------------------------

    def ses_with_energy(self, energy: float, region) -> State:
        _, v = region
        return self.state(energy, v)

    def ses_with_entropy(self, s_target: float, region) -> State:
        _, v = region
        n = self.n0
        log_u = (
            (s_target - n * self.s_star) / (n * R_GAS)
            - math.log(v / (n * self.v_star))
        ) / self.cv
        return self.state(n * self.u_star * math.exp(log_u), v)

    # -- processes ---------------------------------------------------------

    def raise_energy(self, state: State, de: float) -> ProcessRecord:
        """Stirring: energy up at fixed regions, landing on the stable state."""
        if de <= 0:
            raise DomainError("stirring must raise the energy")
        u, v, _ = state.coords
        return self.weight_process(state, self.state(u + de, v))

    def attempt_process_at_fixed_region(self, start: State, rng: random.Random):
        """Propose a random weight process keeping the regions fixed; returns
        None when nature refuses it."""
        u, v, _ = start.coords
        u2 = u * math.exp(rng.uniform(-0.5, 0.5))
        deficit = 0.0 if rng.random() < 0.5 else rng.uniform(0.0, 0.5)
        candidate = self.state(u2, v, deficit)
        try:
            return self.weight_process(start, candidate)
        except EngineError:
            return None

    def random_weight_processes(self, n: int, rng: random.Random) -> list[ProcessRecord]:
        records = []
        while len(records) < n:
            draw = rng.random()
            a = self.sample_state(rng)
            if draw < 0.4:
                b = self.isentropic_partner(a, rng)
                records.append(self.weight_process(a, b))
            elif draw < 0.7:
                records.append(self.raise_energy(a, rng.uniform(10.0, 500.0)))
            else:
                rec, _ = self._oriented_process(a, self.sample_state(rng), 0.0)
                if not rec.reversible:
                    records.append(rec)
        return records

    # -- equation of state and the quasistatic readers ---------------------

    def temperature(self, u: float, v: float, n: float) -> float:
        """T of the stable state with energy u and volume v of amount n."""
        return u / (self.cv * n * R_GAS)

    def pressure(self, u: float, v: float, n: float) -> float:
        """p of the same state: p V = n R T."""
        return u / (self.cv * v)

    def carnot_reservoir_delta(self, a: State, b: State, r: Reservoir) -> float:
        """Reservoir drain via the integral of (dU + p dV)/T along the
        straight path from a to b, from the equation of state alone."""
        for s in (a, b):
            if s.coords[2] != 0.0:
                raise CapabilityError(
                    "the quasistatic route joins stable equilibrium states only"
                )
        n_a = self.n_eff(a)
        if not math.isclose(n_a, self.n_eff(b), rel_tol=1e-12):
            raise CapabilityError("end states must carry the same amount")
        temperature, pressure = self.temperature, self.pressure

        def heat_over_t(coords: tuple[float, float]) -> tuple[float, float]:
            u, v = coords
            t = temperature(u, v, n_a)
            return 1.0 / t, pressure(u, v, n_a) / t

        (u0, v0, _), (u1, v1, _) = a.coords, b.coords
        du, dv = u1 - u0, v1 - v0

        def segment(s: float):
            return (u0 + s * du, v0 + s * dv), (du, dv)

        ds_system = line_integral(heat_over_t, [segment]).value
        return r.delta_energy_for_delta_entropy(-ds_system)

    def simple_system(self) -> SimpleSystemModel:
        """The gas of amount n0 as a simple system in (U, V), with the work
        form p dV and the temperature T of its equation of state.  dU + p dV
        collapses to M dx0 with M = U/cv and the adiabat label
        x0 = cv ln U + ln V, factorized as M = T alpha with alpha = n R and
        c = 1.  Its boxes are the Carathéodory window's, with U = cv n R T."""
        n, cv = self.n0, self.cv
        heat_capacity = cv * n * R_GAS

        def in_u(window):
            (t_lo, t_hi), volumes = window
            return (heat_capacity * t_lo, heat_capacity * t_hi), volumes

        return SimpleSystemModel(
            p_fns=(lambda c: self.pressure(c[0], c[1], n),),
            m_fn=lambda c: c[0] / cv,
            x0_fn=lambda c: cv * math.log(c[0]) + math.log(c[1]),
            tau_fn=lambda c: self.temperature(c[0], c[1], n),
            f_fn=lambda tau: tau,
            alpha_fn=lambda x0: n * R_GAS,
            c=1.0,
            coord_box=in_u(CARATHEODORY_BOX),
            inner_box=in_u(CARATHEODORY_INNER_BOX),
            x0_grad_fn=lambda c: (cv / c[0], 1.0 / c[1]),
        )


def _linspace(start: float, stop: float, num: int) -> list[float]:
    """``num`` >= 2 evenly spaced floats from start to stop, each start +
    i * step, except that the last one is stop itself."""
    step = (stop - start) / (num - 1)
    return [start + i * step for i in range(num - 1)] + [stop]


def ideal_gas(
    n: float = 1.0,
    c_v_hat: float = 1.5,
    gauge: tuple[float, float, float] = (1.0, 1.0, 0.0),
    box: tuple[tuple[float, float], tuple[float, float]] = ((500.0, 10000.0), (0.005, 0.1)),
    model_id: str = "idealgas",
) -> ModelSystem:
    """Monatomic-by-default ideal gas with scaling support and both reservoir
    routes."""
    _check_param("n", n)
    _check_param("c_v_hat", c_v_hat)
    u_star, v_star, s_star = gauge
    _check_param("gauge u_star", u_star)
    _check_param("gauge v_star", v_star)
    _check_param("gauge |s_star|", abs(s_star), low=0.0)
    offset = n * s_star
    if math.ulp(offset) > GAS_ENTROPY_ATOL:
        # Floats below this power of two lie at most the tolerance apart.
        limit = 2.0 ** (math.floor(math.log2(GAS_ENTROPY_ATOL)) + 53)
        raise DomainError(
            f"gauge s_star={s_star!r} with n={n!r} adds n * s_star = {offset:.3g} J/K "
            f"to every entropy, where floats lie {math.ulp(offset):.3g} J/K apart, "
            f"coarser than the gas's {GAS_ENTROPY_ATOL:g} J/K equivalence tolerance, "
            f"so entropy differences round away; |n * s_star| must stay below {limit:g} J/K"
        )
    for axis, (lo, hi) in zip("UV", box):
        _check_param(f"box {axis} lower bound", lo)
        _check_param(f"box {axis} upper bound", hi)
        if not lo < hi:
            raise DomainError(f"box {axis} bounds must satisfy lower < upper, got {[lo, hi]}")
    # As floats, whatever number type the caller gave.
    box = tuple((float(lo), float(hi)) for lo, hi in box)
    if not box[0][0] * ISENTROPIC_FACTOR_MAX ** (-1.0 / c_v_hat) > 0:
        raise DomainError(
            f"c_v_hat is too small for the box: an isentropic partner of a state "
            f"at the lower U bound would have U = {box[0][0]:g} * "
            f"{ISENTROPIC_FACTOR_MAX} ** (-1/c_v_hat) = 0, got c_v_hat={c_v_hat!r}"
        )
    (ulo, uhi), (vlo, vhi) = box
    width = n * R_GAS * (c_v_hat * math.log(uhi / ulo) + math.log(vhi / vlo))
    if not width > 2 * NONEQ_ENTROPY_MARGIN:
        raise DomainError(
            f"n={n!r}, c_v_hat={c_v_hat!r} and box={[list(b) for b in box]} span "
            f"n R (c_v_hat ln(U_hi/U_lo) + ln(V_hi/V_lo)) = {width:.3g} J/K of "
            f"entropy; nonequilibrium states need more than "
            f"{2 * NONEQ_ENTROPY_MARGIN:g} J/K"
        )
    return ModelSystem(IdealGasEngine(n, c_v_hat, gauge, box, model_id))


# ---------------------------------------------------------------------------
# Two-level spin system
# ---------------------------------------------------------------------------

class TwoLevelSpinEngine(_EngineBase):
    def __init__(self, n_particles: int, eps: float, model_id: str):
        self.model_id = model_id
        self.space_id = f"{model_id}:base"
        self.composition_tag = f"spin:N={n_particles}:eps={eps}"
        self.entropy_atol = K_BOLTZMANN * n_particles * 1e-13
        self.n_particles = n_particles
        self.eps = eps
        self.e_max = n_particles * eps
        self.energy_bounds = (0.0, self.e_max)
        self.box = (0.05 * self.e_max, 0.95 * self.e_max)
        # The least entropy of a sampled stable state.
        self.s_lo = self.equilibrium_entropy(self.box[0])

    def state(self, e: float, deficit: float = 0.0) -> State:
        if not 0.0 <= e <= self.e_max:
            raise DomainError(
                f"spin energy must lie in [0, {self.e_max:.3e}] J, got {e:.3e}"
            )
        return State(
            space_id=self.space_id,
            coords=(e, deficit),
            energy=e,
            region=("lattice", self.n_particles),
            kind=_state_kind(deficit),
        )

    def equilibrium_entropy(self, e: float) -> float:
        x = e / self.eps
        n = self.n_particles
        return K_BOLTZMANN * (lgamma(n + 1.0) - lgamma(x + 1.0) - lgamma(n - x + 1.0))

    def oracle_entropy(self, state: State) -> float:
        e, deficit = state.coords
        return self.equilibrium_entropy(e) - deficit

    def sample_states(self, rng: random.Random, n: int) -> list[State]:
        """n stable states with energies drawn uniformly from the box, by
        ``random.uniform``'s formula."""
        lo, hi = self.box
        width, draw = hi - lo, rng.random
        space_id, region = self.space_id, ("lattice", self.n_particles)
        states = []
        for _ in range(n):
            e = lo + width * draw()
            if not 0.0 <= e <= self.e_max:
                self.state(e)  # raises
            states.append(State(space_id, (e, 0.0), e, region))
        return states

    def gamma_grid(self) -> list[State]:
        lo, hi = self.box
        return [self.state(e) for e in _linspace(lo, hi, 25)]

    def sample_nonequilibrium(self, rng: random.Random) -> State:
        for _ in range(1000):
            e = rng.uniform(0.2 * self.e_max, 0.8 * self.e_max)
            deficit = rng.uniform(1.0, 5.0) * K_BOLTZMANN
            if self.equilibrium_entropy(e) - deficit > self.s_lo + K_BOLTZMANN:
                return self.state(e, deficit)
        raise EngineError("could not sample a bracketed nonequilibrium spin state")

    def ses_with_energy(self, energy: float, region) -> State:
        return self.state(energy)

    def ses_with_entropy(self, s_target: float, region) -> State:
        # Increasing branch only: energies below the entropy maximum.
        lo, hi = 0.0, self.e_max / 2.0
        if not (self.equilibrium_entropy(lo) <= s_target <= self.equilibrium_entropy(hi)):
            raise EngineError(
                f"spin entropy target {s_target:.3e} J/K outside reachable range"
            )
        # Bisection for at most 200 steps.  A step whose midpoint equals the
        # end it would replace leaves (lo, hi) as it was, and so would every
        # later step: the loop stops there with the same result.
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if self.equilibrium_entropy(mid) < s_target:
                if mid == lo:
                    break
                lo = mid
            else:
                if mid == hi:
                    break
                hi = mid
        return self.state(0.5 * (lo + hi))

    def random_weight_processes(self, n: int, rng: random.Random) -> list[ProcessRecord]:
        records = []
        while len(records) < n:
            rec, _ = self._oriented_process(*self.sample_states(rng, 2), 0.0)
            # A nearly reversible pair is recorded as the lower state's null process.
            records.append(self._record(rec.initial, rec.initial, 0.0) if rec.reversible else rec)
        return records


def two_level_spin(n_particles: int = 100, eps: float = 1e-21,
                   model_id: str = "spin") -> ModelSystem:
    """Bounded-energy spin bath; not normal, no scaled copies."""
    if not (isinstance(n_particles, int) and 2 <= n_particles <= PARAM_MAX):
        raise DomainError(
            f"n_particles must be an integer in [2, {PARAM_MAX:g}], got {n_particles!r}"
        )
    _check_param("eps", eps)
    return ModelSystem(TwoLevelSpinEngine(n_particles, eps, model_id))


# ---------------------------------------------------------------------------
# Finite preorder fixtures
# ---------------------------------------------------------------------------

class FinitePreorderFixture(Record):
    """An explicit relation over labelled states, as loaded from a file:
    bit j of ``rows[i]`` is set exactly when ids[i] ≼ ids[j]."""

    def __init__(self, ids: list, rows: list):
        self.__dict__.update(ids=ids, rows=rows)

    def relation(self) -> AccessibilityRelation:
        return AccessibilityRelation.finite(self.ids, self.rows)


def load_fixture(path) -> FinitePreorderFixture:
    """Parse a fixture file: states as JSON scalar ids (or objects with an
    ``"id"``), and relation pairs as two-id lists, set as row bits in file
    order."""
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ParseError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    except OSError as exc:
        raise ParseError(f"{path}: {exc}") from exc
    if not isinstance(raw, dict) or "states" not in raw or "pairs" not in raw:
        raise ParseError(f"{path}: fixture needs 'states' and 'pairs' keys")
    if not isinstance(raw["states"], list) or not isinstance(raw["pairs"], list):
        raise ParseError(f"{path}: 'states' and 'pairs' must be lists")
    index = {}  # state id -> its position in the file
    for entry in raw["states"]:
        if isinstance(entry, dict):
            if "id" not in entry:
                raise ParseError(f"{path}: state entry missing 'id': {entry!r}")
            sid = entry["id"]
        else:
            sid = entry
        if isinstance(sid, (list, dict)):
            raise ParseError(f"{path}: state id is not a JSON scalar: {entry!r}")
        if sid in index:
            raise ParseError(f"{path}: duplicate state id {sid!r}")
        index[sid] = len(index)
    rows = [0] * len(index)
    for i, pair in enumerate(raw["pairs"]):
        if not isinstance(pair, (list, tuple)) or len(pair) != 2:
            raise ParseError(f"{path}: pair #{i} is not a two-element list: {pair!r}")
        a, b = pair
        try:
            rows[index[a]] |= 1 << index[b]
        except (KeyError, TypeError):  # TypeError: an array or object names no state
            raise ParseError(f"{path}: pair #{i} references unknown state: {pair!r}") from None
    return FinitePreorderFixture(list(index), rows)


def chain_fixture(n: int) -> FinitePreorderFixture:
    """The total order 0 <= 1 <= ... <= n-1, reflexive-transitively closed."""
    return FinitePreorderFixture(list(range(n)), [(1 << n) - (1 << i) for i in range(n)])


def discrete_spin_fixture(n_particles: int = 12) -> FinitePreorderFixture:
    """The exact discrete levels of a small spin bath as a finite relation.

    Level k carries entropy ln C(N, k) (in units of k_B), so mirror levels k
    and N-k are genuinely equivalent; the relation is a total preorder and
    small enough for exhaustive order checks.
    """
    if not 2 <= n_particles <= 20:
        raise DomainError("exhaustive spin fixture needs 2 <= N <= 20 particles")
    ids = list(range(n_particles + 1))
    level = [math.comb(n_particles, k) for k in ids]
    rows = [sum(1 << b for b in ids if level[a] <= level[b]) for a in ids]
    return FinitePreorderFixture(ids, rows)


def random_closed_dag_fixture(n: int, seed: int = 0, density: float = 0.05) -> FinitePreorderFixture:
    """A random DAG closed under reflexivity and transitivity."""
    rng = random.Random(seed)
    # reach[i] is the bitset of the states i reaches.
    reach = [1 << i for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < density:
                reach[i] |= 1 << j
    # Warshall closure: whoever reaches k reaches all that k reaches.
    for k in range(n):
        bit = 1 << k
        for i in range(n):
            if reach[i] & bit:
                reach[i] |= reach[k]
    return FinitePreorderFixture(list(range(n)), reach)
