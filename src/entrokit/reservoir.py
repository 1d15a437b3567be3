"""Entropy from thermal reservoirs and standard weight processes.

A thermal reservoir here is the exact idealization: fixed regions of space
and an entropy-energy relation that is affine with slope 1/T at every
energy.  Temperature is the ratio of reservoir energy changes in reversible
standard weight processes against a reference reservoir, whose 273.16 K is
a convention; entropy differences are reservoir energy changes divided by
that temperature.  The checks in this module replay the construction's
structural claims on concrete models:
minimality of the reversible reservoir drain, universality of temperature
ratios, entropy nondecrease, and the bridge from plain weight-process
comparability to reversible reservoir connection.
"""

from __future__ import annotations

import math
import random
from typing import Sequence

from .axioms import CheckResult, not_applicable, verdict
from .core import (
    FrozenRecord,
    ModelSystem,
    ProcessRecord,
    State,
    StateKind,
    StateLike,
    parts_of,
    states_equal,
)
from .errors import (
    DegenerateProbeError,
    DomainError,
    EngineError,
    PreconditionError,
)
from .interpolation import EntropyTable

REFERENCE_TEMPERATURE = 273.16  # kelvin, by convention
RATIO_REL_TOL = 1e-9
NONDECREASE_ZERO = 1e-12
BOOKKEEPING_TOL = 1e-12
CARNOT_REL_TOL = 1e-7


class Reservoir(FrozenRecord):
    """A thermal reservoir: fixed regions of space and an exactly affine
    entropy-energy relation with slope 1/T, so any reservoir entropy change
    dS is realized by the energy change T dS.
    """

    def __init__(self, id: str, temperature: float):
        if not (temperature > 0 and math.isfinite(temperature)):
            raise DomainError("reservoir temperature must be positive")
        self.__dict__.update(id=id, temperature=temperature)

    def delta_energy_for_delta_entropy(self, d_entropy: float) -> float:
        """Energy change realizing a given reservoir entropy change."""
        return self.temperature * d_entropy


class ReferenceReservoir(FrozenRecord):
    """The reservoir that pins the temperature scale, at exactly 273.16 K."""

    def __init__(self, reservoir: Reservoir):
        if reservoir.temperature != REFERENCE_TEMPERATURE:
            raise DomainError(
                f"reference reservoir must sit at {REFERENCE_TEMPERATURE} K exactly"
            )
        self.__dict__["reservoir"] = reservoir


def reference_reservoir() -> ReferenceReservoir:
    return ReferenceReservoir(Reservoir(id="reference", temperature=REFERENCE_TEMPERATURE))


class StandardWeightProcessRecord(FrozenRecord):
    """A standard weight process: reservoir end states are stable equilibria."""

    def __init__(self, system_pair: tuple[StateLike, StateLike], delta_e_r: float,
                 sigma: float = 0.0):
        if sigma < 0.0:
            raise DomainError("entropy generation cannot be negative")
        self.__dict__.update(system_pair=system_pair, delta_e_r=delta_e_r, sigma=sigma)

    @property
    def reversible(self) -> bool:
        return self.sigma == 0.0


def _require_separable_uncorrelated(*states: StateLike):
    for s in states:
        for p in parts_of(s):
            if not (p.separable and p.uncorrelated):
                raise PreconditionError(
                    "standard weight processes require separable, uncorrelated end states"
                )


def run_reversible_swp(
    model: ModelSystem,
    a1: StateLike,
    a2: StateLike,
    r: Reservoir,
) -> StandardWeightProcessRecord:
    """Execute a reversible standard weight process via the model's engine."""
    _require_separable_uncorrelated(a1, a2)
    return model.process_engine.reversible_swp(a1, a2, r)


def run_irreversible_swp(
    model: ModelSystem,
    a1: StateLike,
    a2: StateLike,
    r: Reservoir,
    sigma: float,
) -> StandardWeightProcessRecord:
    """Irreversible variant: the reservoir absorbs the generated entropy."""
    if not sigma > 0:
        raise DomainError(f"irreversible processes need sigma > 0, got {sigma!r}")
    rev = run_reversible_swp(model, a1, a2, r)
    return StandardWeightProcessRecord(
        system_pair=rev.system_pair,
        delta_e_r=rev.delta_e_r + r.delta_energy_for_delta_entropy(sigma),
        sigma=sigma,
    )


def temperature_of(
    r: Reservoir,
    r0: ReferenceReservoir,
    probe: tuple[ModelSystem, StateLike, StateLike],
) -> float:
    """Measured temperature: the reservoir-drain ratio against the reference,
    scaled to 273.16 K.  The ratio is taken first, so the reference reads
    exactly 273.16 K on any probe."""
    model, a1, a2 = probe
    rec_r = run_reversible_swp(model, a1, a2, r)
    rec_0 = run_reversible_swp(model, a1, a2, r0.reservoir)
    if rec_0.delta_e_r == 0.0 or rec_r.delta_e_r == 0.0:
        raise DegenerateProbeError(
            "probe pair has zero entropy difference; temperature ratio is 0/0"
        )
    return REFERENCE_TEMPERATURE * (rec_r.delta_e_r / rec_0.delta_e_r)


def temperature_ratio_independence(
    r1: Reservoir,
    r2: Reservoir,
    probes: Sequence[tuple[ModelSystem, StateLike, StateLike]],
    *,
    rel_tol: float = RATIO_REL_TOL,
) -> CheckResult:
    """The drain ratio between two reservoirs is positive and probe-free."""
    if len(probes) < 2 or len({model.id for model, _, _ in probes}) < 2:
        raise DomainError("need at least two probes over at least two systems")
    ratios = []
    skipped = 0
    witnesses = []
    for model, a1, a2 in probes:
        d1 = run_reversible_swp(model, a1, a2, r1).delta_e_r
        d2 = run_reversible_swp(model, a1, a2, r2).delta_e_r
        if d1 == 0.0 or d2 == 0.0:
            skipped += 1
            continue
        ratio = d1 / d2
        if ratio <= 0:
            witnesses.append((model.id, a1, a2, ratio))
        ratios.append(ratio)
    if not ratios:
        return not_applicable("temperature_ratio_independence", "all probes degenerate")
    spread = (max(ratios) - min(ratios)) / abs(ratios[0])
    ok = not (witnesses or spread > rel_tol)
    message = f"{skipped} degenerate probe(s) skipped" if skipped else ""
    if ok and not message:
        message = f"ratio {ratios[0]:.12g}, spread {spread:.3e}"
    return verdict(
        "temperature_ratio_independence", ok,
        witnesses or [("ratio_spread", spread, ratios)],
        samples_used=len(ratios), tolerance_used=rel_tol, message=message,
    )


def entropy_from_reservoir(
    model: ModelSystem,
    a0: StateLike,
    s0: float,
    r: Reservoir,
    states: Sequence[State],
) -> EntropyTable:
    """Entropy table anchored at (a0, s0): each entry is s0 minus the
    reversible reservoir drain divided by the reservoir temperature."""
    _require_separable_uncorrelated(a0)
    table = EntropyTable()
    for x in states:
        try:
            rec = run_reversible_swp(model, a0, x, r)
        except (EngineError, PreconditionError) as exc:
            table.skipped[x] = str(exc)
            continue
        table.entries[x] = s0 - rec.delta_e_r / r.temperature
    return table


def check_reservoir_independence(
    model: ModelSystem,
    pair: tuple[StateLike, StateLike],
    reservoirs: Sequence[Reservoir],
    *,
    rel_tol: float = RATIO_REL_TOL,
) -> CheckResult:
    """delta_E_R / T_R for one pair agrees across reservoirs."""
    if len({r.temperature for r in reservoirs}) < 2:
        raise DomainError("need at least two reservoirs with distinct temperatures")
    a1, a2 = pair
    values = []
    for r in reservoirs:
        rec = run_reversible_swp(model, a1, a2, r)
        values.append(rec.delta_e_r / r.temperature)
    scale = max(abs(v) for v in values)
    if scale == 0.0:
        return not_applicable("reservoir_independence", "degenerate probe pair")
    spread = (max(values) - min(values)) / scale
    return verdict(
        "reservoir_independence", not spread > rel_tol,
        [(pair, [r.id for r in reservoirs], values)],
        samples_used=len(reservoirs), tolerance_used=rel_tol,
    )


def check_carnot_agreement(
    model: ModelSystem,
    pairs: Sequence[tuple[StateLike, StateLike]],
    r: Reservoir,
    *,
    rel_tol: float = CARNOT_REL_TOL,
) -> CheckResult:
    """The quasistatic path-integral route reproduces the engine's reservoir
    drain on every pair.  A model without that route raises the engine's
    CapabilityError."""
    witnesses = []
    worst = 0.0
    for a1, a2 in pairs:
        drain = run_reversible_swp(model, a1, a2, r).delta_e_r
        carnot = model.process_engine.carnot_reservoir_delta(a1, a2, r)
        scale = max(abs(drain), abs(carnot), 1e-30)
        diff = abs(drain - carnot) / scale
        worst = max(worst, diff)
        if diff > rel_tol:
            witnesses.append((a1, a2, drain, carnot))
    return verdict(
        "carnot_agreement", not witnesses, witnesses,
        samples_used=len(pairs), tolerance_used=rel_tol,
        message="" if witnesses else f"max relative difference {worst:.3e}",
    )


def check_pmm2(
    model: ModelSystem, ses: State, attempts: int = 1000, *, seed=0
) -> CheckResult:
    """No weight process from a stable equilibrium state of a normal system
    lowers its energy at fixed regions of space."""
    if not model.is_normal:
        return not_applicable("pmm2", f"model {model.id!r} is not normal (bounded energy)")
    if ses.kind is not StateKind.STABLE_EQUILIBRIUM:
        return not_applicable("pmm2", "initial state is not a stable equilibrium state")
    rng = random.Random(seed)
    witnesses = []
    used = 0
    for _ in range(attempts):
        rec = model.process_engine.attempt_process_at_fixed_region(ses, rng)
        used += 1
        if rec is not None and rec.final.energy < ses.energy - 1e-12:
            witnesses.append(rec)
            break
    return verdict("pmm2", not witnesses, witnesses, samples_used=used)


def check_lower_bound(
    model: ModelSystem,
    pair: tuple[StateLike, StateLike],
    r: Reservoir,
    n_irr: int = 100,
    *,
    seed=0,
) -> CheckResult:
    """The reversible reservoir drain is the strict minimum over standard
    weight processes, and every irreversible drain satisfies the strict
    entropy inequality."""
    if n_irr < 1:
        raise DomainError("need at least one irreversible draw")
    rng = random.Random(seed)
    a1, a2 = pair
    rev = run_reversible_swp(model, a1, a2, r)
    ds = -rev.delta_e_r / r.temperature
    witnesses = []
    for _ in range(n_irr):
        sigma = rng.uniform(0.001, 1.0)
        irr = run_irreversible_swp(model, a1, a2, r, sigma)
        if not irr.delta_e_r > rev.delta_e_r:
            witnesses.append(("not_strictly_above", sigma, irr.delta_e_r, rev.delta_e_r))
        if not (-irr.delta_e_r / r.temperature < ds):
            witnesses.append(("entropy_inequality", sigma, irr.delta_e_r))
    # sigma = 0 reproduces the minimum exactly.
    again = run_reversible_swp(model, a1, a2, r)
    if again.delta_e_r != rev.delta_e_r:
        witnesses.append(("reversible_not_reproducible", again.delta_e_r, rev.delta_e_r))
    return verdict("lower_bound", not witnesses, witnesses, samples_used=n_irr + 2)


def check_entropy_nondecrease(
    model: ModelSystem,
    weight_processes: Sequence[ProcessRecord],
    *,
    zero_tol: float = NONDECREASE_ZERO,
) -> CheckResult:
    """For plain weight processes, zero entropy change exactly characterizes
    reversibility and positive change irreversibility."""
    witnesses = []
    for rec in weight_processes:
        ds = _oracle_delta(model, rec)
        is_zero = abs(ds) < zero_tol
        if ds < -zero_tol:
            witnesses.append(("entropy_decrease", rec, ds))
        elif is_zero != rec.reversible:
            label = "zero_but_irreversible" if is_zero else "positive_but_reversible"
            witnesses.append((label, rec, ds))
    return verdict(
        "entropy_nondecrease", not witnesses, witnesses,
        samples_used=len(weight_processes), tolerance_used=zero_tol,
    )


def _oracle_delta(model: ModelSystem, rec: ProcessRecord) -> float:
    s_initial = sum(model.oracle_entropy(p) for p in parts_of(rec.initial))
    s_final = sum(model.oracle_entropy(p) for p in parts_of(rec.final))
    return s_final - s_initial


# ---------------------------------------------------------------------------
# Bridge: comparability -> the structural assumptions
# ---------------------------------------------------------------------------

def derive_assumptions_from_comparability(
    model: ModelSystem,
    r: Reservoir,
    *,
    samples: int = 25,
    seed=0,
    sigma_tol: float = BOOKKEEPING_TOL,
) -> CheckResult:
    """From comparability and the order axioms, recover the two structural
    assumptions: relaxation to the equal-energy stable state, and a reversible
    reservoir connection between arbitrary pairs via equal-entropy stable
    anchors."""
    rng = random.Random(seed)
    engine = model.process_engine
    rel = model.relation()
    witnesses = []
    used = 0

    for _ in range(samples):
        x = (
            engine.sample_nonequilibrium(rng)
            if rng.random() < 0.5
            else engine.sample_state(rng)
        )
        used += 1
        ses = engine.ses_with_energy(x.energy, x.region)
        if not states_equal(ses, x) and x.kind is StateKind.NONEQUILIBRIUM:
            if not rel.leq(x, ses):
                witnesses.append(("relaxation_missing", x, ses))
            if rel.leq(ses, x):
                witnesses.append(("relaxation_reversible", x, ses))
        elif not rel.leq(x, ses):
            witnesses.append(("relaxation_missing", x, ses))

    for _ in range(samples):
        a1 = engine.sample_nonequilibrium(rng)
        a2 = engine.sample_nonequilibrium(rng)
        used += 1
        chain, total_sigma = engine.reversible_chain_via_ses(a1, a2, r)
        if total_sigma > sigma_tol:
            witnesses.append(("chain_sigma", a1, a2, total_sigma))
        first, last = chain[0], chain[-1]
        if not states_equal(first.initial, a1) or not states_equal(last.final, a2):
            witnesses.append(("chain_endpoints", a1, a2))

    return verdict(
        "derive_assumptions", not witnesses, witnesses, samples_used=used,
        tolerance_used=sigma_tol,
    )
