"""Targeted fault injection and the mutation coverage matrix.

Each mutation plants one defect and declares exactly which checks must fail
because of it.  Every defect is planted here, on a copy of its target; the
modules that define models, relations and reservoirs carry no hooks for
them.  The matrix runs the full check battery on the intact catalog
and on every mutant, then compares the set of newly failing checks against
the declaration; any difference, in either direction, is a finding about the
checks themselves.
"""

from __future__ import annotations

import copy
import random
from dataclasses import replace
from typing import Union

from .axioms import (
    CheckResult,
    CheckStatus,
    check_comparison,
    check_consistency,
    check_n1_n2,
    check_reflexivity,
    check_scaling_invariance,
    check_splitting,
    check_stability,
    check_transitivity,
    verdict,
)
from .catalog import FinitePreorderFixture, chain_fixture, ideal_gas
from .core import AccessibilityRelation, ModelSystem, states_equal
from .energy import check_path_independence
from .errors import CapabilityError, DomainError
from .reservoir import (
    Reservoir,
    check_entropy_additivity,
    check_entropy_nondecrease,
    check_lower_bound,
    check_pmm2,
    check_reservoir_independence,
    reference_reservoir,
    temperature_of,
)

# Each mutation, in the order the matrix runs them, and exactly the checks it
# must newly fail.
MUTATIONS = {
    "break_transitivity": frozenset({"transitivity"}),
    "break_scaling": frozenset({"scaling_invariance"}),
    "break_splitting": frozenset({"splitting"}),
    "composite_max": frozenset({"consistency", "splitting"}),
    "noisy_work": frozenset({"path_independence"}),
    "wrong_reservoir_temperature": frozenset(
        {"temperature_agreement", "reservoir_independence"}
    ),
    "strict_only_comparison": frozenset({"stability"}),
}

MutationTarget = Union[ModelSystem, FinitePreorderFixture, Reservoir]


class _MaxComposite(AccessibilityRelation):
    """A composite's entropy is the largest of its parts' instead of their sum."""

    def _combine_columns(self, columns: list[list[float]]) -> list[float]:
        return [max(values) for values in zip(*columns)]


class _StrictOnly(AccessibilityRelation):
    """Two single states are ordered by strict inequality only; the diagonal
    is kept, so every state still precedes itself."""

    def _compare_rows(self, xs, ys, a: list[float], b: list[float], atol: float) -> list[bool]:
        if len(xs) != 1 or len(ys) != 1:
            return super()._compare_rows(xs, ys, a, b, atol)
        return [
            u < v - atol or states_equal(self._row(xs, i), self._row(ys, i))
            for i, (u, v) in enumerate(zip(a, b))
        ]


class _MiscalibratedReservoir(Reservoir):
    """Its physics runs 10 % hotter than its declared temperature."""

    @property
    def t_eff(self) -> float:
        return 1.1 * self.temperature


def mutate_model(target: MutationTarget, mutation: str) -> MutationTarget:
    """A copy of the target with one planted defect; ``MUTATIONS`` names the
    checks that must now fail.  The target itself is unchanged."""
    if mutation not in MUTATIONS:
        raise DomainError(f"unknown mutation {mutation!r}")

    if mutation == "break_transitivity":
        if not isinstance(target, FinitePreorderFixture):
            raise CapabilityError("break_transitivity applies to finite fixtures")
        return _break_transitivity(target)

    if mutation == "wrong_reservoir_temperature":
        if not isinstance(target, Reservoir):
            raise CapabilityError("wrong_reservoir_temperature applies to reservoirs")
        return _MiscalibratedReservoir(**vars(target))

    if not isinstance(target, ModelSystem):
        raise CapabilityError(f"mutation {mutation!r} applies to model systems")

    if mutation in ("break_scaling", "break_splitting") and not target.supports_scaling:
        raise CapabilityError(f"mutation {mutation!r} needs a scalable model")

    clone = _clone_model(target)
    if mutation == "break_scaling":
        # Order-reversing only on enlarged copies: shrunk copies (splitting,
        # vanishing perturbations) stay intact, so only scaling invariance
        # can notice.
        _plant_oracle_defect(clone, lambda value, scale: -value if scale > 1.0 + 1e-12 else value)
    elif mutation == "break_splitting":
        # Superlinear scaling: a t-copy carries t times too much entropy, so
        # the split halves no longer recombine to the whole.
        _plant_oracle_defect(clone, lambda value, scale: value * scale)
    elif mutation in ("composite_max", "strict_only_comparison"):
        relation = _MaxComposite if mutation == "composite_max" else _StrictOnly
        clone.relation = lambda: relation.induced([clone])
    elif mutation == "noisy_work":
        connect = clone.process_engine.connect_polygonal

        def noisy(a, b, rng, legs=None):
            # Every leg reports 0.1 J more work than it did.
            poly = connect(a, b, rng, legs)
            return replace(poly, legs=tuple(
                (replace(rec, work_done=rec.work_done + 0.1), direction)
                for rec, direction in poly.legs
            ))

        clone.process_engine.connect_polygonal = noisy
    return clone


def _clone_model(model: ModelSystem) -> ModelSystem:
    """A shallow copy with its own engine, so a defect planted in either
    stays out of the original."""
    clone = copy.copy(model)
    clone.process_engine = copy.copy(model.process_engine)
    return clone


def _plant_oracle_defect(model: ModelSystem, defect) -> None:
    """Replace the model's oracle by ``defect(value, scale)`` of its value
    and the state's copy scale, in the per-state oracle and the batched
    entropies alike, where the t-copy of a state has scale t * state.scale:
    one function, so the two forms agree bit for bit.  The engine keeps
    nature's oracle."""
    base_oracle, base_scaled = model.oracle_entropy, model.scaled_entropies
    model.oracle_entropy = lambda state: defect(base_oracle(state), state.scale)

    def scaled(states, index, ts):
        scales = [t * states[k].scale for k, t in zip(index, ts)]
        return list(map(defect, base_scaled(states, index, ts), scales))

    model.scaled_entropies = scaled if base_scaled else None


def _break_transitivity(fixture: FinitePreorderFixture) -> FinitePreorderFixture:
    """Replace one closure pair (a, c) by its reverse: transitivity now has a
    witness while every element stays comparable."""
    for a, b in sorted(fixture.pairs):
        if a == b:
            continue
        for c in fixture.ids:
            if c in (a, b):
                continue
            if (b, c) in fixture.pairs and (a, c) in fixture.pairs and (c, a) not in fixture.pairs:
                pairs = set(fixture.pairs)
                pairs.discard((a, c))
                pairs.add((c, a))
                return FinitePreorderFixture(list(fixture.ids), pairs)
    raise CapabilityError("fixture has no transitive triple to break")


# ---------------------------------------------------------------------------
# The coverage matrix
# ---------------------------------------------------------------------------

def run_model_checks(
    model: ModelSystem,
    reservoir: Reservoir,
    *,
    seed: int = 0,
) -> list[CheckResult]:
    """The full battery used by the coverage matrix for parametric models."""
    samples = 120  # shared out among the sampled checks
    rng = random.Random(seed)
    rel = model.relation()
    engine = model.process_engine
    results = [
        check_reflexivity(rel, samples=samples, seed=seed),
        check_transitivity(rel, samples=samples, seed=seed + 1),
        check_consistency(rel, rel, samples=samples // 2, seed=seed + 2),
        check_scaling_invariance(rel, samples=samples // 3, seed=seed + 3),
        check_splitting(rel, samples=samples // 3, seed=seed + 4),
        check_stability(rel, samples=samples // 3, seed=seed + 5),
        check_comparison(rel, samples=samples, seed=seed + 6),
    ]
    gamma = engine.gamma_grid()
    try:
        noneq = [engine.sample_nonequilibrium(rng) for _ in range(10)]
    except CapabilityError:
        noneq = []
    results.append(check_n1_n2(rel, gamma, noneq, samples=samples // 2, seed=seed + 7))

    drawn = engine.sample_states(rng, 10)
    pairs = list(zip(drawn[::2], drawn[1::2]))
    results.append(check_path_independence(model, pairs, k=4, seed=seed + 8))

    r0 = reference_reservoir()
    probe = (model, *engine.sample_states(rng, 2))
    measured = temperature_of(reservoir, r0, probe)
    rel_err = abs(measured - reservoir.temperature) / reservoir.temperature
    results.append(
        verdict(
            "temperature_agreement", rel_err <= 1e-9,
            [("measured", measured, reservoir.temperature)],
            samples_used=1, tolerance_used=1e-9,
        )
    )

    honest = Reservoir(id="aux-600", temperature=600.0)
    results.append(
        check_reservoir_independence(
            model,
            tuple(engine.sample_states(rng, 2)),
            [reservoir, honest, r0.reservoir],
        )
    )

    residual = check_entropy_additivity(
        model, model,
        tuple(engine.sample_states(rng, 2)),
        tuple(engine.sample_states(rng, 2)),
        reservoir,
    )
    results.append(
        verdict("entropy_additivity", residual < 1e-9, [("residual", residual)],
                samples_used=1, tolerance_used=1e-9)
    )

    results.append(
        check_lower_bound(
            model,
            tuple(engine.sample_states(rng, 2)),
            reservoir,
            n_irr=20,
            seed=seed + 10,
        )
    )
    results.append(
        check_entropy_nondecrease(model, engine.random_weight_processes(30, rng))
    )
    ses = engine.sample_state(rng)
    results.append(check_pmm2(model, ses, attempts=200, seed=seed + 11))
    return results


def run_fixture_checks(fixture: FinitePreorderFixture) -> list[CheckResult]:
    rel = fixture.relation()
    return [
        check_reflexivity(rel),
        check_transitivity(rel),
        check_comparison(rel),
    ]


def _statuses(results: list[CheckResult]) -> dict[str, str]:
    return {r.check_name: r.status.value for r in results}


def mutation_matrix(*, seed: int = 0) -> dict:
    """Run every mutation against the intact baseline and compare the newly
    failing checks with its entry in ``MUTATIONS``.  The result is plain
    data: the report's ``mutation_matrix`` summary, statuses as strings."""
    base_model = ideal_gas()
    base_reservoir = Reservoir(id="bench-300", temperature=300.0)
    base_fixture = chain_fixture(6)

    baseline_model = _statuses(run_model_checks(base_model, base_reservoir, seed=seed))
    baseline_fixture = _statuses(run_fixture_checks(base_fixture))
    mutants = []
    for mutation, expected in MUTATIONS.items():
        if mutation == "break_transitivity":
            statuses = _statuses(run_fixture_checks(mutate_model(base_fixture, mutation)))
            baseline = baseline_fixture
        elif mutation == "wrong_reservoir_temperature":
            bad_reservoir = mutate_model(base_reservoir, mutation)
            statuses = _statuses(run_model_checks(base_model, bad_reservoir, seed=seed))
            baseline = baseline_model
        else:
            mutant = mutate_model(base_model, mutation)
            statuses = _statuses(run_model_checks(mutant, base_reservoir, seed=seed))
            baseline = baseline_model
        newly_failed = sorted(
            name for name, status in statuses.items()
            if status == CheckStatus.FAIL and baseline[name] != CheckStatus.FAIL
        )
        mutants.append({
            "mutation": mutation,
            "expected_failures": sorted(expected),
            "newly_failed": newly_failed,
            "statuses": statuses,
            "exact": newly_failed == sorted(expected),
        })
    baseline_clean = CheckStatus.FAIL not in [*baseline_model.values(), *baseline_fixture.values()]
    return {
        "baseline_model": baseline_model,
        "baseline_fixture": baseline_fixture,
        "mutants": mutants,
        "ok": baseline_clean and all(m["exact"] for m in mutants),
    }
