import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entrokit.axioms import (
    check_consistency,
    check_scaling_invariance,
    check_splitting,
    check_stability,
    check_transitivity,
)
from entrokit.catalog import chain_fixture, ideal_gas
from entrokit.core import composite_relation
from entrokit.energy import check_path_independence
from entrokit.errors import CapabilityError, DomainError
from entrokit.mutants import MUTATIONS, mutate_model, mutation_matrix
from entrokit.reservoir import Reservoir, reference_reservoir, temperature_of
from test_interpolation import _GAS_PARAMS, _U, _V


def test_unknown_mutation_rejected(gas):
    with pytest.raises(DomainError):
        mutate_model(gas, "no_such_defect")


MOVED_DEFECTS = ("composite_max", "strict_only_comparison", "noisy_work",
                 "wrong_reservoir_temperature")


def _pairs(model, n=5, seed=3):
    rng = random.Random(seed)
    e = model.process_engine
    return [(e.sample_state(rng), e.sample_state(rng)) for _ in range(n)]


def _behaviour(model, reservoir):
    """What the checks see of a model's relation and engine and of a
    reservoir; each moved defect changes one part of it."""
    rel = model.relation()
    pairs = _pairs(model)
    return (
        check_consistency(rel, rel, samples=60, seed=1).status,
        check_stability(rel, samples=40, seed=1).status,
        check_path_independence(model, pairs, k=4, seed=1).status,
        temperature_of(reservoir, reference_reservoir(), (model, *pairs[0])),
    )


@pytest.mark.parametrize("mutation", MOVED_DEFECTS)
def test_planting_leaves_original_behaviour_unchanged(mutation):
    gas, reservoir = ideal_gas(), Reservoir(id="r", temperature=300.0)
    before = _behaviour(gas, reservoir)
    if mutation == "wrong_reservoir_temperature":
        mutant = _behaviour(gas, mutate_model(reservoir, mutation))
    else:
        mutant = _behaviour(mutate_model(gas, mutation), reservoir)
    assert mutant != before
    assert _behaviour(gas, reservoir) == before


def test_wrong_reservoir_temperature_leaves_original_calibrated(gas, r0, rng):
    reservoir = Reservoir(id="r", temperature=300.0)
    bad = mutate_model(reservoir, "wrong_reservoir_temperature")
    e = gas.process_engine
    probe = (gas, e.sample_state(rng), e.sample_state(rng))
    assert temperature_of(bad, r0, probe) == pytest.approx(1.1 * 300.0, rel=1e-12)
    assert temperature_of(reservoir, r0, probe) == pytest.approx(300.0, rel=1e-12)
    assert bad.temperature == reservoir.temperature == 300.0


def test_mutations_leave_original_intact(gas):
    max_rel = mutate_model(gas, "composite_max").relation()
    assert check_consistency(max_rel, max_rel, samples=100, seed=1).failed
    assert check_consistency(gas.relation(), gas.relation(), samples=100, seed=1).passed
    noisy = mutate_model(gas, "noisy_work")
    assert check_path_independence(noisy, _pairs(noisy), k=4, seed=1).failed
    assert check_path_independence(gas, _pairs(gas), k=4, seed=1).passed


def test_composite_relation_keeps_the_planted_relation(spin):
    mutant = mutate_model(ideal_gas(), "strict_only_comparison")
    rel = composite_relation([mutant.relation(), spin.relation()])
    assert type(rel) is type(mutant.relation())
    assert rel.models == [mutant, spin]
    assert check_stability(rel, samples=40, seed=1).failed
    intact = composite_relation([ideal_gas().relation(), spin.relation()])
    assert check_stability(intact, samples=40, seed=1).passed


def test_break_transitivity_needs_fixture(gas):
    with pytest.raises(CapabilityError):
        mutate_model(gas, "break_transitivity")


def test_break_scaling_needs_scalable_model(spin):
    with pytest.raises(CapabilityError):
        mutate_model(spin, "break_scaling")


def test_wrong_reservoir_temperature_needs_reservoir(gas):
    with pytest.raises(CapabilityError):
        mutate_model(gas, "wrong_reservoir_temperature")


def test_break_transitivity_keeps_comparability():
    from entrokit.axioms import check_comparison, check_reflexivity

    mutant = mutate_model(chain_fixture(6), "break_transitivity")
    rel = mutant.relation()
    assert check_transitivity(rel).failed
    assert check_reflexivity(rel).passed
    assert check_comparison(rel).passed


def test_break_scaling_flips_only_enlarged_copies():
    mutant = mutate_model(ideal_gas(), "break_scaling")
    rel = mutant.relation()
    assert check_scaling_invariance(rel, (2.0,), samples=40, seed=1).failed
    assert check_scaling_invariance(rel, (0.5,), samples=40, seed=1).passed
    assert check_splitting(rel, samples=40, seed=1).passed
    assert check_stability(rel, samples=40, seed=1).passed


def test_break_splitting_spares_scaling_order():
    mutant = mutate_model(ideal_gas(), "break_splitting")
    rel = mutant.relation()
    assert check_splitting(rel, samples=40, seed=1).failed
    assert check_scaling_invariance(rel, (0.5, 2.0, 3.0), samples=40, seed=1).passed


def test_composite_max_breaks_consistency_and_splitting():
    mutant = mutate_model(ideal_gas(), "composite_max")
    rel = mutant.relation()
    assert check_consistency(rel, rel, samples=100, seed=1).failed
    assert check_splitting(rel, samples=40, seed=1).failed


def test_wrong_temperature_reservoir_behaves_hotter(gas, r0, rng):
    bad = mutate_model(Reservoir(id="bad", temperature=300.0),
                       "wrong_reservoir_temperature")
    e = gas.process_engine
    probe = (gas, e.sample_state(rng), e.sample_state(rng))
    assert temperature_of(bad, r0, probe) == pytest.approx(330.0, rel=1e-9)


def test_matrix_is_exact_for_every_mutation():
    report = mutation_matrix(seed=0)
    assert report["ok"]
    assert [m["mutation"] for m in report["mutants"]] == list(MUTATIONS)
    for outcome in report["mutants"]:
        assert outcome["exact"], (
            f"{outcome['mutation']}: expected {outcome['expected_failures']}, "
            f"got {outcome['newly_failed']}"
        )


def test_matrix_serializes(tmp_path):
    import json

    report = mutation_matrix(seed=0)
    payload = json.dumps(report, sort_keys=True)
    parsed = json.loads(payload)
    assert parsed == report
    assert parsed["ok"] is True
    assert len(parsed["mutants"]) == len(MUTATIONS)


@st.composite
def _copies(draw, gas):
    """States (some scaled copies) and, per copy, an index into them and a
    factor; some factors put the copy's scale within a few ulps of
    break_scaling's 1 + 1e-12 threshold."""
    e = gas.process_engine
    states = [
        e.state(draw(_U), draw(_V), draw(st.floats(0.0, 5.0)),
                scale=draw(st.one_of(st.just(1.0), st.floats(0.2, 5.0))))
        for _ in range(draw(st.integers(1, 3)))
    ]
    index = draw(st.lists(st.integers(0, len(states) - 1), min_size=1, max_size=8))
    ts = [
        draw(st.one_of(
            st.floats(1e-3, 10.0),
            st.sampled_from([0.5, 1.0, 2.0]),
            st.integers(-3, 3).map(lambda k, i=i: (1.0 + 1e-12 + k * 2.0**-52) / states[i].scale),
        ))
        for i in index
    ]
    return states, index, ts


@pytest.mark.parametrize("mutation", ["break_scaling", "break_splitting"])
@given(data=st.data(), params=_GAS_PARAMS)
@settings(max_examples=40, deadline=None)
def test_mutant_batched_entropies_are_the_mutated_oracle_bit_for_bit(mutation, data, params):
    mutant = mutate_model(ideal_gas(**params), mutation)
    states, index, ts = data.draw(_copies(mutant))
    batch = mutant.scaled_entropies(states, index, ts)
    assert [s.hex() for s in batch] == [
        mutant.oracle_entropy(mutant.scale_state(states[i], t)).hex()
        for i, t in zip(index, ts)
    ]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("mutation", ["break_scaling", "break_splitting"])
def test_mutant_batched_entropies_are_not_finite_for_refused_copies(mutation):
    # 0.02 * 5e-324 rounds to 0, and 1e300 * 1e10 overflows the copy scale.
    mutant = mutate_model(ideal_gas(), mutation)
    e = mutant.process_engine
    states = [e.state(1000.0, 0.02), e.state(1000.0, 0.05, scale=1e10)]
    values = mutant.scaled_entropies(states, [0, 1, 0], [5e-324, 1e300, 2.0])
    assert [math.isfinite(v) for v in values] == [False, False, True]
