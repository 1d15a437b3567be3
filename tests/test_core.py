import copy
import math
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entrokit.core import (
    Access,
    AccessibilityRelation,
    ProcessRecord,
    State,
    StateKind,
    accessible,
    composite_relation,
    composite_state,
    parts_of,
    states_equal,
)
from entrokit.errors import CapabilityError, DomainError, EngineError


def rows_from_pairs(ids, pairs):
    """The bitset rows of ``pairs`` over ``ids``: bit j of row i is set
    exactly when (ids[i], ids[j]) is a pair."""
    index = {x: i for i, x in enumerate(ids)}
    rows = [0] * len(ids)
    for x, y in pairs:
        rows[index[x]] |= 1 << index[y]
    return rows


def finite_relation(ids, pairs):
    """The finite relation on ``ids`` whose order is exactly ``pairs``."""
    return AccessibilityRelation.finite(ids, rows_from_pairs(ids, pairs))


def test_state_requires_finite_energy():
    with pytest.raises(DomainError):
        State("s", (1.0,), float("inf"), region="r")


def test_stable_equilibrium_state_must_be_separable_and_uncorrelated():
    with pytest.raises(DomainError):
        State("s", (1.0,), 1.0, region="r", separable=False,
              kind=StateKind.STABLE_EQUILIBRIUM)
    # A nonequilibrium state carries no such constraint.
    State("s", (1.0,), 1.0, region="r", separable=False, uncorrelated=False,
          kind=StateKind.NONEQUILIBRIUM)


def test_accessible_reflexive_pair_is_both(gas, gas_rel):
    x = gas.process_engine.state(1000.0, 0.02)
    assert accessible(gas_rel, x, x) is Access.BOTH


def test_accessible_oracle_ordering_is_forward(gas, gas_rel):
    e = gas.process_engine
    x = e.ses_with_entropy(1.0, ("vol", 0.02))
    y = e.ses_with_entropy(2.0, ("vol", 0.02))
    assert abs(gas.oracle_entropy(x) - 1.0) < 1e-9
    assert abs(gas.oracle_entropy(y) - 2.0) < 1e-9
    assert accessible(gas_rel, x, y) is Access.FORWARD
    assert accessible(gas_rel, y, x) is Access.BACKWARD_ONLY


def test_finite_relation_absent_pair_is_incomparable():
    rel = finite_relation([1, 2, 3], [(1, 2)])
    assert accessible(rel, 2, 3) is Access.INCOMPARABLE


def test_finite_relation_unknown_id_raises():
    rel = finite_relation([1, 2], [(1, 2)])
    with pytest.raises(DomainError):
        rel.leq(1, 99)


def test_finite_relation_rejects_duplicate_elements():
    with pytest.raises(DomainError, match="duplicate element 2"):
        AccessibilityRelation.finite([1, 2, 3, 2], [0, 0, 0, 0])


def test_finite_relation_reads_its_rows():
    rel = AccessibilityRelation.finite([1, 2], [0b11, 0b00])
    assert [rel.leq(x, y) for x in (1, 2) for y in (1, 2)] == [True, True, False, False]
    assert rel.rows == rows_from_pairs([1, 2], [(1, 1), (1, 2)])


@pytest.mark.parametrize("rows", [[0b11], [0b11, 0, 0], [0b100, 0], [0, -1]])
def test_finite_relation_rejects_rows_that_do_not_fit(rows):
    with pytest.raises(DomainError, match="needs 2 rows of 2 bits"):
        AccessibilityRelation.finite([1, 2], rows)


def test_state_keeps_dataclass_behaviour():
    x = State("s", (1.0, 2.0), 3.0, ("vol", 1))
    y = State(space_id="s", coords=(1.0, 2.0), energy=3.0, region=("vol", 1))
    assert x == y and hash(x) == hash(y)
    assert repr(x) == (
        "State(space_id='s', coords=(1.0, 2.0), energy=3.0, region=('vol', 1), "
        "separable=True, uncorrelated=True, kind=<StateKind.STABLE_EQUILIBRIUM: "
        "'stable_equilibrium'>, scale=1.0)"
    )
    assert list(vars(x)) == [
        "space_id", "coords", "energy", "region", "separable", "uncorrelated", "kind", "scale",
    ]
    assert x.replace(scale=2.0) == State("s", (1.0, 2.0), 3.0, ("vol", 1), scale=2.0)
    assert copy.copy(x) == x and copy.deepcopy(x) == x
    with pytest.raises(AttributeError):
        x.energy = 4.0
    with pytest.raises(DomainError):
        x.replace(energy=math.nan)


def test_worker_exception_with_record_witness_survives_pickling():
    # A matrix worker pipes its exception back pickled; the frozen records'
    # guarded __setattr__ must not stand in the way of unpickling them.
    x = State("s", (1.0, 2.0), 3.0, ("vol", 1))
    rec = ProcessRecord(x, x.replace(energy=4.0), 1.0)
    exc = pickle.loads(pickle.dumps(EngineError("nature refuses", witness=(x, rec))))
    assert type(exc) is EngineError and str(exc) == "nature refuses"
    assert exc.witness == (x, rec) and hash(exc.witness) == hash((x, rec))


def test_compose_additivity_of_oracle(gas, gas_rel):
    # A composite's entropy is the sum of its parts': moving 1 J/K from one
    # part to the other leaves it equivalent, taking it from one part only
    # lowers it.
    e = gas.process_engine
    x, y = e.state(1000.0, 0.01), e.state(2000.0, 0.03)
    x_less = e.state(1000.0, 0.01, deficit=1.0)
    y_more = e.ses_with_entropy(gas.oracle_entropy(y) + 1.0, y.region)
    both = composite_state([x, y])
    assert accessible(gas_rel, composite_state([x_less, y_more]), both) is Access.BOTH
    assert accessible(gas_rel, composite_state([x_less, y]), both) is Access.FORWARD


def test_composite_energy_sums(gas):
    # A composite's energy is the sum of its parts', so stirring 3 J + 4 J
    # up to 5 J + 6 J takes 4 J of work.
    e = gas.process_engine
    before = composite_state([e.state(3.0, 0.01), e.state(4.0, 0.01)])
    after = composite_state([e.state(5.0, 0.01), e.state(6.0, 0.01)])
    assert e.weight_process(before, after).work_done == -4.0


def test_compose_flattens_nested(gas, gas_rel):
    e = gas.process_engine
    x, y, z = (e.state(1000.0 + k, 0.02) for k in range(3))
    left = composite_state([composite_state([x, y]), z])
    right = composite_state([x, composite_state([y, z])])
    assert accessible(gas_rel, left, right) is Access.BOTH


def test_scale_identity(gas):
    x = gas.process_engine.state(100.0, 1.0)
    assert gas.scale_state(x, 1.0) is x


def test_scale_doubles_extensive_quantities(gas):
    x = gas.process_engine.state(100.0, 1.0)
    sx = gas.oracle_entropy(x)
    tx = gas.scale_state(x, 2.0)
    assert tx.coords[0] == 200.0
    assert tx.coords[1] == 2.0
    assert tx.energy == 200.0
    assert gas.oracle_entropy(tx) == pytest.approx(2.0 * sx, rel=1e-12)


def test_scale_unsupported_model_raises(spin):
    with pytest.raises(CapabilityError):
        spin.scale_state(spin.process_engine.state(1e-20), 2.0)


def test_scale_rejects_foreign_state(gas, spin):
    with pytest.raises(DomainError):
        gas.scale_state(spin.process_engine.state(1e-20), 2.0)


def test_scale_rejects_nonpositive_factor(gas):
    x = gas.process_engine.state(100.0, 1.0)
    with pytest.raises(DomainError):
        gas.scale_state(x, -1.0)


@given(
    a=st.floats(min_value=0.2, max_value=5.0),
    b=st.floats(min_value=0.2, max_value=5.0),
)
@settings(max_examples=40, deadline=None)
def test_scale_composition_matches_product(a, b):
    from entrokit.catalog import ideal_gas

    gas = ideal_gas()
    x = gas.process_engine.state(1000.0, 0.02)
    twice = gas.scale_state(gas.scale_state(x, a), b)
    once = gas.scale_state(x, a * b)
    assert gas.oracle_entropy(twice) == pytest.approx(
        gas.oracle_entropy(once), rel=1e-11
    )


def test_induced_relation_is_total_preorder(gas_rel):
    from entrokit.axioms import check_comparison, check_reflexivity, check_transitivity

    for check in (check_reflexivity, check_transitivity, check_comparison):
        assert check(gas_rel, samples=100, seed=3).passed


def test_antisymmetry_of_strict_part(gas, gas_rel, rng):
    e = gas.process_engine
    for _ in range(50):
        x, y = e.sample_state(rng), e.sample_state(rng)
        if accessible(gas_rel, x, y) is Access.FORWARD:
            assert accessible(gas_rel, y, x) is Access.BACKWARD_ONLY


def test_incompatible_compositions_are_incomparable(gas, spin):
    rel = AccessibilityRelation.induced([gas, spin])
    x = gas.process_engine.state(1000.0, 0.02)
    y = spin.process_engine.state(2e-20)
    assert not rel.compatible(x, y)
    assert accessible(rel, x, y) is Access.INCOMPARABLE


def test_non_normal_model_requires_finite_upper_bound():
    from types import SimpleNamespace

    from entrokit.core import ModelSystem

    engine = SimpleNamespace(
        model_id="bad", space_id="bad:base", composition_tag="bad", entropy_atol=0.0,
        energy_bounds=(0.0, math.inf), oracle_entropy=lambda s: 0.0,
    )
    with pytest.raises(DomainError):
        ModelSystem(engine)


def test_states_equal_tells_scaled_copy_from_base_state(gas):
    e = gas.process_engine
    x = e.state(100.0, 1.0)
    copy = gas.scale_state(e.state(50.0, 0.5), 2.0)
    # Same space, same coordinates, energy and region: only the scale differs.
    assert (copy.space_id, copy.coords, copy.energy, copy.region) == (
        x.space_id, x.coords, x.energy, x.region
    )
    assert copy.scale == 2.0
    assert not states_equal(x, copy)
    assert not states_equal(composite_state([x, x]), composite_state([x, copy]))
    assert states_equal(gas.scale_state(gas.scale_state(x, 0.5), 2.0), x)


def test_scaled_copy_needs_finite_positive_scale(gas):
    # Each factor is valid; their product underflows to zero or overflows.
    x = gas.process_engine.state(100.0, 1.0)
    with pytest.raises(DomainError):
        gas.scale_state(gas.scale_state(x, 1e-200), 1e-200)
    with pytest.raises(DomainError):
        gas.scale_state(gas.scale_state(x, 1e300), 1e300)


def test_states_equal_uses_tolerance(gas):
    e = gas.process_engine
    a = e.state(1000.0, 0.02)
    b = e.state(1000.0 + 1e-13, 0.02)
    c = e.state(1000.1, 0.02)
    assert states_equal(a, b)
    assert not states_equal(a, c)


# -- induced leq against its definition --------------------------------------

def _reference_leq(rel, x, y, mutation=None):
    """Induced leq spelled out one quantity at a time: compatible composition
    totals, then the combined oracle values within the larger part atol.
    ``mutation`` names the relation defect planted in ``rel``, if any."""

    def owner(p):
        return next(m for m in rel.models if p.space_id in m.spaces)

    def totals(state):
        out = {}
        for p in parts_of(state):
            tag = owner(p).spaces[p.space_id].composition_tag
            out[tag] = out.get(tag, 0.0) + p.scale
        return out

    def entropy(state):
        values = [owner(p).oracle_entropy(p) for p in parts_of(state)]
        if len(values) == 1:
            return values[0]
        return max(values) if mutation == "composite_max" else sum(values)

    tx, ty = totals(x), totals(y)
    if set(tx) != set(ty) or not all(
        math.isclose(tx[k], ty[k], rel_tol=1e-12) for k in tx
    ):
        return False
    atol = max(owner(p).entropy_atol for p in parts_of(x) + parts_of(y))
    sx, sy = entropy(x), entropy(y)
    single = len(parts_of(x)) == len(parts_of(y)) == 1
    if mutation == "strict_only_comparison" and single:
        return states_equal(x, y) or sx < sy - atol
    return sx <= sy + atol


def _leq_cases(gas, spin, seed):
    """Pairs of sides, each a tuple of ``(state, factor)`` parts: the side is
    the parts' scaled copies, one copy alone or a composite of several."""
    rng = random.Random(seed)
    e = gas.process_engine
    cases = []
    for _ in range(40):
        x, y = e.sample_state(rng), e.sample_state(rng)
        lam = rng.random()
        cases += [
            (((x, 1.0),), ((y, 1.0),)), (((x, 1.0),), ((x, 1.0),)),
            (((x, 1.0),), ((x, 1.0 - lam), (y, lam))),
            # Equivalent to x up to rounding: only the atol makes it so.
            (((x, lam), (x, 1.0 - lam)), ((x, 1.0),)),
            (((x, 1.0), (y, 1.0)), ((y, 1.0), (x, 1.0))),
            (((x, 1.0), (y, 2.0)), ((y, 2.0), (x, 1.0))),
            # Different composition totals: never comparable.
            (((x, 1.0),), ((x, 1.0), (y, 1.0))),
            (((x, 2.0),), ((x, 1.0),)),
            (((x, 1.0),), ((spin.process_engine.sample_state(rng), 1.0),)),
            # Scaled copies: equal ones on the diagonal, where strict-only
            # comparison keeps the order reflexive, and distinct ones.
            (((x, lam),), ((x, lam),)), (((y, 2.0),), ((y, 2.0),)),
            (((x, lam),), ((y, lam),)),
        ]
    return cases


def _side(model, parts):
    """The state a ``_leq_cases`` side stands for."""
    copies = [state if t == 1.0 else model.scale_state(state, t) for state, t in parts]
    return copies[0] if len(copies) == 1 else composite_state(copies)


def _mutant_relation(spin, mutation):
    from entrokit.catalog import ideal_gas
    from entrokit.mutants import mutate_model

    gas = ideal_gas()
    if mutation is not None:
        gas = mutate_model(gas, mutation)
    return gas, composite_relation([gas.relation(), spin.relation()])


@pytest.mark.parametrize("mutation", [None, "composite_max", "strict_only_comparison"])
def test_leq_matches_reference_definition(spin, mutation):
    gas, rel = _mutant_relation(spin, mutation)
    outcomes = set()
    for a, b in _leq_cases(gas, spin, seed=17):
        x, y = _side(gas, a), _side(gas, b)
        for u, v in ((x, y), (y, x)):
            got, want = rel.leq(u, v), _reference_leq(rel, u, v, mutation)
            assert got is want, (u, v)
            outcomes.add(got)
    assert outcomes == {True, False}


@pytest.mark.parametrize("mutation", [None, "composite_max", "strict_only_comparison"])
def test_leq_many_matches_reference_definition(spin, mutation):
    # The same cases, one leq_many query per shape: the spaces of each
    # side's parts.
    gas, rel = _mutant_relation(spin, mutation)
    groups = {}
    for a, b in _leq_cases(gas, spin, seed=17):
        shape = tuple(tuple(state.space_id for state, _ in side) for side in (a, b))
        groups.setdefault(shape, []).append((a, b))
    for rows in groups.values():
        xs, ys = (
            [([side[j][0] for side in sides], [side[j][1] for side in sides])
             for j in range(len(sides[0]))]
            for sides in zip(*rows)
        )
        fwd, bwd = rel.leq_many(xs, ys)
        for (a, b), f, g in zip(rows, fwd, bwd):
            x, y = _side(gas, a), _side(gas, b)
            assert f is _reference_leq(rel, x, y, mutation), (x, y)
            assert g is _reference_leq(rel, y, x, mutation), (y, x)


# -- batched order queries ------------------------------------------------------

def test_leq_many_asks_leq_for_a_copy_scale_state_refuses(gas, gas_rel, spin):
    # 0.02 * 5e-324 rounds to 0: the batch cannot evaluate the copy, and the
    # row raises as building the copy does.
    e = gas.process_engine
    x, y = e.state(1000.0, 0.02), e.state(2000.0, 0.03)
    fwd, bwd = gas_rel.leq_many([(x, [0.5, 0.5])], [(y, 0.5)])
    assert fwd == [True, True] and bwd == [False, False]
    with pytest.raises(DomainError, match="5e-324"):
        gas_rel.leq_many([(x, [0.5, 5e-324])], [(y, 0.5)])
    # The largest of the parts' values drops the copy's NaN; the row still
    # raises.
    _, rel = _mutant_relation(spin, "composite_max")
    with pytest.raises(DomainError, match="5e-324"):
        rel.leq_many([(y, 0.5), (x, [0.5, 5e-324])], [(x, 0.5), (y, 0.5)])


@pytest.mark.parametrize("mutation", [None, "break_scaling", "break_splitting"])
def test_unit_values_are_the_oracles_bit_for_bit(mutation):
    from entrokit.catalog import ideal_gas
    from entrokit.mutants import mutate_model

    gas = ideal_gas(n=3, c_v_hat=2.5, gauge=(1.5, 0.5, 3.0))
    if mutation is not None:
        gas = mutate_model(gas, mutation)
    e = gas.process_engine
    states = e.sample_states(random.Random(7), 20) + [
        e.state(2000.0, 0.03, 0.7),
        gas.scale_state(e.state(800.0, 0.01, 0.2), 2.5),
        gas.scale_state(e.state(6000.0, 0.08), 0.4),
    ]
    calls = []
    hook = gas.scaled_entropies
    gas.scaled_entropies = lambda *args: calls.append(list(args[-1])) or hook(*args)
    rel = gas.relation()
    # No repeated object, some repeated objects, and one object in every row.
    for part in (states, states + states[::3], [states[-1]] * 7):
        values = rel._part_columns(part, [1.0] * len(part), len(part))[0]
        assert [v.hex() for v in values] == [gas.oracle_entropy(s).hex() for s in part]
    assert calls == []  # unit factors ask the oracle, not the hook


def test_unit_values_that_are_not_finite_are_read_from_the_oracle(gas, gas_rel):
    # A hand-built state with U < 0: the hook gives NaN, and the oracle's
    # log raises.
    x = gas.process_engine.state(1000.0, 0.02)
    bad = State(x.space_id, (-1.0, 0.02, 0.0), -1.0, ("vol", 0.02))
    with pytest.raises(ValueError, match="math domain error"):
        gas_rel.leq(bad, x)
    with pytest.raises(ValueError, match="math domain error"):
        gas_rel.leq_many([([x, bad], 1.0)], [([x, x], 1.0)])
    # V = inf: both give an infinite entropy, which orders as the oracle's.
    far = State(x.space_id, (1000.0, math.inf, 0.0), 1000.0, ("vol", math.inf))
    assert gas_rel.leq_many([([x, far], 1.0)], [([far, x], 1.0)]) == (
        [True, False], [False, True]
    )


def test_leq_many_shapes(gas, gas_rel):
    x = gas.process_engine.state(1000.0, 0.02)
    assert gas_rel.leq_many([([], 1.0)], [(x, [])]) == ([], [])
    assert gas_rel.leq_many([([], 1.0)], [(x, [])], converse=False) == ([], None)
    # No per-row part: one row, what leq asks.
    y = gas.process_engine.state(2000.0, 0.03)
    assert gas_rel.leq_many([(x, 1.0)], [(y, 1.0)]) == ([True], [False])
    assert gas_rel.leq_many([(x, 0.5), (x, 0.5)], [(x, 1.0)]) == ([True], [True])
    fwd, bwd = gas_rel.leq_many([([x, x], 1.0)], [([x, x], 1.0)], converse=False)
    assert fwd == [True, True] and bwd is None
    with pytest.raises(DomainError, match="a part on each side"):
        gas_rel.leq_many([], [(x, 1.0)])
    with pytest.raises(DomainError, match="same number of rows"):
        gas_rel.leq_many([([x, x], 1.0)], [(x, [1.0, 1.0, 1.0])])
    with pytest.raises(CapabilityError):
        AccessibilityRelation.finite([1], [0b1]).leq_many([([1], 1.0)], [([1], 1.0)])


def test_leq_many_refuses_parts_the_batch_cannot_take(gas, gas_rel, spin):
    # One path: a part holds single states of one space, and factors other
    # than 1 need the model's scaled_entropies.
    x, y = gas.process_engine.state(1000.0, 0.02), gas.process_engine.state(2000.0, 0.03)
    s = spin.process_engine.sample_state(random.Random(3))
    rel = composite_relation([gas_rel, spin.relation()])
    with pytest.raises(DomainError, match="single states of one space"):
        rel.leq_many([([x, s], 1.0)], [([x, s], 1.0)])
    with pytest.raises(DomainError, match="single states of one space"):
        gas_rel.leq_many([([composite_state([x, y])], 1.0)], [([x], 1.0)])
    with pytest.raises(CapabilityError, match="does not support scaled copies"):
        spin.relation().leq_many([(s, 0.5)], [(s, 0.5)])


def test_leq_many_matches_amounts_within_rounding(gas, gas_rel):
    # 0.1 + 0.2 is 0.30000000000000004: leq matches the totals within 1e-12.
    e = gas.process_engine
    x, y = e.state(1000.0, 0.02), e.state(9000.0, 0.09)
    fwd, bwd = gas_rel.leq_many([(x, [0.1]), (x, [0.2])], [(y, [0.3])])
    lhs = composite_state([gas.scale_state(x, 0.1), gas.scale_state(x, 0.2)])
    rhs = gas.scale_state(y, 0.3)
    assert 0.1 + 0.2 != 0.3
    assert (fwd[0], bwd[0]) == (gas_rel.leq(lhs, rhs), gas_rel.leq(rhs, lhs)) == (True, False)
