import json
import math
import random
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entrokit.catalog import (
    K_BOLTZMANN,
    chain_fixture,
    ideal_gas,
    load_fixture,
    random_closed_dag_fixture,
    two_level_spin,
)
from entrokit.axioms import check_comparison, check_reflexivity, check_transitivity
from entrokit.core import StateSpace
from entrokit.errors import CapabilityError, DomainError, ParseError


# -- ideal gas -----------------------------------------------------------------

def test_gas_scaling_doubles_entropy(gas):
    x = gas.process_engine.state(100.0, 1.0)
    assert gas.oracle_entropy(gas.scale_state(x, 2.0)) == pytest.approx(
        2.0 * gas.oracle_entropy(x), rel=1e-12
    )


def test_gas_scale_rejects_factor_whose_coordinates_underflow(gas):
    # 0.02 * 5e-324 rounds to 0: the copy's log(V / ...) would be undefined.
    x = gas.process_engine.state(1000.0, 0.02)
    with pytest.raises(DomainError, match="5e-324"):
        gas.scale_state(x, 5e-324)
    assert math.isfinite(gas.oracle_entropy(gas.scale_state(x, 1e-300)))


def test_gas_scale_rejects_factor_whose_gauge_product_underflows():
    # U and V stay positive, but n * u_star = 5e-324 * 0.5 rounds to 0.
    gas = ideal_gas(gauge=(0.5, 1.0, 0.0))
    x = gas.process_engine.state(1000.0, 10.0)
    assert 5e-324 * 10.0 > 0 and 5e-324 * 0.5 == 0
    with pytest.raises(DomainError, match="5e-324"):
        gas.scale_state(x, 5e-324)


@pytest.mark.filterwarnings("error")
def test_gas_scaled_entropies_are_not_finite_for_refused_copies():
    # Both underflows above: the batch marks the copies instead of raising
    # or warning.
    gas = ideal_gas(gauge=(0.5, 1.0, 0.0))
    e = gas.process_engine
    states = [e.state(1000.0, 0.02), e.state(1000.0, 10.0)]
    values = gas.scaled_entropies(states, [0, 1, 1], [5e-324, 5e-324, 0.5])
    assert [math.isfinite(s) for s in values] == [False, False, True]


def test_gas_rejects_nonpositive_coordinates(gas):
    e = gas.process_engine
    with pytest.raises(DomainError):
        e.state(-1.0, 0.02)
    with pytest.raises(DomainError):
        e.state(1000.0, 0.0)


def test_gas_rejects_gauge_offset_coarser_than_its_tolerance():
    # Floats near 2**19 = 524288 lie 2**-33 = 1.2e-10 J/K apart, above the
    # gas's 1e-10 J/K equivalence tolerance; just below it, 5.8e-11 J/K.
    for n, s_star in ((1, 6e5), (1000, -600.0), (1, 1e20)):
        with pytest.raises(DomainError, match=re.escape(f"s_star={s_star!r}")):
            ideal_gas(n=n, gauge=(1.0, 1.0, s_star))
    for n, s_star in ((1, 5e5), (10, -50.0), (1000, 0.0), (1000, 500.0)):
        ideal_gas(n=n, gauge=(1.0, 1.0, s_star))


def test_gas_requires_positive_amount():
    with pytest.raises(DomainError):
        ideal_gas(n=0.0)


def test_gas_rejects_c_v_hat_whose_isentropic_partners_lose_all_energy():
    with pytest.raises(DomainError, match="c_v_hat is too small"):
        ideal_gas(c_v_hat=1e-100)
    gas = ideal_gas(c_v_hat=0.01)
    e = gas.process_engine
    low = e.state(e.box[0][0], e.box[1][0])
    assert e.isentropic_partner(low, random.Random(0)).coords[0] > 0


@given(
    u=st.floats(500.0, 10000.0),
    v=st.floats(0.005, 0.1),
    deficit=st.floats(0.0, 5.0),
    scale=st.floats(0.2, 5.0),
    ts=st.lists(st.floats(1e-6, 10.0), min_size=1, max_size=6),
    c_v_hat=st.one_of(st.floats(0.5, 5.0), st.just(3)),
)
@settings(max_examples=60, deadline=None)
def test_gas_scaled_entropies_equal_oracle_bit_for_bit(u, v, deficit, scale, ts, c_v_hat):
    gas = ideal_gas(n=2, c_v_hat=c_v_hat, gauge=(1.5, 0.5, 3.0))
    e = gas.process_engine
    # The drawn state, and one other indexed by every second factor.
    states = [e.state(u, v, deficit, scale=scale), e.state(0.5 * u, 2.0 * v)]
    index = [i % 2 for i in range(len(ts))]
    batch = gas.scaled_entropies(states, index, ts)
    assert [s.hex() for s in batch] == [
        gas.oracle_entropy(gas.scale_state(states[i], t)).hex() for i, t in zip(index, ts)
    ]


def test_gas_scaled_entropies_take_scalar_logs():
    # The hook takes each log as oracle_entropy does: a vectorised log (such
    # as numpy's) disagrees with math.log in the last bit on a few arguments
    # in 10^5 on some CPUs.  A scaled copy's log arguments are intensive, the
    # same for every factor, so it takes this many states to meet one there.
    gas = ideal_gas()
    e = gas.process_engine
    rng = random.Random(5)
    ts, index = [0.5], [0]
    for _ in range(20_000):
        x = e.sample_state(rng)
        expected = gas.oracle_entropy(gas.scale_state(x, 0.5))
        assert gas.scaled_entropies([x], index, ts)[0].hex() == expected.hex()


def _bits(values):
    return [float(x).hex() for x in values]


def _gas_draw(e, rng):
    return e.state(rng.uniform(*e.box[0]), rng.uniform(*e.box[1]))


def _spin_draw(e, rng):
    return e.state(rng.uniform(*e.box))


@pytest.mark.parametrize(
    "model, draw_one",
    [
        (ideal_gas(), _gas_draw),
        (ideal_gas(box=((1.0, 3.0), (2.0, 7.5))), _gas_draw),
        (two_level_spin(), _spin_draw),
    ],
    ids=["gas", "gas-box", "spin"],
)
def test_sample_states_draws_what_one_state_draws_do(model, draw_one):
    # The reference draws each state by random.uniform, U then V.
    e = model.process_engine
    for seed, n in ((0, 0), (1, 1), (2, 7), (3, 50)):
        rngs = [random.Random(seed) for _ in range(3)]
        batch = e.sample_states(rngs[0], n)
        ones = [e.sample_state(rngs[1]) for _ in range(n)]
        reference = [draw_one(e, rngs[2]) for _ in range(n)]
        assert batch == ones == reference
        assert [_bits(s.coords) for s in batch] == [_bits(s.coords) for s in reference]
        assert rngs[0].getstate() == rngs[1].getstate() == rngs[2].getstate()


def test_gas_grids_equal_numpy_linspace_bit_for_bit(gas):
    e = gas.process_engine
    (ulo, uhi), (vlo, vhi) = e.box
    for nu, nv, grid in ((21, 21, e.grid(21, 21)), (7, 7, e.gamma_grid())):
        expected = [(u, v) for u in np.linspace(ulo, uhi, nu) for v in np.linspace(vlo, vhi, nv)]
        assert _bits(c for s in grid for c in s.coords[:2]) == _bits(c for p in expected for c in p)


def test_spin_gamma_grid_equals_numpy_linspace_bit_for_bit(spin):
    e = spin.process_engine
    assert _bits(s.coords[0] for s in e.gamma_grid()) == _bits(np.linspace(*e.box, 25))


@given(
    ulo=st.floats(1e-3, 1e4), u_ratio=st.floats(1.001, 100.0),
    vlo=st.floats(1e-4, 1.0), v_ratio=st.floats(1.001, 100.0),
    nu=st.integers(2, 40), nv=st.integers(2, 40),
)
@settings(max_examples=60, deadline=None)
def test_gas_grid_on_random_boxes_equals_numpy_linspace(ulo, u_ratio, vlo, v_ratio, nu, nv):
    # n = 1000 gives every such box the entropy span nonequilibrium states need.
    box = ((ulo, ulo * u_ratio), (vlo, vlo * v_ratio))
    e = ideal_gas(n=1000.0, box=box).process_engine
    expected = [(u, v) for u in np.linspace(*box[0], nu) for v in np.linspace(*box[1], nv)]
    got = [s.coords[:2] for s in e.grid(nu, nv)]
    assert _bits(c for p in got for c in p) == _bits(c for p in expected for c in p)


@given(t=st.floats(min_value=0.1, max_value=10.0))
@settings(max_examples=50, deadline=None)
def test_gas_oracle_homogeneous_degree_one(t):
    gas = ideal_gas()
    x = gas.process_engine.state(2000.0, 0.03)
    assert gas.oracle_entropy(gas.scale_state(x, t)) == pytest.approx(
        t * gas.oracle_entropy(x), rel=1e-11
    )


# -- spin system ------------------------------------------------------------------

def test_spin_ground_state_has_zero_entropy(spin):
    assert spin.process_engine.equilibrium_entropy(0.0) == 0.0


def test_spin_entropy_maximal_at_half_filling(spin):
    e = spin.process_engine
    mid = e.e_max / 2.0
    s_mid = e.equilibrium_entropy(mid)
    for frac in (0.1, 0.3, 0.7, 0.9):
        assert e.equilibrium_entropy(frac * e.e_max) < s_mid


def test_spin_entropy_concavity(spin):
    e = spin.process_engine
    es = np.linspace(0.05 * e.e_max, 0.95 * e.e_max, 41)
    s = [e.equilibrium_entropy(x) for x in es]
    second = [s[i - 1] - 2 * s[i] + s[i + 1] for i in range(1, len(s) - 1)]
    assert all(d < 0 for d in second)


def test_spin_is_not_normal_with_finite_bound(spin):
    assert not spin.is_normal
    assert math.isfinite(spin.energy_bounds[1])
    assert spin.energy_bounds[1] == pytest.approx(100 * 1e-21)


def test_model_reads_each_declaration_from_its_engine():
    gas = ideal_gas()
    e = gas.process_engine
    assert gas.spaces == {"idealgas:base": StateSpace("idealgas:base", "gas:n=1.0:cv=1.5")}
    assert e.state(1000.0, 0.02).space_id in gas.spaces
    assert gas.oracle_entropy == e.oracle_entropy
    assert gas.supports_scaling
    assert gas.isentropic_partner == e.isentropic_partner
    assert gas.scaled_entropies == e.scaled_entropies
    assert gas.entropy_atol == 1e-10
    assert gas.is_normal and gas.energy_bounds is None

    spin = two_level_spin(50, 2e-21, model_id="s")
    e = spin.process_engine
    assert spin.spaces == {"s:base": StateSpace("s:base", "spin:N=50:eps=2e-21")}
    assert e.state(1e-20).space_id in spin.spaces
    assert spin.oracle_entropy == e.oracle_entropy
    assert not spin.supports_scaling
    assert spin.isentropic_partner is None and spin.scaled_entropies is None
    assert spin.entropy_atol == K_BOLTZMANN * 50 * 1e-13
    assert not spin.is_normal and spin.energy_bounds == (0.0, 50 * 2e-21)
    with pytest.raises(CapabilityError, match="model 's' provides no quasistatic integrator"):
        e.carnot_reservoir_delta(None, None, None)


def test_spin_needs_at_least_two_particles():
    with pytest.raises(DomainError):
        two_level_spin(n_particles=1)


def test_spin_energy_bound_enforced(spin):
    e = spin.process_engine
    with pytest.raises(DomainError):
        e.state(e.e_max * 1.01)


# -- fixtures -----------------------------------------------------------------------

def test_discrete_spin_fixture_is_total_preorder():
    from entrokit.catalog import discrete_spin_fixture

    rel = discrete_spin_fixture(12).relation()
    assert check_reflexivity(rel).passed
    assert check_transitivity(rel).passed
    assert check_comparison(rel).passed


def test_discrete_spin_fixture_mirror_levels_equivalent():
    from entrokit.catalog import discrete_spin_fixture

    rel = discrete_spin_fixture(10).relation()
    assert rel.equivalent(3, 7)
    assert rel.leq(3, 5) and not rel.leq(5, 3)


def test_discrete_spin_fixture_bounds_particle_count():
    from entrokit.catalog import discrete_spin_fixture

    with pytest.raises(DomainError):
        discrete_spin_fixture(25)


def test_chain_fixture_passes_order_axioms():
    rel = chain_fixture(5).relation()
    assert check_reflexivity(rel).passed
    assert check_transitivity(rel).passed
    assert check_comparison(rel).passed


def test_random_dag_closure_passes_reflexivity_and_transitivity():
    fixture = random_closed_dag_fixture(200, seed=1)
    rel = fixture.relation()
    assert check_reflexivity(rel).passed
    assert check_transitivity(rel).passed


def _numpy_warshall(n, seed, density=0.05):
    """random_closed_dag_fixture's draw, closed by a boolean numpy Warshall."""
    rng = random.Random(seed)
    reach = np.eye(n, dtype=bool)
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < density:
                reach[i, j] = True
    for k in range(n):
        reach |= np.outer(reach[:, k], reach[k, :])
    return {(i, j) for i, j in zip(*np.nonzero(reach))}


@pytest.mark.parametrize("seed", range(5))
def test_random_dag_bitset_closure_equals_numpy_warshall(seed):
    fixture = random_closed_dag_fixture(60, seed=seed, density=0.08)
    assert fixture.pairs == _numpy_warshall(60, seed, density=0.08)


def test_load_fixture_roundtrip(tmp_path):
    path = tmp_path / "chain.json"
    path.write_text(json.dumps({
        "states": [1, 2, 3],
        "pairs": [[1, 1], [2, 2], [3, 3], [1, 2], [2, 3], [1, 3]],
    }))
    fixture = load_fixture(path)
    assert check_transitivity(fixture.relation()).passed


def test_load_fixture_accepts_state_objects(tmp_path):
    path = tmp_path / "objects.json"
    path.write_text(json.dumps({
        "states": [{"id": 1, "kind": "equilibrium"}, {"id": 2}],
        "pairs": [[1, 1], [2, 2], [1, 2]],
    }))
    fixture = load_fixture(path)
    assert fixture.ids == [1, 2]
    assert check_transitivity(fixture.relation()).passed


def test_load_fixture_reports_json_position(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"states": [1, 2\n')
    with pytest.raises(ParseError) as err:
        load_fixture(path)
    assert "line" in str(err.value)


def test_load_fixture_rejects_unknown_pair_reference(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"states": [1], "pairs": [[1, 9]]}))
    with pytest.raises(ParseError) as err:
        load_fixture(path)
    assert "unknown state" in str(err.value)


def test_load_fixture_rejects_non_list_sections(tmp_path):
    path = tmp_path / "shape.json"
    path.write_text(json.dumps({"states": {"a": 1}, "pairs": []}))
    with pytest.raises(ParseError):
        load_fixture(path)


def test_load_fixture_rejects_duplicate_ids(tmp_path):
    path = tmp_path / "dup.json"
    path.write_text(json.dumps({"states": [1, 1], "pairs": []}))
    with pytest.raises(ParseError):
        load_fixture(path)


def test_fixture_missing_reflexive_pair_detected(tmp_path):
    path = tmp_path / "norefl.json"
    path.write_text(json.dumps({"states": [1, 2], "pairs": [[1, 2], [2, 2]]}))
    fixture = load_fixture(path)
    assert check_reflexivity(fixture.relation()).failed
