import pytest

from entrokit.axioms import CheckStatus
from entrokit.catalog import ideal_gas, two_level_spin
from entrokit.core import ProcessRecord, StateKind, states_equal
from entrokit.errors import (
    DegenerateProbeError,
    DomainError,
    PreconditionError,
)
from entrokit.mutants import mutate_model
from entrokit.reservoir import (
    Reservoir,
    ReferenceReservoir,
    check_carnot_agreement,
    check_entropy_nondecrease,
    check_lower_bound,
    check_pmm2,
    check_reservoir_independence,
    derive_assumptions_from_comparability,
    entropy_from_reservoir,
    reference_reservoir,
    run_irreversible_swp,
    run_reversible_swp,
    temperature_of,
    temperature_ratio_independence,
)


# -- reference reservoir ----------------------------------------------------

def test_reference_reservoir_pins_temperature():
    with pytest.raises(DomainError):
        ReferenceReservoir(Reservoir(id="wrong", temperature=300.0))
    assert reference_reservoir().reservoir.temperature == 273.16


# -- reversible standard weight processes --------------------------------------

def test_swp_identity_pair_drains_nothing(gas, r300):
    s = gas.process_engine.state(2000.0, 0.02)
    rec = run_reversible_swp(gas, s, s, r300)
    assert rec.delta_e_r == 0.0
    assert rec.reversible and rec.sigma == 0.0


def test_swp_unit_entropy_change_at_reference_temperature(gas, r0):
    e = gas.process_engine
    region = ("vol", 0.02)
    a1 = e.ses_with_entropy(50.0, region)
    a2 = e.ses_with_entropy(51.0, region)
    rec = run_reversible_swp(gas, a1, a2, r0.reservoir)
    assert rec.delta_e_r == pytest.approx(-273.16, rel=1e-12)


def test_swp_two_routes_agree_on_reference_pair(gas):
    e = gas.process_engine
    a1 = e.state(3000.0, 0.02)
    a2 = e.state(4500.0, 0.03)
    r = Reservoir(id="r", temperature=300.0)
    rec = run_reversible_swp(gas, a1, a2, r)
    carnot = gas.process_engine.carnot_reservoir_delta(a1, a2, r)
    # Closed-form oracle route for this pair.
    ds = gas.oracle_entropy(a2) - gas.oracle_entropy(a1)
    assert rec.delta_e_r == pytest.approx(-300.0 * ds, rel=1e-12)
    assert carnot == pytest.approx(rec.delta_e_r, rel=1e-7)


def test_swp_rejects_correlated_states(gas, r300):
    e = gas.process_engine
    bad = e.state(2000.0, 0.02).replace(uncorrelated=False,
                                        kind=StateKind.NONEQUILIBRIUM)
    with pytest.raises(PreconditionError):
        run_reversible_swp(gas, bad, e.state(2100.0, 0.02), r300)


def test_swp_antisymmetry(gas, r300, rng):
    e = gas.process_engine
    for _ in range(20):
        a, b = e.sample_state(rng), e.sample_state(rng)
        fwd = run_reversible_swp(gas, a, b, r300).delta_e_r
        bwd = run_reversible_swp(gas, b, a, r300).delta_e_r
        assert bwd == -fwd


def test_swp_sign_rule_across_reservoirs(gas, rng):
    e = gas.process_engine
    r1 = Reservoir(id="a", temperature=120.0)
    r2 = Reservoir(id="b", temperature=740.0)
    for _ in range(20):
        a, b = e.sample_state(rng), e.sample_state(rng)
        d1 = run_reversible_swp(gas, a, b, r1).delta_e_r
        d2 = run_reversible_swp(gas, a, b, r2).delta_e_r
        assert d1 * d2 >= 0.0


# -- irreversible processes -----------------------------------------------------

def test_irreversible_swp_exceeds_reversible_by_t_sigma(gas, r300):
    e = gas.process_engine
    a1, a2 = e.state(2000.0, 0.02), e.state(2500.0, 0.03)
    rev = run_reversible_swp(gas, a1, a2, r300)
    irr = run_irreversible_swp(gas, a1, a2, r300, sigma=0.1)
    assert irr.delta_e_r - rev.delta_e_r == pytest.approx(30.0, rel=1e-12)
    assert not irr.reversible


def test_irreversible_swp_limit_approaches_reversible(gas, r300):
    e = gas.process_engine
    a1, a2 = e.state(2000.0, 0.02), e.state(2500.0, 0.03)
    rev = run_reversible_swp(gas, a1, a2, r300)
    irr = run_irreversible_swp(gas, a1, a2, r300, sigma=1e-12)
    assert irr.delta_e_r == pytest.approx(rev.delta_e_r, abs=1e-9)


def test_irreversible_swp_requires_positive_sigma(gas, r300):
    e = gas.process_engine
    with pytest.raises(DomainError):
        run_irreversible_swp(gas, e.state(2000.0, 0.02), e.state(2500.0, 0.03),
                             r300, sigma=0.0)


def test_strict_entropy_inequality_on_random_draws(gas, r300, rng):
    e = gas.process_engine
    for _ in range(100):
        a1, a2 = e.sample_state(rng), e.sample_state(rng)
        sigma = rng.uniform(1e-6, 1.0)
        rev = run_reversible_swp(gas, a1, a2, r300)
        irr = run_irreversible_swp(gas, a1, a2, r300, sigma)
        ds = -rev.delta_e_r / r300.temperature
        assert -irr.delta_e_r / r300.temperature < ds


# -- temperature ------------------------------------------------------------------

def test_temperature_of_reference_is_exact(gas, r0, rng):
    e = gas.process_engine
    probe = (gas, e.sample_state(rng), e.sample_state(rng))
    assert temperature_of(r0.reservoir, r0, probe) == 273.16


def test_temperature_of_reference_is_exact_on_every_probe(gas, spin, r0, rng):
    # 273.16 * d / d rounds off 273.16 on a few probes in a thousand; the
    # ratio d / d does not.
    for model in (gas, spin):
        e = model.process_engine
        for _ in range(2000):
            a, b = e.sample_state(rng), e.sample_state(rng)
            if run_reversible_swp(model, a, b, r0.reservoir).delta_e_r != 0.0:
                assert temperature_of(r0.reservoir, r0, (model, a, b)) == 273.16


def test_temperature_of_doubled_reservoir(gas, r0, rng):
    e = gas.process_engine
    r = Reservoir(id="hot", temperature=546.32)
    probe = (gas, e.sample_state(rng), e.sample_state(rng))
    assert temperature_of(r, r0, probe) == pytest.approx(546.32, rel=1e-12)


def test_temperature_of_mutant_reservoir_disagrees(gas, r0, rng):
    e = gas.process_engine
    bad = mutate_model(Reservoir(id="lying", temperature=300.0),
                       "wrong_reservoir_temperature")
    probe = (gas, e.sample_state(rng), e.sample_state(rng))
    measured = temperature_of(bad, r0, probe)
    assert abs(measured - bad.temperature) / bad.temperature > 0.05


def test_temperature_of_degenerate_probe_raises(gas, r0):
    s = gas.process_engine.state(2000.0, 0.02)
    with pytest.raises(DegenerateProbeError):
        temperature_of(Reservoir(id="r", temperature=300.0), r0, (gas, s, s))


def test_temperature_ratio_universality(gas, spin, rng):
    r1 = Reservoir(id="r300", temperature=300.0)
    r2 = Reservoir(id="r600", temperature=600.0)
    ge, se = gas.process_engine, spin.process_engine
    probes = [(gas, ge.sample_state(rng), ge.sample_state(rng)) for _ in range(10)]
    probes += [(spin, se.sample_state(rng), se.sample_state(rng)) for _ in range(10)]
    result = temperature_ratio_independence(r1, r2, probes)
    assert result.passed


def test_temperature_ratio_identical_reservoirs(gas, rng):
    r = Reservoir(id="r", temperature=400.0)
    e = gas.process_engine
    spin = two_level_spin()
    se = spin.process_engine
    probes = [
        (gas, e.sample_state(rng), e.sample_state(rng)),
        (spin, se.sample_state(rng), se.sample_state(rng)),
    ]
    result = temperature_ratio_independence(r, r.replace(id="r-copy"), probes)
    assert result.passed


def test_temperature_ratio_reversed_pairs_unchanged(gas, spin, rng):
    r1 = Reservoir(id="r300", temperature=300.0)
    r2 = Reservoir(id="r600", temperature=600.0)
    ge, se = gas.process_engine, spin.process_engine
    a, b = ge.sample_state(rng), ge.sample_state(rng)
    c, d = se.sample_state(rng), se.sample_state(rng)
    fwd = temperature_ratio_independence(r1, r2, [(gas, a, b), (spin, c, d)])
    rev = temperature_ratio_independence(r1, r2, [(gas, b, a), (spin, d, c)])
    assert fwd.passed and rev.passed


def test_temperature_ratio_needs_two_systems(gas, rng):
    e = gas.process_engine
    r1 = Reservoir(id="r300", temperature=300.0)
    r2 = Reservoir(id="r600", temperature=600.0)
    probes = [(gas, e.sample_state(rng), e.sample_state(rng)) for _ in range(3)]
    with pytest.raises(DomainError):
        temperature_ratio_independence(r1, r2, probes)


# -- entropy from the reservoir construction ---------------------------------------

def test_entropy_anchor_value(gas, r0):
    e = gas.process_engine
    a0 = e.state(2000.0, 0.02)
    table = entropy_from_reservoir(gas, a0, s0=7.0, r=r0.reservoir, states=[a0])
    assert table.entries[a0] == 7.0


def test_entropy_drain_arithmetic(gas, r0):
    # A drain of -273.16 J at 273.16 K is one entropy unit above the anchor.
    e = gas.process_engine
    region = ("vol", 0.02)
    a0 = e.ses_with_entropy(40.0, region)
    x = e.ses_with_entropy(41.0, region)
    table = entropy_from_reservoir(gas, a0, s0=0.0, r=r0.reservoir, states=[x])
    assert table.entries[x] == pytest.approx(1.0, rel=1e-12)


def test_entropy_differences_independent_of_anchor(gas, r0, rng):
    e = gas.process_engine
    states = [e.sample_state(rng) for _ in range(8)]
    t1 = entropy_from_reservoir(gas, states[0], 0.0, r0.reservoir, states)
    t2 = entropy_from_reservoir(gas, states[3], 5.0, r0.reservoir, states)
    shifts = [t1.entries[s] - t2.entries[s] for s in states]
    assert max(shifts) - min(shifts) < 1e-9


def test_entropy_grid_matches_oracle_up_to_constant(gas, r0):
    e = gas.process_engine
    grid = e.grid(11, 11)
    table = entropy_from_reservoir(gas, grid[0], 0.0, r0.reservoir, grid)
    diffs = [table.entries[s] - gas.oracle_entropy(s) for s in grid]
    mean = sum(diffs) / len(diffs)
    assert max(abs(d - mean) for d in diffs) < 1e-6


def test_reservoir_independence_across_temperatures(gas, rng):
    e = gas.process_engine
    pair = (e.sample_state(rng), e.sample_state(rng))
    reservoirs = [
        Reservoir(id="cold", temperature=100.0),
        Reservoir(id="tp", temperature=273.16),
        Reservoir(id="hot", temperature=1000.0),
    ]
    assert check_reservoir_independence(gas, pair, reservoirs).passed


def test_reservoir_independence_rejects_single_temperature(gas, rng):
    e = gas.process_engine
    pair = (e.sample_state(rng), e.sample_state(rng))
    with pytest.raises(DomainError):
        check_reservoir_independence(
            gas, pair,
            [Reservoir(id="a", temperature=300.0), Reservoir(id="b", temperature=300.0)],
        )


def test_reservoir_independence_nonaffine_fails(gas, rng):
    e = gas.process_engine
    pair = (e.sample_state(rng), e.sample_state(rng))
    bad = mutate_model(Reservoir(id="lying", temperature=300.0),
                       "wrong_reservoir_temperature")
    reservoirs = [bad, Reservoir(id="honest", temperature=500.0)]
    assert check_reservoir_independence(gas, pair, reservoirs).failed


# -- Carnot route agreement -----------------------------------------------------------

def test_carnot_agreement_on_random_pairs(gas, r300, rng):
    e = gas.process_engine
    pairs = [(e.sample_state(rng), e.sample_state(rng)) for _ in range(20)]
    assert check_carnot_agreement(gas, pairs, r300, rel_tol=1e-7).passed


# -- perpetual motion ------------------------------------------------------------------

def test_pmm2_holds_for_gas(gas, rng):
    ses = gas.process_engine.sample_state(rng)
    assert check_pmm2(gas, ses, attempts=1000, seed=5).passed


def test_pmm2_not_applicable_from_nonequilibrium(gas, rng):
    x = gas.process_engine.sample_nonequilibrium(rng)
    result = check_pmm2(gas, x, attempts=10)
    assert result.status is CheckStatus.NOT_APPLICABLE


def test_pmm2_not_applicable_for_bounded_model(spin, rng):
    ses = spin.process_engine.sample_state(rng)
    result = check_pmm2(spin, ses, attempts=10)
    assert result.status is CheckStatus.NOT_APPLICABLE


def test_pmm2_entropy_blind_engine_fails(rng):
    blind = ideal_gas(model_id="blindgas")

    def reckless(start, rng_):
        u, v, _ = start.coords
        target = blind.process_engine.state(u * 0.8, v)
        return ProcessRecord(start, target, start.energy - target.energy, sigma=1.0)

    blind.process_engine.attempt_process_at_fixed_region = reckless
    ses = blind.process_engine.sample_state(rng)
    result = check_pmm2(blind, ses, attempts=10, seed=5)
    assert result.failed


# -- lower bound -------------------------------------------------------------------------

def test_lower_bound_holds(gas, r300, rng):
    e = gas.process_engine
    pair = (e.sample_state(rng), e.sample_state(rng))
    assert check_lower_bound(gas, pair, r300, n_irr=100, seed=6).passed


def test_lower_bound_needs_draws(gas, r300, rng):
    e = gas.process_engine
    with pytest.raises(DomainError):
        check_lower_bound(gas, (e.sample_state(rng), e.sample_state(rng)),
                          r300, n_irr=0)


# -- entropy nondecrease --------------------------------------------------------------------

def test_nondecrease_on_engine_processes(gas, rng):
    records = gas.process_engine.random_weight_processes(100, rng)
    assert check_entropy_nondecrease(gas, records).passed


def test_nondecrease_reversible_means_zero(gas, rng):
    e = gas.process_engine
    a = e.sample_state(rng)
    b = gas.isentropic_partner(a, rng)
    rec = e.weight_process(a, b)
    assert rec.reversible
    assert abs(gas.oracle_entropy(b) - gas.oracle_entropy(a)) < 1e-12


def test_nondecrease_stirring_is_irreversible(gas, rng):
    e = gas.process_engine
    ses = e.sample_state(rng)
    rec = e.raise_energy(ses, 200.0)
    assert not rec.reversible and rec.sigma > 0


def test_nondecrease_rejects_entropy_drop(gas):
    e = gas.process_engine
    a, b = e.state(2000.0, 0.02), e.state(1500.0, 0.02)
    fake = ProcessRecord(a, b, a.energy - b.energy, sigma=0.5)
    result = check_entropy_nondecrease(gas, [fake])
    assert result.failed
    assert result.witnesses[0][0] == "entropy_decrease"


def test_nondecrease_rejects_mislabelled_reversibility(gas):
    e = gas.process_engine
    a, b = e.state(2000.0, 0.02), e.state(2500.0, 0.02)
    mislabelled = ProcessRecord(a, b, a.energy - b.energy, sigma=0.0)
    result = check_entropy_nondecrease(gas, [mislabelled])
    assert result.failed


# -- bridge: recovering the structural assumptions ----------------------------------------------

def test_derive_assumptions_gas(gas, r300):
    result = derive_assumptions_from_comparability(gas, r300, samples=25, seed=9)
    assert result.passed


def test_equal_energy_ses_dominates_nonequilibrium(gas, rng):
    rel = gas.relation()
    e = gas.process_engine
    x = e.sample_nonequilibrium(rng)
    ses = e.ses_with_energy(x.energy, x.region)
    assert rel.leq(x, ses)
    assert not rel.leq(ses, x)


def test_reversible_chain_has_vanishing_generation(gas, r300, rng):
    e = gas.process_engine
    a1 = e.sample_nonequilibrium(rng)
    a2 = e.sample_nonequilibrium(rng)
    chain, total_sigma = e.reversible_chain_via_ses(a1, a2, r300)
    assert total_sigma < 1e-12
    assert states_equal(chain[0].initial, a1)
    assert states_equal(chain[-1].final, a2)
    # The middle piece is a standard weight process between stable states.
    assert chain[1].system_pair[0].kind is StateKind.STABLE_EQUILIBRIUM
    assert chain[1].system_pair[1].kind is StateKind.STABLE_EQUILIBRIUM
