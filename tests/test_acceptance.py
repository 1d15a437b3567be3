"""Acceptance criteria, one test per criterion, each printing a verdict line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
"""

import random
import time

import pytest

from entrokit.axioms import CheckStatus
from entrokit.catalog import ideal_gas, two_level_spin
from entrokit.energy import check_path_independence
from entrokit.interpolation import (
    ReferencePair,
    affine_match,
    entropy_from_accessibility,
)
from entrokit.mutants import AXIOM_COUNTS, mutation_matrix
from entrokit.pfaffian import (
    QuasistaticPath,
    check_integrating_factor,
    loop_integral,
    random_closed_loop,
)
from entrokit.reservoir import (
    Reservoir,
    check_carnot_agreement,
    check_entropy_nondecrease,
    check_pmm2,
    derive_assumptions_from_comparability,
    entropy_from_reservoir,
    reference_reservoir,
    run_irreversible_swp,
    run_reversible_swp,
    temperature_of,
)
from entrokit.report import SuiteConfig, axiom_checks, emit, run


def _verdict(number: int, description: str, ok: bool):
    print(f"criterion {number:02d} [{'PASS' if ok else 'FAIL'}] {description}")
    assert ok, f"criterion {number} failed: {description}"


@pytest.fixture(scope="module")
def gas():
    return ideal_gas()


@pytest.fixture(scope="module")
def spin():
    return two_level_spin()


@pytest.fixture(scope="module")
def grid(gas):
    return gas.process_engine.grid(21, 21)


@pytest.fixture(scope="module")
def ly_table(gas, grid):
    rel = gas.relation()
    by = sorted(grid, key=gas.oracle_entropy)
    refs = ReferencePair(by[0], by[-1], s0=0.0, s1=100.0)
    start = time.perf_counter()
    table = entropy_from_accessibility(rel, refs, grid, tol=1e-9)
    table.build_seconds = time.perf_counter() - start
    return table


@pytest.fixture(scope="module")
def zb_table(gas, grid):
    r0 = reference_reservoir()
    return entropy_from_reservoir(gas, grid[0], 0.0, r0.reservoir, grid)


def test_criterion_01_ly_reconstruction(gas, grid, ly_table):
    oracle = [gas.oracle_entropy(s) for s in grid]
    fit = affine_match([ly_table.entries[s] for s in grid], oracle)
    ok = (
        fit.max_residual < 1e-6
        and fit.orientation_ok
        and len(ly_table.entries) == 441
        and ly_table.build_seconds < 10.0
    )
    _verdict(
        1,
        f"interpolation rebuild on 21x21 grid: residual {fit.max_residual:.2e} J/K "
        f"in {ly_table.build_seconds:.2f}s",
        ok,
    )


def test_criterion_02_zb_reconstruction(gas, grid, zb_table):
    diffs = [zb_table.entries[s] - gas.oracle_entropy(s) for s in grid]
    mean = sum(diffs) / len(diffs)
    residual = max(abs(d - mean) for d in diffs)
    rng = random.Random(202)
    e = gas.process_engine
    pairs = [(e.sample_state(rng), e.sample_state(rng)) for _ in range(50)]
    carnot = check_carnot_agreement(gas, pairs, reference_reservoir().reservoir,
                                    rel_tol=1e-7)
    ok = residual < 1e-6 and carnot.passed
    _verdict(
        2,
        f"reservoir rebuild residual {residual:.2e} J/K; "
        f"quasistatic route agreement on 50 pairs: {carnot.status.value}",
        ok,
    )


def test_criterion_03_cross_construction(grid, ly_table, zb_table):
    common = [s for s in grid if s in ly_table.entries and s in zb_table.entries]
    fit = affine_match(
        [ly_table.entries[s] for s in common], [zb_table.entries[s] for s in common]
    )
    ok = fit.max_residual < 1e-6 and fit.orientation_ok
    _verdict(3, f"construction cross-agreement residual {fit.max_residual:.2e} J/K", ok)


def test_criterion_04_temperature_universality(gas, spin):
    rng = random.Random(204)
    r300 = Reservoir(id="R300", temperature=300.0)
    r600 = Reservoir(id="R600", temperature=600.0)
    ratios = []
    for model in (gas, spin):
        e = model.process_engine
        for _ in range(10):
            a, b = e.sample_state(rng), e.sample_state(rng)
            d1 = run_reversible_swp(model, a, b, r300).delta_e_r
            d2 = run_reversible_swp(model, a, b, r600).delta_e_r
            ratios.append(d1 / d2)
    spread = (max(ratios) - min(ratios)) / abs(ratios[0])
    ok = (
        len(ratios) == 20
        and all(r > 0 for r in ratios)
        and abs(ratios[0] - 0.5) < 1e-9
        and spread < 1e-9
    )
    _verdict(4, f"20 probe ratios = 0.5 (spread {spread:.2e}), all positive", ok)


def test_criterion_05_kelvin_gauge(gas):
    rng = random.Random(205)
    e = gas.process_engine
    r0 = reference_reservoir()
    probe = (gas, e.sample_state(rng), e.sample_state(rng))
    self_measured = temperature_of(r0.reservoir, r0, probe)
    _verdict(
        5, f"reference self-measurement {self_measured} K exact",
        self_measured == 273.16,
    )


def test_criterion_06_reversible_drain_is_strict_minimum(gas):
    rng = random.Random(206)
    e = gas.process_engine
    r = Reservoir(id="R300", temperature=300.0)
    a1, a2 = e.sample_state(rng), e.sample_state(rng)
    rev = run_reversible_swp(gas, a1, a2, r)
    ds = -rev.delta_e_r / r.temperature
    ok = True
    for _ in range(100):
        sigma = rng.uniform(1e-6, 1.0)
        irr = run_irreversible_swp(gas, a1, a2, r, sigma)
        ok &= irr.delta_e_r > rev.delta_e_r
        ok &= -irr.delta_e_r / r.temperature < ds
    again = run_reversible_swp(gas, a1, a2, r)
    ok &= again.delta_e_r == rev.delta_e_r
    _verdict(6, "reversible reservoir drain strictly minimal over 100 draws", ok)


def test_criterion_07_entropy_nondecrease(gas):
    rng = random.Random(207)
    records = gas.process_engine.random_weight_processes(100, rng)
    result = check_entropy_nondecrease(gas, records, zero_tol=1e-12)
    has_both = any(r.reversible for r in records) and any(
        not r.reversible for r in records
    )
    ok = result.passed and has_both
    _verdict(7, "entropy change zero iff reversible on 100 weight processes", ok)


def test_criterion_09_axioms_and_mutation_matrix(gas, spin):
    # The report's axiom battery, every sampled check at 200 states.
    counts = {**dict.fromkeys(AXIOM_COUNTS, 200), "nonequilibrium": 10}
    results = [
        r for model in (gas, spin) for r in axiom_checks(model, random.Random(209), 209, counts)
    ]
    axioms_ok = all(not r.failed for r in results)
    matrix = mutation_matrix(seed=209)
    ok = axioms_ok and matrix["ok"]
    _verdict(
        9,
        f"axiom battery clean on catalog models; mutation matrix exact "
        f"({len(matrix['mutants'])} mutants)",
        ok,
    )


def test_criterion_10_loop_integrals(gas):
    simple = gas.process_engine.simple_system()
    rng = random.Random(210)
    loops = [random_closed_loop(simple.coord_box, rng) for _ in range(10)]
    closed = check_integrating_factor(simple, loops, abs_tol=1e-8)
    # The window's corners: (T, V) = (300 K, 0.01 m^3) to (600 K, 0.02 m^3).
    (u_lo, u_hi), (v_lo, v_hi) = simple.coord_box
    rectangle = QuasistaticPath(
        [[u_lo, v_lo], [u_hi, v_lo], [u_hi, v_hi], [u_lo, v_hi]],
        closed=True, interp="linear",
    )
    control = loop_integral(simple, rectangle, power=2)
    ok = closed.passed and abs(control) > 1e-3
    _verdict(
        10,
        f"10 random loops close under 1/T; inverse-square control {control:.4g}",
        ok,
    )


def test_criterion_11_energy_kernel(gas):
    from entrokit.energy import polygonal_work

    rng = random.Random(211)
    e = gas.process_engine
    pairs = [(e.sample_state(rng), e.sample_state(rng)) for _ in range(10)]
    paths = check_path_independence(gas, pairs, k=5, seed=211, rel_tol=1e-10)
    # Absolute reading as well: the raw spread over k=5 polygonals per pair.
    spread_rng = random.Random(211)
    worst_spread = 0.0
    for a, b in pairs:
        works = [
            polygonal_work(e.connect_polygonal(a, b, spread_rng, legs=1 + i % 4))
            for i in range(5)
        ]
        worst_spread = max(worst_spread, max(works) - min(works))
    ok = paths.passed and worst_spread < 1e-10
    _verdict(
        11,
        f"polygonal work path-independent (k=5, 10 pairs, worst spread "
        f"{worst_spread:.2e} J)",
        ok,
    )


def test_criterion_12_bridge_theorems(gas, spin):
    r = Reservoir(id="R300", temperature=300.0)
    spin_result = check_pmm2(spin, spin.process_engine.state(1e-20), attempts=10)
    derive = derive_assumptions_from_comparability(gas, r, samples=25, seed=212,
                                                   sigma_tol=1e-12)
    ok = spin_result.status is CheckStatus.NOT_APPLICABLE and derive.passed
    _verdict(
        12,
        "bounded model reports not_applicable; reversible anchor chain "
        "generates < 1e-12 J/K",
        ok,
    )


def test_criterion_13_determinism():
    config = SuiteConfig(
        model={"kind": "ideal_gas"}, suites=("axioms", "energy", "ly"), seed=13
    )
    first = emit(run(config), "json").encode()
    second = emit(run(config), "json").encode()
    ok = first == second
    _verdict(13, f"byte-identical reports over {len(first)} bytes", ok)
