import pytest

from entrokit.catalog import ideal_gas
from entrokit.errors import (
    CapabilityError,
    DegenerateFitError,
    DomainError,
    NumericError,
)
from entrokit.interpolation import (
    EntropyTable,
    ReferencePair,
    affine_match,
    entropy_from_accessibility,
    find_lambda,
    sandwich_bounds,
)


@pytest.fixture(scope="module")
def setup():
    gas = ideal_gas()
    e = gas.process_engine
    rel = gas.relation()
    grid = e.grid(11, 11)
    by_oracle = sorted(grid, key=gas.oracle_entropy)
    refs = ReferencePair(by_oracle[0], by_oracle[-1], s0=0.0, s1=100.0)
    return gas, rel, grid, refs


# -- find_lambda ----------------------------------------------------------------

def test_lambda_at_lower_reference_is_zero(setup):
    gas, rel, grid, refs = setup
    assert find_lambda(rel, refs.x0, refs) == 0.0


def test_lambda_at_upper_reference_is_one(setup):
    gas, rel, grid, refs = setup
    assert find_lambda(rel, refs.x1, refs) == 1.0


def test_lambda_quarter_point():
    gas = ideal_gas()
    e = gas.process_engine
    rel = gas.relation()
    region = ("vol", 0.02)
    x0 = e.ses_with_entropy(0.0, region)
    x1 = e.ses_with_entropy(1.0, region)
    x = e.ses_with_entropy(0.25, region)
    refs = ReferencePair(x0, x1, s0=0.0, s1=1.0)
    lam = find_lambda(rel, x, refs, tol=1e-9)
    # Independent route: the oracle gives the interpolation fraction directly.
    s0, s1, sx = (gas.oracle_entropy(s) for s in (x0, x1, x))
    assert lam == pytest.approx((sx - s0) / (s1 - s0), abs=2e-9)
    assert lam == pytest.approx(0.25, abs=1e-6)


def test_lambda_outside_bracket_raises(setup):
    gas, rel, grid, refs = setup
    e = gas.process_engine
    below = e.state(refs.x0.coords[0] * 0.5, refs.x0.coords[1] * 0.5)
    assert gas.oracle_entropy(below) < gas.oracle_entropy(refs.x0)
    with pytest.raises(DomainError):
        find_lambda(rel, below, refs)


def test_lambda_needs_scaling_support(spin):
    rel = spin.relation()
    e = spin.process_engine
    refs = ReferencePair(e.state(1e-20), e.state(4e-20), s0=0.0, s1=1.0)
    with pytest.raises(CapabilityError):
        find_lambda(rel, e.state(2e-20), refs)


def test_lambda_nonconvergence_raises(setup):
    gas, rel, grid, refs = setup
    mid = grid[len(grid) // 2]
    with pytest.raises(NumericError):
        find_lambda(rel, mid, refs, tol=1e-30, max_iter=10)


from hypothesis import given, settings
from hypothesis import strategies as st


@given(s_target=st.floats(min_value=41.0, max_value=79.0))
@settings(max_examples=30, deadline=None)
def test_lambda_tracks_oracle_fraction(s_target):
    gas = ideal_gas()
    e = gas.process_engine
    rel = gas.relation()
    region = ("vol", 0.02)
    x0 = e.ses_with_entropy(40.0, region)
    x1 = e.ses_with_entropy(80.0, region)
    refs = ReferencePair(x0, x1, s0=0.0, s1=1.0)
    lam = find_lambda(rel, e.ses_with_entropy(s_target, region), refs, tol=1e-9)
    assert lam == pytest.approx((s_target - 40.0) / 40.0, abs=5e-9)


def test_lambda_monotone_along_entropy_chain(setup):
    gas, rel, grid, refs = setup
    chain = sorted(grid, key=gas.oracle_entropy)[1:-1:10]
    lams = [find_lambda(rel, s, refs) for s in chain]
    for a, b in zip(lams, lams[1:]):
        assert b >= a - 2e-9


# -- entropy tables -------------------------------------------------------------

def test_table_reproduces_reference_values(setup):
    gas, rel, grid, refs = setup
    table = entropy_from_accessibility(rel, refs, [refs.x0, refs.x1])
    assert table.entries[refs.x0] == pytest.approx(0.0, abs=1e-7)
    assert table.entries[refs.x1] == pytest.approx(100.0, abs=1e-7)


def test_table_midpoint_arithmetic():
    table = EntropyTable()
    lam, s0, s1 = 0.5, 0.0, 2.0
    assert (1 - lam) * s0 + lam * s1 == 1.0


def test_grid_reconstruction_matches_oracle(setup):
    gas, rel, grid, refs = setup
    table = entropy_from_accessibility(rel, refs, grid, tol=1e-9)
    oracle = [gas.oracle_entropy(s) for s in grid]
    fit = affine_match([table.value(s) for s in grid], oracle)
    assert fit.orientation_ok
    assert fit.max_residual < 1e-6


def test_out_of_bracket_states_are_skipped(setup):
    gas, rel, grid, refs = setup
    e = gas.process_engine
    below = e.state(refs.x0.coords[0] * 0.5, refs.x0.coords[1] * 0.5)
    table = entropy_from_accessibility(rel, refs, [below, refs.x0])
    assert below in table.skipped
    assert refs.x0 in table.entries


def test_monotonicity_of_constructed_entropy(setup, rng):
    gas, rel, grid, refs = setup
    table = entropy_from_accessibility(rel, refs, grid, tol=1e-9)
    tol = 1e-9 * 100.0 * 3
    for _ in range(100):
        x, y = rng.choice(grid), rng.choice(grid)
        if rel.leq(x, y):
            assert table.value(x) <= table.value(y) + tol


def test_reference_change_is_affine(setup):
    gas, rel, grid, refs = setup
    states = grid[::7]
    t1 = entropy_from_accessibility(rel, refs, states)
    refs2 = ReferencePair(refs.x0, refs.x1, s0=10.0, s1=30.0)
    t2 = entropy_from_accessibility(rel, refs2, states)
    fit = affine_match([t1.value(s) for s in states], [t2.value(s) for s in states])
    assert fit.max_residual < 1e-9
    assert fit.a == pytest.approx(0.2, rel=1e-9)


# -- affine certification ---------------------------------------------------------

def test_affine_match_identity():
    fit = affine_match([1.0, 2.0, 5.0], [1.0, 2.0, 5.0])
    assert (fit.a, fit.b) == (pytest.approx(1.0), pytest.approx(0.0))
    assert fit.max_residual < 1e-12


def test_affine_match_exact_inversion():
    g = [1.0, 4.0, 9.0, 16.0]
    f = [2 * v + 3 for v in g]
    fit = affine_match(f, g)
    assert fit.a == pytest.approx(0.5, rel=1e-12)
    assert fit.b == pytest.approx(-1.5, rel=1e-12)
    assert fit.max_residual < 1e-12


def test_affine_match_constant_target_raises():
    with pytest.raises(DegenerateFitError):
        affine_match([1.0, 2.0, 3.0], [5.0, 5.0, 5.0])


def test_affine_match_needs_three_states():
    with pytest.raises(DegenerateFitError):
        affine_match([1.0, 2.0], [1.0, 2.0])


# -- calibration ------------------------------------------------------------------

# -- sandwich bounds -------------------------------------------------------------

def test_sandwich_equilibrium_state_collapses(setup):
    gas, rel, grid, refs = setup
    table = entropy_from_accessibility(rel, refs, grid, tol=1e-9)
    x = grid[37]
    bounds = sandwich_bounds(rel, x, grid, table)
    assert bounds.ok
    assert bounds.s_minus == pytest.approx(table.value(x), abs=1e-6)
    assert bounds.s_plus == pytest.approx(table.value(x), abs=1e-6)


def test_sandwich_brackets_oracle_and_narrows(setup):
    gas, rel, grid, refs = setup
    e = gas.process_engine
    x = e.state(3000.0, 0.02, deficit=0.8)
    coarse = entropy_from_accessibility(rel, refs, e.grid(6, 6), tol=1e-9)
    fine = entropy_from_accessibility(rel, refs, e.grid(16, 16), tol=1e-9)
    b_coarse = sandwich_bounds(rel, x, list(coarse.entries), coarse)
    b_fine = sandwich_bounds(rel, x, list(fine.entries), fine)
    assert b_coarse.ok and b_fine.ok
    assert b_coarse.s_minus <= b_fine.s_minus + 1e-6
    assert b_fine.s_plus <= b_coarse.s_plus + 1e-6
    # The oracle value, mapped through the common gauge, sits inside.
    oracle = [gas.oracle_entropy(s) for s in fine.entries]
    fit = affine_match([fine.value(s) for s in fine.entries], oracle)
    s_x = gas.oracle_entropy(x)
    assert fit.a * b_fine.s_minus + fit.b <= s_x + 1e-6
    assert s_x <= fit.a * b_fine.s_plus + fit.b + 1e-6


def test_sandwich_violation_reported_not_raised(setup):
    gas, rel, grid, refs = setup
    table = entropy_from_accessibility(rel, refs, grid, tol=1e-9)
    e = gas.process_engine
    lowest = min(gas.oracle_entropy(g) for g in grid)
    base = e.state(600.0, 0.006)
    stranded = e.state(
        600.0, 0.006, deficit=gas.oracle_entropy(base) - lowest + 5.0
    )
    bounds = sandwich_bounds(rel, stranded, grid, table)
    assert not bounds.ok
    assert "lower" in bounds.message
