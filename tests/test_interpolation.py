import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entrokit.catalog import ideal_gas
from entrokit.core import AccessibilityRelation, State, composite_state
from entrokit.errors import (
    CapabilityError,
    DegenerateFitError,
    DomainError,
    NumericError,
)
from entrokit.interpolation import (
    LAMBDA_MAX_ITER,
    LAMBDA_TOL,
    EntropyTable,
    ReferencePair,
    affine_match,
    entropy_from_accessibility,
    find_lambda,
    sandwich_bounds,
)
from entrokit.mutants import mutate_model
from entrokit.report import SuiteConfig, ly_table
from test_core import _reference_leq


def scalar_find_lambda(rel, x, refs, tol=LAMBDA_TOL, max_iter=LAMBDA_MAX_ITER):
    """The one-state bisection, kept as the reference for the lockstep
    ``find_lambda``: it builds each probe and asks ``leq`` twice per step."""
    model = rel.models[0]
    if not model.supports_scaling:
        raise CapabilityError(f"model {model.id!r} cannot form scaled copies")
    x0, x1 = refs.x0, refs.x1
    if not (rel.leq(x0, x1) and not rel.leq(x1, x0)):
        raise DomainError("reference states must be strictly ordered")
    if not rel.leq(x0, x):
        raise DomainError("state lies below the lower reference")
    if not rel.leq(x, x1):
        raise DomainError("state lies above the upper reference")
    if rel.equivalent(x, x0):
        return 0.0
    if rel.equivalent(x, x1):
        return 1.0

    def interpolant(lam):
        return composite_state(
            [model.scale_state(x0, 1.0 - lam), model.scale_state(x1, lam)]
        )

    lo, hi = 0.0, 1.0
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        probe = interpolant(mid)
        fwd = rel.leq(probe, x)
        bwd = rel.leq(x, probe)
        if fwd and bwd:
            return mid
        if fwd:
            lo = mid
        else:
            hi = mid
        if hi - lo <= tol:
            return 0.5 * (lo + hi)
    raise NumericError(
        f"bisection did not reach tolerance {tol} in {max_iter} iterations"
    )


def scalar_lambdas(rel, states, refs, tol=LAMBDA_TOL):
    """The reference's answer in ``find_lambda``'s form: lam, or the reason."""
    out = []
    for x in states:
        try:
            out.append(scalar_find_lambda(rel, x, refs, tol=tol))
        except DomainError as exc:
            out.append(str(exc))
    return out


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
    assert find_lambda(rel, [refs.x0], refs) == [0.0]


def test_lambda_at_upper_reference_is_one(setup):
    gas, rel, grid, refs = setup
    assert find_lambda(rel, [refs.x1], refs) == [1.0]


def test_lambda_quarter_point():
    gas = ideal_gas()
    e = gas.process_engine
    rel = gas.relation()
    region = ("vol", 0.02)
    x0 = e.ses_with_entropy(0.0, region)
    x1 = e.ses_with_entropy(1.0, region)
    x = e.ses_with_entropy(0.25, region)
    refs = ReferencePair(x0, x1, s0=0.0, s1=1.0)
    (lam,) = find_lambda(rel, [x], refs, tol=1e-9)
    # Independent route: the oracle gives the interpolation fraction directly.
    s0, s1, sx = (gas.oracle_entropy(s) for s in (x0, x1, x))
    assert lam == pytest.approx((sx - s0) / (s1 - s0), abs=2e-9)
    assert lam == pytest.approx(0.25, abs=1e-6)


def test_lambda_outside_bracket_gives_reason(setup):
    gas, rel, grid, refs = setup
    e = gas.process_engine
    below = e.state(refs.x0.coords[0] * 0.5, refs.x0.coords[1] * 0.5)
    above = e.state(refs.x1.coords[0] * 2.0, refs.x1.coords[1] * 2.0)
    assert gas.oracle_entropy(below) < gas.oracle_entropy(refs.x0)
    assert find_lambda(rel, [below, refs.x0, above], refs) == [
        "state lies below the lower reference",
        0.0,
        "state lies above the upper reference",
    ]
    with pytest.raises(DomainError):
        scalar_find_lambda(rel, below, refs)


def test_lambda_needs_scaling_support(spin):
    rel = spin.relation()
    e = spin.process_engine
    refs = ReferencePair(e.state(1e-20), e.state(4e-20), s0=0.0, s1=1.0)
    with pytest.raises(CapabilityError):
        find_lambda(rel, [e.state(2e-20)], refs)


def test_lambda_nonconvergence_raises(setup):
    gas, rel, grid, refs = setup
    mid = grid[len(grid) // 2]
    with pytest.raises(NumericError):
        find_lambda(rel, [mid], refs, tol=1e-30, max_iter=10)


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
    (lam,) = find_lambda(rel, [e.ses_with_entropy(s_target, region)], refs, tol=1e-9)
    assert lam == pytest.approx((s_target - 40.0) / 40.0, abs=5e-9)


def test_lambda_monotone_along_entropy_chain(setup):
    gas, rel, grid, refs = setup
    chain = sorted(grid, key=gas.oracle_entropy)[1:-1:10]
    lams = find_lambda(rel, chain, refs)
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
    fit = affine_match([table.entries[s] for s in grid], oracle)
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
            assert table.entries[x] <= table.entries[y] + tol


def test_reference_change_is_affine(setup):
    gas, rel, grid, refs = setup
    states = grid[::7]
    t1 = entropy_from_accessibility(rel, refs, states)
    refs2 = ReferencePair(refs.x0, refs.x1, s0=10.0, s1=30.0)
    t2 = entropy_from_accessibility(rel, refs2, states)
    fit = affine_match([t1.entries[s] for s in states], [t2.entries[s] for s in states])
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


@given(
    f=st.lists(st.floats(-100.0, 100.0), min_size=3, max_size=60, unique=True),
    a=st.floats(0.01, 100.0), b=st.floats(-1e3, 1e3), noise=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=100, deadline=None)
def test_affine_match_agrees_with_lstsq(f, a, b, noise, seed):
    if max(f) - min(f) < 1.0:  # keep the fit well conditioned
        return
    rng = np.random.default_rng(seed)
    g = [a * x + b + noise * e for x, e in zip(f, rng.standard_normal(len(f)))]
    fit = affine_match(f, g)
    F = np.array(f)
    design = np.column_stack([F, np.ones_like(F)])
    (ref_a, ref_b), *_ = np.linalg.lstsq(design, np.array(g), rcond=None)
    scale = max(map(abs, g))
    assert fit.a == pytest.approx(ref_a, rel=1e-12)
    assert fit.b == pytest.approx(ref_b, rel=1e-12, abs=1e-12 * scale)
    ref_residual = np.abs(ref_a * F + ref_b - np.array(g)).max()
    assert fit.max_residual == pytest.approx(ref_residual, rel=1e-9, abs=1e-12 * scale)


@given(
    f=st.lists(st.integers(-1000, 1000), min_size=8, max_size=8, unique=True),
    a=st.integers(-64, 64).filter(bool).map(lambda k: k / 16),
    b=st.integers(-4096, 4096).map(lambda k: k / 8),
)
def test_affine_match_recovers_affine_data_exactly(f, a, b):
    # Eight integers and dyadic coefficients: every sum and mean is exact.
    fit = affine_match(f, [a * x + b for x in f])
    assert (fit.a, fit.b, fit.max_residual) == (a, b, 0.0)


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
    [bounds] = sandwich_bounds(rel, [x], grid, table)
    assert bounds.ok
    assert bounds.s_minus == pytest.approx(table.entries[x], abs=1e-6)
    assert bounds.s_plus == pytest.approx(table.entries[x], abs=1e-6)


def test_sandwich_brackets_oracle_and_narrows(setup):
    gas, rel, grid, refs = setup
    e = gas.process_engine
    x = e.state(3000.0, 0.02, deficit=0.8)
    coarse = entropy_from_accessibility(rel, refs, e.grid(6, 6), tol=1e-9)
    fine = entropy_from_accessibility(rel, refs, e.grid(16, 16), tol=1e-9)
    [b_coarse] = sandwich_bounds(rel, [x], list(coarse.entries), coarse)
    [b_fine] = sandwich_bounds(rel, [x], list(fine.entries), fine)
    assert b_coarse.ok and b_fine.ok
    assert b_coarse.s_minus <= b_fine.s_minus + 1e-6
    assert b_fine.s_plus <= b_coarse.s_plus + 1e-6
    # The oracle value, mapped through the common gauge, sits inside.
    oracle = [gas.oracle_entropy(s) for s in fine.entries]
    fit = affine_match([fine.entries[s] for s in fine.entries], oracle)
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
    x = grid[37]
    bounds, at_grid = sandwich_bounds(rel, [stranded, x], grid, table)
    assert not bounds.ok
    assert "lower" in bounds.message
    assert at_grid == sandwich_bounds(rel, [x], grid, table)[0] and at_grid.ok
    # A grid with no tabled state brackets nothing, and no state asks nothing.
    untabled = [e.state(700.0, 0.007)]
    assert [b.message for b in sandwich_bounds(rel, [x, stranded], untabled, table)] == [
        "no lower equilibrium state found: sandwich requirement violated"] * 2
    assert sandwich_bounds(rel, [], grid, table) == []


def test_sandwich_bounds_ask_no_scalar_leq(setup, monkeypatch):
    gas, rel, grid, refs = setup
    table = entropy_from_accessibility(rel, refs, grid, tol=1e-9)
    x = gas.process_engine.state(3000.0, 0.02, deficit=0.8)
    asked = []
    leq = AccessibilityRelation.leq
    monkeypatch.setattr(
        AccessibilityRelation, "leq", lambda r, a, b: asked.append((a, b)) or leq(r, a, b)
    )
    assert [b.ok for b in sandwich_bounds(rel, [x, grid[37]], grid, table)] == [True, True]
    assert not asked


# -- lockstep bisection and batched order queries ----------------------------------

class ScalarRelation(AccessibilityRelation):
    """The induced order by its definition, asked row by row: ``leq`` is
    ``_reference_leq``, and ``leq_many`` asks it of each row's copies as
    ``scale_state`` builds them.  The scalar path the batch must reproduce."""

    def leq(self, x, y):
        return _reference_leq(self, x, y)

    def leq_many(self, xs, ys, *, converse=True):
        def per_row(value):
            return not isinstance(value, (State, int, float))

        def side(parts, i):
            copies = []
            for states, ts in parts:
                state = states[i] if per_row(states) else states
                t = ts[i] if per_row(ts) else ts
                owner = next(m for m in self.models if state.space_id in m.spaces)
                copies.append(state if t == 1.0 else owner.scale_state(state, t))
            return copies[0] if len(copies) == 1 else composite_state(copies)

        n = next((len(value) for part in xs + ys for value in part if per_row(value)), 1)
        rows = [(side(xs, i), side(ys, i)) for i in range(n)]
        fwd = [self.leq(x, y) for x, y in rows]
        return fwd, [self.leq(y, x) for x, y in rows] if converse else None


_GAS_PARAMS = st.fixed_dictionaries({
    "n": st.one_of(st.floats(0.1, 10.0), st.sampled_from([1, 2])),
    "c_v_hat": st.one_of(st.floats(0.5, 5.0), st.sampled_from([1.5, 2.5, 3])),
    "gauge": st.tuples(st.floats(0.1, 10.0), st.floats(0.1, 10.0), st.floats(-50.0, 50.0)),
})
_U = st.floats(500.0, 10000.0)
_V = st.floats(0.005, 0.1)
# Fractions the bisection can reach, dyadic midpoints among them.
_FRACTION = st.one_of(
    st.floats(2.0**-50, 1.0 - 2.0**-50),
    st.integers(1, 2**30 - 1).map(lambda k: k / 2**30),
)
# Offsets of a drawn state's entropy from a mixture's, around the gas's
# 1e-10 J/K equivalence tolerance.
_TIE_OFFSETS = st.sampled_from([-2e-10, -1e-10, -5e-11, 0.0, 5e-11, 1e-10, 2e-10])


@st.composite
def _mixture_queries(draw, gas):
    """x0, x1, fractions and states y: equilibrium, nonequilibrium, scaled
    copies, and states within a few tolerances of their mixture."""
    e = gas.process_engine

    def state():
        deficit = draw(st.one_of(st.just(0.0), st.floats(0.01, 5.0)))
        s = e.state(draw(_U), draw(_V), deficit)
        return gas.scale_state(s, draw(st.floats(0.2, 5.0))) if draw(st.booleans()) else s

    x0, x1 = e.state(draw(_U), draw(_V)), e.state(draw(_U), draw(_V))
    lams = draw(st.lists(_FRACTION, min_size=1, max_size=8))
    ys = []
    for lam in lams:
        if draw(st.booleans()):
            ys.append(state())
            continue
        mixed = gas.oracle_entropy(gas.scale_state(x0, 1.0 - lam)) + gas.oracle_entropy(
            gas.scale_state(x1, lam)
        )
        ys.append(e.ses_with_entropy(mixed + draw(_TIE_OFFSETS), ("vol", draw(_V))))
    return x0, x1, lams, ys


@st.composite
def state_pools(draw, gas):
    """States of the gas: equilibrium and nonequilibrium ones, scaled
    copies, and equilibrium states within a few tolerances of an unscaled
    state's entropy (isentropic near-ties)."""
    e = gas.process_engine
    pool = []
    for _ in range(draw(st.integers(2, 8))):
        s = e.state(draw(_U), draw(_V), draw(st.one_of(st.just(0.0), st.floats(0.01, 5.0))))
        pool.append(gas.scale_state(s, draw(st.floats(0.2, 5.0))) if draw(st.booleans()) else s)
    for s in list(pool):
        if s.scale == 1.0 and draw(st.booleans()):
            target = gas.oracle_entropy(s) + draw(_TIE_OFFSETS)
            pool.append(e.ses_with_entropy(target, ("vol", draw(_V))))
    return pool


@given(data=st.data(), params=_GAS_PARAMS)
@settings(max_examples=30, deadline=None)
def test_sandwich_bounds_batched_match_scalar(data, params):
    gas = ideal_gas(**params)
    e = gas.process_engine
    pool = data.draw(state_pools(gas))
    grid = e.grid(4, 4)
    by_oracle = sorted(grid, key=gas.oracle_entropy)
    # The lowest and highest grid states fall outside the references and are
    # skipped, and the pool's states are not in the table at all.
    refs = ReferencePair(by_oracle[1], by_oracle[-2], s0=0.0, s1=100.0)
    rel = gas.relation()
    table = entropy_from_accessibility(rel, refs, grid)
    gamma = grid + pool
    scalar = ScalarRelation.induced([gas])
    batched = sandwich_bounds(rel, pool, gamma, table)
    assert batched == sandwich_bounds(scalar, pool, gamma, table)
    assert batched == [sandwich_bounds(scalar, [x], gamma, table)[0] for x in pool]


def _per_element(rel, model, x0, x1, lams, ys):
    fwd, bwd = [], []
    for lam, y in zip(lams, ys):
        probe = composite_state([model.scale_state(x0, 1.0 - lam), model.scale_state(x1, lam)])
        fwd.append(rel.leq(probe, y))
        bwd.append(rel.leq(y, probe))
    return fwd, bwd


def _mixtures(rel, x0, x1, lams, ys):
    """The bisection step's query, as ``find_lambda`` asks it: each y_i
    against the mixture ((1-lam_i) x0, lam_i x1)."""
    return rel.leq_many([(x0, [1.0 - lam for lam in lams]), (x1, lams)], [(ys, 1.0)])


def _outcome(fn, *args):
    """The call's answer as lists, or the type of what it raised."""
    try:
        fwd, bwd = fn(*args)
    except Exception as exc:  # the two paths must fail alike too
        return type(exc)
    return list(map(bool, fwd)), list(map(bool, bwd))


def _count_hook_calls(model) -> list:
    calls = []
    hook = model.scaled_entropies
    if hook is not None:
        model.scaled_entropies = lambda *args: calls.append(len(args[-1])) or hook(*args)
    return calls


@given(data=st.data(), params=_GAS_PARAMS)
@settings(max_examples=60, deadline=None)
def test_leq_mixtures_matches_leq(data, params):
    gas = ideal_gas(**params)
    rel = gas.relation()
    queries = []
    for x0, x1, lams, ys in (data.draw(_mixture_queries(gas)) for _ in range(2)):
        # The states as a list, then as one tuple handed over again with
        # other fractions, as find_lambda does.
        ys = tuple(ys)
        queries += [(x0, x1, lams, list(ys)), (x0, x1, lams, ys), (x0, x1, lams[::-1], ys)]
    expected = [_outcome(_per_element, rel, gas, *query) for query in queries]
    calls = _count_hook_calls(gas)
    for i in [0, 1, 2, 3, 4, 5, 1, 2]:
        assert _outcome(_mixtures, rel, *queries[i]) == expected[i]
    assert calls  # the batched path ran


def test_leq_mixtures_keeps_compositions_apart():
    gas, other = ideal_gas(), ideal_gas(n=2.0, model_id="other")
    rel = AccessibilityRelation.induced([gas, other])
    e = gas.process_engine
    x0, x1 = e.state(600.0, 0.006), e.state(9000.0, 0.09)
    y_other, y_gas = other.process_engine.state(3000.0, 0.03), e.state(3000.0, 0.03)
    expected = [_per_element(rel, gas, x0, x1, [0.5], (y,)) for y in (y_other, y_gas)]
    calls = _count_hook_calls(gas)
    # Each y in its own part: a part holds the states of one model.
    for y, want in zip((y_other, y_gas), expected):
        assert _outcome(_mixtures, rel, x0, x1, [0.5], (y,)) == want
    assert expected[0] == ([False], [False])  # two gases never compare
    assert calls


@pytest.mark.parametrize(
    "mutation", ["break_scaling", "break_splitting", "composite_max", "strict_only_comparison"]
)
@given(data=st.data(), params=_GAS_PARAMS)
@settings(max_examples=20, deadline=None)
def test_leq_mixtures_keeps_planted_defects(mutation, data, params):
    mutant = mutate_model(ideal_gas(**params), mutation)
    query = data.draw(_mixture_queries(mutant))
    rel = mutant.relation()
    expected = _outcome(_per_element, rel, mutant, *query)
    calls = _count_hook_calls(mutant)
    assert _outcome(_mixtures, rel, *query) == expected
    assert calls  # the batched path ran, on relation mutants too


def _bits(lams):
    return [lam.hex() if isinstance(lam, float) else lam for lam in lams]


@given(
    params=_GAS_PARAMS,
    shape=st.tuples(st.integers(2, 5), st.integers(2, 5)),
    refs_at=st.tuples(st.integers(0, 24), st.integers(0, 24)),
    extra=st.lists(st.tuples(_U, _V, st.floats(0.0, 3.0)), max_size=4),
    tol=st.sampled_from([LAMBDA_TOL, 1e-6, 1e-12]),
)
@settings(max_examples=50, deadline=None)
def test_lockstep_matches_scalar_bisection(params, shape, refs_at, extra, tol):
    gas = ideal_gas(**params)
    e = gas.process_engine
    grid = e.grid(*shape)
    by_oracle = sorted(grid, key=gas.oracle_entropy)
    i0, i1 = sorted(i % len(grid) for i in refs_at)
    refs = ReferencePair(by_oracle[i0], by_oracle[i1], s0=0.0, s1=100.0)
    states = grid + [e.state(u, v, deficit) for u, v, deficit in extra]
    rel = gas.relation()
    lockstep = find_lambda(rel, states, refs, tol=tol)
    assert _bits(lockstep) == _bits(scalar_lambdas(rel, states, refs, tol=tol))


def test_default_table_asks_few_scalar_queries(monkeypatch):
    gas = ideal_gas()
    hook_calls = _count_hook_calls(gas)
    leq_calls = []
    leq = AccessibilityRelation.leq

    def counting_leq(rel, x, y):
        leq_calls.append(1)
        return leq(rel, x, y)

    monkeypatch.setattr(AccessibilityRelation, "leq", counting_leq)
    grid, table = ly_table(gas, SuiteConfig.from_dict({}), {})
    assert len(grid) == len(table.entries) == 441
    assert len(leq_calls) <= 6 * len(grid)
    assert hook_calls
