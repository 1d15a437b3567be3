import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entrokit.axioms import (
    STABILITY_EPS,
    TRANSITIVITY_CAP,
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
    fit_verdict,
    not_applicable,
    residual_verdict,
    verdict,
)
from entrokit.catalog import chain_fixture, ideal_gas, two_level_spin
from entrokit.cli import main
from entrokit.core import (
    Access,
    AccessibilityRelation,
    StateKind,
    accessible,
    composite_relation,
    composite_state,
)
from entrokit.errors import DomainError
from entrokit.interpolation import AffineFit
import entrokit.axioms as axioms_module
from entrokit.mutants import mutate_model
from test_core import finite_relation
from test_interpolation import _GAS_PARAMS, ScalarRelation, state_pools


def test_check_result_fail_needs_witnesses():
    with pytest.raises(DomainError):
        CheckResult("x", CheckStatus.FAIL, [])


# -- residual and fit verdicts -----------------------------------------------

def test_residual_verdict_fails_at_its_tolerance():
    result = residual_verdict("r", 1e-9, 1e-9, samples_used=3, message="m")
    assert result.failed
    assert result.witnesses == [("residual", 1e-9)]
    assert (result.samples_used, result.tolerance_used, result.message) == (3, 1e-9, "m")
    assert residual_verdict("r", float("nan"), 1.0, samples_used=1).failed


def test_residual_verdict_pass_carries_no_witness():
    result = residual_verdict("r", 0.5e-9, 1e-9, samples_used=3, message="m")
    assert result == CheckResult(
        "r", CheckStatus.PASS, [], samples_used=3, tolerance_used=1e-9, message="m"
    )
    assert residual_verdict("r", 0.0, 1e-9, samples_used=1).message == ""


@pytest.mark.parametrize("slope", [0.0, -1.0])
def test_fit_verdict_fails_without_a_positive_slope(slope):
    result = fit_verdict("f", AffineFit(slope, 2.0, 0.0), 1e-6, samples_used=4, message="m")
    assert result.failed
    assert result.witnesses == [("fit", slope, 2.0, 0.0)]


def test_fit_verdict_fails_at_its_tolerance():
    result = fit_verdict("f", AffineFit(1.0, 0.0, 1e-6), 1e-6, samples_used=4, message="m")
    assert result.failed
    assert result.witnesses == [("fit", 1.0, 0.0, 1e-6)]
    assert (result.samples_used, result.tolerance_used, result.message) == (4, 1e-6, "m")


def test_fit_verdict_pass_carries_no_witness():
    result = fit_verdict("f", AffineFit(0.5, -3.0, 1e-7), 1e-6, samples_used=4, message="m")
    assert result == CheckResult(
        "f", CheckStatus.PASS, [], samples_used=4, tolerance_used=1e-6, message="m"
    )


# -- reflexivity -------------------------------------------------------------

def test_reflexivity_induced_passes(gas_rel):
    assert check_reflexivity(gas_rel, samples=200, seed=1).passed


def test_reflexivity_missing_diagonal_fails():
    rel = finite_relation([1, 2], [(1, 2), (2, 2)])
    result = check_reflexivity(rel)
    assert result.failed
    assert result.witnesses == [1]


def test_reflexivity_empty_universe_vacuously_passes():
    rel = finite_relation([], [])
    assert check_reflexivity(rel).passed


def test_finite_reflexivity_asks_leq_once_per_element(monkeypatch):
    # x ≼ x is its own converse, so each element is asked about once.
    calls = []
    leq = AccessibilityRelation.leq

    def counting_leq(self, x, y):
        calls.append((x, y))
        return leq(self, x, y)

    monkeypatch.setattr(AccessibilityRelation, "leq", counting_leq)
    fixture = chain_fixture(7)
    result = check_reflexivity(fixture.relation())
    assert result.passed and result.samples_used == 7
    assert calls == [(x, x) for x in fixture.ids]


# -- transitivity ------------------------------------------------------------

def test_transitivity_closed_chain_passes():
    rel = finite_relation([1, 2, 3], [(1, 2), (2, 3), (1, 3)])
    assert check_transitivity(rel).passed


def test_transitivity_missing_closure_pair_fails():
    rel = finite_relation([1, 2, 3], [(1, 2), (2, 3)])
    result = check_transitivity(rel)
    assert result.failed
    assert (1, 2, 3) in result.witnesses


def test_transitivity_cap_reports_not_applicable():
    fixture = chain_fixture(TRANSITIVITY_CAP + 1)
    result = check_transitivity(fixture.relation())
    assert result.status is CheckStatus.NOT_APPLICABLE


def cubic_transitivity_witness(rel):
    """The first (x, y, z) in element order with x ≼ y ≼ z but not x ≼ z, by
    the cubic scan; kept as the reference for ``check_transitivity``."""
    elems = rel.elements
    return next(
        (
            (x, y, z)
            for x in elems
            for y in elems
            if rel.leq(x, y)
            for z in elems
            if rel.leq(y, z) and not rel.leq(x, z)
        ),
        None,
    )


def _closure(ids, pairs):
    """The reflexive-transitive closure of ``pairs`` over ``ids``."""
    reach = {x: {x} | {b for a, b in pairs if a == x} for x in ids}
    for k in ids:
        for x in ids:
            if k in reach[x]:
                reach[x] |= reach[k]
    return {(x, y) for x in ids for y in reach[x]}


@st.composite
def _finite_relations(draw):
    """Relations on up to 24 shuffled int and str ids: random pairs at a
    random density (reflexive or not), or a closed preorder with one implied
    pair dropped or reversed."""
    n = draw(st.integers(0, 24))
    rng = random.Random(draw(st.integers(0, 2**32)))
    ids = rng.sample([*range(n), *map(str, range(n))], n)
    density = draw(st.floats(0.0, 1.0))
    pairs = {(x, y) for x in ids for y in ids if rng.random() < density}
    if draw(st.booleans()):
        pairs = _closure(ids, pairs)
        implied = sorted(
            {(a, c) for a, b in pairs for c in ids
             if len({a, b, c}) == 3 and (b, c) in pairs and (a, c) in pairs},
            key=repr,
        )
        if implied:
            a, c = draw(st.sampled_from(implied))
            pairs.discard((a, c))
            if draw(st.booleans()):
                pairs.add((c, a))
    return finite_relation(ids, pairs)


@given(rel=_finite_relations())
@settings(max_examples=300, deadline=None)
def test_transitivity_scan_matches_cubic_reference(rel):
    result = check_transitivity(rel)
    expected = cubic_transitivity_witness(rel)
    assert result.status is (CheckStatus.PASS if expected is None else CheckStatus.FAIL)
    assert result.witnesses == ([] if expected is None else [expected])
    assert result.samples_used == len(rel.elements) ** 3
    for x, y, z in result.witnesses:
        assert rel.leq(x, y) and rel.leq(y, z) and not rel.leq(x, z)


def test_transitivity_scan_asks_at_most_n_squared_queries(monkeypatch):
    # The scan reads the relation's rows: it asks no leq at all, finds the
    # closure bit planted out of the last row pair, and leaves the rows as
    # it found them.
    calls = []
    leq = AccessibilityRelation.leq

    def counting_leq(self, x, y):
        calls.append(1)
        return leq(self, x, y)

    monkeypatch.setattr(AccessibilityRelation, "leq", counting_leq)
    n = TRANSITIVITY_CAP
    rows = chain_fixture(n).rows
    rows[n - 3] ^= 1 << (n - 1)
    rel = AccessibilityRelation.finite(range(n), rows)
    for _ in range(2):
        result = check_transitivity(rel)
        assert result.witnesses == [(n - 3, n - 2, n - 1)]
        assert result.samples_used == n ** 3
    assert calls == []
    assert rel.rows == rows


def test_transitivity_scan_asks_overriding_leq():
    # The closure bit 0 ≼ 2 planted out of the chain's rows: leq and both
    # exhaustive scans read the same planted order.
    rows = chain_fixture(3).rows
    assert rows[0] >> 2 & 1
    rows[0] ^= 1 << 2
    rel = AccessibilityRelation.finite([0, 1, 2], rows)
    assert not rel.leq(0, 2)
    result = check_transitivity(rel)
    assert result.failed
    assert result.witnesses == [(0, 1, 2)]
    # The comparison scan sees the planted order too.
    assert check_comparison(rel).witnesses == [(0, 2)]


def test_transitivity_and_comparison_on_a_chain_with_a_deep_incomparable_pair():
    # Dropping the cover pair (150, 151) of the chain leaves it transitive
    # (no y lies strictly between them) but makes that pair incomparable.
    n, a, b = TRANSITIVITY_CAP, 150, 151
    fixture = chain_fixture(n)
    rows = list(fixture.rows)
    rows[a] ^= 1 << b
    rel = AccessibilityRelation.finite(fixture.ids, rows)
    assert check_reflexivity(rel).passed
    transitivity = check_transitivity(rel)
    assert transitivity.passed
    assert transitivity.samples_used == n ** 3
    comparison = check_comparison(rel)
    assert comparison.failed
    assert comparison.witnesses == [(a, b)]
    # Pairs (x, y) with x <= y, scanned row by row up to (a, b).
    assert comparison.samples_used == sum(n - i for i in range(a)) + (b - a) + 1
    fixture_result = check_comparison(fixture.relation())
    assert fixture_result.passed
    assert fixture_result.samples_used == n * (n + 1) // 2


def test_transitivity_induced_sampled(gas_rel):
    assert check_transitivity(gas_rel, samples=500, seed=2).passed


# -- consistency -------------------------------------------------------------

def test_consistency_induced_passes(gas_rel):
    assert check_consistency(gas_rel, gas_rel, samples=200, seed=3).passed


def test_consistency_max_composite_fails():
    mutant = mutate_model(ideal_gas(), "composite_max")
    rel = mutant.relation()
    result = check_consistency(rel, rel, samples=200, seed=3)
    assert result.failed
    assert result.witnesses


def test_consistency_across_distinct_systems(gas, spin):
    result = check_consistency(gas.relation(), spin.relation(),
                               samples=100, seed=3)
    assert result.passed


def test_consistency_equal_pairs_compose(gas, gas_rel):
    from entrokit.core import composite_state

    e = gas.process_engine
    x, xp = e.state(1000.0, 0.02), e.state(2000.0, 0.04)
    assert gas_rel.leq(composite_state([x, xp]), composite_state([x, xp]))


# -- scaling invariance --------------------------------------------------------

def test_scaling_invariance_gas(gas_rel):
    result = check_scaling_invariance(gas_rel, (0.5, 2.0, 3.0), samples=100, seed=4)
    assert result.passed


def test_scaling_invariance_t_equal_one(gas_rel):
    assert check_scaling_invariance(gas_rel, (1.0,), samples=20, seed=4).passed


def test_scaling_invariance_spin_not_applicable(spin):
    result = check_scaling_invariance(spin.relation())
    assert result.status is CheckStatus.NOT_APPLICABLE


# -- splitting ---------------------------------------------------------------

def test_splitting_half(gas_rel):
    assert check_splitting(gas_rel, 0.5, samples=50, seed=5).passed


def test_splitting_near_boundary(gas_rel):
    assert check_splitting(gas_rel, 0.01, samples=50, seed=5).passed


def test_splitting_requires_fraction_in_unit_interval(gas_rel):
    with pytest.raises(DomainError):
        check_splitting(gas_rel, 1.5)


def test_splitting_superlinear_mutant_fails():
    mutant = mutate_model(ideal_gas(), "break_splitting")
    result = check_splitting(mutant.relation(), 0.5, samples=50, seed=5)
    assert result.failed


# -- stability ---------------------------------------------------------------

def test_stability_gas(gas_rel):
    result = check_stability(gas_rel, samples=60, seed=6)
    assert result.passed
    assert result.tolerance_used == pytest.approx(0.5 ** 20)


def test_stability_equal_entropy_pair_is_equivalent(gas, gas_rel, rng):
    x = gas.process_engine.sample_state(rng)
    y = gas.isentropic_partner(x, rng)
    assert gas_rel.equivalent(x, y)


def test_stability_strict_only_mutant_fails_at_equality():
    mutant = mutate_model(ideal_gas(), "strict_only_comparison")
    result = check_stability(mutant.relation(), samples=60, seed=6)
    assert result.failed


def _scalar_stability_witness(rel, tuples):
    """The first tuple (x, y, z0, z1) whose premise holds at every epsilon,
    each asked by ``leq`` and stopping at the first that fails, while x ≼ y
    does not; and how many tuples were scanned."""
    model = rel.models[0]

    def premise_holds(x, y, z0, z1) -> bool:
        for eps in STABILITY_EPS:
            lhs = composite_state([x, model.scale_state(z0, eps)])
            rhs = composite_state([y, model.scale_state(z1, eps)])
            if not rel.leq(lhs, rhs):
                return False
        return True

    for used, (x, y, z0, z1) in enumerate(tuples, 1):
        if premise_holds(x, y, z0, z1) and not rel.leq(x, y):
            return (x, y, z0, z1), used
    return None, len(tuples)


def scalar_check_stability(rel, *, samples=100, seed=0):
    """``check_stability`` with each strict pair ordered by ``leq`` and each
    premise asked by ``leq``, one epsilon at a time, stopping at the first
    that fails; kept as the reference for the batched queries."""
    rng = random.Random(seed)
    if rel.mode == "finite" or not rel.models[0].supports_scaling:
        return not_applicable("stability", "scaling unsupported")
    model = rel.models[0]

    tuples = []
    for _ in range(samples):
        x, y, z0, z1 = rel.sample(rng, 4)
        tuples.append((x, y, z0, z1))
    if model.isentropic_partner is not None:
        drawn = []
        for _ in range(10):
            x = rel.sample(rng, 1)[0]
            y = model.isentropic_partner(x, rng)
            if y is not None:
                drawn.append((x, y, *rel.sample(rng, 2)))
        pairs = [(x, y, _ordered_pair(rel, z0, z1, True)) for x, y, z0, z1 in drawn]
        if drawn and not any(z for _, _, z in pairs):
            raise DomainError("could not sample an ordered pair of states")
        tuples += [(x, y, *z) for x, y, z in pairs if z]

    witness, used = _scalar_stability_witness(rel, tuples)
    return verdict(
        "stability", witness is None, [witness], samples_used=used,
        tolerance_used=STABILITY_EPS[-1],
    )


# The sampled checks as loops that draw all of a clause's rows first, order
# each pair by ``leq`` and drop the row of a pair that is not ordered (or
# ties where it must be strict), then ask ``leq`` one row at a time and stop
# at the first witness; kept as the references for the batched checks, which
# must match them in status, witnesses and ``samples_used``.

def _ordered_pair(rel, x, y, strict=False):
    """(x, y) where x ≼ y, else (y, x) where y ≼ x; None where neither
    holds, or where both do and the pair must be strict."""
    fwd, bwd = rel.leq(x, y), rel.leq(y, x)
    if not (fwd or bwd) or (strict and fwd and bwd):
        return None
    return (x, y) if fwd else (y, x)


def _scalar_rows(rng, n, draws):
    """The ``n`` rows of a clause, all drawn before any is judged: each
    ``(source, strict)`` of ``draws`` adds a state of ``source`` where
    ``strict`` is None, else a pair of them ordered by ``_ordered_pair``.
    A row whose pair is None is dropped, and a pair column that keeps none
    of its draws raises DomainError."""
    raw = [[source.sample(rng, 1 if strict is None else 2) for source, strict in draws]
           for _ in range(n)]
    columns = []
    for j, (source, strict) in enumerate(draws):
        column = [items[j] for items in raw]
        if strict is not None:
            column = [_ordered_pair(source, x, y, strict) for x, y in column]
            if column and not any(column):
                raise DomainError("could not sample an ordered pair of states")
        columns.append(column)
    return [sum(map(tuple, row), ()) for row in zip(*columns) if None not in row]


def scalar_check_reflexivity(rel, *, samples=200, seed=0):
    rng = random.Random(seed)
    states = list(rel.elements) if rel.mode == "finite" else rel.sample(rng, samples)
    bad = [x for x in states if not rel.equivalent(x, x)]
    return verdict("reflexivity", not bad, bad, samples_used=len(states))


def scalar_check_transitivity(rel, *, samples=500, seed=0):
    rng = random.Random(seed)
    witnesses = []
    count = 0
    for x, y, z in _scalar_rows(rng, samples, [(rel, None)] * 3):
        count += 1
        if rel.leq(x, y) and rel.leq(y, z) and not rel.leq(x, z):
            witnesses.append((x, y, z))
            break
    return verdict("transitivity", not witnesses, witnesses, samples_used=count)


def scalar_check_consistency(rel_a, rel_b, *, samples=200, seed=0):
    rng = random.Random(seed)
    rel_comp = composite_relation([rel_a, rel_b])
    witnesses = []
    used = 0
    for x, y, xp, yp in _scalar_rows(rng, samples, [(rel_a, False), (rel_b, False)]):
        used += 1
        if not rel_comp.leq(composite_state([x, xp]), composite_state([y, yp])):
            witnesses.append((x, xp, y, yp))
            break
    if not witnesses:
        for x, y, z in _scalar_rows(rng, samples // 2, [(rel_a, True), (rel_b, None)]):
            used += 1
            cx, cy = composite_state([x, z]), composite_state([y, z])
            if accessible(rel_comp, cx, cy) is not Access.FORWARD:
                witnesses.append((x, z, y, z))
                break
    return verdict("consistency", not witnesses, witnesses, samples_used=used)


def scalar_check_scaling_invariance(rel, t_samples=(0.5, 2.0, 3.0), *, samples=100, seed=0):
    rng = random.Random(seed)
    if rel.mode == "finite":
        return not_applicable("scaling_invariance", "finite fixture declares no scaling support")
    model = rel.models[0]
    if not model.supports_scaling:
        return not_applicable(
            "scaling_invariance", f"model {model.id!r} cannot form scaled copies"
        )
    used = 0
    for t in t_samples:
        if t <= 0:
            raise DomainError(f"scale factor must be positive, got {t!r}")
        for x, y in _scalar_rows(rng, samples, [(rel, False)]):
            used += 1
            tx, ty = model.scale_state(x, t), model.scale_state(y, t)
            if not rel.leq(tx, ty):
                return verdict("scaling_invariance", False, [(x, y, t)], samples_used=used)
    return verdict("scaling_invariance", True, [], samples_used=used)


def scalar_check_splitting(rel, t=0.5, *, samples=100, seed=0):
    if not (0.0 < t < 1.0):
        raise DomainError(f"splitting fraction must lie strictly in (0, 1), got {t!r}")
    rng = random.Random(seed)
    if rel.mode == "finite" or not rel.models[0].supports_scaling:
        return not_applicable("splitting", "scaling unsupported")
    model = rel.models[0]
    witnesses = []
    used = 0
    for (x,) in _scalar_rows(rng, samples, [(rel, None)]):
        used += 1
        split = composite_state([model.scale_state(x, t), model.scale_state(x, 1.0 - t)])
        if not (rel.leq(x, split) and rel.leq(split, x)):
            witnesses.append((x, t))
            break
    return verdict("splitting", not witnesses, witnesses, samples_used=used, tolerance_used=t)


def scalar_check_comparison(rel, *, samples=200, seed=0):
    rng = random.Random(seed)
    witnesses = []
    used = 0
    for x, y in _scalar_rows(rng, samples, [(rel, None)] * 2):
        used += 1
        if rel.compatible(x, y) and accessible(rel, x, y) is Access.INCOMPARABLE:
            witnesses.append((x, y))
            break
    return verdict("comparison", not witnesses, witnesses, samples_used=used)


def scalar_check_n1_n2(rel, equilibrium_states, nonequilibrium_states=(), *,
                       samples=200, seed=0):
    rng = random.Random(seed)
    gamma = list(equilibrium_states)
    if not gamma:
        return not_applicable("n1_n2", "no equilibrium subset declared")
    hat = gamma + list(nonequilibrium_states)
    used = 0
    witnesses = []

    def pick(seq):
        return seq[rng.randrange(len(seq))]

    for x in hat:
        used += 1
        if not rel.equivalent(x, x):
            witnesses.append(("reflexivity", x))
    for x, y, z in [(pick(hat), pick(hat), pick(hat)) for _ in range(samples)]:
        used += 1
        if rel.leq(x, y) and rel.leq(y, z) and not rel.leq(x, z):
            witnesses.append(("transitivity", (x, y, z)))
            break

    if rel.mode == "induced":
        rows = [(pick(hat), pick(hat), pick(hat), pick(hat)) for _ in range(samples // 2)]
        for x, y, xp, yp in rows:
            if not rel.leq(x, y):
                x, y = y, x
            if not rel.leq(xp, yp):
                xp, yp = yp, xp
            used += 1
            if not rel.leq(composite_state([x, xp]), composite_state([y, yp])):
                witnesses.append(("consistency", (x, xp, y, yp)))
                break

    if rel.mode == "induced" and rel.models[0].supports_scaling:
        tuples = [
            (pick(hat), pick(hat), pick(gamma), pick(gamma)) for _ in range(samples // 4)
        ]
        witness, scanned = _scalar_stability_witness(rel, tuples)
        used += scanned
        if witness is not None:
            witnesses.append(("stability", witness))

    for x in nonequilibrium_states:
        used += 1
        below = any(rel.leq(g, x) for g in gamma)
        above = any(rel.leq(x, g) for g in gamma)
        if not (below and above):
            witnesses.append(("sandwich", x))

    return verdict("n1_n2", not witnesses, witnesses, samples_used=used)


def _outcome(check, *args, **kwargs):
    """The check's result, or the type of what it raised."""
    try:
        return check(*args, **kwargs)
    except Exception as exc:  # the paths must fail alike too
        return type(exc)


@st.composite
def _pooled_gases(draw):
    """A gas from ``_GAS_PARAMS``, and a pool of its states that its batch
    sampler draws from (or, at times, the box sampler kept)."""
    gas = ideal_gas(**draw(_GAS_PARAMS))
    pool = draw(state_pools(gas))
    if draw(st.booleans()):
        gas.process_engine.sample_states = lambda rng, n: [
            pool[rng.randrange(len(pool))] for _ in range(n)
        ]
    return gas, pool


@given(gas_pool=_pooled_gases(), samples=st.integers(0, 25), seed=st.integers(0, 2**16))
@settings(max_examples=40, deadline=None)
def test_batched_stability_matches_scalar_reference(gas_pool, samples, seed):
    gas, _ = gas_pool
    expected = _outcome(scalar_check_stability, gas.relation(), samples=samples, seed=seed)
    for rel in (gas.relation(), ScalarRelation.induced([gas])):
        assert _outcome(check_stability, rel, samples=samples, seed=seed) == expected


@pytest.mark.parametrize("mutation", ["break_scaling", "break_splitting", "strict_only_comparison"])
def test_batched_stability_matches_scalar_reference_on_mutants(mutation):
    rel = mutate_model(ideal_gas(), mutation).relation()
    for seed in range(3):
        expected = scalar_check_stability(rel, samples=40, seed=seed)
        assert check_stability(rel, samples=40, seed=seed) == expected


@given(gas_pool=_pooled_gases(), samples=st.integers(0, 60), seed=st.integers(0, 2**16))
@settings(max_examples=40, deadline=None)
def test_batched_n1_n2_matches_scalar_path(gas_pool, samples, seed):
    gas, pool = gas_pool
    gamma = gas.process_engine.grid(3, 3) + [
        s for s in pool if s.kind is not StateKind.NONEQUILIBRIUM
    ]
    noneq = [s for s in pool if s.kind is StateKind.NONEQUILIBRIUM]
    args = (gamma, noneq)
    expected = _outcome(
        check_n1_n2, ScalarRelation.induced([gas]), *args, samples=samples, seed=seed
    )
    assert _outcome(check_n1_n2, gas.relation(), *args, samples=samples, seed=seed) == expected


def test_stability_asks_scalar_leq_only_of_plain_pairs(monkeypatch):
    rel = ideal_gas().relation()
    asked = []
    leq = AccessibilityRelation.leq
    monkeypatch.setattr(
        AccessibilityRelation, "leq", lambda r, x, y: asked.append((x, y)) or leq(r, x, y)
    )
    assert check_stability(rel, samples=100, seed=5).passed
    # x ≼ y, the premises' composites and the strict pairs of the isentropic
    # tuples all went to leq_many.
    assert not asked


# -- comparison ---------------------------------------------------------------

def test_comparison_induced_single_space(gas_rel):
    assert check_comparison(gas_rel, samples=200, seed=7).passed


def test_comparison_disconnected_fixture_fails():
    rel = finite_relation([1, 2], [(1, 1), (2, 2)])
    result = check_comparison(rel)
    assert result.failed


def test_comparison_single_state_universe():
    rel = finite_relation([1], [(1, 1)])
    assert check_comparison(rel).passed


def accessible_comparison_witness(rel):
    """The first pair (x, y), y at or after x in element order, that
    ``accessible`` calls incomparable, and how many pairs were scanned up to
    it; kept as the reference for the finite ``check_comparison``."""
    elems = rel.elements
    used = 0
    for i, x in enumerate(elems):
        for y in elems[i:]:
            used += 1
            if accessible(rel, x, y) is Access.INCOMPARABLE:
                return (x, y), used
    return None, used


@given(rel=_finite_relations())
@settings(max_examples=300, deadline=None)
def test_comparison_scan_matches_accessible_reference(rel):
    expected, used = accessible_comparison_witness(rel)
    calls = []
    leq = rel.leq

    def counting_leq(x, y):
        calls.append((x, y))
        return leq(x, y)

    rel.leq = counting_leq
    result = check_comparison(rel)
    assert result.status is (CheckStatus.PASS if expected is None else CheckStatus.FAIL)
    assert result.witnesses == ([] if expected is None else [expected])
    assert result.samples_used == used
    assert len(calls) <= 2 * used


def _total_preorders(n: int, seed: int) -> tuple[list, dict]:
    """A total preorder on ``n`` shuffled states over about n/3 random
    levels (x precedes y exactly when level(x) <= level(y)), as the states
    and the pairs of three variants: intact, a cover pair dropped, and a
    closure pair reversed.  Equal levels give equal rows, which
    ``_finite_relations`` rarely draws."""
    rng = random.Random(seed)
    states = rng.sample(range(n), n)
    level = {s: rng.randrange(n // 3) for s in states}
    pairs = [(a, b) for a in states for b in states if level[a] <= level[b]]
    steps = sorted(set(level.values()))
    above = dict(zip(steps, steps[1:]))  # the next occupied level up
    cover = rng.choice([(a, b) for a, b in pairs if level[b] == above.get(level[a])])
    closure = rng.choice([(a, c) for a, c in pairs if level[c] > above.get(level[a], n)])
    return states, {
        "intact": pairs,
        "cover_dropped": [p for p in pairs if p != cover],
        "closure_reversed": [p if p != closure else closure[::-1] for p in pairs],
    }


@pytest.mark.parametrize("seed", range(6))
def test_transitivity_and_comparison_on_total_preorders_with_repeated_rows(seed):
    n = 60
    states, variants = _total_preorders(n, seed)
    for variant, pairs in variants.items():
        rel = finite_relation(states, pairs)
        assert len(set(rel.rows)) < n // 2
        transitivity, comparison = check_transitivity(rel), check_comparison(rel)
        expected = cubic_transitivity_witness(rel)
        assert transitivity.witnesses == ([] if expected is None else [expected])
        assert transitivity.samples_used == n ** 3
        expected, used = accessible_comparison_witness(rel)
        assert comparison.witnesses == ([] if expected is None else [expected])
        assert comparison.samples_used == used
        if variant == "cover_dropped":
            assert comparison.failed
        else:
            # Reversing a closure pair keeps every pair comparable.
            assert comparison.passed
            assert transitivity.passed == (variant == "intact")



@pytest.mark.parametrize("variant, code", [("intact", 0), ("cover_dropped", 1)])
def test_check_axioms_cli_on_a_total_preorder_at_the_cap(tmp_path, variant, code):
    # End to end on the largest universe transitivity still scans.
    states, variants = _total_preorders(TRANSITIVITY_CAP, 1)
    fixture, config = tmp_path / "preorder.json", tmp_path / "config.json"
    fixture.write_text(json.dumps({"states": states, "pairs": variants[variant]}))
    config.write_text(json.dumps({"model": {"kind": "fixture", "params": {"path": str(fixture)}}}))
    assert main(["check-axioms", "--config", str(config), "--out", str(tmp_path / "r.json")]) == code

# -- n1/n2 ---------------------------------------------------------------------

def test_n1_n2_gas_passes(gas, gas_rel, rng):
    e = gas.process_engine
    gamma = e.gamma_grid()
    noneq = [e.sample_nonequilibrium(rng) for _ in range(10)]
    assert check_n1_n2(gas_rel, gamma, noneq, samples=100, seed=8).passed


def test_n1_n2_asks_reflexivity_once_per_state(gas, gas_rel, rng, monkeypatch):
    # N1(a)'s x ≼ x is its own converse, so its query asks no converse.
    calls = []
    ask = axioms_module._ask

    def recording_ask(rel, xs, ys, converse=True):
        calls.append((list(xs), list(ys), converse))
        return ask(rel, xs, ys, converse)

    monkeypatch.setattr(axioms_module, "_ask", recording_ask)
    e = gas.process_engine
    gamma = e.gamma_grid()
    noneq = [e.sample_nonequilibrium(rng) for _ in range(3)]
    assert check_n1_n2(gas_rel, gamma, noneq, samples=20, seed=8).passed
    xs, ys, converse = calls[0]
    assert xs == ys == [*gamma, *noneq]
    assert converse is False


def test_n1_n2_unsandwiched_state_fails(gas, gas_rel):
    e = gas.process_engine
    gamma = e.gamma_grid()
    lowest = min(gas.oracle_entropy(g) for g in gamma)
    base = e.state(600.0, 0.006)
    drop = gas.oracle_entropy(base) - lowest + 5.0
    stranded = e.state(600.0, 0.006, deficit=drop)
    result = check_n1_n2(gas_rel, gamma, [stranded], samples=50, seed=8)
    assert result.failed
    assert any(w[0] == "sandwich" for w in result.witnesses)


def test_n1_n2_equilibrium_only_passes(gas, gas_rel):
    gamma = gas.process_engine.gamma_grid()
    assert check_n1_n2(gas_rel, gamma, [], samples=50, seed=8).passed


def test_n1_n2_empty_gamma_not_applicable(gas_rel):
    result = check_n1_n2(gas_rel, [], [])
    assert result.status is CheckStatus.NOT_APPLICABLE


# -- witness replay -----------------------------------------------------------

def test_fail_witnesses_replay_deterministically():
    rel = finite_relation([1, 2, 3], [(1, 2), (2, 3)])
    result = check_transitivity(rel)
    x, y, z = result.witnesses[0]
    assert rel.leq(x, y) and rel.leq(y, z) and not rel.leq(x, z)


def test_checks_reproducible_under_fixed_seed(gas_rel):
    a = check_stability(gas_rel, samples=40, seed=11)
    b = check_stability(gas_rel, samples=40, seed=11)
    assert a.status is b.status and a.samples_used == b.samples_used


def test_any_witness_kind_serializes(gas):
    import json

    from entrokit.core import ProcessRecord

    e = gas.process_engine
    a, b = e.state(2000.0, 0.02), e.state(2500.0, 0.02)
    rec = e.weight_process(a, b)
    result = CheckResult("demo", CheckStatus.FAIL, [rec, (a, b), {"note": a}])
    json.dumps(result.to_dict(), sort_keys=True)


# -- batched checks against the scalar loops -----------------------------------

def _battery(rel, other, gamma, noneq, seed, check=None):
    """The sampled checks on ``rel`` at the mutation matrix's sample counts,
    each run by ``check`` (a name to function map; the batched checks by
    default).  ``other`` is the second relation of a cross-system
    consistency check."""
    check = check or {
        "reflexivity": check_reflexivity,
        "transitivity": check_transitivity,
        "consistency": check_consistency,
        "scaling_invariance": check_scaling_invariance,
        "splitting": check_splitting,
        "comparison": check_comparison,
        "n1_n2": check_n1_n2,
    }
    return [
        _outcome(check["reflexivity"], rel, samples=60, seed=seed),
        _outcome(check["transitivity"], rel, samples=60, seed=seed + 1),
        _outcome(check["consistency"], rel, rel, samples=40, seed=seed + 2),
        _outcome(check["consistency"], rel, other, samples=20, seed=seed + 2),
        _outcome(check["scaling_invariance"], rel, samples=20, seed=seed + 3),
        _outcome(check["splitting"], rel, samples=20, seed=seed + 4),
        _outcome(check["comparison"], rel, samples=60, seed=seed + 6),
        _outcome(check["n1_n2"], rel, gamma, noneq, samples=40, seed=seed + 7),
    ]


SCALAR_CHECKS = {
    "reflexivity": scalar_check_reflexivity,
    "transitivity": scalar_check_transitivity,
    "consistency": scalar_check_consistency,
    "scaling_invariance": scalar_check_scaling_invariance,
    "splitting": scalar_check_splitting,
    "comparison": scalar_check_comparison,
    "n1_n2": scalar_check_n1_n2,
}


def _target(kind):
    """A model and its relation: the gas, the spin, or a gas mutant."""
    if kind == "spin":
        model = two_level_spin()
    else:
        model = ideal_gas() if kind == "gas" else mutate_model(ideal_gas(), kind)
    return model, model.relation()


@pytest.mark.parametrize("kind", [
    "gas", "spin", "composite_max", "strict_only_comparison", "break_scaling",
    "break_splitting",
])
def test_batched_checks_match_scalar_loops(kind):
    model, rel = _target(kind)
    # A spin beside the gas is lost in the gas's rounding, so a spin is
    # composed with a second spin.
    other = two_level_spin(50, model_id="spin2").relation()
    e = model.process_engine
    gamma = e.gamma_grid()
    noneq = [e.sample_nonequilibrium(random.Random(5)) for _ in range(5)]
    statuses = set()
    for seed in range(10):
        batched = _battery(rel, other, gamma, noneq, seed)
        assert batched == _battery(rel, other, gamma, noneq, seed, SCALAR_CHECKS)
        statuses |= {(r.check_name, r.status) for r in batched}
    # Each mutant's defect shows, so its witness was compared too.
    failing = {name for name, status in statuses if status is CheckStatus.FAIL}
    assert failing == {
        "gas": set(), "spin": set(), "composite_max": {"consistency", "splitting"},
        "strict_only_comparison": set(), "break_scaling": {"scaling_invariance"},
        "break_splitting": {"splitting"},
    }[kind]


def _tied_gas():
    """The gas with an equivalence tolerance of 5 J/K, against an entropy
    span of about 62 J/K: many sampled pairs tie, and the relation is not
    transitive."""
    gas = ideal_gas()
    gas.entropy_atol = 5.0
    return gas


@pytest.mark.parametrize("relation", ["plain", "strict_only_comparison"])
def test_batched_checks_match_scalar_loops_with_retries_and_early_stops(
    relation, monkeypatch
):
    gas = _tied_gas()
    model = gas if relation == "plain" else mutate_model(gas, relation)
    rel = model.relation()
    e = gas.process_engine
    gamma = e.gamma_grid()
    noneq = [e.sample_nonequilibrium(random.Random(5)) for _ in range(5)]
    dropped = []
    ordered = axioms_module._ordered

    def counted(*args, **kwargs):
        pairs = ordered(*args, **kwargs)
        dropped.append(pairs.count(None))
        return pairs

    monkeypatch.setattr(axioms_module, "_ordered", counted)
    n1_witnesses = set()
    for seed in range(10):
        batched = _battery(rel, rel, gamma, noneq, seed)
        assert batched == _battery(rel, rel, gamma, noneq, seed, SCALAR_CHECKS)
        n1_n2 = batched[-1]
        n1_witnesses |= {kind for kind, _ in n1_n2.witnesses}
    # Rows were dropped (a strict pair that ties, or a pair neither of whose
    # states precedes the other under the strict-only order), and on the
    # plain relation N1(a) and N1(b) stopped early while later clauses still
    # drew from the rng.
    assert sum(dropped)
    if relation == "plain":
        assert {"transitivity", "consistency"} <= n1_witnesses


@pytest.mark.parametrize("check", ["consistency", "scaling_invariance"])
def test_draws_do_not_depend_on_the_relations_answers(check):
    def drawn(gas):
        states = []
        sample = gas.process_engine.sample_states

        def recorded(rng, n):
            states.extend(sample(rng, n))
            return states[len(states) - n:]

        gas.process_engine.sample_states = recorded
        rel = gas.relation()
        args = (rel, rel) if check == "consistency" else (rel,)
        getattr(axioms_module, f"check_{check}")(*args, samples=40, seed=3)
        return [s.coords for s in states]

    # The tied gas's strict pairs often tie, and their rows are dropped, not
    # drawn again, so its consistency check draws what the intact gas's does.
    # Its scaling invariance fails at t = 2 and stops there, but only after
    # that clause has drawn all of its 40 pairs.
    intact, tied = drawn(ideal_gas()), drawn(_tied_gas())
    assert len(intact) == {"consistency": 40 * 4 + 20 * 3, "scaling_invariance": 240}[check]
    assert tied == intact[:{"consistency": 220, "scaling_invariance": 160}[check]]


@pytest.mark.parametrize("mutation", [None, "composite_max"])
def test_consistency_of_two_relations_matches_scalar_loop(mutation):
    # Two gases with different boxes: each row's states are drawn from both,
    # row by row.  Under the composite's max, the strict clause finds a
    # witness whose states tell the draw order.
    gas = ideal_gas()
    if mutation is not None:
        gas = mutate_model(gas, mutation)
    other = ideal_gas(box=((4000.0, 30000.0), (0.05, 0.3)), model_id="other")
    rel_a, rel_b = gas.relation(), other.relation()
    for seed in range(4):
        expected = scalar_check_consistency(rel_a, rel_b, samples=30, seed=seed)
        assert expected.failed is (mutation is not None)
        assert check_consistency(rel_a, rel_b, samples=30, seed=seed) == expected


class _OrdersNothing(AccessibilityRelation):
    """An induced relation under which no state precedes another."""

    def _compare_rows(self, xs, ys, a, b, atol):
        return [False] * len(a)


def test_a_pair_column_with_no_ordered_draw_raises():
    with pytest.raises(DomainError, match="ordered pair"):
        check_scaling_invariance(_OrdersNothing.induced([ideal_gas()]), samples=5)
    # Every pair of this gas ties, so none is strictly ordered.
    gas = ideal_gas()
    gas.entropy_atol = 1e9
    rel = gas.relation()
    with pytest.raises(DomainError, match="ordered pair"):
        check_consistency(rel, rel, samples=5)
    with pytest.raises(DomainError, match="ordered pair"):
        check_stability(rel, samples=5)
    # Zero rows draw no pair, so nothing is asked and nothing raises.
    assert check_scaling_invariance(_OrdersNothing.induced([ideal_gas()]), samples=0).passed


def _seed_drawing(sampler, n, wanted):
    """The first seed whose first ``n`` draws from the batch ``sampler`` are
    ``wanted``."""
    for seed in range(1000):
        if wanted(sampler(random.Random(seed), n)):
            return seed
    raise AssertionError("no such seed")


def test_splitting_returns_its_witness_before_a_refused_copy():
    mutant = mutate_model(ideal_gas(), "break_splitting")
    e = mutant.process_engine
    fine, tiny = e.state(2000.0, 0.02), e.state(5e-324, 0.02)
    with pytest.raises(DomainError):
        mutant.scale_state(tiny, 0.5)
    e.sample_states = lambda rng, n: [tiny if rng.random() < 0.5 else fine for _ in range(n)]
    # The first row is the witness, and a later one holds the refused copy.
    seed = _seed_drawing(e.sample_states, 20, lambda d: d[0] is fine and tiny in d[1:])
    rel = mutant.relation()
    expected = scalar_check_splitting(rel, 0.5, samples=20, seed=seed)
    assert expected.failed and expected.witnesses == [(fine, 0.5)]
    assert check_splitting(rel, 0.5, samples=20, seed=seed) == expected
    # Without the defect the loop meets the refused copy, and so does the batch.
    intact = ideal_gas()
    intact.process_engine.sample_states = e.sample_states
    rel = intact.relation()
    assert _outcome(scalar_check_splitting, rel, samples=20, seed=seed) is DomainError
    assert _outcome(check_splitting, rel, samples=20, seed=seed) is DomainError


def test_scaling_invariance_returns_its_witness_before_a_refused_copy():
    mutant = mutate_model(ideal_gas(), "break_scaling")
    e = mutant.process_engine
    low, high, huge = e.state(1000.0, 0.01), e.state(4000.0, 0.05), e.state(1e308, 0.02)
    with pytest.raises(DomainError):
        mutant.scale_state(huge, 2.0)
    pool = [low, high, huge]
    e.sample_states = lambda rng, n: [pool[rng.randrange(3)] for _ in range(n)]
    seed = _seed_drawing(
        e.sample_states, 40, lambda d: {d[0], d[1]} == {low, high} and huge in d[2:]
    )
    rel = mutant.relation()
    expected = scalar_check_scaling_invariance(rel, (2.0,), samples=20, seed=seed)
    assert expected.failed and expected.witnesses == [(low, high, 2.0)]
    assert check_scaling_invariance(rel, (2.0,), samples=20, seed=seed) == expected
