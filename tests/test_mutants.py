import ast
import hashlib
import json
import math
import os
import random
import select
from pathlib import Path

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
from entrokit.catalog import FinitePreorderFixture, chain_fixture, ideal_gas
from entrokit.cli import SUBCOMMAND_SUITES
from entrokit.core import composite_relation
from entrokit.energy import check_path_independence
from entrokit import mutants as mutants_module
from entrokit.errors import CapabilityError, DomainError, EngineError
from entrokit.mutants import (
    AXIOM_COUNTS,
    MUTATIONS,
    THEOREM_COUNTS,
    mutate_model,
    mutation_matrix,
    run_model_checks,
)
from entrokit.report import SUITES, SuiteConfig, run
from entrokit.reservoir import BENCH_RESERVOIR, Reservoir, reference_reservoir, temperature_of
from test_core import rows_from_pairs
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


def _pair_set_break(ids, pairs):
    """The pair set with one closure pair (a, c) reversed: (a, b) the first
    pair in sorted order, c the first id in file order with b ≼ c, a ≼ c and
    not c ≼ a; None where there is none.  The reference for the rows."""
    for a, b in sorted(pairs):
        for c in ids:
            if a != b and c not in (a, b) and {(b, c), (a, c)} <= pairs and (c, a) not in pairs:
                return pairs - {(a, c)} | {(c, a)}
    return None


@given(
    levels=st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), min_size=1, max_size=12),
    as_str=st.booleans(), total=st.booleans(), seed=st.integers(0, 2**16),
)
@settings(max_examples=150, deadline=None)
def test_break_transitivity_reverses_the_pair_the_sorted_pair_scan_chose(levels, as_str, total, seed):
    # A preorder by levels, total on the first coordinate or the product
    # order on both, over ids listed in shuffled order.
    ids = [f"s{k}" if as_str else k for k in range(len(levels))]
    random.Random(seed).shuffle(ids)
    level = dict(zip(ids, levels))
    pairs = {
        (a, b) for a in ids for b in ids
        if (level[a][0] <= level[b][0] if total
            else all(u <= v for u, v in zip(level[a], level[b])))
    }
    fixture = FinitePreorderFixture(ids, rows_from_pairs(ids, pairs))
    expected = _pair_set_break(ids, pairs)
    if expected is None:
        with pytest.raises(CapabilityError):
            mutate_model(fixture, "break_transitivity")
        return
    mutant = mutate_model(fixture, "break_transitivity")
    assert mutant.ids == ids
    assert mutant.rows == rows_from_pairs(ids, expected)
    assert fixture.rows == rows_from_pairs(ids, pairs)


def test_break_transitivity_on_ids_that_do_not_sort_together():
    ids = [1, "a", 2]
    fixture = FinitePreorderFixture(ids, rows_from_pairs(ids, [
        (x, y) for i, x in enumerate(ids) for y in ids[i:]
    ]))
    rel = mutate_model(fixture, "break_transitivity").relation()
    # Pairs in file order: (1, "a") is the first with a c, namely 2.
    assert check_transitivity(rel).witnesses == [(1, "a", 2)]
    assert rel.leq(2, 1) and not rel.leq(1, 2)


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
    report = mutation_matrix(seed=0)
    payload = json.dumps(report, sort_keys=True)
    parsed = json.loads(payload)
    assert parsed == report
    assert parsed["ok"] is True
    assert len(parsed["mutants"]) == len(MUTATIONS)


# The batteries, read from the source without running them: the functions
# that assemble them, and those that call the assembly with their counts.
_SOURCES = {
    module: ast.parse((Path(mutants_module.__file__).parent / f"{module}.py").read_text())
    for module in ("report", "mutants")
}


def _function(module: str, name: str) -> ast.FunctionDef:
    return next(
        node for node in ast.walk(_SOURCES[module])
        if isinstance(node, ast.FunctionDef) and node.name == name
    )


def _counts_read(module: str, name: str) -> set[str]:
    """The keys the function reads as ``counts["<key>"]``."""
    return {
        node.slice.value for node in ast.walk(_function(module, name))
        if isinstance(node, ast.Subscript)
        and getattr(node.value, "id", None) == "counts"
        and isinstance(node.slice, ast.Constant)
    }


def _counts_declared(module: str, name: str) -> set[str]:
    """The keys of the dict literal the function assigns to ``counts``."""
    (table,) = [
        node.value for node in ast.walk(_function(module, name))
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == "counts"
    ]
    return {key.value for key in table.keys}


def _called(*functions: ast.FunctionDef) -> set[str]:
    """The bare names the functions call."""
    return {
        node.func.id for fn in functions for node in ast.walk(fn)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
    }


def test_every_battery_declares_exactly_the_counts_the_assembly_reads():
    # A count the assembly does not read is a stale knob; one it reads that
    # a battery lacks is a KeyError.  Criterion 09 takes AXIOM_COUNTS' keys.
    axioms = _counts_read("report", "axiom_checks")
    theorems = _counts_read("report", "theorem_checks")
    assert "nonequilibrium" in axioms and len(theorems) == 3
    assert set(AXIOM_COUNTS) == _counts_declared("report", "suite_axioms") == axioms
    assert set(THEOREM_COUNTS) == _counts_declared("report", "suite_theorems") == theorems


def test_every_expected_failure_is_a_check_its_battery_runs():
    # Each check is named after its function: check_<name> emits <name>.
    model = _function("mutants", "run_model_checks")
    assembly = [_function("report", name) for name in ("axiom_checks", "theorem_checks")]
    assert {"axiom_checks", "theorem_checks"} <= _called(model)
    runs = {
        battery: {
            name.removeprefix("check_") for name in _called(*functions) if name.startswith("check_")
        }
        for battery, functions in (
            ("model", [model, *assembly]),
            ("fixture", [_function("mutants", "run_fixture_checks")]),
        )
    }
    for mutation, expected in MUTATIONS.items():
        battery = "fixture" if mutation == "break_transitivity" else "model"
        assert expected <= runs[battery], mutation


def _emitted(model: dict, suites) -> tuple[set[str], dict]:
    """The check names a run emits, and its summaries."""
    report = run(SuiteConfig(model=model, suites=suites, seed=1))
    return {r.check_name for r in report.all_checks}, report.summaries


def test_matrix_runs_only_checks_the_report_emits(tmp_path):
    # The gas's `all` emits the matrix too, so one run gives both sides.
    emitted, summaries = _emitted({"kind": "ideal_gas"}, SUITES)
    matrix = summaries["mutation_matrix"]
    assert set(matrix["baseline_model"]) <= emitted
    for mutation, expected in MUTATIONS.items():
        assert expected <= emitted, mutation

    path = tmp_path / "chain.json"
    path.write_text(json.dumps(
        {"states": [1, 2, 3], "pairs": [[1, 2], [2, 3], [1, 3]]}
    ))
    on_fixture, _ = _emitted(
        {"kind": "fixture", "params": {"path": str(path)}}, SUBCOMMAND_SUITES["check-axioms"]
    )
    assert set(matrix["baseline_fixture"]) <= on_fixture


# sha256 of the sorted-key JSON of ``mutation_matrix(seed=s)``.  The matrix
# holds statuses only, so every seed gives these bytes; a change that moves
# a status, a check name or a mutation moves them.
MATRIX_SHA256 = "1cf1b4ec7d7fba9f43c73dead5e0a9c42fdf64ea45a8c2236b494a2e4e4d282d"


def _battery_leq_calls(model, monkeypatch) -> int:
    """How often one ``run_model_checks`` battery calls ``leq`` on the
    class of the model's relation."""
    cls, calls = type(model.relation()), []
    leq = cls.leq
    monkeypatch.setattr(cls, "leq", lambda rel, x, y: calls.append(1) or leq(rel, x, y))
    run_model_checks(model, BENCH_RESERVOIR, seed=1)
    monkeypatch.undo()
    return len(calls)


@pytest.mark.parametrize("mutation", ["composite_max", "strict_only_comparison"])
def test_relation_mutants_are_asked_in_batches(mutation, monkeypatch):
    # A relation mutant overrides the batch's rule, not leq: its battery asks
    # leq as often as the intact gas's does.
    intact = _battery_leq_calls(ideal_gas(), monkeypatch)
    assert _battery_leq_calls(mutate_model(ideal_gas(), mutation), monkeypatch) <= intact <= 30


@pytest.mark.parametrize("seed", range(5))
def test_mutation_matrix_bytes_are_pinned(seed):
    payload = json.dumps(mutation_matrix(seed=seed), sort_keys=True).encode()
    assert hashlib.sha256(payload).hexdigest() == MATRIX_SHA256


def _usable_cpus() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


@pytest.mark.parametrize("seed", range(5))
def test_mutation_matrix_is_the_same_on_one_cpu(seed, monkeypatch):
    default = mutation_matrix(seed=seed)

    def no_fork():
        raise AssertionError("forked with one usable CPU")

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(os, "fork", no_fork)
    assert mutation_matrix(seed=seed) == default


@pytest.mark.skipif(_usable_cpus() < 2, reason="the matrix forks only with two usable CPUs")
def test_mutation_matrix_forks_a_worker_per_usable_cpu(monkeypatch):
    forks, fork = [], os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    mutation_matrix(seed=0)
    assert len(forks) == min(_usable_cpus(), 7) - 1


@pytest.mark.parametrize("cpus", [2, 3, 16])
def test_mutation_matrix_is_the_same_for_any_worker_count(cpus, monkeypatch):
    # 16 CPUs give six workers, the most seven batteries use, on any machine.
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    payload = json.dumps(mutation_matrix(seed=0), sort_keys=True).encode()
    assert hashlib.sha256(payload).hexdigest() == MATRIX_SHA256


def test_mutation_matrix_refuses_workers_started_with_another_seed():
    workers = mutants_module.MatrixWorkers(1)
    try:
        with pytest.raises(DomainError, match="seed 1, not 2"):
            mutation_matrix(seed=2, workers=workers)
    finally:
        workers.close()
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _unpicklable():
    exc = ValueError("boom")
    exc.hook = lambda: None
    return exc


@pytest.mark.parametrize("where, planted, raised, message", [
    ("child", EngineError("engine refused"), EngineError, "engine refused"),
    ("parent", ZeroDivisionError("planted"), ZeroDivisionError, "planted"),
    ("child", _unpicklable(), RuntimeError, "unpicklable ValueError('boom')"),
])
def test_matrix_failures_propagate_and_leave_no_child(where, planted, raised, message,
                                                      monkeypatch):
    # One worker, even on one CPU; the planted battery raises in this
    # process or in the child.  The child signals each battery it takes,
    # and this process holds its first battery until the child has taken
    # one, so the child's case does not depend on scheduling.
    parent, battery = os.getpid(), mutants_module.run_model_checks
    taken, took = os.pipe()
    waited = []

    def raising(*args, **kwargs):
        in_parent = os.getpid() == parent
        if not in_parent:
            os.write(took, b".")
        elif where == "child" and not waited:
            waited.append(select.select([taken], [], [], 60)[0] == [taken])
        if in_parent == (where == "parent"):
            raise planted
        return battery(*args, **kwargs)

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(mutants_module, "run_model_checks", raising)
    try:
        with pytest.raises(raised) as info:
            mutation_matrix(seed=0)
    finally:
        os.close(taken)
        os.close(took)
    assert type(info.value) is raised and str(info.value) == message
    assert waited == ([True] if where == "child" else [])
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


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
