"""Self-tests of the benchmark: its generated inputs and its probes.

Run from the root of the repository with ``python -m pytest -q bench``.
"""

import json
import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from entrokit import cli  # noqa: E402
from entrokit.axioms import check_comparison, check_reflexivity, check_transitivity  # noqa: E402
from entrokit.catalog import load_fixture  # noqa: E402

from probes import METRICS, Tracer  # noqa: E402
from speed import reference_s  # noqa: E402
from workloads import FIXTURE_STATES, WORKLOADS, total_preorder  # noqa: E402


def _matrix(fixture: dict) -> np.ndarray:
    index = {s: i for i, s in enumerate(fixture["states"])}
    m = np.zeros((len(index), len(index)), dtype=bool)
    for a, b in fixture["pairs"]:
        m[index[a], index[b]] = True
    return m


@pytest.mark.parametrize("seed", [0, 1, 7, 12345])
def test_fixture_is_a_total_preorder_with_ties(seed):
    fixture = total_preorder(FIXTURE_STATES, seed)
    assert sorted(fixture["states"]) == list(range(FIXTURE_STATES))
    m = _matrix(fixture)
    assert m.diagonal().all()  # reflexive
    assert (m | m.T).all()  # total
    composed = (m.astype(np.int64) @ m.astype(np.int64)) > 0
    assert not (composed & ~m).any()  # transitive
    classes = {row.tobytes() for row in m}
    assert FIXTURE_STATES // 4 <= len(classes) <= FIXTURE_STATES // 3
    assert len(classes) < FIXTURE_STATES  # real equivalences occur


def test_fixture_is_seeded():
    assert total_preorder(50, 3) == total_preorder(50, 3)
    assert total_preorder(50, 3) != total_preorder(50, 4)


def test_fixture_passes_entrokits_exhaustive_checks(tmp_path):
    path = tmp_path / "fixture.json"
    path.write_text(json.dumps(total_preorder(FIXTURE_STATES, 5)))
    rel = load_fixture(str(path)).relation()
    for check in (check_reflexivity, check_transitivity, check_comparison):
        result = check(rel)
        assert result.status.value == "pass", result
    # Exhaustive, not capped: the fixture-axioms workload depends on it.
    assert check_transitivity(rel).samples_used == FIXTURE_STATES ** 3


def test_workload_expectations_name_known_metrics():
    for workload in WORKLOADS.values():
        assert set(workload.bypassed) <= set(METRICS)


def _bindings():
    """Every attribute of every entrokit module and class, by identity."""
    seen = {}
    for name, mod in list(sys.modules.items()):
        if not (name == "entrokit" or name.startswith("entrokit.")):
            continue
        for attr, value in vars(mod).items():
            seen[(name, attr)] = value
            if isinstance(value, type) and value.__module__ == name:
                for cattr, cvalue in vars(value).items():
                    seen[(name, attr, cattr)] = cvalue
    return seen


def _unchanged(before, after) -> bool:
    return after.keys() == before.keys() and all(after[k] is before[k] for k in before)


def _run_cli(workdir, argv):
    out = os.path.join(workdir, "report.json")
    assert cli.main([*argv, "--out", out]) == 0
    with open(out, "rb") as fh:
        return fh.read()


@pytest.fixture()
def small_gas_config(tmp_path):
    config = {
        "model": {"kind": "ideal_gas"},
        "sample_counts": {"grid_nu": 3, "grid_nv": 3, "axiom_samples": 20},
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    return str(path)


def test_traced_run_leaves_entrokit_unchanged(tmp_path, small_gas_config):
    argv = ["all", "--config", small_gas_config, "--seed", "3"]
    plain = _run_cli(tmp_path, argv)
    # Snapshot after a plain run: running caches a few attributes, such as
    # copy's __slotnames__, that are not the probes' doing.
    before = _bindings()

    tracer = Tracer()
    with tracer:
        assert not _unchanged(before, _bindings())  # the probes are in place
        traced = _run_cli(tmp_path, argv)
    assert _unchanged(before, _bindings())
    assert traced == plain  # the probes do not change the report

    layers = tracer.metrics()
    assert list(layers) == list(METRICS)
    assert layers["interpolation.tables_built"] == 2
    assert layers["interpolation.find_lambda_calls"] > 0
    assert layers["mutants.batteries"] == 7
    assert layers["quadrature.evaluations"] > 0
    assert layers["reservoir.swp_calls"] > 0
    assert all(layers[f"report.suite_s.{s}"] > 0 for s in
               ("axioms", "energy", "ly", "zb", "caratheodory", "theorems", "mutants"))


def test_quadrature_counts_every_integral_once():
    from types import SimpleNamespace

    from entrokit import pfaffian, quadrature

    def segment(s):
        return np.array([s, 0.0]), np.array([1.0, 2.0])

    model = SimpleNamespace(alpha_fn=np.exp, c=1.5, temperature=None)
    tracer = Tracer()
    with tracer:
        path = quadrature.line_integral(lambda point: np.array([point[0], 1.0]), [segment] * 3)
        # The caratheodory suite's integral, made through pfaffian's binding.
        entropy = pfaffian.entropy_from_integrating_factor(model, 0.0, 0.0)
        assert entropy.s_of_x0(1.0) == pytest.approx((np.e - 1) / 1.5)
    layers = tracer.metrics()
    direct = quadrature.integrate_scalar(lambda u: np.exp(u) / 1.5, 0.0, 1.0)
    assert layers["quadrature.line_integrals"] == 1
    assert path.evaluations > 0 and direct.evaluations > 0
    assert layers["quadrature.evaluations"] == path.evaluations + direct.evaluations
    assert tracer.calls["quadrature.integrate_scalar"] == 3 + 1
    assert layers["quadrature.s"] > 0


def test_tracer_that_cannot_install_restores_what_it_wrapped(monkeypatch):
    from entrokit import report

    monkeypatch.delattr(report, "suite_mutants")
    before = _bindings()
    with pytest.raises(RuntimeError, match="suite_mutants"):
        Tracer().install()
    assert _unchanged(before, _bindings())


def test_tracer_restores_after_an_error():
    before = _bindings()
    with pytest.raises(ZeroDivisionError):
        with Tracer():
            1 / 0
    assert _unchanged(before, _bindings())


def test_reference_loop_keeps_the_collector_state():
    import gc

    assert gc.isenabled()
    assert reference_s() > 0
    assert gc.isenabled()
    gc.disable()
    try:
        reference_s()
        assert not gc.isenabled()
    finally:
        gc.enable()
