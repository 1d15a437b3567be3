import json

import pytest

from entrokit import report as report_module
from entrokit.cli import main
from entrokit.errors import ConfigError
from entrokit.catalog import ideal_gas
from entrokit.interpolation import entropy_from_accessibility
from entrokit.report import (
    SuiteConfig,
    _grid_and_refs,
    emit,
    ly_table,
    parse_report,
    run,
)


# -- config validation -----------------------------------------------------------

def test_unknown_suite_rejected():
    with pytest.raises(ConfigError):
        SuiteConfig(model={"kind": "ideal_gas"}, suites=("nope",))


def test_unknown_tolerance_rejected():
    with pytest.raises(ConfigError):
        SuiteConfig(model={"kind": "ideal_gas"}, suites=("axioms",),
                    tolerances={"bogus": 1.0})


def test_nonpositive_tolerance_rejected():
    with pytest.raises(ConfigError):
        SuiteConfig(model={"kind": "ideal_gas"}, suites=("axioms",),
                    tolerances={"lambda_tol": -1.0})


def test_from_dict_rejects_unknown_keys():
    with pytest.raises(ConfigError):
        SuiteConfig.from_dict({"model": {"kind": "ideal_gas"}, "bogus": 1})


def test_degenerate_grid_rejected():
    with pytest.raises(ConfigError):
        SuiteConfig(model={"kind": "ideal_gas"}, suites=("ly",),
                    sample_counts={"grid_nu": 1})


def test_unknown_model_kind_rejected():
    config = SuiteConfig(model={"kind": "mystery"}, suites=("axioms",))
    with pytest.raises(ConfigError):
        run(config)


# -- running suites -----------------------------------------------------------------

@pytest.fixture(scope="module")
def axioms_report():
    return run(SuiteConfig(model={"kind": "ideal_gas"}, suites=("axioms",), seed=3))


def test_axioms_suite_passes(axioms_report):
    assert axioms_report.aggregate_pass


def test_mutant_config_fails_exactly_splitting():
    config = SuiteConfig(
        model={"kind": "ideal_gas", "mutation": "break_splitting"},
        suites=("axioms",), seed=3,
    )
    report = run(config)
    assert not report.aggregate_pass
    failed = [r.check_name for r in report.all_checks if r.failed]
    assert failed == ["splitting"]


def test_fixture_config_runs_axioms(tmp_path):
    path = tmp_path / "chain.json"
    path.write_text(json.dumps({
        "states": [1, 2, 3],
        "pairs": [[1, 1], [2, 2], [3, 3], [1, 2], [2, 3], [1, 3]],
    }))
    config = SuiteConfig(
        model={"kind": "fixture", "params": {"path": str(path)}},
        suites=("axioms",),
    )
    report = run(config)
    assert report.aggregate_pass


# -- the shared LY table ---------------------------------------------------------------

def test_shared_ly_table_is_bit_equal_to_a_fresh_build():
    config = SuiteConfig(model={"kind": "ideal_gas"}, suites=("ly", "zb"))
    model, memo = ideal_gas(), {}
    _, shared = ly_table(model, config, memo)
    assert ly_table(model, config, memo)[1] is shared

    model = ideal_gas()
    grid, refs = _grid_and_refs(model, config)
    fresh = entropy_from_accessibility(
        model.relation(), refs, grid, tol=config.tol("lambda_tol")
    )
    assert len(shared.entries) == 441
    assert [(s, v.hex()) for s, v in shared.entries.items()] == [
        (s, v.hex()) for s, v in fresh.entries.items()
    ]
    assert shared.skipped == fresh.skipped


def test_ly_and_zb_agree_with_separate_runs():
    counts = {"grid_nu": 9, "grid_nv": 9}

    def suites(names):
        report = run(SuiteConfig(model={"kind": "ideal_gas"}, suites=names,
                                 seed=5, sample_counts=counts))
        return (
            {name: [r.to_dict() for r in results]
             for name, results in report.suite_results.items()},
            report.summaries,
        )

    both, both_summaries = suites(("ly", "zb"))
    ly_only, ly_summaries = suites(("ly",))
    zb_only, zb_summaries = suites(("zb",))
    assert both == {**ly_only, **zb_only}
    assert both_summaries == {**ly_summaries, **zb_summaries}
    cross = [c for c in zb_only["zb"] if c["check"] == "cross_construction"]
    assert cross[0]["status"] == "pass"
    assert cross[0]["samples_used"] == 81


def test_runs_leave_the_space_map_unchanged(monkeypatch):
    # Scaled copies are values: bisection probes and scaling checks must not
    # add spaces to the model, however many runs share it.
    gas = ideal_gas()
    base = dict(gas.spaces)
    config = SuiteConfig(model={"kind": "ideal_gas"}, suites=("axioms", "ly", "zb"),
                         seed=4, sample_counts={"grid_nu": 5, "grid_nv": 5,
                                                "axiom_samples": 40})
    ly_table(gas, config)
    assert gas.spaces == base
    monkeypatch.setattr(report_module, "build_target", lambda spec: gas)
    first = run(config)
    assert gas.spaces == base
    second = run(config)
    assert gas.spaces == base
    assert first.aggregate_pass and second.aggregate_pass


# -- caratheodory on the configured model ---------------------------------------------

def _caratheodory(model_spec):
    report = run(SuiteConfig(model=model_spec, suites=("caratheodory",), seed=3))
    return {r.check_name: r for r in report.suite_results["caratheodory"]}


def test_caratheodory_checks_the_configured_gas():
    default = _caratheodory({"kind": "ideal_gas"})
    other = _caratheodory({"kind": "ideal_gas", "params": {"n": 2, "c_v_hat": 2.5}})
    assert list(other) == list(default)
    assert all(r.passed for r in other.values())
    # The rectangle loop of (dU + p dV)/T^2 scales with the amount n.
    assert default["negative_control"].message == "loop of (dU+dW)/T^2 = -0.00960524"
    assert other["negative_control"].message == "loop of (dU+dW)/T^2 = -0.0192105"


def test_caratheodory_not_applicable_to_a_renamed_spin():
    results = _caratheodory({"kind": "two_level_spin", "params": {"model_id": "s2"}})
    assert [(name, r.status.value) for name, r in results.items()] == [
        ("integrating_factor", "not_applicable")
    ]


# -- emission ---------------------------------------------------------------------------

def test_json_roundtrip(axioms_report):
    payload = emit(axioms_report, "json")
    parsed = parse_report(payload)
    assert parsed["schema"] == "report_v1"
    assert parsed["aggregate_pass"] is True
    assert emit(axioms_report, "json") == payload


def test_csv_row_count(axioms_report):
    lines = emit(axioms_report, "csv").strip().splitlines()
    assert len(lines) - 1 == len(axioms_report.all_checks)


def test_text_contains_witnesses_for_failures():
    config = SuiteConfig(
        model={"kind": "ideal_gas", "mutation": "break_splitting"},
        suites=("axioms",), seed=3,
    )
    text = emit(run(config), "text")
    assert "witness" in text
    assert "FAIL" in text


def test_unknown_format_rejected(axioms_report):
    with pytest.raises(ConfigError):
        emit(axioms_report, "yaml")


def test_reports_embed_tolerances(axioms_report):
    parsed = parse_report(emit(axioms_report, "json"))
    stability = [
        c for c in parsed["suites"]["axioms"] if c["check"] == "stability"
    ][0]
    assert stability["tolerance_used"] == pytest.approx(0.5 ** 20)


# -- determinism ---------------------------------------------------------------------------

def test_identical_config_and_seed_reports_are_byte_identical():
    config = SuiteConfig(model={"kind": "ideal_gas"}, suites=("axioms", "energy"), seed=9)
    first = emit(run(config), "json")
    second = emit(run(config), "json")
    assert first.encode() == second.encode()


# -- CLI ------------------------------------------------------------------------------------

def test_cli_default_run_exits_zero(capsys):
    code = main(["check-axioms", "--format", "text"])
    out = capsys.readouterr().out
    assert code == 0
    assert "aggregate: PASS" in out


def test_cli_mutant_config_exits_one(tmp_path, capsys):
    config = tmp_path / "mutant.json"
    config.write_text(json.dumps({
        "model": {"kind": "ideal_gas", "mutation": "break_splitting"},
        "seed": 3,
    }))
    out_path = tmp_path / "report.json"
    code = main(["check-axioms", "--config", str(config), "--out", str(out_path)])
    assert code == 1
    # The report is still written on check failure.
    parsed = json.loads(out_path.read_text())
    assert parsed["aggregate_pass"] is False


def test_cli_malformed_config_exits_two(tmp_path, capsys):
    config = tmp_path / "broken.json"
    config.write_text("{not json")
    code = main(["check-axioms", "--config", str(config)])
    assert code == 2
    assert "config error" in capsys.readouterr().err


def test_cli_bad_model_params_exit_two(tmp_path, capsys):
    config = tmp_path / "bad-params.json"
    config.write_text(json.dumps(
        {"model": {"kind": "ideal_gas", "params": {"bogus": 1}}}
    ))
    code = main(["check-axioms", "--config", str(config)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("config error") and "bogus" in err
    assert "Traceback" not in err


def test_cli_unknown_tolerance_exits_two(capsys):
    code = main(["check-axioms", "--tolerance", "bogus=1"])
    assert code == 2


def test_cli_unwritable_out_exits_three(tmp_path, capsys):
    code = main([
        "check-axioms", "--out", str(tmp_path / "missing-dir" / "report.json"),
    ])
    assert code == 3


def test_cli_seed_override_changes_config(tmp_path):
    out_path = tmp_path / "r.json"
    main(["check-axioms", "--seed", "17", "--out", str(out_path)])
    parsed = json.loads(out_path.read_text())
    assert parsed["config"]["seed"] == 17


def test_cli_tolerance_override_recorded(tmp_path):
    out_path = tmp_path / "r.json"
    code = main([
        "check-axioms", "--tolerance", "lambda_tol=1e-8", "--out", str(out_path),
    ])
    assert code == 0
    parsed = json.loads(out_path.read_text())
    assert parsed["config"]["tolerances"]["lambda_tol"] == 1e-8


def test_cli_env_config_dir(tmp_path, monkeypatch):
    config = tmp_path / "default.json"
    config.write_text(json.dumps({"model": {"kind": "ideal_gas"}, "seed": 23}))
    monkeypatch.setenv("ENTROKIT_CONFIG_DIR", str(tmp_path))
    out_path = tmp_path / "r.json"
    code = main(["check-axioms", "--out", str(out_path)])
    assert code == 0
    parsed = json.loads(out_path.read_text())
    assert parsed["config"]["seed"] == 23
