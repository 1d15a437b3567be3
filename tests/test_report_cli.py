import contextlib
import io
import json
import os
import re
import tempfile
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entrokit import mutants as mutants_module
from entrokit import report as report_module
from entrokit.cli import SUBCOMMAND_SUITES, build_parser, main
from entrokit.errors import ConfigError, EngineError
from entrokit.catalog import MODEL_KINDS, ideal_gas
from entrokit.interpolation import entropy_from_accessibility
from entrokit.report import (
    CONFIG_SHAPE,
    DEFAULT_SAMPLE_COUNTS,
    DEFAULT_TOLERANCES,
    SUITES,
    SuiteConfig,
    _grid_and_refs,
    emit,
    ly_table,
    run,
)

SMALL_COUNTS = {"grid_nu": 5, "grid_nv": 5, "axiom_samples": 40}


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


def test_matrix_baseline_names_the_failing_battery(monkeypatch):
    # Both batteries run a check named transitivity; only the gas's fails.
    passing = {"reflexivity": "pass", "transitivity": "pass", "comparison": "pass"}
    matrix = {
        "baseline_model": {**passing, "transitivity": "fail"},
        "baseline_fixture": dict(passing),
        "mutants": [],
        "ok": False,
    }
    monkeypatch.setattr(report_module, "mutation_matrix", lambda *, seed, workers: matrix)
    config = SuiteConfig(model={"kind": "ideal_gas"}, suites=("mutants",))
    (baseline,), summary = report_module.suite_mutants(ideal_gas(), config, {})
    assert baseline.failed
    assert baseline.witnesses == [("model", "transitivity", "fail")]
    assert summary == {"mutation_matrix": matrix}


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
    grid, refs = _grid_and_refs(model, config, {})
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
    ly_table(gas, config, {})
    assert gas.spaces == base
    monkeypatch.setattr(report_module, "build_target", lambda spec: gas)
    first = run(config)
    assert gas.spaces == base
    second = run(config)
    assert gas.spaces == base
    assert first.aggregate_pass and second.aggregate_pass


def test_run_calls_every_suite_through_its_module_attribute(monkeypatch, tmp_path):
    # Profilers wrap report.suite_<name> and mutants.run_model_checks; run
    # must go through those attributes, once per suite.  Each call appends a
    # line to a file, so the batteries the matrix runs in forked workers
    # count too.
    log = tmp_path / "calls.txt"

    def counting(key, fn):
        def wrapper(*args, **kwargs):
            with open(log, "a") as fh:
                fh.write(key + "\n")
            return fn(*args, **kwargs)

        return wrapper

    for suite in SUITES:
        name = f"suite_{suite}"
        monkeypatch.setattr(report_module, name, counting(name, getattr(report_module, name)))
    monkeypatch.setattr(mutants_module, "run_model_checks",
                        counting("batteries", mutants_module.run_model_checks))
    report = run(SuiteConfig(model={"kind": "ideal_gas"}, suites=SUITES, seed=1,
                             sample_counts=SMALL_COUNTS))
    assert report.aggregate_pass
    assert list(report.suite_results) == list(SUITES)
    calls = Counter(log.read_text().splitlines())
    assert calls == {**{f"suite_{s}": 1 for s in SUITES}, "batteries": 6}


# -- the matrix's workers ---------------------------------------------------------------

@pytest.mark.parametrize("planted", [
    EngineError("planted in axioms"), ZeroDivisionError("planted in axioms"),
])
def test_a_suite_that_raises_leaves_no_matrix_worker(planted, monkeypatch, capsys):
    # The axioms suite runs first, while the worker runs the matrix's
    # batteries (two usable CPUs give one worker, even on one CPU); the
    # worker's own error loses to the suite's.
    parent, battery = os.getpid(), mutants_module.run_model_checks
    forks, fork = [], os.fork

    def raising_suite(*args):
        raise planted

    def raising_battery(*args, **kwargs):
        if os.getpid() != parent:
            raise EngineError("planted in a worker")
        return battery(*args, **kwargs)

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    monkeypatch.setattr(report_module, "suite_axioms", raising_suite)
    monkeypatch.setattr(mutants_module, "run_model_checks", raising_battery)
    with pytest.raises(type(planted)) as info:
        run(SuiteConfig(model={"kind": "ideal_gas"}, suites=SUITES, sample_counts=SMALL_COUNTS))
    assert info.value is planted and forks == [1]
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)

    if isinstance(planted, EngineError):
        assert main(["all"]) == 2
        assert capsys.readouterr().err == "error: planted in axioms\n"
    else:
        with pytest.raises(ZeroDivisionError, match="planted in axioms"):
            main(["all"])
    assert forks == [1, 1]
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("kind", ["ideal_gas", "two_level_spin"])
def test_all_is_the_same_for_any_cpu_count(kind, monkeypatch):
    # The matrix's workers start with the run, one per usable CPU beyond
    # this process's, up to five; with one usable CPU nothing is forked.
    config = SuiteConfig(model={"kind": kind}, suites=SUITES, seed=2)
    forks, fork = [], os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    payloads = set()
    for cpus in (1, 2, 3, 6, 7, 16):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, n=cpus: set(range(n)),
                            raising=False)
        forks.clear()
        payloads.add(emit(run(config), "json"))
        assert len(forks) == min(cpus, 6) - 1
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
    assert len(payloads) == 1


@pytest.mark.parametrize("command", [
    "check-axioms", "construct-ly", "construct-zb", "verify-theorems", "caratheodory",
])
def test_commands_without_the_matrix_never_fork(command, monkeypatch, tmp_path):
    def no_fork():
        raise AssertionError(f"{command} forked")

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(16)), raising=False)
    monkeypatch.setattr(os, "fork", no_fork)
    assert main([command, "--out", str(tmp_path / "report.json")]) == 0


# -- the zb suite ------------------------------------------------------------------------

def _zb(model_spec, seed=3, **fields):
    report = run(SuiteConfig(model=model_spec, suites=("zb",), seed=seed,
                             sample_counts=SMALL_COUNTS, **fields))
    return {r.check_name: r for r in report.suite_results["zb"]}


def _zb_dicts(model_spec):
    # carnot_agreement is not applicable to the spin, with the id in its message.
    return [r.to_dict() for name, r in _zb(model_spec).items() if name != "carnot_agreement"]


def test_zb_auxiliary_system_follows_the_engine_type():
    spin = _zb_dicts({"kind": "two_level_spin"})
    assert all(c["status"] != "fail" for c in spin)
    # A renamed spin is still probed against the gas, and a spin that takes
    # the gas's id gets a gas under another id, not a DomainError.
    for model_id in ("s2", "idealgas"):
        assert _zb_dicts({"kind": "two_level_spin", "params": {"model_id": model_id}}) == spin
    gas = _zb_dicts({"kind": "ideal_gas"})
    assert _zb_dicts({"kind": "ideal_gas", "params": {"model_id": "spin"}}) == gas


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
    parsed = json.loads(payload)
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
    parsed = json.loads(emit(axioms_report, "json"))
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


@pytest.mark.parametrize("name", list(SUBCOMMAND_SUITES))
def test_cli_parses_each_command_and_every_flag(name):
    args = build_parser().parse_args([
        name, "--config", "c.json", "--seed", "3", "--format", "csv", "--out", "r.csv",
        "--tolerance", "ly_residual=1e-3",
    ])
    assert (args.command, args.config, args.seed, args.format, args.out, args.tolerance) == (
        name, "c.json", 3, "csv", "r.csv", ["ly_residual=1e-3"])


def test_cli_flag_defaults():
    args = build_parser().parse_args(["all"])
    assert (args.config, args.seed, args.format, args.out, args.tolerance) == (
        None, None, "json", None, [])


@pytest.mark.parametrize("argv", [[], ["no-such-command"], ["all", "--no-such-flag"],
                                  ["all", "--format", "xml"], ["all", "--seed", "x"]])
def test_cli_usage_errors_exit_two(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(argv)
    assert exc.value.code == 2
    assert capsys.readouterr().err.startswith("usage: entrokit")


def test_cli_help_exits_zero_naming_every_command(capsys):
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert all(name in out for name in SUBCOMMAND_SUITES)


def test_cli_accepts_flags_before_the_command():
    args = build_parser().parse_args(["--seed", "3", "check-axioms", "--format", "csv"])
    assert (args.command, args.seed, args.format) == ("check-axioms", 3, "csv")


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


def test_cli_unknown_model_spec_key_exits_two(tmp_path, capsys):
    # A misspelt "params" must not run the default gas and exit 0.
    config = tmp_path / "typo.json"
    config.write_text(json.dumps({"model": {"kind": "ideal_gas", "parms": {"n": 40}}}))
    out_path = tmp_path / "r.json"
    code = main(["construct-zb", "--seed", "1", "--config", str(config), "--out", str(out_path)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("config error") and "parms" in err
    assert not out_path.exists()


def test_cli_unknown_tolerance_exits_two(capsys):
    code = main(["check-axioms", "--tolerance", "bogus=1"])
    assert code == 2


@pytest.mark.parametrize("source", ["flag", "file"])
def test_cli_nan_tolerance_exits_two(tmp_path, capsys, source):
    out_path = tmp_path / "r.json"
    args = ["check-axioms", "--out", str(out_path)]
    if source == "flag":
        args += ["--tolerance", "zb_residual=nan"]
    else:
        config = tmp_path / "nan.json"
        config.write_text(json.dumps({"tolerances": {"zb_residual": float("nan")}}))
        args += ["--config", str(config)]
    code = main(args)
    assert code == 2
    assert "zb_residual" in capsys.readouterr().err
    assert not out_path.exists()


# Params of the right type but outside the model's domain, and the name the
# error message must give.
OUT_OF_RANGE = [
    ("ideal_gas", {"c_v_hat": 0}, "c_v_hat"),
    ("ideal_gas", {"c_v_hat": -1.5}, "c_v_hat"),
    ("ideal_gas", {"gauge": [0, 1, 0]}, "gauge"),
    ("ideal_gas", {"box": [[10000.0, 500.0], [0.005, 0.1]]}, "box"),
    ("two_level_spin", {"eps": 0}, "eps"),
    ("two_level_spin", {"n_particles": 2.5}, "n_particles"),
    # In range, but 1.3 ** (-1/c_v_hat) underflows: isentropic partners get U = 0.
    ("ideal_gas", {"c_v_hat": 1e-100}, "c_v_hat is too small"),
    # In range, but the box spans at most 2 J/K of entropy: the gas sampler's
    # 1 J/K margins at each end leave no room for a nonequilibrium state.
    ("ideal_gas", {"n": 0.03}, "n=0.03"),
    ("ideal_gas", {"n": 1e-20}, "n=1e-20"),
    ("ideal_gas", {"box": [[500.0, 510.0], [0.005, 0.0051]]}, "box=[[500.0, 510.0]"),
    # In range, but at 1e20 J/K floats lie 16,384 J/K apart: the box's 62 J/K
    # of entropy differences round away.
    ("ideal_gas", {"gauge": [1, 1, 1e20]}, "s_star=1e+20"),
    ("two_level_spin", {"n_particles": 1}, "n_particles"),
]


@pytest.mark.parametrize("kind, params, name", OUT_OF_RANGE)
def test_cli_out_of_range_param_is_named(tmp_path, capsys, kind, params, name):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"model": {"kind": kind, "params": params}}))
    assert main(["check-axioms", "--config", str(path)]) == 2
    assert name in capsys.readouterr().err


def _false_alarm(command, kind, params, param, seen):
    reason = f"ROADMAP item 3, a false alarm on an intact model: {seen}"
    return pytest.param(
        command, kind, params, param,
        marks=pytest.mark.xfail(strict=True, reason=reason),
        id=f"{command}-{kind}-{'-'.join(f'{k}{v}' for k, v in params.items())}",
    )


# Intact models at settings the config accepts, each run through the
# cheapest command that shows the false alarm at seed 1.
FALSE_ALARMS = [
    _false_alarm("caratheodory", "ideal_gas", {"n": 0.1}, "n",
                 "exit 1, negative_control reads -9.605e-4 against an absolute 1e-3"),
    _false_alarm("construct-ly", "ideal_gas", {"n": 40}, "n",
                 "exit 1, ly_oracle_match residual 1.213e-6 J/K against an absolute 1e-6"),
    _false_alarm("verify-theorems", "ideal_gas", {"n": 1e5}, "n",
                 "exit 2, 'nature refuses: ... lower entropy by 1.863e-09 J/K'"),
    *(
        _false_alarm("check-axioms", "two_level_spin", {"n_particles": n}, "n_particles",
                     "exit 2, 'could not sample a bracketed nonequilibrium spin state'")
        for n in (2, 4)
    ),
    _false_alarm("construct-zb", "ideal_gas", {"n": 1e6}, "n",
                 "exit 1, cross_construction affine residual 3.032e-02 J/K against 1e-6"),
]


@pytest.mark.parametrize("command, kind, params, param", FALSE_ALARMS)
def test_intact_model_passes_or_its_param_is_refused(tmp_path, capsys, command, kind,
                                                     params, param):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"model": {"kind": kind, "params": params}}))
    code = main([command, "--seed", "1", "--config", str(path),
                 "--out", str(tmp_path / "r.json")])
    err = capsys.readouterr().err
    assert code == 0 or (
        code == 2 and err.startswith("config error") and re.search(rf"\b{param}\b", err)
    ), f"exit {code}: {err.strip()}"


def test_cli_gas_with_entropy_range_above_two_exits_zero(tmp_path):
    # n = 0.04 spans 2.49 J/K of entropy on the default box, against 1.87 J/K
    # for n = 0.03.
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"model": {"kind": "ideal_gas", "params": {"n": 0.04}}}))
    out = tmp_path / "r.json"
    assert main(["check-axioms", "--config", str(path), "--out", str(out)]) == 0


_SCALARS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.integers(min_value=-10**6, max_value=10**6),
    st.sampled_from([0, -1, 0.0, -0.0]),
    # The edges of the declared ranges, and values just past them.
    st.sampled_from([1, 2, 1.5, 1e-100, 1e-101, 1e100, 1e101, 10**100, 10**400]),
)
_ANY_VALUE = st.one_of(
    _SCALARS, st.text(max_size=4), st.lists(_SCALARS, max_size=4),
    st.lists(st.lists(_SCALARS, max_size=3), max_size=3),
)


GOLDEN_FIXTURE = os.path.join(os.path.dirname(__file__), "golden", "fixture.json")


def _shaped(shape, fitting=False):
    """Values of the type and shape of a declared shape, in its range or
    not, or only fitting ones.  An object draws any of the declared keys,
    and where misfits are drawn, each of its shape or of any other, and
    sometimes a key it does not declare.  A string may be the golden
    fixture's path, so that the fixture kind runs too."""
    if isinstance(shape, dict):
        declared = st.fixed_dictionaries({}, optional={
            key: _shaped(item, fitting) if fitting else st.one_of(_shaped(item), _ANY_VALUE)
            for key, item in shape.items()
        })
        if fitting:
            return declared
        unknown = st.dictionaries(st.sampled_from(["bogus", "suites"]), _SCALARS, max_size=1)
        return st.tuples(declared, unknown).map(lambda parts: {**parts[0], **parts[1]})
    if isinstance(shape, list):
        return st.tuples(*(_shaped(item, fitting) for item in shape)).map(list)
    kind, low, high = shape
    if kind is str:
        return st.one_of(st.text(max_size=4), st.just(GOLDEN_FIXTURE))
    if kind is dict:
        return st.dictionaries(st.text(max_size=4), _SCALARS, max_size=2)
    if low is None:
        in_range = st.integers() if kind is int else st.floats(allow_nan=False, allow_infinity=False)
    else:
        in_range = st.floats(low, high) if kind is float else st.integers(low, int(high))
    return in_range if fitting else st.one_of(in_range, _SCALARS)


def _fits(value, shape) -> bool:
    """Whether a JSON value has a declared shape: an object of declared keys
    each with a value of its shape, a list of one value per element shape,
    or a value of the leaf's type (a float leaf takes any number, and no
    leaf a bool) in its closed range."""
    if isinstance(shape, dict):
        return isinstance(value, dict) and all(
            key in shape and _fits(item, shape[key]) for key, item in value.items()
        )
    if isinstance(shape, list):
        return (isinstance(value, list) and len(value) == len(shape)
                and all(map(_fits, value, shape)))
    kind, low, high = shape
    types = (int, float) if kind is float else kind
    return (isinstance(value, types) and not isinstance(value, bool)
            and (low is None or low <= value <= high))


_MODEL_SPECS = st.one_of(*(
    st.fixed_dictionaries({
        "kind": st.just(kind),
        "params": st.fixed_dictionaries({}, optional={
            name: st.one_of(_shaped(shape), _ANY_VALUE) for name, shape in shapes.items()
        }),
    })
    for kind, (_, shapes, _) in MODEL_KINDS.items()
))


@given(model=_MODEL_SPECS)
@settings(max_examples=200, deadline=None)
def test_cli_survives_any_model_params(model):
    config = {"model": model, "sample_counts": {"axiom_samples": 5}}
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "config.json")
        with open(path, "w") as fh:
            json.dump(config, fh)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["check-axioms", "--config", path])
    assert code in (0, 1, 2)
    shapes = MODEL_KINDS[model["kind"]][1]
    misfits = [name for name, value in model["params"].items() if not _fits(value, shapes[name])]
    if misfits:
        assert code == 2
        assert any(re.search(rf"\b{name}\b", err.getvalue()) for name in misfits)


def _misfit_keys(value: dict, shape: dict) -> list:
    """The innermost keys under which a JSON object misfits a dict shape."""
    keys = []
    for key, item in value.items():
        inner = shape.get(key)
        if isinstance(inner, dict) and isinstance(item, dict):
            keys += _misfit_keys(item, inner)
        elif inner is None or not _fits(item, inner):
            keys.append(key)
    return keys


@given(config=st.one_of(_shaped(CONFIG_SHAPE, fitting=True), _shaped(CONFIG_SHAPE)))
@settings(max_examples=300, deadline=None)
def test_from_dict_accepts_exactly_the_config_shape(config):
    # Judged, never run: an accepted count may be as large as 1e100.
    if _fits(config, CONFIG_SHAPE):
        SuiteConfig.from_dict(config)
        return
    with pytest.raises(ConfigError) as info:
        SuiteConfig.from_dict(config)
    assert any(repr(key) in str(info.value) for key in _misfit_keys(config, CONFIG_SHAPE))


_README_TYPES = {float: "number", int: "integer", str: "string", dict: "object"}


def _table_rows(kind, name, shape):
    """README's params table rows of one param, one per leaf of its shape."""
    if isinstance(shape, list):
        for i, item in enumerate(shape):
            yield from _table_rows(kind, f"{name}[{i}]", item)
        return
    type_, low, high = shape
    span = "" if low is None else f"[{low:g}, {high:g}] "
    yield f"| `{kind}` | `{name}` | {_README_TYPES[type_]} | {span}|"


CONFIG_DEFAULTS = {
    "model": {"kind": "ideal_gas"}, "seed": 0,
    "tolerances": DEFAULT_TOLERANCES, "sample_counts": DEFAULT_SAMPLE_COUNTS,
}


def _config_rows(name, shape, default):
    """README's config table rows of one config key, one per leaf of its
    shape, an object's leaves named ``key.name``."""
    if isinstance(shape, dict):
        for key, item in shape.items():
            yield from _config_rows(f"{name}.{key}", item, default[key])
        return
    type_, low, high = shape
    span = "" if low is None else f"[{low:g}, {high:g}] "
    yield f"| `{name}` | {_README_TYPES[type_]} | {span}| `{json.dumps(default)}` |"


def test_readme_params_table_matches_model_kinds():
    rows = [
        row
        for kind, (_, shapes, _) in MODEL_KINDS.items()
        for name, shape in shapes.items()
        for row in _table_rows(kind, name, shape)
    ]
    table = "\n".join(["| kind | param | type | range |", "| --- | --- | --- | --- |", *rows])
    config_rows = [
        row
        for key, shape in CONFIG_SHAPE.items()
        for row in _config_rows(key, shape, CONFIG_DEFAULTS[key])
    ]
    config_table = "\n".join(
        ["| name | type | range | default |", "| --- | --- | --- | --- |", *config_rows]
    )
    with open(os.path.join(os.path.dirname(__file__), "..", "README.md")) as fh:
        readme = fh.read()
    assert table + "\n" in readme
    assert config_table + "\n" in readme


@pytest.mark.parametrize("config, flags", [
    ({"tolerances": 5}, []),
    ({"sample_counts": [1]}, []),
    ({"suites": 5}, []),
    ({"seed": True}, []),
    ({"tolerances": {"lambda_tol": True}}, []),
    ({"sample_counts": {"axiom_samples": True}}, []),
    ({"tolerances": {"zb_residual": float("inf")}}, []),
    ({"tolerances": {"energy_add": 1e-12}}, []),
    ({"sample_counts": {"interconnect_pairs": 5}}, []),
    ({"tolerances": {"temp_rel": 1e-9}}, []),
    ({"tolerances": {"mutual_eq": 1e-12}}, []),
    ({}, ["--tolerance", "zb_residual=inf"]),
    ({"model": {"kind": "fixture", "params": {"path": 0}}}, []),
    ({"model": {"kind": "fixture", "params": {"path": GOLDEN_FIXTURE, "paht": "other.json"}}},
     []),
    ({"model": {"kind": []}}, []),
    ({"model": {"kind": {}}}, []),
    ({"model": {"kind": "ideal_gas", "mutation": ["break_splitting"]}}, []),
    ({"model": {"kind": "ideal_gas", "mutation": False}}, []),
    ({"model": {"kind": "ideal_gas", "params": {"n": "x"}}}, []),
    ({"model": {"kind": "ideal_gas", "params": {"c_v_hat": "x"}}}, []),
    ({"model": {"kind": "ideal_gas", "params": {"box": 5}}}, []),
    ({"model": {"kind": "ideal_gas", "params": {"n": True}}}, []),
    ({"model": {"kind": "ideal_gas", "params": {"model_id": 3}}}, []),
    ({"model": {"kind": "two_level_spin", "params": {"n_particles": "x"}}}, []),
    *(({"model": {"kind": kind, "params": params}}, []) for kind, params, _ in OUT_OF_RANGE),
])
def test_cli_mistyped_config_exits_two(tmp_path, capsys, config, flags):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    out_path = tmp_path / "r.json"
    code = main(["check-axioms", "--config", str(path), "--out", str(out_path), *flags])
    assert code == 2
    assert capsys.readouterr().err.startswith("config error:")
    assert not out_path.exists()


# A config value that misfits its declared shape, and the key the error
# message must name.  The NaN tolerance, a paired count of 1, an unknown
# config key and an unknown param are named in tests of their own.
NAMED_MISFITS = [
    # math.isfinite raised OverflowError on this one: exit 1 with a traceback.
    ({"tolerances": {"ly_residual": 10**400}}, "ly_residual"),
    ({"tolerances": {"ly_residual": 1e-101}}, "ly_residual"),
    ({"tolerances": {"ly_residual": 1e101}}, "ly_residual"),
    ({"tolerances": {"lambda_tol": 0}}, "lambda_tol"),
    ({"tolerances": {"lambda_tol": -1}}, "lambda_tol"),
    ({"tolerances": [1e-6]}, "tolerances"),
    ({"tolerances": {"bogus": 1e-6}}, "bogus"),
    ({"sample_counts": {"loops": True}}, "loops"),
    ({"sample_counts": {"loops": 1.5}}, "loops"),
    ({"sample_counts": {"loops": 0}}, "loops"),
    ({"sample_counts": {"bogus": 5}}, "bogus"),
    ({"seed": 1.5}, "seed"),
]


@pytest.mark.parametrize("config, key", NAMED_MISFITS)
def test_cli_misfit_config_value_exits_two_naming_it(tmp_path, capsys, config, key):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    out_path = tmp_path / "r.json"
    code = main(["check-axioms", "--config", str(path), "--out", str(out_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and repr(key) in err
    assert not out_path.exists()


@pytest.mark.parametrize("content", [
    # No UTF-8.
    b"\xff\xfe{}",
    # An integer longer than int() takes from a string.
    b'{"seed": 1' + b"0" * 5000 + b"}",
])
@pytest.mark.parametrize("kind", ["config", "fixture"])
def test_cli_unreadable_json_file_exits_two(tmp_path, capsys, content, kind):
    bad = path = tmp_path / "bad.json"
    bad.write_bytes(content)
    if kind == "fixture":
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"model": {"kind": "fixture", "params": {"path": str(bad)}}}))
    out_path = tmp_path / "r.json"
    code = main(["check-axioms", "--config", str(path), "--out", str(out_path)])
    assert code == 2
    assert capsys.readouterr().err.startswith(f"config error: {bad}:")
    assert not out_path.exists()


@pytest.mark.parametrize("fixture, entry", [
    ({"states": [[1], 2], "pairs": []}, "[1]"),
    ({"states": [{"id": {"k": 1}}, 2], "pairs": []}, "{'id': {'k': 1}}"),
    ({"states": [1, 2], "pairs": [[[1], 2]]}, "pair #0"),
    ({"states": [1, 2], "pairs": [[1, 2], [1, {"id": 2}]]}, "pair #1"),
])
def test_cli_fixture_with_array_or_object_ids_exits_two(tmp_path, capsys, fixture, entry):
    (tmp_path / "fixture.json").write_text(json.dumps(fixture))
    path = tmp_path / "config.json"
    path.write_text(json.dumps(
        {"model": {"kind": "fixture", "params": {"path": str(tmp_path / "fixture.json")}}}
    ))
    out_path = tmp_path / "r.json"
    code = main(["check-axioms", "--config", str(path), "--out", str(out_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and entry in err
    assert not out_path.exists()


@pytest.mark.parametrize("name, argv", [
    ("grid_nu", ["construct-ly"]),
    ("grid_nv", ["construct-ly"]),
    ("probe_pairs", ["construct-zb"]),
    ("polygonals_per_pair", ["verify-theorems"]),
])
def test_cli_count_below_two_exits_two_naming_it(tmp_path, capsys, name, argv):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"sample_counts": {name: 1}}))
    code = main([*argv, "--config", str(path), "--out", str(tmp_path / "r.json")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and repr(name) in err


def test_cli_large_gas_construct_zb_exits_zero(tmp_path):
    # The loosened ly_residual is an input: with n = 1000 the LY resolution
    # is about lambda_tol times the entropy span, some 6e-5 J/K.
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"model": {"kind": "ideal_gas", "params": {"n": 1000}}}))
    code = main([
        "construct-zb", "--seed", "2", "--tolerance", "ly_residual=1e-3",
        "--config", str(path), "--out", str(tmp_path / "r.json"),
    ])
    assert code == 0


def test_cli_config_suites_key_exits_two(tmp_path, capsys):
    # Suites come from the subcommand alone; a config file cannot name them.
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"suites": ["ly"]}))
    out_path = tmp_path / "r.json"
    code = main(["check-axioms", "--config", str(path), "--out", str(out_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "suites" in err
    assert not out_path.exists()


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
