"""Suite runner and report serialization for the command-line entry point.

A run is deterministic given (config, seed): every sampler derives from the
recorded seed, and the canonical JSON serialization carries no volatile
fields, so identical configurations reproduce byte-identical reports.
"""

from __future__ import annotations

import io
import json
import math
import random
import time

from . import __version__
from .axioms import (
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
    describe,
    fit_verdict,
    not_applicable,
    residual_verdict,
    verdict,
)
from .catalog import (
    _POSITIVE,
    MODEL_KINDS,
    PARAM_MAX,
    R_GAS,
    FinitePreorderFixture,
    IdealGasEngine,
    _EngineBase,
    ideal_gas,
    two_level_spin,
)
from .core import ModelSystem, Record
from .energy import PATH_INDEP_REL_TOL, check_path_independence
from .errors import (
    CapabilityError,
    ConfigError,
    DomainError,
    EngineError,
)
from .interpolation import (
    LAMBDA_TOL,
    ReferencePair,
    affine_match,
    entropy_from_accessibility,
    sandwich_bounds,
)
from .mutants import MatrixWorkers, mutate_model, mutation_matrix
from .pfaffian import (
    LOOP_ABS_TOL,
    PFAFFIAN_REL_TOL,
    QuasistaticPath,
    check_integrating_factor,
    check_pfaffian_form,
    entropy_from_integrating_factor,
    factorization_residual,
    loop_integral,
    quasistatic_work,
    random_closed_loop,
    sample_box_coords,
)
from .reservoir import (
    BENCH_RESERVOIR,
    BOOKKEEPING_TOL,
    CARNOT_REL_TOL,
    NONDECREASE_ZERO,
    RATIO_REL_TOL,
    Reservoir,
    check_carnot_agreement,
    check_entropy_nondecrease,
    check_lower_bound,
    check_pmm2,
    check_reservoir_independence,
    derive_assumptions_from_comparability,
    entropy_from_reservoir,
    reference_reservoir,
    temperature_ratio_independence,
)

SUITES = ("axioms", "energy", "ly", "zb", "caratheodory", "theorems", "mutants")

DEFAULT_TOLERANCES = {
    "lambda_tol": LAMBDA_TOL,
    "ly_residual": 1e-6,
    "zb_residual": 1e-6,
    "carnot_rel": CARNOT_REL_TOL,
    "ratio_rel": RATIO_REL_TOL,
    "nondecrease_zero": NONDECREASE_ZERO,
    "loop_abs": LOOP_ABS_TOL,
    "pfaffian_rel": PFAFFIAN_REL_TOL,
    "path_indep_rel": PATH_INDEP_REL_TOL,
    "bookkeeping": BOOKKEEPING_TOL,
    "negative_control_min": 1e-3,
}

DEFAULT_SAMPLE_COUNTS = {
    "axiom_samples": 200,
    "grid_nu": 21,
    "grid_nv": 21,
    "probe_pairs": 20,
    "carnot_pairs": 50,
    "irr_draws": 100,
    "weight_processes": 100,
    "pmm2_attempts": 1000,
    "loops": 10,
    "path_pairs": 10,
    "polygonals_per_pair": 5,
}

# Counts whose checks need two of something: two grid points per axis, two
# probes over two systems, two polygonals to compare.
PAIRED_COUNTS = ("grid_nu", "grid_nv", "probe_pairs", "polygonals_per_pair")


# The shape of each value a config gives as JSON (shapes as in
# ``catalog.MODEL_KINDS``).  The model spec is checked against its kind's
# row when the model is built.
CONFIG_SHAPE = {
    "model": (dict, None, None),
    "seed": (int, None, None),
    "tolerances": dict.fromkeys(DEFAULT_TOLERANCES, _POSITIVE),
    "sample_counts": {
        name: (int, 2 if name in PAIRED_COUNTS else 1, PARAM_MAX)
        for name in DEFAULT_SAMPLE_COUNTS
    },
}


class SuiteConfig(Record):
    def __init__(self, model: dict, suites: tuple[str, ...], seed: int = 0,
                 tolerances: dict = None, sample_counts: dict = None):
        self.__dict__.update(
            model=model, suites=suites, seed=seed,
            tolerances={} if tolerances is None else tolerances,
            sample_counts={} if sample_counts is None else sample_counts,
        )
        for s in self.suites:
            if s not in SUITES:
                raise ConfigError(f"unknown suite {s!r}; known: {SUITES}")
        _check_shape("config", {
            "model": model, "seed": seed,
            "tolerances": self.tolerances, "sample_counts": self.sample_counts,
        }, CONFIG_SHAPE)

    def tol(self, name: str) -> float:
        return self.tolerances.get(name, DEFAULT_TOLERANCES[name])

    def count(self, name: str) -> int:
        return self.sample_counts.get(name, DEFAULT_SAMPLE_COUNTS[name])

    @classmethod
    def from_dict(
        cls, raw: dict, suites: tuple[str, ...] = SUITES, tolerance_overrides: dict = None
    ) -> "SuiteConfig":
        """Build a config for ``suites`` from its JSON form;
        ``tolerance_overrides`` take precedence over the file's tolerances."""
        _check_shape("config", raw, CONFIG_SHAPE)
        return cls(
            model=raw.get("model", {"kind": "ideal_gas"}),
            suites=suites,
            seed=raw.get("seed", 0),
            tolerances={**raw.get("tolerances", {}), **(tolerance_overrides or {})},
            sample_counts=dict(raw.get("sample_counts", {})),
        )

    def to_dict(self) -> dict:
        return {
            "model": self.model,
            "suites": list(self.suites),
            "seed": self.seed,
            "tolerances": dict(self.tolerances),
            "sample_counts": dict(self.sample_counts),
        }


_TYPE_NAMES = {float: "a number", int: "an integer", str: "a string", dict: "a JSON object"}


def _check_shape(name: str, value, shape):
    """Raise ConfigError naming the value unless a JSON value has its
    declared shape (see ``catalog.MODEL_KINDS`` and ``CONFIG_SHAPE``); JSON's
    true and false are not numbers, and NaN and infinities lie in no range."""
    if isinstance(shape, dict):
        _check_shape(name, value, (dict, None, None))
        for key, item in value.items():
            if key not in shape:
                raise ConfigError(f"{name} has unknown key {key!r}; known: {list(shape)}")
            _check_shape(f"{name}[{key!r}]", item, shape[key])
        return
    if isinstance(shape, list):
        if not (isinstance(value, list) and len(value) == len(shape)):
            raise ConfigError(f"{name} must be a list of {len(shape)}, got {json.dumps(value)}")
        for i, (item, item_shape) in enumerate(zip(value, shape)):
            _check_shape(f"{name}[{i}]", item, item_shape)
        return
    kind, low, high = shape
    types = (int, float) if kind is float else kind
    if not (isinstance(value, types) and not isinstance(value, bool)
            and (low is None or low <= value <= high)):
        span = "" if low is None else f" in [{low:g}, {high:g}]"
        raise ConfigError(f"{name} must be {_TYPE_NAMES[kind]}{span}, got {json.dumps(value)}")


def build_target(model_spec: dict):
    """Instantiate the configured model or fixture from its kind's row of
    ``MODEL_KINDS``, applying a mutation if the config plants one."""
    if "kind" not in model_spec:
        raise ConfigError("model spec needs a 'kind'")
    unknown = set(model_spec) - {"kind", "params", "mutation"}
    if unknown:
        raise ConfigError(f"unknown model spec keys: {sorted(unknown)}")
    kind = model_spec["kind"]
    # A JSON array or object is unhashable: it is no key of the table.
    if not isinstance(kind, str) or kind not in MODEL_KINDS:
        raise ConfigError(f"unknown model kind {kind!r}; known: {list(MODEL_KINDS)}")
    constructor, shapes, required = MODEL_KINDS[kind]
    params = model_spec.get("params", {})
    _check_shape(f"{kind} params", params, shapes)
    bad = f"bad params for model kind {kind!r}"
    missing = [name for name in required if name not in params]
    if missing:
        raise ConfigError(f"{bad}: missing params {missing}")
    try:
        target = constructor(**params)
    except DomainError as exc:
        raise ConfigError(f"{bad}: {exc}") from exc
    mutation = model_spec.get("mutation")
    if mutation is not None:
        try:
            target = mutate_model(target, mutation)
        except (CapabilityError, DomainError) as exc:
            raise ConfigError(f"cannot apply mutation {mutation!r}: {exc}") from exc
    return target


class Report(Record):
    def __init__(self, config: SuiteConfig, suite_results: dict[str, list[CheckResult]],
                 summaries: dict = None, wall_time_s: float = 0.0, version: str = __version__):
        self.__dict__.update(
            config=config, suite_results=suite_results,
            summaries={} if summaries is None else summaries,
            wall_time_s=wall_time_s, version=version,
        )

    @property
    def all_checks(self) -> list[CheckResult]:
        return [r for results in self.suite_results.values() for r in results]

    @property
    def aggregate_pass(self) -> bool:
        return all(not r.failed for r in self.all_checks)

    def to_canonical_dict(self) -> dict:
        # Volatile fields (wall time) stay out of the canonical form so that
        # identical (config, seed) runs serialize byte-identically.
        return {
            "schema": "report_v1",
            "version": self.version,
            "config": self.config.to_dict(),
            "suites": {
                name: [r.to_dict() for r in results]
                for name, results in self.suite_results.items()
            },
            "summaries": self.summaries,
            "aggregate_pass": self.aggregate_pass,
        }


# ---------------------------------------------------------------------------
# Suites
# ---------------------------------------------------------------------------

# Every suite takes (target, config, memo) and returns (results, summary):
# the checks in report order, and the entries it adds to the report's
# summaries.  ``memo`` holds what more than one suite needs (the grid and the
# LY table) for the length of one run.
SuiteOutput = tuple[list[CheckResult], dict]


# The model battery.  The ``axioms`` and ``theorems`` suites, the mutation
# matrix (``mutants.run_model_checks``) and the acceptance test all run these
# two functions; they differ only in their seeds, reservoir and ``counts``,
# which holds each check's sample count under its check name.  Every draw
# from ``rng`` is made whatever ``runs`` holds, so the checks it names (all
# where it is None) see the samples they see in the full battery.
def axiom_checks(model: ModelSystem, rng, seed: int, counts: dict,
                 runs=None) -> list[CheckResult]:
    """The order axioms on a model, the sampled checks at ``seed`` + 0 to
    + 7; ``n1_n2`` probes ``counts["nonequilibrium"]`` states drawn from
    ``rng``, or none where the model has no nonequilibrium family."""
    rel = model.relation()
    engine = model.process_engine
    gamma = engine.gamma_grid()
    try:
        noneq = [engine.sample_nonequilibrium(rng) for _ in range(counts["nonequilibrium"])]
    except CapabilityError:
        noneq = []
    checks = {
        "reflexivity": lambda: check_reflexivity(rel, samples=counts["reflexivity"], seed=seed),
        "transitivity": lambda: check_transitivity(
            rel, samples=counts["transitivity"], seed=seed + 1),
        "consistency": lambda: check_consistency(
            rel, rel, samples=counts["consistency"], seed=seed + 2),
        "scaling_invariance": lambda: check_scaling_invariance(
            rel, samples=counts["scaling_invariance"], seed=seed + 3),
        "splitting": lambda: check_splitting(rel, samples=counts["splitting"], seed=seed + 4),
        "stability": lambda: check_stability(rel, samples=counts["stability"], seed=seed + 5),
        "comparison": lambda: check_comparison(rel, samples=counts["comparison"], seed=seed + 6),
        "n1_n2": lambda: check_n1_n2(rel, gamma, noneq, samples=counts["n1_n2"], seed=seed + 7),
    }
    return [check() for name, check in checks.items() if runs is None or name in runs]


def theorem_checks(model: ModelSystem, reservoir: Reservoir, rng, seed: int, counts: dict,
                   zero_tol: float = NONDECREASE_ZERO, runs=None) -> list[CheckResult]:
    """The reservoir theorems on a model: the lower bound against the
    reservoir at ``seed``, then entropy nondecrease and PMM2 at ``seed`` +
    1, on states drawn from ``rng``."""
    engine = model.process_engine
    pair = tuple(engine.sample_states(rng, 2))
    processes = engine.random_weight_processes(counts["entropy_nondecrease"], rng)
    ses = engine.sample_state(rng)
    checks = {
        "lower_bound": lambda: check_lower_bound(
            model, pair, reservoir, n_irr=counts["lower_bound"], seed=seed),
        "entropy_nondecrease": lambda: check_entropy_nondecrease(
            model, processes, zero_tol=zero_tol),
        "pmm2": lambda: check_pmm2(model, ses, attempts=counts["pmm2"], seed=seed + 1),
    }
    return [check() for name, check in checks.items() if runs is None or name in runs]


def suite_axioms(target, config: SuiteConfig, memo: dict) -> SuiteOutput:
    seed = config.seed
    n = config.count("axiom_samples")
    if isinstance(target, FinitePreorderFixture):
        rel = target.relation()
        return [
            check_reflexivity(rel, samples=n, seed=seed),
            check_transitivity(rel, samples=n, seed=seed + 1),
            not_applicable("consistency", "fixture declares no composition tables"),
            check_scaling_invariance(rel, seed=seed + 3),
            check_splitting(rel, seed=seed + 4),
            check_stability(rel, seed=seed + 5),
            check_comparison(rel, samples=n, seed=seed + 6),
            not_applicable("n1_n2", "fixture declares no equilibrium partition"),
        ], {}
    half = max(20, n // 2)
    counts = {"reflexivity": n, "transitivity": max(n, 500), "consistency": n, "comparison": n,
              "scaling_invariance": half, "splitting": half, "stability": half,
              "nonequilibrium": 15, "n1_n2": n}
    return axiom_checks(target, random.Random(seed + 70), seed, counts), {}


def suite_energy(target, config: SuiteConfig, memo: dict) -> SuiteOutput:
    if isinstance(target, FinitePreorderFixture):
        return [not_applicable("path_independence", "fixtures carry no process engine")], {}
    model = target
    engine = model.process_engine
    seed = config.seed
    rng = random.Random(seed + 100)
    drawn = engine.sample_states(rng, 2 * config.count("path_pairs"))
    pairs = list(zip(drawn[::2], drawn[1::2]))
    return [
        check_path_independence(
            model, pairs, k=config.count("polygonals_per_pair"),
            seed=seed + 101, rel_tol=config.tol("path_indep_rel"),
        )
    ], {}


def state_grid(engine, config: SuiteConfig, memo: dict) -> list:
    """The run's grid of states, built once per memo for ``ly`` and ``zb``."""
    if "grid" not in memo:
        memo["grid"] = engine.grid(config.count("grid_nu"), config.count("grid_nv"))
    return memo["grid"]


def _grid_and_refs(model: ModelSystem, config: SuiteConfig, memo: dict):
    grid = state_grid(model.process_engine, config, memo)
    by_oracle = sorted(grid, key=model.oracle_entropy)
    refs = ReferencePair(x0=by_oracle[0], x1=by_oracle[-1], s0=0.0, s1=100.0)
    return grid, refs


def ly_table(model: ModelSystem, config: SuiteConfig, memo: dict):
    """The LY grid and its interpolation table, built once per memo.

    The table is most of the cost of the ``ly`` suite, and ``zb``'s
    cross-construction check needs the same one, so ``run`` hands both
    suites one memo and whichever runs first builds it.
    """
    if "ly" not in memo:
        grid, refs = _grid_and_refs(model, config, memo)
        table = entropy_from_accessibility(
            model.relation(), refs, grid, tol=config.tol("lambda_tol")
        )
        memo["ly"] = grid, table
    return memo["ly"]


def suite_ly(target, config: SuiteConfig, memo: dict) -> SuiteOutput:
    if isinstance(target, FinitePreorderFixture) or not getattr(
        target, "supports_scaling", False
    ):
        return [not_applicable("ly_oracle_match", "interpolation needs a scalable model")], {}
    model = target
    rel = model.relation()
    grid, table = ly_table(model, config, memo)
    oracle = [model.oracle_entropy(s) for s in grid if s in table.entries]
    constructed = [table.entries[s] for s in grid if s in table.entries]
    fit = affine_match(constructed, oracle)
    results = [
        fit_verdict(
            "ly_oracle_match", fit, config.tol("ly_residual"),
            samples_used=len(constructed),
            message=f"affine fit a={fit.a:.6g} b={fit.b:.6g} "
                    f"max residual {fit.max_residual:.3e} J/K",
        )
    ]

    # Sandwich bounds for sampled nonequilibrium states.
    engine = model.process_engine
    rng = random.Random(config.seed + 200)
    bad = []
    try:
        xs = [engine.sample_nonequilibrium(rng) for _ in range(10)]
        for x, bounds in zip(xs, sandwich_bounds(rel, xs, grid, table)):
            s_x = model.oracle_entropy(x)
            a, b = fit.a, fit.b
            if not bounds.ok:
                bad.append((x, bounds.message))
            elif not (
                a * bounds.s_minus + b - 1e-6 <= s_x <= a * bounds.s_plus + b + 1e-6
            ):
                bad.append((x, bounds.s_minus, bounds.s_plus, s_x))
        results.append(verdict("ly_sandwich_bounds", not bad, bad, samples_used=len(xs)))
    except CapabilityError:
        results.append(
            not_applicable("ly_sandwich_bounds", "model has no nonequilibrium family")
        )

    summary = {
        "ly": {
            "states": len(table.entries),
            "skipped": len(table.skipped),
            "affine_fit": {"a": fit.a, "b": fit.b, "max_residual": fit.max_residual},
        }
    }
    return results, summary


def _auxiliary_system(model: ModelSystem) -> ModelSystem:
    """A second system of the other engine type for the temperature
    universality probes, under an id distinct from the model's."""
    make = two_level_spin if isinstance(model.process_engine, IdealGasEngine) else ideal_gas
    aux = make()
    return aux if aux.id != model.id else make(model_id=f"{aux.id}-aux")


def suite_zb(target, config: SuiteConfig, memo: dict) -> SuiteOutput:
    if isinstance(target, FinitePreorderFixture):
        return [not_applicable("zb_oracle_match", "fixtures carry no process engine")], {}
    model = target
    engine = model.process_engine
    rng = random.Random(config.seed + 300)
    r0 = reference_reservoir()
    results = []
    summary: dict = {}

    # Reconstruction against the oracle, additive constant only.
    states = (
        state_grid(engine, config, memo)
        if hasattr(engine, "grid")
        else engine.sample_states(rng, 100)
    )
    a0 = states[0]
    table = entropy_from_reservoir(model, a0, 0.0, r0.reservoir, states)
    diffs = [table.entries[s] - model.oracle_entropy(s) for s in states if s in table.entries]
    mean = sum(diffs) / len(diffs)
    residual = max(abs(d - mean) for d in diffs)
    results.append(
        residual_verdict(
            "zb_oracle_match", residual, config.tol("zb_residual"),
            samples_used=len(diffs),
            message=f"shift {mean:.6g} J/K, max residual {residual:.3e} J/K",
        )
    )
    summary["zb"] = {"states": len(diffs), "max_residual": residual}

    # Temperature universality across two distinct systems.
    aux = _auxiliary_system(model)
    pp = config.count("probe_pairs")
    probes = []
    for system, count in ((model, pp // 2), (aux, pp - pp // 2)):
        drawn = system.process_engine.sample_states(rng, 2 * count)
        probes += [(system, a, b) for a, b in zip(drawn[::2], drawn[1::2])]
    r300 = Reservoir(id="R-300", temperature=300.0)
    r600 = Reservoir(id="R-600", temperature=600.0)
    results.append(
        temperature_ratio_independence(
            r300, r600, probes, rel_tol=config.tol("ratio_rel")
        )
    )

    results.append(
        check_reservoir_independence(
            model,
            tuple(engine.sample_states(rng, 2)),
            [
                Reservoir(id="R-100", temperature=100.0),
                r0.reservoir,
                Reservoir(id="R-1000", temperature=1000.0),
            ],
            rel_tol=config.tol("ratio_rel"),
        )
    )

    # Quasistatic route agreement, when the model provides one.
    try:
        drawn = engine.sample_states(rng, 2 * config.count("carnot_pairs"))
        pairs = list(zip(drawn[::2], drawn[1::2]))
        results.append(
            check_carnot_agreement(model, pairs, BENCH_RESERVOIR, rel_tol=config.tol("carnot_rel"))
        )
    except CapabilityError as exc:
        results.append(not_applicable("carnot_agreement", str(exc)))

    # Cross-construction agreement with the interpolation route.
    if getattr(model, "supports_scaling", False):
        grid, ly = ly_table(model, config, memo)
        common = [s for s in grid if s in ly.entries and s in table.entries]
        fit = affine_match(
            [ly.entries[s] for s in common], [table.entries[s] for s in common]
        )
        results.append(
            fit_verdict(
                "cross_construction", fit, config.tol("ly_residual"),
                samples_used=len(common),
                message=f"affine fit residual {fit.max_residual:.3e} J/K",
            )
        )
        summary["cross_construction"] = {"max_residual": fit.max_residual}
    else:
        results.append(not_applicable("cross_construction", "interpolation route needs scaling"))

    return results, summary


def suite_theorems(target, config: SuiteConfig, memo: dict) -> SuiteOutput:
    if isinstance(target, FinitePreorderFixture):
        return [not_applicable("lower_bound", "fixtures carry no process engine")], {}
    seed = config.seed
    counts = {
        "lower_bound": config.count("irr_draws"),
        "entropy_nondecrease": config.count("weight_processes"),
        "pmm2": config.count("pmm2_attempts"),
    }
    results = theorem_checks(
        target, BENCH_RESERVOIR, random.Random(seed + 400), seed + 401, counts,
        zero_tol=config.tol("nondecrease_zero"),
    )
    try:
        results.append(
            derive_assumptions_from_comparability(
                target, BENCH_RESERVOIR, samples=25, seed=seed + 403,
                sigma_tol=config.tol("bookkeeping"),
            )
        )
    except (CapabilityError, EngineError) as exc:
        results.append(not_applicable("derive_assumptions", str(exc)))
    return results, {}


def suite_caratheodory(target, config: SuiteConfig, memo: dict) -> SuiteOutput:
    # A fixture has no engine; the base engine's refusal stands for it.
    engine = target.process_engine if isinstance(target, ModelSystem) else _EngineBase()
    try:
        simple = engine.simple_system()
    except CapabilityError as exc:
        return [not_applicable("integrating_factor", str(exc))], {}
    seed = config.seed
    rng = random.Random(seed + 500)
    (u_lo, u_hi), (v_lo, v_hi) = simple.coord_box
    results = []

    # Closed-form anchor: along the gas's isotherm at the box's lowest energy,
    # the work from V_lo to V_hi is n R T ln(V_hi / V_lo).
    path = QuasistaticPath([[u_lo, v_lo], [u_lo, v_hi]], interp="linear")
    work = quasistatic_work(simple, path)
    expected = engine.n0 * R_GAS * simple.temperature(path.start()) * math.log(v_hi / v_lo)
    results.append(
        verdict(
            "quasistatic_work_closed_form",
            abs(work - expected) < 1e-8 * abs(expected), [("work", work, expected)],
            samples_used=1, tolerance_used=1e-8,
        )
    )

    paths = [
        QuasistaticPath(sample_box_coords(simple.inner_box, 3, rng), interp="cubic")
        for _ in range(5)
    ]
    results.append(
        check_pfaffian_form(simple, paths, rel_tol=config.tol("pfaffian_rel"))
    )

    loops = [
        random_closed_loop(simple.coord_box, rng) for _ in range(config.count("loops"))
    ]
    results.append(
        check_integrating_factor(simple, loops, abs_tol=config.tol("loop_abs"))
    )

    rectangle = QuasistaticPath(
        [[u_lo, v_lo], [u_hi, v_lo], [u_hi, v_hi], [u_lo, v_hi]],
        closed=True, interp="linear",
    )
    control = loop_integral(simple, rectangle, power=2)
    threshold = config.tol("negative_control_min")
    results.append(
        verdict(
            "negative_control", abs(control) > threshold, [("control_value", control)],
            samples_used=1, tolerance_used=threshold,
            message=f"loop of (dU+dW)/T^2 = {control:.6g}",
        )
    )

    coords = sample_box_coords(simple.coord_box, 50, rng)
    res = factorization_residual(simple, coords)
    results.append(residual_verdict("factorization", res, 1e-10, samples_used=50))

    # Entropy from the collapsed coordinate matches the model's oracle affinely.
    entropy = entropy_from_integrating_factor(simple, x0_ref=0.0, s_ref=0.0)
    states = sample_box_coords(simple.inner_box, 25, rng)
    built = [entropy.s_of_x0(simple.x0_fn(c)) for c in states]
    oracle = [target.oracle_entropy(engine.state(*c)) for c in states]
    fit = affine_match(built, oracle)
    results.append(
        fit_verdict(
            "caratheodory_entropy_match", fit, 1e-8,
            samples_used=len(states),
            message=f"affine fit residual {fit.max_residual:.3e}",
        )
    )
    return results, {}


def suite_mutants(target, config: SuiteConfig, memo: dict) -> SuiteOutput:
    matrix = mutation_matrix(seed=config.seed, workers=memo.get("matrix_workers"))
    # Both batteries run checks of the same names, so each failure is named
    # with its battery.
    batteries = {"model": matrix["baseline_model"], "fixture": matrix["baseline_fixture"]}
    failures = [
        (battery, name, status)
        for battery, statuses in batteries.items()
        for name, status in statuses.items()
        if status == CheckStatus.FAIL
    ]
    results = [
        verdict(
            "matrix_baseline",
            not failures,
            failures,
            samples_used=sum(map(len, batteries.values())),
        )
    ]
    results += [
        verdict(
            f"mutant_{m['mutation']}",
            m["exact"],
            [("expected", m["expected_failures"]), ("newly_failed", m["newly_failed"])],
            samples_used=len(m["statuses"]),
        )
        for m in matrix["mutants"]
    ]
    return results, {"mutation_matrix": matrix}


# ---------------------------------------------------------------------------
# Runner and emitters
# ---------------------------------------------------------------------------

def run(config: SuiteConfig) -> Report:
    """Execute the selected suites in dependency order.

    Artifacts more than one suite needs (the grid and the LY table) are
    built once and shared through a memo that lives for this run only.
    When ``mutants`` is selected, the mutation matrix's workers are forked
    before the first suite, so they run its batteries while this process
    runs the other suites; every worker is reaped before this returns or
    raises.
    """
    start = time.perf_counter()
    target = build_target(config.model)
    suite_results: dict[str, list[CheckResult]] = {}
    summaries: dict = {}
    memo: dict = {}
    if "mutants" in config.suites:
        memo["matrix_workers"] = MatrixWorkers(config.seed)
    try:
        for name in SUITES:
            if name in config.suites:
                # Looked up at call time, so a wrapper set on the module
                # attribute (e.g. by a profiler) sees the call.
                suite = globals()[f"suite_{name}"]
                suite_results[name], summary = suite(target, config, memo)
                summaries.update(summary)
    finally:
        if "matrix_workers" in memo:
            memo["matrix_workers"].close()
    wall = time.perf_counter() - start
    return Report(config, suite_results, summaries, wall_time_s=wall)


def emit(report: Report, fmt: str = "json") -> str:
    if fmt == "json":
        return json.dumps(report.to_canonical_dict(), sort_keys=True, indent=2) + "\n"
    if fmt == "csv":
        out = io.StringIO()
        out.write("suite,check,status,samples_used,tolerance_used,witness_count,message\n")
        for suite, results in report.suite_results.items():
            for r in results:
                msg = r.message.replace('"', "'")
                tol = "" if r.tolerance_used is None else repr(r.tolerance_used)
                out.write(
                    f'{suite},{r.check_name},{r.status.value},{r.samples_used},'
                    f'{tol},{len(r.witnesses)},"{msg}"\n'
                )
        return out.getvalue()
    if fmt == "text":
        lines = [f"entrokit {report.version} report (seed={report.config.seed})"]
        for suite, results in report.suite_results.items():
            lines.append(f"\n[{suite}]")
            for r in results:
                tol = "" if r.tolerance_used is None else f" tol={r.tolerance_used:g}"
                lines.append(f"  {r.check_name:32s} {r.status.value:>14s}{tol}  {r.message}")
                if r.failed:
                    for w in r.witnesses[:5]:
                        lines.append(f"    witness: {json.dumps(describe(w), default=str)}")
        lines.append(
            f"\naggregate: {'PASS' if report.aggregate_pass else 'FAIL'}"
            f"  (wall time {report.wall_time_s:.2f} s)"
        )
        return "\n".join(lines) + "\n"
    raise ConfigError(f"unknown output format {fmt!r}")
