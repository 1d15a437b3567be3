"""Per-layer probes for the traced benchmark run.

A ``Tracer`` replaces entrokit functions and methods with counting (and,
where calls are rare enough, timing) wrappers, runs the program, and puts
every original back.  Nothing inside ``src/`` changes: the wrappers are
installed from here, around the calls into each layer.

Where a function is imported by value (``from .quadrature import
line_integral``), wrapping its defining module would miss every call made
through the importing module's own name, so a module-level boundary is
wrapped at every ``entrokit`` binding that holds it.  Methods are wrapped on
the class that defines them.

Timers cost about a microsecond per call, so only boundaries called at most
about 10^4 times per run carry one.  ``AccessibilityRelation.leq`` is called
millions of times on the fixture workload; it gets a counter, and its busy
time is estimated from a timed one-in-``LEQ_SAMPLE`` subsample.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

SUITES = ("axioms", "energy", "ly", "zb", "caratheodory", "theorems", "mutants")

# Every 64th leq call is timed; the busy-time estimate scales the sum by 64.
LEQ_SAMPLE = 64

# Per-layer metric names and units, in report order.
METRICS = {
    "core.leq_calls": "count",
    "core.leq_s": "s",
    "core.spaces_registered": "count",
    "interpolation.tables_built": "count",
    "interpolation.find_lambda_calls": "count",
    "interpolation.ms_per_state": "ms",
    "interpolation.leq_per_state": "count",
    "mutants.matrix_s": "s",
    "mutants.batteries": "count",
    "mutants.gas_models_built": "count",
    "quadrature.line_integrals": "count",
    "quadrature.evaluations": "count",
    "quadrature.s": "s",
    "reservoir.swp_calls": "count",
    "reservoir.swp_s": "s",
    "reservoir.tables_built": "count",
    "reservoir.table_s": "s",
    **{f"report.suite_s.{s}": "s" for s in SUITES},
    "report.emit_s": "s",
}


def _entrokit_modules():
    return [
        mod for name, mod in sorted(sys.modules.items())
        if mod is not None and (name == "entrokit" or name.startswith("entrokit."))
    ]


def _timer_cost(trials: int = 20000) -> float:
    """Mean seconds an empty ``perf_counter`` interval reads."""
    total = 0.0
    for _ in range(trials):
        start = time.perf_counter()
        total += time.perf_counter() - start
    return total / trials


class Tracer:
    """Install wrappers with ``install()``, read ``metrics()``, and always
    call ``restore()`` (or use the tracer as a context manager)."""

    def __init__(self):
        self.calls: dict[str, int] = defaultdict(int)
        self.busy: dict[str, float] = defaultdict(float)
        self.leq = [0, 0.0]  # calls, seconds spent in the timed subsample
        self._timer_cost = 0.0
        self.table_states = 0
        self.table_leq = 0
        self.target = None
        self._saved: list[tuple[object, str, object]] = []

    # -- patching -----------------------------------------------------

    def _set(self, owner, name, value):
        self._saved.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def _wrap_bindings(self, module, name, make_wrapper):
        """Wrap ``module.name`` at every entrokit binding that holds it."""
        original = module.__dict__.get(name)
        if original is None:
            raise RuntimeError(f"{module.__name__}.{name} not found")
        wrapper = make_wrapper(original)
        for mod in _entrokit_modules():
            if mod.__dict__.get(name) is original:
                self._set(mod, name, wrapper)

    def _wrap(self, key, fn, *, timed=True, on_result=None):
        """Count calls to ``fn`` under ``key``; time them if ``timed``; pass
        each result to ``on_result``."""
        calls, busy = self.calls, self.busy

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[key] += 1
            if not timed:
                result = fn(*args, **kwargs)
            else:
                start = time.perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    busy[key] += time.perf_counter() - start
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def install(self) -> "Tracer":
        """Put every probe in place.  Raises, with everything restored, when
        a boundary is no longer where the probes expect it."""
        try:
            self._install()
        except BaseException:
            self.restore()
            raise
        return self

    def _install(self):
        from entrokit import (
            catalog, cli, core, interpolation, mutants, quadrature, report, reservoir,
        )

        # core: hot, so a counter plus a sampled timer.  A leq call takes a
        # fraction of a microsecond, so the timer's own cost is measured and
        # taken off the estimate.
        leq, state = core.AccessibilityRelation.__dict__["leq"], self.leq
        self._timer_cost = _timer_cost()

        @functools.wraps(leq)
        def leq_wrapper(rel, x, y):
            state[0] += 1
            if state[0] % LEQ_SAMPLE:
                return leq(rel, x, y)
            start = time.perf_counter()
            try:
                return leq(rel, x, y)
            finally:
                state[1] += time.perf_counter() - start

        self._set(core.AccessibilityRelation, "leq", leq_wrapper)

        def keep_target(target):
            self.target = target

        self._wrap_bindings(
            report, "build_target",
            lambda fn: self._wrap("report.build_target", fn, timed=False, on_result=keep_target),
        )

        # interpolation: tables are timed, with the leq calls they make;
        # the bisection is only counted.
        def table_wrapper(fn):
            timed = self._wrap("interpolation.table", fn)

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                before = state[0]
                table = timed(*args, **kwargs)
                self.table_leq += state[0] - before
                self.table_states += len(table.entries) + len(table.skipped)
                return table

            return wrapper

        self._wrap_bindings(interpolation, "entropy_from_accessibility", table_wrapper)
        self._wrap_bindings(
            interpolation, "find_lambda",
            lambda fn: self._wrap("interpolation.find_lambda", fn, timed=False),
        )

        # mutants: the matrix, its batteries, and the models it builds.
        self._wrap_bindings(
            mutants, "mutation_matrix", lambda fn: self._wrap("mutants.matrix", fn)
        )
        self._wrap_bindings(
            mutants, "run_model_checks",
            lambda fn: self._wrap("mutants.batteries", fn, timed=False),
        )
        # Only the matrix's own binding: the report builds gases for other reasons.
        self._set(mutants, "ideal_gas", self._wrap("mutants.gas", mutants.ideal_gas, timed=False))

        # quadrature: path integrals are counted.  Every integral, whether a
        # segment of a path or made directly (pfaffian's entropy from the
        # integrating factor), goes through integrate_scalar, so that is what
        # is timed, and every integrand evaluation is charged to an EvalBudget.
        self._wrap_bindings(
            quadrature, "line_integral",
            lambda fn: self._wrap("quadrature.line_integral", fn, timed=False),
        )
        self._wrap_bindings(
            quadrature, "integrate_scalar",
            lambda fn: self._wrap("quadrature.integrate_scalar", fn),
        )
        charge, calls = quadrature.EvalBudget.__dict__["charge"], self.calls

        @functools.wraps(charge)
        def charge_wrapper(budget, n=1):
            calls["quadrature.evaluations"] += n
            return charge(budget, n)

        self._set(quadrature.EvalBudget, "charge", charge_wrapper)

        # reservoir: the engine's standard weight process and the ZB table.
        self._set(
            catalog._EngineBase, "reversible_swp",
            self._wrap("reservoir.swp", catalog._EngineBase.__dict__["reversible_swp"]),
        )
        self._wrap_bindings(
            reservoir, "entropy_from_reservoir", lambda fn: self._wrap("reservoir.table", fn)
        )

        # report: each suite and the serializer.
        for suite in SUITES:
            self._wrap_bindings(
                report, f"suite_{suite}",
                lambda fn, suite=suite: self._wrap(f"report.suite.{suite}", fn),
            )
        self._wrap_bindings(cli, "emit", lambda fn: self._wrap("report.emit", fn))

    def restore(self):
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.restore()

    # -- results ------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Every metric of ``METRICS``, in that order."""
        c, b = self.calls, self.busy
        states = self.table_states
        spaces = getattr(self.target, "spaces", None)
        return {
            "core.leq_calls": self.leq[0],
            "core.leq_s": max(
                0.0,
                (self.leq[1] - self._timer_cost * (self.leq[0] // LEQ_SAMPLE)) * LEQ_SAMPLE,
            ),
            "core.spaces_registered": len(spaces) if spaces is not None else 0,
            "interpolation.tables_built": c["interpolation.table"],
            "interpolation.find_lambda_calls": c["interpolation.find_lambda"],
            "interpolation.ms_per_state": (
                1e3 * b["interpolation.table"] / states if states else 0.0
            ),
            "interpolation.leq_per_state": self.table_leq / states if states else 0.0,
            "mutants.matrix_s": b["mutants.matrix"],
            "mutants.batteries": c["mutants.batteries"],
            "mutants.gas_models_built": c["mutants.gas"],
            "quadrature.line_integrals": c["quadrature.line_integral"],
            "quadrature.evaluations": c["quadrature.evaluations"],
            "quadrature.s": b["quadrature.integrate_scalar"],
            "reservoir.swp_calls": c["reservoir.swp"],
            "reservoir.swp_s": b["reservoir.swp"],
            "reservoir.tables_built": c["reservoir.table"],
            "reservoir.table_s": b["reservoir.table"],
            **{f"report.suite_s.{s}": b[f"report.suite.{s}"] for s in SUITES},
            "report.emit_s": b["report.emit"],
        }
