"""The in-repo adaptive Gauss-Kronrod rule: exactness, closed forms, the
evaluation budget and the error estimate."""

import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from entrokit.catalog import R_GAS, ideal_gas
from entrokit.errors import NumericError
from entrokit.pfaffian import QuasistaticPath
from entrokit.quadrature import (
    REL_TARGET,
    EvalBudget,
    _qk15,
    integrate_scalar,
    line_integral,
)

SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.mark.parametrize("k", range(23))
def test_kronrod15_integrates_monomials_exactly(k):
    kronrod, _, _ = _qk15(lambda x: x**k, 0.0, 1.0)
    assert kronrod == pytest.approx(1.0 / (k + 1), rel=1e-15, abs=0.0)


@pytest.mark.parametrize("k", range(14))
def test_embedded_gauss7_integrates_monomials_exactly(k):
    _, gauss, _ = _qk15(lambda x: x**k, 0.0, 1.0)
    assert gauss == pytest.approx(1.0 / (k + 1), rel=1e-15, abs=0.0)


def test_gauss7_is_not_exact_beyond_degree_13():
    _, gauss, _ = _qk15(lambda x: x**14, 0.0, 1.0)
    assert abs(gauss - 1.0 / 15) > 1e-9


def test_log_closed_form():
    r = integrate_scalar(lambda u: 1.0 / u, 1.0, math.e)
    assert r.value == pytest.approx(1.0, rel=REL_TARGET, abs=0.0)


def test_isothermal_work_of_the_gas():
    n, tau, v = 2.0, 400.0, 0.01
    simple = ideal_gas(n=n).process_engine.simple_system()
    u = 1.5 * n * R_GAS * tau  # the gas's energy at tau
    path = QuasistaticPath([(u, v), (u, 2.0 * v)], interp="linear")
    r = line_integral(simple.work_form, path.segments())
    assert r.value == pytest.approx(n * R_GAS * tau * math.log(2.0), rel=REL_TARGET, abs=0.0)


def test_closed_loop_of_an_exact_form_vanishes():
    simple = ideal_gas().process_engine.simple_system()
    # The way-points at temperatures 320, 580, 560 and 340 K.
    loop = QuasistaticPath(
        [(1.5 * R_GAS * tau, v) for tau, v in
         [(320.0, 0.011), (580.0, 0.012), (560.0, 0.019), (340.0, 0.018)]],
        closed=True,
    )
    r = line_integral(simple.x0_grad_fn, loop.segments())
    assert abs(r.value) <= 1e-14


def test_too_small_budget_raises():
    with pytest.raises(NumericError, match="budget of 10 exhausted"):
        integrate_scalar(math.exp, 0.0, 1.0, budget=EvalBudget(10))


@pytest.mark.parametrize("f, a, b", [
    (math.exp, 0.0, 1.0),
    (math.sqrt, 0.0, 1.0),
    (lambda x: 1.0 / (1e-3 + x * x), -1.0, 1.0),
])
def test_evaluations_count_integrand_calls(f, a, b):
    calls = 0

    def counted(x):
        nonlocal calls
        calls += 1
        return f(x)

    r = integrate_scalar(counted, a, b)
    assert r.evaluations == calls
    assert calls % 15 == 0


@pytest.mark.parametrize("f, a, b, exact", [
    (math.exp, 0.0, 1.0, math.e - 1.0),
    (math.cos, 0.0, 10.0, math.sin(10.0)),
    (math.sqrt, 0.0, 1.0, 2.0 / 3.0),
    (lambda x: 1.0 / (1e-3 + x * x), -1.0, 1.0, 2.0 * math.atan(1.0 / math.sqrt(1e-3)) / math.sqrt(1e-3)),
])
def test_error_estimate_bounds_true_error(f, a, b, exact):
    r = integrate_scalar(f, a, b)
    assert abs(r.value - exact) <= r.error_estimate
    assert r.error_estimate <= max(1e-14, REL_TARGET * abs(r.value))


def test_interval_cap_returns_the_estimate():
    # An odd integrand on a symmetric interval integrates to 0 up to
    # rounding, so only the 1e-14 floor could stop the run; the rounding
    # floor of the error estimate (50 eps |f| summed) lies above it, and the
    # 200-interval cap ends the run instead.
    r = integrate_scalar(math.sin, -3.0, 3.0)
    assert r.evaluations == 15 + 199 * 30
    assert abs(r.value) <= r.error_estimate


def test_import_leaves_scipy_out():
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    subprocess.run(
        [sys.executable, "-c", "import entrokit.cli, sys; assert 'scipy' not in sys.modules"],
        env=env, check=True,
    )
