import copy
import math
import random

import numpy as np
import pytest

from entrokit.catalog import R_GAS, ideal_gas, two_level_spin
from entrokit.core import ModelSystem
from entrokit.errors import CapabilityError, DomainError
from entrokit.interpolation import affine_match
from entrokit.quadrature import line_integral
from entrokit.report import SuiteConfig, suite_caratheodory
from entrokit.reservoir import Reservoir, check_carnot_agreement
from entrokit.pfaffian import (
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


@pytest.fixture(scope="module")
def simple():
    return ideal_gas().process_engine.simple_system()


def at(tau, v):
    """The default gas's (U, V) coordinates at temperature tau: U = cv n R tau."""
    return [1.5 * R_GAS * tau, v]


def test_constant_deformation_path_does_no_work(simple):
    path = QuasistaticPath([at(300.0, 0.015), at(550.0, 0.015)], interp="linear")
    assert quasistatic_work(simple, path) == pytest.approx(0.0, abs=1e-12)


def test_isothermal_expansion_work_matches_closed_form(simple):
    tau = 300.0
    path = QuasistaticPath([at(tau, 0.01), at(tau, 0.02)], interp="linear")
    work = quasistatic_work(simple, path)
    assert work == pytest.approx(R_GAS * tau * math.log(2.0), rel=1e-10)


def test_reversed_path_negates_work(simple):
    path = QuasistaticPath([at(300.0, 0.01), at(420.0, 0.017), at(520.0, 0.019)])
    back = path.reversed()
    assert quasistatic_work(simple, back) == pytest.approx(
        -quasistatic_work(simple, path), rel=1e-9
    )


def test_pfaffian_form_holds_on_random_paths(simple):
    rng = random.Random(3)
    paths = [
        QuasistaticPath(
            [at(rng.uniform(320, 580), rng.uniform(0.011, 0.019)) for _ in range(4)]
        )
        for _ in range(5)
    ]
    assert check_pfaffian_form(simple, paths).passed


def test_pfaffian_form_constant_x0_path(simple):
    # An adiabat: U chosen so x0 = cv ln(U) + ln(V) stays constant.  The
    # path chords the adiabat with 400 waypoints, so both sides vanish up to
    # the discretization of the curve.
    x0 = simple.x0_fn(at(400.0, 0.015))
    vs = np.linspace(0.012, 0.018, 400)
    us = [math.exp((x0 - math.log(v)) / 1.5) for v in vs]
    path = QuasistaticPath(list(map(list, zip(us, vs))), interp="linear")
    du = path.end()[0] - path.start()[0]
    lhs = du + quasistatic_work(simple, path)
    assert lhs == pytest.approx(0.0, abs=1e-2)
    assert check_pfaffian_form(simple, [path]).passed


def test_pfaffian_form_halved_m_fails(simple):
    broken = simple.replace(m_fn=lambda coords: 0.5 * simple.m_fn(coords))
    paths = [QuasistaticPath([at(320.0, 0.012), at(560.0, 0.018)])]
    assert check_pfaffian_form(broken, paths).failed


def test_degenerate_loop_integral_is_zero(simple):
    loop = QuasistaticPath(
        [at(400.0, 0.015)] * 3, closed=True, interp="linear"
    )
    assert loop_integral(simple, loop) == pytest.approx(0.0, abs=1e-12)


def test_rectangular_loop_closes(simple):
    loop = QuasistaticPath(
        [at(300.0, 0.01), at(600.0, 0.01), at(600.0, 0.02), at(300.0, 0.02)],
        closed=True, interp="linear",
    )
    assert abs(loop_integral(simple, loop)) < 1e-8


def test_random_smooth_loops_close(simple):
    rng = random.Random(4)
    loops = [random_closed_loop(simple.coord_box, rng) for _ in range(10)]
    result = check_integrating_factor(simple, loops)
    assert result.passed


def test_inverse_square_control_is_nonzero(simple):
    loop = QuasistaticPath(
        [at(300.0, 0.01), at(600.0, 0.01), at(600.0, 0.02), at(300.0, 0.02)],
        closed=True, interp="linear",
    )
    control = loop_integral(simple, loop, power=2)
    expected = R_GAS * math.log(2.0) * (1.0 / 600.0 - 1.0 / 300.0)
    assert control == pytest.approx(expected, rel=1e-8)
    assert abs(control) > 1e-3


def test_loop_integral_requires_closed_path(simple):
    path = QuasistaticPath([at(300.0, 0.01), at(600.0, 0.02)])
    with pytest.raises(DomainError):
        loop_integral(simple, path)


def test_loop_reparameterization_invariance(simple):
    rng = random.Random(5)
    loop = random_closed_loop(simple.coord_box, rng)

    def integrand(coords):
        t = simple.temperature(coords)
        return [h / t for h in simple.heat_form(coords)]

    def quadratic_warp(seg):
        # The same curve traversed at parameter s^2, so at speed 2s.
        def warped(s):
            point, velocity = seg(s * s)
            return point, [2.0 * s * v for v in velocity]

        return warped

    warped = [quadratic_warp(seg) for seg in loop.segments()]
    assert line_integral(integrand, warped).value == pytest.approx(
        loop_integral(simple, loop), abs=1e-10
    )


def test_loop_values_shrink_with_area(simple):
    def rect(half):
        return QuasistaticPath(
            [
                at(450.0 - half * 150.0, 0.015 - half * 0.005),
                at(450.0 + half * 150.0, 0.015 - half * 0.005),
                at(450.0 + half * 150.0, 0.015 + half * 0.005),
                at(450.0 - half * 150.0, 0.015 + half * 0.005),
            ],
            closed=True, interp="linear",
        )

    big = abs(loop_integral(simple, rect(1.0), power=2))
    small = abs(loop_integral(simple, rect(0.25), power=2))
    assert small < big


def test_entropy_function_anchors_at_reference(simple):
    entropy = entropy_from_integrating_factor(simple, x0_ref=2.0, s_ref=5.0)
    assert entropy.s_of_x0(2.0) == 5.0


def test_constant_alpha_gives_linear_entropy(simple):
    flat = simple.replace(alpha_fn=lambda x0: simple.c)
    entropy = entropy_from_integrating_factor(flat, x0_ref=0.0, s_ref=0.0)
    assert entropy.s_of_x0(1.7) == pytest.approx(1.7, rel=1e-10)


def test_factorization_residual_small(simple):
    rng = random.Random(6)
    coords = sample_box_coords(simple.coord_box, 50, rng)
    assert factorization_residual(simple, coords) < 1e-10


def test_m_over_t_equals_alpha_over_c(simple):
    rng = random.Random(7)
    for coords in sample_box_coords(simple.coord_box, 30, rng):
        lhs = simple.m_fn(coords) / simple.temperature(coords)
        rhs = simple.alpha_fn(simple.x0_fn(coords)) / simple.c
        assert lhs == pytest.approx(rhs, rel=1e-10)


def test_entropy_matches_gas_oracle_affinely(simple):
    gas = ideal_gas()
    entropy = entropy_from_integrating_factor(simple, x0_ref=0.0, s_ref=0.0)
    rng = random.Random(8)
    coords = sample_box_coords(simple.coord_box, 25, rng)
    built = [entropy.s_of_x0(simple.x0_fn(c)) for c in coords]
    oracle = [
        gas.oracle_entropy(gas.process_engine.state(*c)) for c in coords
    ]
    fit = affine_match(built, oracle)
    assert fit.orientation_ok
    assert fit.max_residual < 1e-8


def test_the_gas_simple_system_spans_the_window_in_u(simple):
    # The window is T in [300, 600] K and V in [0.01, 0.02] m^3, with inner
    # box T in [320, 580] K and V in [0.011, 0.019] m^3.
    c = 1.5 * R_GAS
    assert simple.coord_box == ((c * 300.0, c * 600.0), (0.01, 0.02))
    assert simple.inner_box == ((c * 320.0, c * 580.0), (0.011, 0.019))
    for corner in ((300.0, 0.01), (600.0, 0.02)):
        assert simple.temperature(at(*corner)) == pytest.approx(corner[0], rel=1e-15)


def test_a_model_without_a_simple_system_is_not_applicable():
    spin = two_level_spin()
    with pytest.raises(CapabilityError, match="quasistatic structure needs a simple system"):
        spin.process_engine.simple_system()
    results, _ = suite_caratheodory(spin, SuiteConfig.from_dict({}), {})
    assert [(r.check_name, r.status.value) for r in results] == [
        ("integrating_factor", "not_applicable")
    ]


def test_one_equation_of_state_feeds_both_quasistatic_routes():
    # A pressure 1 % too high, on a copy of the gas's engine, reaches the
    # reservoir route and the simple system alike.
    gas = ideal_gas()
    engine = copy.copy(gas.process_engine)
    pressure = engine.pressure
    engine.pressure = lambda u, v, n: 1.01 * pressure(u, v, n)
    model = ModelSystem(engine)
    drawn = engine.sample_states(random.Random(11), 20)
    pairs = list(zip(drawn[::2], drawn[1::2]))
    bench = Reservoir(id="bench-300", temperature=300.0)
    assert check_carnot_agreement(gas, pairs, bench).passed
    assert check_carnot_agreement(model, pairs, bench).failed
    results, _ = suite_caratheodory(model, SuiteConfig.from_dict({"seed": 1}), {})
    failed = {r.check_name for r in results if r.failed}
    assert {"quasistatic_work_closed_form", "pfaffian_form"} <= failed
    intact, _ = suite_caratheodory(gas, SuiteConfig.from_dict({"seed": 1}), {})
    assert all(r.passed for r in intact)
