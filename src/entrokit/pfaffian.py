"""Caratheodory-style structure checks on simple-system models.

For a simple system the quasistatic work is a Pfaffian form in the
deformation coordinates.  These checks verify, by path quadrature on
concrete models: that energy change plus work collapses onto a single
M dx0 form, that 1/T is an integrating factor (closed-loop integrals of
(dU + dW)/T vanish), and that the factorization M = f(tau) alpha(x0)
reproduces an entropy function matching the model's ground truth up to
the affine gauge.  Paths run through way-points, cubic or linear, and every
path integral is taken to the quadrature module's relative target
``REL_TARGET``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Sequence

from .axioms import CheckResult, verdict
from .errors import DomainError
from .quadrature import integrate_scalar, line_integral

# A point of a simple system's coordinate space, or a vector there.
Point = tuple[float, ...]

LOOP_ABS_TOL = 1e-8
PFAFFIAN_REL_TOL = 1e-8


@dataclass(frozen=True)
class SimpleSystemModel:
    """A simple system in coordinates (U, x1..xn), the energy first, with its
    quasistatic structure declared as callables.

    ``p_fns`` are the conjugate forces of the deformation coordinates, so the
    quasistatic work form is sum(p_i dx_i) and dU + dW is (1, p_1, ..., p_n).
    ``m_fn`` and ``x0_fn`` give the single-form collapse of dU + dW, and
    ``x0_grad_fn`` is the analytic gradient of ``x0_fn``; ``tau_fn``,
    ``f_fn``, ``alpha_fn``, ``c`` carry its factorization.  ``coord_box``
    bounds the coordinates, and ``inner_box`` is a box inside it that keeps
    sampled paths and states off its edges.
    """

    p_fns: tuple[Callable[[Point], float], ...]
    m_fn: Callable[[Point], float]
    x0_fn: Callable[[Point], float]
    tau_fn: Callable[[Point], float]
    f_fn: Callable[[float], float]
    alpha_fn: Callable[[float], float]
    c: float
    coord_box: tuple[tuple[float, float], ...]
    inner_box: tuple[tuple[float, float], ...]
    x0_grad_fn: Callable[[Point], Point]

    def __post_init__(self):
        if len(self.coord_box) < 2:
            raise DomainError("a simple system needs U plus deformation coordinates")
        if len(self.p_fns) != len(self.coord_box) - 1:
            raise DomainError("one conjugate force per deformation coordinate")
        if not self.c > 0:
            raise DomainError("temperature scale constant must be positive")

    def temperature(self, coords: Point) -> float:
        return self.c * self.f_fn(self.tau_fn(coords))

    def work_form(self, coords: Point) -> Point:
        return (0.0, *(p(coords) for p in self.p_fns))

    def heat_form(self, coords: Point) -> Point:
        """dU + dW: U is the first coordinate, so its component is 1."""
        return (1.0, *(p(coords) for p in self.p_fns))


class QuasistaticPath:
    """A piecewise path through way-points, cubic (Catmull-Rom) or linear.

    Cubic interpolation keeps the curve smooth between way-points; corners
    are honoured by the segment split at every way-point.
    """

    def __init__(
        self,
        waypoints: Sequence[Sequence[float]],
        closed: bool = False,
        interp: str = "cubic",
    ):
        pts = tuple(tuple(map(float, p)) for p in waypoints)
        if len(pts) < 2 or len(set(map(len, pts))) != 1:
            raise DomainError("a path needs at least two way-points of one dimension")
        # A closing way-point that repeats the first, within a relative 1e-5
        # and an absolute 1e-8, is dropped.
        if closed and all(abs(a - b) <= 1e-8 + 1e-5 * abs(b) for a, b in zip(pts[0], pts[-1])):
            pts = pts[:-1]
        if interp not in ("cubic", "linear"):
            raise DomainError(f"unknown interpolation {interp!r}")
        self.points = pts
        self.closed = closed
        self.interp = interp

    def _point(self, i: int) -> Point:
        n = len(self.points)
        if self.closed:
            return self.points[i % n]
        return self.points[min(max(i, 0), n - 1)]

    def segment_count(self) -> int:
        return len(self.points) if self.closed else len(self.points) - 1

    def segments(self) -> list[Callable[[float], tuple[Point, Point]]]:
        segs = []
        for i in range(self.segment_count()):
            segs.append(self._make_segment(i))
        return segs

    def _make_segment(self, i: int):
        p0 = self._point(i - 1)
        p1 = self._point(i)
        p2 = self._point(i + 1)
        p3 = self._point(i + 2)
        chord = tuple(b - a for a, b in zip(p1, p2))
        if self.interp == "linear":
            return lambda s: (tuple(a + s * d for a, d in zip(p1, chord)), chord)
        # Catmull-Rom with tangents from the neighbouring way-points.
        m1 = tuple(0.5 * (b - a) for a, b in zip(p0, p2))
        m2 = tuple(0.5 * (b - a) for a, b in zip(p1, p3))
        knots = tuple(zip(p1, m1, p2, m2))

        def seg(s: float) -> tuple[Point, Point]:
            s2, s3 = s * s, s * s * s
            h00 = 2 * s3 - 3 * s2 + 1
            h10 = s3 - 2 * s2 + s
            h01 = -2 * s3 + 3 * s2
            h11 = s3 - s2
            d00 = 6 * s2 - 6 * s
            d10 = 3 * s2 - 4 * s + 1
            d01 = -6 * s2 + 6 * s
            d11 = 3 * s2 - 2 * s
            point = tuple(h00 * a + h10 * b + h01 * c + h11 * d for a, b, c, d in knots)
            velocity = tuple(d00 * a + d10 * b + d01 * c + d11 * d for a, b, c, d in knots)
            return point, velocity

        return seg

    def start(self) -> Point:
        return self.points[0]

    def end(self) -> Point:
        return self.points[0] if self.closed else self.points[-1]

    def reversed(self) -> "QuasistaticPath":
        return QuasistaticPath(self.points[::-1], closed=self.closed, interp=self.interp)


def quasistatic_work(m: SimpleSystemModel, path: QuasistaticPath) -> float:
    """Work done by the system along the path: the integral of the
    quasistatic work form over the deformation coordinates."""
    return line_integral(m.work_form, path.segments()).value


def check_pfaffian_form(
    m: SimpleSystemModel,
    paths: Sequence[QuasistaticPath],
    *,
    rel_tol: float = PFAFFIAN_REL_TOL,
) -> CheckResult:
    """Along each path, dU + dW integrates to the same value as M dx0."""
    witnesses = []
    worst = 0.0
    for path in paths:
        du = path.end()[0] - path.start()[0]
        work = quasistatic_work(m, path)
        lhs = du + work

        def m_dx0(coords: Point) -> Point:
            factor = m.m_fn(coords)
            return tuple(factor * g for g in m.x0_grad_fn(coords))

        rhs = line_integral(m_dx0, path.segments()).value
        scale = max(abs(lhs), abs(rhs), 1e-12)
        diff = abs(lhs - rhs) / scale
        worst = max(worst, diff)
        if diff > rel_tol:
            witnesses.append((list(map(list, path.points)), lhs, rhs))
    return verdict(
        "pfaffian_form", not witnesses, witnesses,
        samples_used=len(paths), tolerance_used=rel_tol,
        message="" if witnesses else f"worst relative mismatch {worst:.3e}",
    )


def loop_integral(m: SimpleSystemModel, loop: QuasistaticPath, *, power: int = 1) -> float:
    """Closed-loop integral of (dU + dW) / T**power."""
    if not loop.closed:
        raise DomainError("loop integrals need a closed path")

    def integrand(coords: Point) -> Point:
        t = m.temperature(coords) ** power
        return tuple(h / t for h in m.heat_form(coords))

    return line_integral(integrand, loop.segments()).value


def check_integrating_factor(
    m: SimpleSystemModel,
    loops: Sequence[QuasistaticPath],
    *,
    abs_tol: float = LOOP_ABS_TOL,
) -> CheckResult:
    """1/T closes the form: every loop integral of (dU + dW)/T vanishes."""
    witnesses = []
    worst = 0.0
    for loop in loops:
        value = loop_integral(m, loop)
        worst = max(worst, abs(value))
        if abs(value) > abs_tol:
            witnesses.append((list(map(list, loop.points)), value))
    return verdict(
        "integrating_factor", not witnesses, witnesses,
        samples_used=len(loops), tolerance_used=abs_tol,
        message="" if witnesses else f"worst |loop| {worst:.3e}",
    )


@dataclass(frozen=True)
class EntropyFromFactorization:
    s_of_x0: Callable[[float], float]


def entropy_from_integrating_factor(
    m: SimpleSystemModel,
    x0_ref: float,
    s_ref: float,
) -> EntropyFromFactorization:
    """Entropy as the integral of alpha/c in the collapsed coordinate."""

    def s_of_x0(x0: float) -> float:
        if x0 == x0_ref:
            return s_ref
        r = integrate_scalar(lambda u: m.alpha_fn(u) / m.c, x0_ref, x0)
        return s_ref + r.value

    return EntropyFromFactorization(s_of_x0)


def factorization_residual(
    m: SimpleSystemModel, coords_samples: Sequence[Point]
) -> float:
    """Largest violation of M = f(tau) alpha(x0) over the sampled coords."""
    worst = 0.0
    for coords in coords_samples:
        lhs = m.m_fn(coords)
        rhs = m.f_fn(m.tau_fn(coords)) * m.alpha_fn(m.x0_fn(coords))
        scale = max(abs(lhs), abs(rhs), 1e-12)
        worst = max(worst, abs(lhs - rhs) / scale)
    return worst


def sample_box_coords(
    box: tuple[tuple[float, float], ...], n: int, rng: random.Random
) -> list[Point]:
    return [tuple(rng.uniform(lo, hi) for lo, hi in box) for _ in range(n)]


def random_closed_loop(
    box: tuple[tuple[float, float], ...], rng: random.Random
) -> QuasistaticPath:
    """A smooth random loop through five way-points kept inside the box by a
    margin of a quarter of each side, so the cubic interpolant's overshoot
    cannot leave the valid region."""
    pts = []
    for _ in range(5):
        pt = []
        for lo, hi in box:
            span = hi - lo
            pt.append(rng.uniform(lo + 0.25 * span, hi - 0.25 * span))
        pts.append(pt)
    return QuasistaticPath(pts, closed=True, interp="cubic")
