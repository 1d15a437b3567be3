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

import numpy as np

from .axioms import CheckResult, verdict
from .errors import DomainError
from .quadrature import integrate_scalar, line_integral

LOOP_ABS_TOL = 1e-8
PFAFFIAN_REL_TOL = 1e-8


@dataclass(frozen=True)
class SimpleSystemModel:
    """A simple system in coordinates (xi0, x1..xn) with its quasistatic
    structure declared as callables.

    ``p_fns`` are the conjugate forces of the deformation coordinates, so the
    quasistatic work form is sum(p_i dx_i).  ``m_fn`` and ``x0_fn`` give the
    single-form collapse of dU + dW; ``tau_fn``, ``f_fn``, ``alpha_fn``, ``c``
    carry its factorization; ``u_grad_fn`` and ``x0_grad_fn`` are the
    analytic gradients of ``u_fn`` and ``x0_fn``.
    """

    coord_names: tuple[str, ...]
    u_fn: Callable[[np.ndarray], float]
    p_fns: tuple[Callable[[np.ndarray], float], ...]
    m_fn: Callable[[np.ndarray], float]
    x0_fn: Callable[[np.ndarray], float]
    tau_fn: Callable[[np.ndarray], float]
    f_fn: Callable[[float], float]
    alpha_fn: Callable[[float], float]
    c: float
    coord_box: tuple[tuple[float, float], ...]
    u_grad_fn: Callable[[np.ndarray], np.ndarray]
    x0_grad_fn: Callable[[np.ndarray], np.ndarray]

    def __post_init__(self):
        if len(self.coord_names) < 2:
            raise DomainError("a simple system needs xi0 plus deformation coordinates")
        if len(self.p_fns) != len(self.coord_names) - 1:
            raise DomainError("one conjugate force per deformation coordinate")
        if not self.c > 0:
            raise DomainError("temperature scale constant must be positive")

    def temperature(self, coords: np.ndarray) -> float:
        return self.c * self.f_fn(self.tau_fn(coords))

    def u_grad(self, coords: np.ndarray) -> np.ndarray:
        return np.asarray(self.u_grad_fn(coords), dtype=float)

    def x0_grad(self, coords: np.ndarray) -> np.ndarray:
        return np.asarray(self.x0_grad_fn(coords), dtype=float)

    def work_form(self, coords: np.ndarray) -> np.ndarray:
        w = np.zeros(len(self.coord_names))
        for i, p in enumerate(self.p_fns):
            w[i + 1] = p(coords)
        return w


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
        pts = np.asarray(waypoints, dtype=float)
        if pts.ndim != 2 or pts.shape[0] < 2:
            raise DomainError("a path needs at least two way-points")
        if closed and np.allclose(pts[0], pts[-1]):
            pts = pts[:-1]
        if interp not in ("cubic", "linear"):
            raise DomainError(f"unknown interpolation {interp!r}")
        self.points = pts
        self.closed = closed
        self.interp = interp

    def _point(self, i: int) -> np.ndarray:
        n = len(self.points)
        if self.closed:
            return self.points[i % n]
        return self.points[min(max(i, 0), n - 1)]

    def segment_count(self) -> int:
        return len(self.points) if self.closed else len(self.points) - 1

    def segments(self) -> list[Callable[[float], tuple[np.ndarray, np.ndarray]]]:
        segs = []
        for i in range(self.segment_count()):
            segs.append(self._make_segment(i))
        return segs

    def _make_segment(self, i: int):
        p0 = self._point(i - 1)
        p1 = self._point(i)
        p2 = self._point(i + 1)
        p3 = self._point(i + 2)
        linear = self.interp == "linear"

        def seg(s: float) -> tuple[np.ndarray, np.ndarray]:
            if linear:
                return p1 + s * (p2 - p1), p2 - p1
            # Catmull-Rom with tangents from the neighbouring way-points.
            m1 = 0.5 * (p2 - p0)
            m2 = 0.5 * (p3 - p1)
            s2, s3 = s * s, s * s * s
            h00 = 2 * s3 - 3 * s2 + 1
            h10 = s3 - 2 * s2 + s
            h01 = -2 * s3 + 3 * s2
            h11 = s3 - s2
            point = h00 * p1 + h10 * m1 + h01 * p2 + h11 * m2
            d00 = 6 * s2 - 6 * s
            d10 = 3 * s2 - 4 * s + 1
            d01 = -6 * s2 + 6 * s
            d11 = 3 * s2 - 2 * s
            velocity = d00 * p1 + d10 * m1 + d01 * p2 + d11 * m2
            return point, velocity

        return seg

    def start(self) -> np.ndarray:
        return self.points[0]

    def end(self) -> np.ndarray:
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
        du = m.u_fn(path.end()) - m.u_fn(path.start())
        work = quasistatic_work(m, path)
        lhs = du + work

        def m_dx0(coords: np.ndarray) -> np.ndarray:
            return m.m_fn(coords) * m.x0_grad(coords)

        rhs = line_integral(m_dx0, path.segments()).value
        scale = max(abs(lhs), abs(rhs), 1e-12)
        diff = abs(lhs - rhs) / scale
        worst = max(worst, diff)
        if diff > rel_tol:
            witnesses.append((path.points.tolist(), lhs, rhs))
    return verdict(
        "pfaffian_form", not witnesses, witnesses,
        samples_used=len(paths), tolerance_used=rel_tol,
        message="" if witnesses else f"worst relative mismatch {worst:.3e}",
    )


def loop_integral(m: SimpleSystemModel, loop: QuasistaticPath, *, power: int = 1) -> float:
    """Closed-loop integral of (dU + dW) / T**power."""
    if not loop.closed:
        raise DomainError("loop integrals need a closed path")

    def integrand(coords: np.ndarray) -> np.ndarray:
        t = m.temperature(coords)
        return (m.u_grad(coords) + m.work_form(coords)) / t ** power

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
            witnesses.append((loop.points.tolist(), value))
    return verdict(
        "integrating_factor", not witnesses, witnesses,
        samples_used=len(loops), tolerance_used=abs_tol,
        message="" if witnesses else f"worst |loop| {worst:.3e}",
    )


@dataclass(frozen=True)
class EntropyFromFactorization:
    s_of_x0: Callable[[float], float]
    s_ref: float
    x0_ref: float


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

    return EntropyFromFactorization(s_of_x0, s_ref, x0_ref)


def factorization_residual(
    m: SimpleSystemModel, coords_samples: Sequence[np.ndarray]
) -> float:
    """Largest violation of M = f(tau) alpha(x0) over the sampled coords."""
    worst = 0.0
    for coords in coords_samples:
        coords = np.asarray(coords, dtype=float)
        lhs = m.m_fn(coords)
        rhs = m.f_fn(m.tau_fn(coords)) * m.alpha_fn(m.x0_fn(coords))
        scale = max(abs(lhs), abs(rhs), 1e-12)
        worst = max(worst, abs(lhs - rhs) / scale)
    return worst


def sample_box_coords(
    box: tuple[tuple[float, float], ...], n: int, rng: random.Random
) -> list[np.ndarray]:
    out = []
    for _ in range(n):
        out.append(np.array([rng.uniform(lo, hi) for lo, hi in box]))
    return out


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
