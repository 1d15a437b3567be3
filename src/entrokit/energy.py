"""Energy from weight polygonals: signed work sums, and the verification
that they are path independent."""

from __future__ import annotations

import random
from typing import Sequence

from .axioms import CheckResult, not_applicable, verdict
from .core import (
    FrozenRecord,
    ModelSystem,
    ProcessRecord,
    StateLike,
    parts_of,
    states_equal,
)
from .errors import DomainError, EngineError, StructuralError

ALONG = "along"
AGAINST = "against"

PATH_INDEP_REL_TOL = 1e-10
PATH_INDEP_ABS_FLOOR = 1e-12


class WeightPolygonal(FrozenRecord):
    """A chain of weight processes, each traversed along or against its own
    direction, connecting two end states through shared intermediates."""

    def __init__(self, legs: tuple[tuple[ProcessRecord, str], ...],
                 endpoints: tuple[StateLike, StateLike]):
        self.__dict__.update(legs=legs, endpoints=endpoints)
        if not self.legs:
            raise StructuralError("a weight polygonal needs at least one leg")
        for rec, direction in self.legs:
            if direction not in (ALONG, AGAINST):
                raise StructuralError(f"unknown leg direction {direction!r}")
            for s in (rec.initial, rec.final):
                if not all(p.separable for p in parts_of(s)):
                    raise StructuralError("polygonal end states must be separable")
        chain = self.chain_points()
        if not states_equal(chain[0], self.endpoints[0]) or not states_equal(
            chain[-1], self.endpoints[1]
        ):
            raise StructuralError("polygonal endpoints do not match its chain")

    def chain_points(self) -> list[StateLike]:
        """The traversed state sequence; raises if consecutive legs disagree."""
        points = []
        for rec, direction in self.legs:
            start, end = (
                (rec.initial, rec.final) if direction == ALONG else (rec.final, rec.initial)
            )
            if not points:
                points.append(start)
            elif not states_equal(points[-1], start):
                raise StructuralError("broken chain: consecutive legs do not share a state")
            points.append(end)
        return points


def polygonal_work(p: WeightPolygonal) -> float:
    """Signed work done by the system in traversing the polygonal: along-leg
    works count positive, against-leg works negative."""
    total = 0.0
    for rec, direction in p.legs:
        total += rec.work_done if direction == ALONG else -rec.work_done
    return total


def check_path_independence(
    model: ModelSystem,
    pairs: Sequence[tuple[StateLike, StateLike]],
    k: int,
    *,
    seed=0,
    rel_tol: float = PATH_INDEP_REL_TOL,
) -> CheckResult:
    """Works of k engine-generated polygonals per pair agree within tolerance.

    Pairs the engine cannot connect are reported, not raised: they witness
    the limits of the engine's reach rather than a defect.
    """
    if k < 2:
        raise DomainError(f"need at least two polygonals per pair, got k={k}")
    rng = random.Random(seed)
    witnesses = []
    skipped = []
    worst = 0.0
    for a, b in pairs:
        works = []
        try:
            for i in range(k):
                poly = model.process_engine.connect_polygonal(
                    a, b, rng, legs=1 + i % 4
                )
                works.append(polygonal_work(poly))
        except EngineError as exc:
            skipped.append((a, b, str(exc)))
            continue
        spread = max(works) - min(works)
        tol = max(rel_tol * max(abs(w) for w in works), PATH_INDEP_ABS_FLOOR)
        worst = max(worst, spread)
        if spread > tol:
            witnesses.append((a, b, works))
    message = f"{len(skipped)} pair(s) not connectable by the engine" if skipped else ""
    if skipped and len(skipped) == len(pairs):
        return not_applicable("path_independence", message)
    if not (witnesses or message):
        message = f"max spread {worst:.3e} J"
    return verdict(
        "path_independence", not witnesses, witnesses,
        samples_used=len(pairs) * k, tolerance_used=rel_tol, message=message,
    )

