"""The benchmark's workloads, their generated inputs, and what each must show.

Each workload is one ``entrokit`` command line.  The benchmark writes the
inputs it needs into a scratch directory from the workload seed; the program
sees only those files and ``--seed``.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass

from probes import METRICS, SUITES

# check_transitivity scans a finite relation exhaustively only up to
# entrokit.axioms.TRANSITIVITY_CAP = 200 states; above it the check becomes
# not_applicable and the workload's work collapses.
FIXTURE_STATES = 200


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    # The config's model; None runs the built-in default config.  A fixture
    # model's file is generated from the seed.
    model: dict | None
    # Checks that must pass (not merely avoid failing): if one became
    # not_applicable, the workload would stop doing the work it measures.
    must_pass: tuple[str, ...]
    # Per-layer metrics that must read zero; every other one must not.
    bypassed: tuple[str, ...]

    def write_inputs(self, workdir: str, seed: int) -> list[str]:
        """Write this workload's input files into ``workdir`` and return the
        ``entrokit`` arguments.  Paths are relative to ``workdir``, which is
        the program's working directory, so the canonical report (which
        records the config) does not depend on where the run happens."""
        args = [self.command, "--seed", str(seed)]
        if self.model is None:
            return args
        if self.model["kind"] == "fixture":
            _write_json(
                os.path.join(workdir, self.model["params"]["path"]),
                total_preorder(FIXTURE_STATES, seed),
            )
        _write_json(os.path.join(workdir, "config.json"), {"model": self.model})
        return args + ["--config", "config.json"]


def _write_json(path: str, obj) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh)


def _layers(*prefixes: str) -> tuple[str, ...]:
    return tuple(m for m in METRICS if m.startswith(prefixes))


def _suites_except(*kept: str) -> tuple[str, ...]:
    return tuple(f"report.suite_s.{s}" for s in SUITES if s not in kept)


WORKLOADS = {
    w.name: w
    for w in (
        # The headline user run.  Interpolation bisection and composite leq
        # queries dominate, the LY table is built twice (suites ly and zb) and
        # every bisection probe registers a scaled space.
        Workload(
            name="gas-all",
            command="all",
            model=None,
            must_pass=("ly_oracle_match", "zb_oracle_match", "cross_construction",
                       "integrating_factor", "matrix_baseline"),
            bypassed=(),
        ),
        # Interpolation and quadrature are not applicable, so the mutation
        # matrix is most of the run: the no-change control for LY and leq work.
        Workload(
            name="spin-all",
            command="all",
            model={"kind": "two_level_spin"},
            must_pass=("zb_oracle_match", "matrix_baseline"),
            bypassed=_layers("interpolation.", "quadrature."),
        ),
        # The same leq on the finite path: millions of pair-set lookups in the
        # exhaustive transitivity scan, and no oracle, engine, bisection or
        # matrix.  A change to induced-mode leq must not slow it.
        Workload(
            name="fixture-axioms",
            command="check-axioms",
            model={"kind": "fixture", "params": {"path": "fixture.json"}},
            must_pass=("reflexivity", "transitivity", "comparison"),
            bypassed=(
                ("core.spaces_registered",)
                + _layers("interpolation.", "mutants.", "quadrature.", "reservoir.")
                + _suites_except("axioms")
            ),
        ),
    )
}


def total_preorder(n: int, seed: int) -> dict:
    """A random total preorder on ``n`` states, as an entrokit fixture.

    Each state gets one of about n/3 levels at random, so equal levels give
    real equivalences; the states are listed in shuffled order.  State x
    precedes y exactly when level(x) <= level(y).
    """
    rng = random.Random(seed)
    states = list(range(n))
    rng.shuffle(states)
    level = {s: rng.randrange(max(1, n // 3)) for s in states}
    pairs = [[a, b] for a in states for b in states if level[a] <= level[b]]
    return {"states": states, "pairs": pairs}
