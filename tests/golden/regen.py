"""Golden canonical reports: the runs, how to render them, and how to
rewrite the committed files.

Each ``<name>.json`` in this directory is the canonical JSON report that
``entrokit`` prints for one run in ``RUNS`` (``<name>.csv`` for a run with
``--format csv``); ``tests/test_golden.py``
renders every run again and compares the bytes.  After a change that moves
a report on purpose, rewrite the files from the repository root with

    PYTHONPATH=src python tests/golden/regen.py

and name the files and the reason in CHANGES.md.

The gas ``all``, ``construct-ly`` and ``caratheodory`` runs reach the
closed-form affine fit (``ly_oracle_match``, ``cross_construction`` and
``caratheodory_entropy_match``), and the gas ``all`` and ``caratheodory``
runs reach the in-repo quadrature rule, so these files gate the bytes of
both.  Every digit comes from Python floats and ``math``, so the files do not
depend on a numpy or BLAS build.  Fixture paths are relative to this
directory, which is the working directory of every run.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

from entrokit.cli import main

GOLDEN_DIR = Path(__file__).resolve().parent


def _spin(params=None, **tolerances) -> dict:
    config = {"model": {"kind": "two_level_spin"}}
    if params:
        config["model"]["params"] = params
    if tolerances:
        config["tolerances"] = tolerances
    return config


def _gas(mutation=None, **params) -> dict:
    model = {"kind": "ideal_gas"}
    if params:
        model["params"] = params
    if mutation:
        model["mutation"] = mutation
    return {"model": model}


# name -> (command line, config file contents)
RUNS = {
    "all-spin-seed3": (["all", "--seed", "3"], _spin()),
    "all-spin-seed3-csv": (["all", "--seed", "3", "--format", "csv"], _spin()),
    # A tolerance far below rounding noise: zb_oracle_match fails with a
    # residual witness.
    "all-spin-tight-seed4": (
        ["all", "--seed", "4"], _spin(zb_residual=1e-40),
    ),
    # A spin other than the default: its composition tag and entropy
    # tolerance come from its own N and eps.
    "all-spin-n50-eps2e-21-seed5": (
        ["all", "--seed", "5"], _spin({"n_particles": 50, "eps": 2e-21}),
    ),
    "check-axioms-gas-seed2": (["check-axioms", "--seed", "2"], _gas()),
    **{
        f"check-axioms-{m}-seed2": (["check-axioms", "--seed", "2"], _gas(m))
        for m in ("composite_max", "strict_only_comparison", "break_scaling", "break_splitting")
    },
    "verify-theorems-gas-seed2": (["verify-theorems", "--seed", "2"], _gas()),
    "verify-theorems-noisy_work-seed2": (["verify-theorems", "--seed", "2"], _gas("noisy_work")),
    "caratheodory-gas-seed3": (["caratheodory", "--seed", "3"], _gas()),
    "caratheodory-gas-n2-cv2.5-seed3": (
        ["caratheodory", "--seed", "3"], _gas(n=2, c_v_hat=2.5),
    ),
    "all-gas-seed1": (["all", "--seed", "1"], _gas()),
    "all-gas-n2-cv2.5-seed7": (["all", "--seed", "7"], _gas(n=2, c_v_hat=2.5)),
    # The mutated oracle's entropies no longer match the intact oracle's:
    # ly_oracle_match fails, so this file breaks if the table skips the mutant.
    "construct-ly-break_splitting-seed2": (
        ["construct-ly", "--seed", "2"], _gas("break_splitting"),
    ),
    # Only enlarged copies reverse their order, and every mixture the table
    # bisects with is made of shrunk copies: ly passes on the mutated oracle.
    "construct-ly-break_scaling-seed2": (
        ["construct-ly", "--seed", "2"], _gas("break_scaling"),
    ),
    "all-gas-seed1-csv": (["all", "--seed", "1", "--format", "csv"], _gas()),
    # Tolerances far below rounding noise: ly_oracle_match and
    # cross_construction fail with fit witnesses, zb_oracle_match with a
    # residual witness.
    "all-gas-tight-seed4": (
        ["all", "--seed", "4"],
        {**_gas(), "tolerances": {"ly_residual": 1e-40, "zb_residual": 1e-40}},
    ),
    # A stability-heavy run on a gauged gas: 200 stability tuples of 20
    # epsilons each, and 100 N1 stability tuples.
    "check-axioms-gas-n3-cv2.5-gauge-seed5": (
        ["check-axioms", "--seed", "5"],
        {**_gas(n=3, c_v_hat=2.5, gauge=[1.5, 0.5, 3.0]),
         "sample_counts": {"axiom_samples": 400}},
    ),
    "all-fixture-seed1": (
        ["all", "--seed", "1"],
        {"model": {"kind": "fixture", "params": {"path": "fixture.json"}}},
    ),
    # One closure pair reversed: the exhaustive transitivity scan fails with
    # the lexicographically first witness.
    "check-axioms-fixture-break_transitivity-seed1": (
        ["check-axioms", "--seed", "1"],
        {"model": {"kind": "fixture", "params": {"path": "fixture.json"},
                   "mutation": "break_transitivity"}},
    ),
    # A 40-state total preorder with 13 levels, string ids s0..s39 listed
    # in shuffled order: file order differs from sorted order, so these
    # pin the planted pair (chosen in sorted id order), the transitivity
    # witness (first in file order) and the comparison scan's count.
    **{
        f"check-axioms-fixture-strings{'-' + m if m else ''}-seed1": (
            ["check-axioms", "--seed", "1"],
            {"model": {"kind": "fixture", "params": {"path": "fixture-strings.json"},
                       **({"mutation": m} if m else {})}},
        )
        for m in (None, "break_transitivity")
    },
}


def render(name: str) -> str:
    """The canonical JSON report of one run, as the CLI prints it."""
    argv, config = RUNS[name]
    out = io.StringIO()
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        config_path = os.path.join(tmp, "config.json")
        with open(config_path, "w") as fh:
            json.dump(config, fh)
        os.chdir(GOLDEN_DIR)
        try:
            with contextlib.redirect_stdout(out):
                main([*argv, "--config", config_path])
        finally:
            os.chdir(cwd)
    return out.getvalue()


def golden_path(name: str) -> Path:
    argv = RUNS[name][0]
    fmt = argv[argv.index("--format") + 1] if "--format" in argv else "json"
    return GOLDEN_DIR / f"{name}.{fmt}"


if __name__ == "__main__":
    for name in RUNS:
        golden_path(name).write_text(render(name))
        print(f"wrote {golden_path(name).name}", file=sys.stderr)
