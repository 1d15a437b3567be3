"""Every golden canonical report is reproduced byte for byte.

The runs and the files live in ``tests/golden``; ``regen.py`` there rewrites
the files after an intentional change.
"""

import difflib
import importlib.util
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "golden_regen", Path(__file__).resolve().parent / "golden" / "regen.py"
)
regen = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(regen)

SHOWN_DIFF_LINES = 40


@pytest.mark.parametrize("name", sorted(regen.RUNS))
def test_report_matches_golden(name):
    expected = regen.golden_path(name).read_text()
    actual = regen.render(name)
    if actual != expected:
        diff = difflib.unified_diff(
            expected.splitlines(), actual.splitlines(),
            f"golden/{regen.golden_path(name).name}", "this run", lineterm="",
        )
        shown = "\n".join(list(diff)[:SHOWN_DIFF_LINES])
        pytest.fail(f"{name} differs from its golden report:\n{shown}")
