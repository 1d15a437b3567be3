"""Every module-level import and constant in the package is used.

A stdlib-only stand-in for a linter's unused-name rules, on modules parsed
with ``ast``:

- each ``src/entrokit/*.py`` except ``__init__.py`` (whose imports are the
  package's re-exports) must read every name a top-level ``import`` binds;
- every module-level UPPER_CASE name assigned in ``src/entrokit/*.py`` must
  be read by some module of the package, by name or as an attribute;
- ``report.py`` must read every key of its default tolerance and sample
  count tables through ``config.tol`` and ``config.count``.

It also keeps the runtime free of dependencies: importing the command line
loads no numpy, and ``pyproject.toml`` declares none.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path
from typing import Optional

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "entrokit"
ALL_MODULES = sorted(PACKAGE.glob("*.py"))
MODULES = [p for p in ALL_MODULES if p.name != "__init__.py"]


def unused_imports(source: str) -> list[str]:
    """Names bound by the module's top-level imports that it never reads."""
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [name for name in bound if name not in read]


def test_unused_imports_are_found():
    source = (
        "import os\nimport numpy as np\nfrom typing import Optional, Sequence\n"
        "np.zeros(Sequence)\n"
    )
    assert unused_imports(source) == ["os", "Optional"]


def test_future_imports_and_attribute_roots_count():
    source = "from __future__ import annotations\nimport os.path\nos.path.join('a')\n"
    assert unused_imports(source) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_has_no_unused_imports(path):
    unused = unused_imports(path.read_text())
    assert not unused, "\n".join(f"{path.stem}: {name}" for name in unused)


def constants(tree: ast.Module) -> list[str]:
    """UPPER_CASE names the module's top-level statements assign."""
    names = []
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign):
            targets = [node.target]
        else:
            continue
        names += [t.id for t in targets if isinstance(t, ast.Name) and t.id.isupper()]
    return names


def loaded_names(tree: ast.Module) -> set[str]:
    """Names the module reads, bare or as an attribute of something else."""
    return {
        n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
    } | {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}


def unused_constants(sources: dict[str, str]) -> list[str]:
    """``module: NAME`` for each module constant no module reads."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    read = set().union(*map(loaded_names, trees.values()))
    return [
        f"{module}: {name}"
        for module, tree in trees.items()
        for name in constants(tree)
        if name not in read
    ]


def test_unused_constants_are_found():
    sources = {
        "a": "LIMIT = 3\nSPARE: int = 4\nSHARED = 5\nlower = 6\nprint(LIMIT)\n",
        "b": "from . import a\nTOTAL = a.SHARED\nprint(TOTAL)\n",
    }
    assert unused_constants(sources) == ["a: SPARE"]


def test_package_has_no_unused_constants():
    unused = unused_constants({p.stem: p.read_text() for p in ALL_MODULES})
    assert not unused, "\n".join(unused)


def test_cli_imports_no_numpy():
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    loaded = subprocess.run(
        [sys.executable, "-c", "import sys, entrokit.cli; print('numpy' in sys.modules)"],
        env=env, capture_output=True, text=True, check=True,
    ).stdout
    assert loaded.strip() == "False"


def test_package_declares_no_runtime_dependencies():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    assert project["dependencies"] == []


# The construction fence: the interpolation route reads a model only through
# the relation's order queries, never through its entropies, and the order
# axioms read no entropy either.
RELATION_QUERIES = {"leq", "equivalent", "leq_mixtures", "leq_many"}
FENCED = {"oracle_entropy", "scaled_entropies", "process_engine", "_profile", "_combine"}


def fence_breaches(source: str, relation: Optional[str] = "rel") -> list[str]:
    """Fenced names the source mentions (bare, as an attribute or as a
    string), and calls on ``relation``, unless it is None, other than its
    order queries."""
    found = []
    for node in ast.walk(ast.parse(source)):
        name = (
            node.id if isinstance(node, ast.Name)
            else node.attr if isinstance(node, ast.Attribute)
            else node.value if isinstance(node, ast.Constant) and isinstance(node.value, str)
            else None
        )
        if name in FENCED:
            found.append(name)
        if (
            relation is not None
            and isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == relation
            and node.func.attr not in RELATION_QUERIES
        ):
            found.append(f"{relation}.{node.func.attr}()")
    return found


def test_fence_breaches_are_found():
    source = (
        "def f(rel, model, x):\n"
        "    rel.leq(x, x) and rel.leq_mixtures(x, x, [0.5], [x])\n"
        "    rel.sample(None, 3)\n"
        "    return model.oracle_entropy(x) + getattr(model, 'scaled_entropies')(x, [1])\n"
    )
    assert fence_breaches(source) == ["rel.sample()", "oracle_entropy", "scaled_entropies"]
    assert fence_breaches(source, relation=None) == ["oracle_entropy", "scaled_entropies"]


def test_interpolation_reads_models_only_through_relation_queries():
    breaches = fence_breaches((PACKAGE / "interpolation.py").read_text())
    assert not breaches, "\n".join(breaches)


def test_axioms_mention_no_fenced_name():
    # The axioms sample states and ask the relation for more than order
    # queries, but the batched entropy arithmetic stays in core.py.
    breaches = fence_breaches((PACKAGE / "axioms.py").read_text(), relation=None)
    assert not breaches, "\n".join(breaches)


# Every knob a user can set is read: each default tolerance through
# ``config.tol("<key>")`` and each default sample count through
# ``config.count("<key>")`` in the report's suites.
KNOBS = {"DEFAULT_TOLERANCES": "tol", "DEFAULT_SAMPLE_COUNTS": "count"}


def unread_knobs(source: str) -> list[str]:
    """``TABLE: key`` for each key of a ``KNOBS`` table that the source never
    reads through ``config.<reader>("<key>")``."""
    tree = ast.parse(source)
    read = {
        (node.func.attr, node.args[0].value)
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and isinstance(node.func.value, ast.Name)
        and node.func.value.id == "config"
        and node.args
        and isinstance(node.args[0], ast.Constant)
    }
    unread = []
    for node in tree.body:
        if (
            isinstance(node, ast.Assign)
            and isinstance(node.targets[0], ast.Name)
            and node.targets[0].id in KNOBS
        ):
            table = node.targets[0].id
            unread += [
                f"{table}: {key.value}" for key in node.value.keys
                if (KNOBS[table], key.value) not in read
            ]
    return unread


def test_unread_knobs_are_found():
    source = (
        'DEFAULT_TOLERANCES = {"a": 1.0, "b": 2.0}\n'
        'DEFAULT_SAMPLE_COUNTS = {"n": 3, "m": 4}\n'
        'def suite(config, other):\n'
        '    return config.tol("a"), config.count("b"), config.tol("n"), other.count("m")\n'
    )
    assert unread_knobs(source) == [
        "DEFAULT_TOLERANCES: b", "DEFAULT_SAMPLE_COUNTS: n", "DEFAULT_SAMPLE_COUNTS: m",
    ]


def test_report_reads_every_tolerance_and_sample_count():
    unread = unread_knobs((PACKAGE / "report.py").read_text())
    assert not unread, "\n".join(unread)
