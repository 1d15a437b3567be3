"""Every module-level import and constant in the package is used.

A stdlib-only stand-in for a linter's unused-name rules, on modules parsed
with ``ast``:

- each ``src/entrokit/*.py`` except ``__init__.py`` (whose imports are the
  package's re-exports) must read every name a top-level ``import`` binds;
- every module-level UPPER_CASE name assigned in ``src/entrokit/*.py`` must
  be read by some module of the package, by name or as an attribute;
- ``report.py`` must read every key of its default tolerance and sample
  count tables through ``config.tol`` and ``config.count``, and read no
  other key through them;
- no ``verdict`` call in ``report.py`` or ``mutants.py`` builds a residual or
  fit witness by hand: ``residual_verdict`` and ``fit_verdict`` do.

It also keeps the runtime free of dependencies: importing the command line
loads no numpy, and ``pyproject.toml`` declares none.  And it keeps start-up
free of generated code: no module imports ``dataclasses`` or ``inspect``, and
importing the command line loads neither.  And it keeps the induced order on
one path: ``leq_many`` and its batch ask no ``leq``, and ``_part_columns``
hands no part back as None.  And it keeps one model battery: the checks that
only a model battery runs are named nowhere in the package but in
``report.axiom_checks`` and ``report.theorem_checks``.
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


def loaded_by_cli(names: list[str]) -> list[str]:
    """Those of ``names`` that a fresh interpreter has loaded once it has
    imported ``entrokit.cli``."""
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    loaded = subprocess.run(
        [sys.executable, "-c",
         f"import sys, entrokit.cli; print(*(m for m in {names!r} if m in sys.modules))"],
        env=env, capture_output=True, text=True, check=True,
    ).stdout
    return loaded.split()


def test_cli_imports_no_numpy():
    assert loaded_by_cli(["numpy"]) == []


# Records are plain classes (core.Record): dataclasses would compile each
# one's methods with exec on every start, and it and inspect load ast, dis
# and tokenize besides.
NO_IMPORT = {"dataclasses", "inspect"}


def test_cli_loads_no_code_generation():
    assert loaded_by_cli(sorted(NO_IMPORT)) == []


def forbidden_imports(source: str) -> list[str]:
    """``NO_IMPORT`` modules the source imports, at any level."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [a.name for a in node.names if a.name in NO_IMPORT]
        elif isinstance(node, ast.ImportFrom) and node.module in NO_IMPORT:
            found.append(node.module)
    return found


def test_forbidden_imports_are_found():
    source = (
        "import os, inspect\nfrom dataclasses import dataclass\n"
        "def f():\n    import dataclasses\n    from .core import inspect\n"
    )
    assert forbidden_imports(source) == ["inspect", "dataclasses", "dataclasses"]


@pytest.mark.parametrize("path", ALL_MODULES, ids=lambda p: p.name)
def test_module_imports_neither_dataclasses_nor_inspect(path):
    assert forbidden_imports(path.read_text()) == []


def test_package_declares_no_runtime_dependencies():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    assert project["dependencies"] == []


# The construction fence: the interpolation route reads a model only through
# the relation's order queries, never through its entropies, and the order
# axioms read no entropy either.
RELATION_QUERIES = {"leq", "equivalent", "leq_many"}
FENCED = {
    "oracle_entropy", "scaled_entropies", "process_engine", "_combine_columns", "_compare_rows",
}


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
        "    rel.leq(x, x) and rel.leq_many([(x, 0.5), (x, 0.5)], [(x, 1.0)])\n"
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


# One path for induced order queries: the batch answers every row of
# ``leq_many``, and no part is handed back to be asked row by row.
BATCH_PATH = ("leq_many", "_leq_many_batched", "_part_columns")


def scalar_fallbacks(source: str) -> list[str]:
    """``function: leq()`` for each call of ``leq`` in a ``BATCH_PATH``
    function, and ``_part_columns: return None`` for each of its returns
    of None."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not (isinstance(node, ast.FunctionDef) and node.name in BATCH_PATH):
            continue
        for item in ast.walk(node):
            func = item.func if isinstance(item, ast.Call) else None
            if getattr(func, "attr", getattr(func, "id", None)) == "leq":
                found.append(f"{node.name}: leq()")
            if (
                node.name == "_part_columns"
                and isinstance(item, ast.Return)
                and (item.value is None
                     or isinstance(item.value, ast.Constant) and item.value.value is None)
            ):
                found.append(f"{node.name}: return None")
    return found


def test_scalar_fallbacks_are_found():
    source = (
        "class R:\n"
        "    def leq_many(self, xs, ys):\n"
        "        return self._leq_many_batched(xs, ys) or [self.leq(x, y) for x, y in xs]\n"
        "    def _part_columns(self, states):\n"
        "        if not states:\n"
        "            return None\n"
        "        if len(states) > 1:\n"
        "            return\n"
        "        return leq(states, states)\n"
        "    def other(self, x):\n"
        "        return self.leq(x, x) or None\n"
    )
    assert scalar_fallbacks(source) == [
        "leq_many: leq()", "_part_columns: return None", "_part_columns: return None",
        "_part_columns: leq()",
    ]


def test_leq_many_has_one_path():
    found = scalar_fallbacks((PACKAGE / "core.py").read_text())
    assert not found, "\n".join(found)


# One model battery: the report's suites, the mutation matrix and the
# acceptance test all run the checks assembled in ``ASSEMBLY``, so the checks
# that no fixture branch runs are named nowhere else.
ASSEMBLY = ("axiom_checks", "theorem_checks")
MODEL_BATTERY_CHECKS = {
    "check_consistency", "check_n1_n2", "check_lower_bound", "check_entropy_nondecrease",
    "check_pmm2",
}


def stray_battery_checks(source: str) -> list[str]:
    """``function: check`` for each ``MODEL_BATTERY_CHECKS`` name the source
    reads (bare or as an attribute) outside every ``ASSEMBLY`` function,
    with ``<module>`` for a read at top level."""
    found = []

    def visit(node, scopes):
        for child in ast.iter_child_nodes(node):
            name = getattr(child, "id", None) or getattr(child, "attr", None)
            if isinstance(child, ast.FunctionDef):
                visit(child, scopes + (child.name,))
                continue
            if name in MODEL_BATTERY_CHECKS and not set(scopes) & set(ASSEMBLY):
                found.append(f"{scopes[-1] if scopes else '<module>'}: {name}")
            visit(child, scopes)

    visit(ast.parse(source), ())
    return found


def test_stray_battery_checks_are_found():
    source = (
        "from .axioms import check_consistency\n"
        "def axiom_checks(rel):\n"
        "    def draw():\n"
        "        return check_n1_n2(rel)\n"
        "    return [check_consistency(rel, rel), draw()]\n"
        "def run_model_checks(model, rel):\n"
        "    results = axiom_checks(rel) + [reservoir.check_pmm2(model)]\n"
        "    checks = [check_lower_bound]\n"
        "    return results + [check(model) for check in checks]\n"
        "check_entropy_nondecrease(None)\n"
    )
    assert stray_battery_checks(source) == [
        "run_model_checks: check_pmm2", "run_model_checks: check_lower_bound",
        "<module>: check_entropy_nondecrease",
    ]


def test_model_battery_checks_are_named_only_in_the_assembly():
    found = [
        f"{path.stem}.{entry}"
        for path in ALL_MODULES
        for entry in stray_battery_checks(path.read_text())
    ]
    assert not found, "\n".join(found)


# Every knob a user can set is read, and every knob read is one a user can
# set: each default tolerance through ``config.tol("<key>")`` and each
# default sample count through ``config.count("<key>")`` in the report's
# suites, so deleting a check cannot leave an orphan knob behind.
KNOBS = {"DEFAULT_TOLERANCES": "tol", "DEFAULT_SAMPLE_COUNTS": "count"}


def knob_tables(source: str) -> tuple[set[tuple[str, str]], dict[str, list[str]]]:
    """The ``(reader, key)`` literals the source reads through
    ``config.<reader>("<key>")`` for a ``KNOBS`` reader, and the keys of
    each ``KNOBS`` table it assigns."""
    tree = ast.parse(source)
    read = {
        (node.func.attr, node.args[0].value)
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and isinstance(node.func.value, ast.Name)
        and node.func.value.id == "config"
        and node.func.attr in KNOBS.values()
        and node.args
        and isinstance(node.args[0], ast.Constant)
    }
    tables = {
        node.targets[0].id: [key.value for key in node.value.keys]
        for node in tree.body
        if isinstance(node, ast.Assign)
        and isinstance(node.targets[0], ast.Name)
        and node.targets[0].id in KNOBS
    }
    return read, tables


def unread_knobs(source: str) -> list[str]:
    """``TABLE: key`` for each key of a ``KNOBS`` table that the source never
    reads through ``config.<reader>("<key>")``."""
    read, tables = knob_tables(source)
    return [
        f"{table}: {key}"
        for table, keys in tables.items()
        for key in keys
        if (KNOBS[table], key) not in read
    ]


def unknown_knobs(source: str) -> list[str]:
    """``config.<reader>("<key>")`` for each knob literal the source reads
    that is not a key of the ``KNOBS`` table of its reader."""
    read, tables = knob_tables(source)
    known = {(KNOBS[table], key) for table, keys in tables.items() for key in keys}
    return [f'config.{reader}("{key}")' for reader, key in sorted(read - known)]


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


def test_unknown_knobs_are_found():
    source = (
        'DEFAULT_TOLERANCES = {"a": 1.0}\n'
        'DEFAULT_SAMPLE_COUNTS = {"n": 3}\n'
        'def suite(config, other):\n'
        '    config.tol("a"), config.count("n"), other.tol("gone"), config.get("x")\n'
        '    return config.tol("n"), config.count("a"), config.tol("gone")\n'
    )
    assert unknown_knobs(source) == [
        'config.count("a")', 'config.tol("gone")', 'config.tol("n")',
    ]


def test_report_reads_every_tolerance_and_sample_count():
    unread = unread_knobs((PACKAGE / "report.py").read_text())
    assert not unread, "\n".join(unread)


def test_report_reads_only_tolerances_and_sample_counts_it_declares():
    unknown = unknown_knobs((PACKAGE / "report.py").read_text())
    assert not unknown, "\n".join(unknown)


# One way to turn a residual or an affine fit into a verdict: the checks
# that emit them call ``axioms.residual_verdict`` or ``axioms.fit_verdict``.
HELPER_WITNESSES = {"residual", "fit"}


def hand_built_witnesses(source: str) -> list[str]:
    """``check: kind`` for each ``verdict`` call whose witnesses hold a
    literal tuple tagged with a ``HELPER_WITNESSES`` kind."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "verdict"
        ):
            continue
        witnesses = node.args[2:3] + [k.value for k in node.keywords if k.arg == "witnesses"]
        name = node.args[0].value if node.args and isinstance(node.args[0], ast.Constant) else "?"
        found += [
            (node.lineno, f"{name}: {item.elts[0].value}")
            for arg in witnesses
            for item in ast.walk(arg)
            if isinstance(item, ast.Tuple)
            and item.elts
            and isinstance(item.elts[0], ast.Constant)
            and item.elts[0].value in HELPER_WITNESSES
        ]
    return [entry for _, entry in sorted(found)]


def test_hand_built_witnesses_are_found():
    source = (
        'verdict("a", r < tol, [("residual", r)], samples_used=1)\n'
        'verdict("b", ok, witnesses=[("fit", f.a, f.b, f.max_residual)])\n'
        'verdict("c", ok, [("work", w, expected)], message="residual")\n'
        'residual_verdict("d", r, tol, samples_used=1)\n'
        'other("e", ok, [("residual", r)])\n'
        'def g(name, r):\n'
        '    return verdict(name, r < 1, [("fit", 1.0, 0.0, r)])\n'
    )
    assert hand_built_witnesses(source) == ["a: residual", "b: fit", "?: fit"]


@pytest.mark.parametrize("module", ["report.py", "mutants.py"])
def test_residuals_and_fits_become_verdicts_through_their_helpers(module):
    found = hand_built_witnesses((PACKAGE / module).read_text())
    assert not found, "\n".join(found)
