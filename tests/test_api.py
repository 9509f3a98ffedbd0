"""Public API guard: the package exports only what its programs reach.

The programs are the CLI (``cli.py``), the acceptance criteria
(``acceptance.py``) and the benchmark (``bench/*.py``).  A name is reached
when one of them uses it, or when the code of a reached definition does.
The check reads the source, so a name used only by the tests fails it.
"""

import ast
import importlib
import types
from pathlib import Path

import cir_particles

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "cir_particles"
PROGRAMS = [SRC / "cli.py", SRC / "acceptance.py", *sorted((ROOT / "bench").glob("*.py"))]
MODULES = [
    "cirprocess", "errors", "events", "integrators",
    "model", "randomness", "stationary", "stats",
]


def _assigned(node: ast.AST) -> list[str]:
    """Names a top-level assignment binds."""
    targets = node.targets if isinstance(node, ast.Assign) else [node.target]
    return [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]


def _public_names(module: str) -> set[str]:
    (names,) = [
        ast.literal_eval(node.value)
        for node in ast.parse((SRC / f"{module}.py").read_text()).body
        if isinstance(node, ast.Assign) and _assigned(node) == ["__all__"]
    ]
    return set(names)


def _used(node: ast.AST) -> set[str]:
    """Identifiers a piece of code uses: names, attributes, identifier strings.

    Import statements do not count, so an unused import reaches nothing;
    identifier strings cover lookups by name such as the benchmark's spans.
    """
    used = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            used.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            used.add(sub.attr)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            if sub.value.isidentifier():
                used.add(sub.value)
    return used


def _definitions() -> dict[str, set[str]]:
    """Top-level name of every module -> identifiers its definition uses."""
    uses: dict[str, set[str]] = {}
    for module in MODULES:
        for node in ast.parse((SRC / f"{module}.py").read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                names = _assigned(node)
            else:
                continue
            for name in names:
                if name != "__all__":
                    uses.setdefault(name, set()).update(_used(node))
    return uses


def _reached() -> set[str]:
    uses = _definitions()
    frontier = set().union(*(_used(ast.parse(p.read_text())) for p in PROGRAMS))
    reached: set[str] = set()
    while frontier:
        name = frontier.pop()
        if name in uses and name not in reached:
            reached.add(name)
            frontier |= uses[name]
    return reached


def test_package_reexports_exactly_the_module_exports():
    exported = {
        name
        for name, value in vars(cir_particles).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert exported == set().union(*map(_public_names, MODULES))


def test_every_export_is_reached_by_a_program():
    exports = set().union(*map(_public_names, MODULES))
    assert sorted(exports - _reached()) == []


def test_every_traced_benchmark_target_resolves():
    # bench/tracing.py wraps each (module, function) row of TARGETS by name,
    # so a renamed function would break every traced benchmark pass.
    tree = ast.parse((ROOT / "bench" / "tracing.py").read_text())
    (rows,) = [
        node.value.elts
        for node in tree.body
        if isinstance(node, ast.Assign) and _assigned(node) == ["TARGETS"]
    ]
    targets = [(row.elts[0].value, row.elts[1].value) for row in rows]
    assert targets
    missing = [
        f"{module}.{func}"
        for module, func in targets
        if not callable(getattr(importlib.import_module(f"cir_particles.{module}"), func, None))
    ]
    assert missing == []
