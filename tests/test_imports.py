"""Source hygiene: every name a hardpair module imports is read in it, and
every binding the benchmark's tracer wraps exists.

A module may keep an import it never reads only where the benchmark's
tracer replaces that binding by name (hpbench/tracing.BINDINGS); names a
module lists in __all__ are its exports and count as read.
"""

import ast
import importlib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted((ROOT / "src" / "hardpair").glob("*.py"))


def _traced_bindings() -> set[tuple[str, str]]:
    # read from the file, so the test neither imports hpbench nor a fresh hardpair
    tree = ast.parse((ROOT / "hpbench" / "tracing.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "BINDINGS" for t in node.targets):
            return {(mod, attr) for mod, attr, _ in ast.literal_eval(node.value)}
    raise AssertionError("hpbench/tracing.py defines no BINDINGS")


def unread_imports(source: str, module: str, exempt) -> list[str]:
    """Names bound by an import in source and never read there."""
    tree = ast.parse(source)
    imported = {}
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            read.update(ast.literal_eval(node.value))
    return sorted(
        f"{module}.py:{line} {name}" for name, line in imported.items()
        if name not in read and (module, name) not in exempt
    )


def test_guard_sees_an_unread_import():
    src = "from dataclasses import dataclass, field\nimport math\n@dataclass\nclass A:\n    x: int\n"
    assert unread_imports(src, "m", set()) == ["m.py:1 field", "m.py:2 math"]
    assert unread_imports(src, "m", {("m", "field"), ("m", "math")}) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_every_import_is_read(path):
    assert unread_imports(path.read_text(), path.stem, _traced_bindings()) == []


@pytest.mark.parametrize("module,attr", sorted(_traced_bindings()))
def test_every_traced_binding_resolves(module, attr):
    # the tracer replaces hardpair.<module>.<attr> by name when a run asks for
    # --trace 1; a name removed or renamed in src/ would fail only there
    assert callable(getattr(importlib.import_module(f"hardpair.{module}"), attr, None))
