"""Source hygiene: every name a hardpair module imports is read in it, every
binding the benchmark's tracer wraps exists, every dataclass checks its
fields, every check of the verification suite is in CHECKS, without
parameters, geometry reads the contact kernel in one function, only
three functions branch on one pose of floats against N poses of arrays,
a certified step of the event search makes no array and no contact
record, and one function writes module-level state.

A record whose fields go unchecked is a NamedTuple, which is cheaper to
build and to define; a dataclass is kept only where __post_init__ checks.
Beta, a NamedTuple that checks its fields in __new__, is built only through
__new__: no source calls _make or _replace, which skip it.

A module may keep an import it never reads only where the benchmark's
tracer replaces that binding by name (hpbench/tracing.BINDINGS); names a
module lists in __all__ are its exports and count as read.
"""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

from hardpair import _checks

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


KERNEL_ENTRIES = ("ellipse_contact", "support_contact")


def kernel_readers(source: str) -> dict[str, set[str]]:
    """Per kernel entry, the top-level definitions of source that read _kernel.<entry>."""
    readers = {entry: set() for entry in KERNEL_ENTRIES}
    for top in ast.parse(source).body:
        for node in ast.walk(top):
            if (isinstance(node, ast.Attribute) and node.attr in readers
                    and isinstance(node.value, ast.Name) and node.value.id == "_kernel"):
                readers[node.attr].add(getattr(top, "name", "<module>"))
    return readers


def test_guard_sees_every_kernel_reader():
    src = ("from hardpair import _kernel\nsolve = _kernel.ellipse_contact\n"
           "def f():\n    return _kernel.ellipse_contact, _kernel.support_contact\n"
           "def g():\n    def inner():\n        return _kernel.support_contact\n")
    assert kernel_readers(src) == {
        "ellipse_contact": {"<module>", "f"}, "support_contact": {"f", "g"}}


def test_one_function_writes_the_contact_record():
    # geometry reads the kernel's entries in one function, the one contact
    # record writer; a second reader would be a second writer to keep in step
    readers = kernel_readers((ROOT / "src" / "hardpair" / "geometry.py").read_text())
    assert len(readers["ellipse_contact"]) == 1
    assert readers["support_contact"] == readers["ellipse_contact"]


def unchecked_dataclasses(source: str, module: str) -> list[str]:
    """Classes in source decorated with dataclass that define no __post_init__."""
    def is_dataclass(dec) -> bool:
        dec = dec.func if isinstance(dec, ast.Call) else dec
        return getattr(dec, "id", getattr(dec, "attr", None)) == "dataclass"

    return sorted(
        f"{module}.py:{node.lineno} {node.name}" for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ClassDef) and any(map(is_dataclass, node.decorator_list))
        and not any(isinstance(item, ast.FunctionDef) and item.name == "__post_init__"
                    for item in node.body)
    )


def test_guard_sees_an_unchecked_dataclass():
    src = ("import dataclasses\nfrom dataclasses import dataclass\n"
           "@dataclass\nclass A:\n    x: int\n"
           "@dataclasses.dataclass(frozen=True)\nclass B:\n    x: int\n"
           "@dataclass(frozen=True)\nclass C:\n    x: int\n"
           "    def __post_init__(self):\n        pass\n")
    assert unchecked_dataclasses(src, "m") == ["m.py:4 A", "m.py:7 B"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_every_dataclass_checks_its_fields(path):
    assert unchecked_dataclasses(path.read_text(), path.stem) == []


def test_no_source_builds_a_named_tuple_past_its_new():
    calls = sorted(f"{p.stem}.py:{node.lineno}" for p in MODULES
                   for node in ast.walk(ast.parse(p.read_text()))
                   if isinstance(node, ast.Attribute) and node.attr in ("_make", "_replace"))
    assert calls == []


def test_every_check_is_in_the_suite_and_takes_nothing():
    # a criterion defined outside CHECKS would run in neither verify nor the
    # acceptance tests, and a size knob on a check would be a second suite
    defined = [name for name, f in vars(_checks).items()
               if name.startswith("check_") and inspect.isfunction(f)]
    assert sorted(defined) == sorted(f.__name__ for f in _checks.CHECKS)
    assert [f for f in _checks.CHECKS if inspect.signature(f).parameters] == []


def _tests_float_against_array(node) -> bool:
    """node is isinstance(_, float), isinstance(_, np.ndarray) or np.ndim(_)."""
    if not isinstance(node, ast.Call):
        return False
    f = node.func
    if isinstance(f, ast.Attribute):
        return f.attr == "ndim" and getattr(f.value, "id", None) == "np"
    if getattr(f, "id", None) != "isinstance" or len(node.args) != 2:
        return False
    kind = node.args[1]
    return getattr(kind, "id", None) == "float" or getattr(kind, "attr", None) == "ndarray"


def functions_where(source: str, module: str, test) -> set[str]:
    """The qualified names of the functions of source that hold a node
    passing test."""
    found = set()

    def visit(node, name):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            name = f"{name}.{node.name}"
        elif test(node):
            found.add(name)
        for child in ast.iter_child_nodes(node):
            visit(child, name)

    visit(ast.parse(source), module)
    return found


def float_forks(source: str, module: str) -> set[str]:
    """The functions of source that test a value for float against array."""
    return functions_where(source, module, _tests_float_against_array)


def test_guard_sees_a_float_fork():
    src = ("import numpy as np\nclass A:\n    def f(self, x):\n"
           "        return 1.0 if isinstance(x, float) else x\n"
           "def g(x):\n    return np.ndim(x)\n"
           "def h(x):\n    def inner():\n        return isinstance(x, np.ndarray)\n"
           "def k(x):\n    return isinstance(x, int), np.shape(x)\n")
    assert float_forks(src, "m") == {"m.A.f", "m.g", "m.h.inner"}


def test_one_pose_forks_only_where_they_pay():
    # one array expression serves one pose and N; a float branch stays only
    # where the two forms are not twins (Beta, d_beta) or where the float path
    # is measured cheaper on the traffic it serves (complement_basis).  cli's
    # type tests read config values and encode JSON; they fork no arithmetic.
    found = set().union(*(float_forks(p.read_text(), p.stem)
                          for p in MODULES if p.stem != "cli"))
    assert found == {"geometry.Beta.__new__", "geometry.d_beta", "frames.complement_basis"}


# what a certified step must not call: the writers of a ContactData
RECORD_WRITERS = ("closest_approach", "contact_record", "ContactData", "d_beta")


def _makes_an_array_or_record(node) -> bool:
    """node reads an attribute of np, or calls a ContactData writer by name
    or through a module."""
    if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "np":
        return True
    if not isinstance(node, ast.Call):
        return False
    f = node.func
    return getattr(f, "id", getattr(f, "attr", None)) in RECORD_WRITERS


def array_or_record_makers(source: str, module: str) -> set[str]:
    """The functions of source that touch np or write a contact record."""
    return functions_where(source, module, _makes_an_array_or_record)


def test_guard_sees_an_array_or_a_record():
    src = ("import numpy as np\nfrom hardpair import geometry\n"
           "def f(x):\n    return np.array(x)\n"
           "def g(x):\n    dtype = np.float64\n"
           "def h(b):\n    return geometry.closest_approach(b, 0.0, 0.0)\n"
           "def k(r):\n    def inner():\n        return contact_record(r)\n"
           "def m(r):\n    return ContactData(*r), d_beta(r)\n"
           "def ok(x, nb):\n    return x.tolist(), nb.array, closest_approach\n")
    assert array_or_record_makers(src, "m") == {"m.f", "m.g", "m.h", "m.k.inner", "m.m"}


def test_a_certified_step_makes_no_array_and_no_record():
    # a flight steps on the pose's floats and the kernel's contact row; the
    # record is written at the contact pose, and by a flight's cold start in
    # _gap_row.  An array or a record per step changes no output, only the
    # time, so it is held out here; the warm solve in _gap_row is held by
    # the record count in test_dynamics
    step = {"dynamics._next_collision", "dynamics._slab", "dynamics._rate",
            "dynamics._certified_step", "geometry._contact_row"}
    found = set().union(*(array_or_record_makers(p.read_text(), p.stem) for p in MODULES))
    assert found & step == set()
    assert {"dynamics._contact_pose", "dynamics._gap_row", "geometry.closest_approach"} <= found


def global_writers(source: str, module: str) -> set[str]:
    """The functions of source with a global statement."""
    return functions_where(source, module, lambda node: isinstance(node, ast.Global))


def test_guard_sees_a_global_writer():
    src = ("cache = None\nclass A:\n    def f(self):\n        global cache\n"
           "def g():\n    def inner():\n        global cache, other\n"
           "def h():\n    return cache\n")
    assert global_writers(src, "m") == {"m.A.f", "m.g.inner"}


def test_one_module_level_cache():
    # the last datum's first flight is the one module-level entry a run
    # writes; branching at the first contact in one call would delete it,
    # so no second cache may appear beside it
    found = set().union(*(global_writers(p.read_text(), p.stem) for p in MODULES))
    assert found == {"dynamics._first_flight"}
