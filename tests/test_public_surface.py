"""Every name feqlab exports has a caller outside the tests.

A name counts as called when the code of src/feqlab/ refers to it outside
its own definition and __init__.py, or the code of perfbench/, or the
README's library example.  A name that only its own tests call belongs in
tests/scalar_reference.py or nowhere.  The same rule holds for every name a
module of src/feqlab/ defines at its top level, private names included, so
that deleting a caller cannot leave a dead helper behind, and for every
method, property and dataclass field of a class defined there.
"""
from __future__ import annotations

import ast
import inspect
import re
from pathlib import Path

import feqlab as fl

ROOT = Path(__file__).resolve().parents[1]


def library_example() -> str:
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    return re.search(r"^## Library\n+```python\n(.*?)^```", readme, re.M | re.S)[1]


def references(source: str) -> set[str]:
    """Names and attributes the code reads, except the references of a
    top-level definition to itself."""
    found = set()
    for top in ast.parse(source).body:
        names = {node.id for node in ast.walk(top)
                 if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        names |= {node.attr for node in ast.walk(top) if isinstance(node, ast.Attribute)}
        names.discard(getattr(top, "name", None))
        found |= names
    return found


def defined(source: str) -> set[str]:
    """Functions, classes and assigned names the code defines at its top
    level, dunder names (read by Python itself) aside."""
    found = set()
    for top in ast.parse(source).body:
        if isinstance(top, (ast.FunctionDef, ast.ClassDef)):
            found.add(top.name)
        elif isinstance(top, (ast.Assign, ast.AnnAssign)):
            targets = top.targets if isinstance(top, ast.Assign) else [top.target]
            found |= {node.id for t in targets for node in ast.walk(t) if isinstance(node, ast.Name)}
    return {name for name in found if not name.startswith("__")}


def members(source: str) -> set[str]:
    """Class.name of every method, property and annotated (dataclass) field
    of the classes the code defines at its top level, dunder names aside."""
    found = set()
    for top in ast.parse(source).body:
        if isinstance(top, ast.ClassDef):
            for node in top.body:
                if isinstance(node, ast.FunctionDef):
                    found.add((top.name, node.name))
                elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                    found.add((top.name, node.target.id))
    return {f"{cls}.{name}" for cls, name in found if not name.startswith("__")}


def exported() -> list[str]:
    return [name for name, obj in vars(fl).items()
            if not name.startswith("_") and not inspect.ismodule(obj)]


def test_every_exported_name_has_a_caller():
    files = [p for p in (ROOT / "src" / "feqlab").glob("*.py") if p.name != "__init__.py"]
    files += (ROOT / "perfbench").glob("*.py")
    called = set().union(references(library_example()),
                         *(references(p.read_text(encoding="utf-8")) for p in files))
    assert "family" in exported() and "family" in called
    assert sorted(set(exported()) - called) == []


def test_library_example_runs():
    exec(compile(library_example(), "README.md", "exec"), {})


def test_every_module_level_name_has_a_reader():
    modules = sorted((ROOT / "src" / "feqlab").glob("*.py"))
    files = modules + sorted((ROOT / "perfbench").glob("*.py"))
    read = set().union(references(library_example()),
                       *(references(p.read_text(encoding="utf-8")) for p in files))
    unread = {p.name: sorted(defined(p.read_text(encoding="utf-8")) - read) for p in modules}
    assert "_worst_rows" in defined((ROOT / "src" / "feqlab" / "equations.py").read_text(encoding="utf-8"))
    assert {name: names for name, names in unread.items() if names} == {}


def test_every_class_member_has_a_reader():
    modules = sorted((ROOT / "src" / "feqlab").glob("*.py"))
    files = modules + sorted((ROOT / "perfbench").glob("*.py"))
    read = set().union(references(library_example()),
                       *(references(p.read_text(encoding="utf-8")) for p in files))
    unread = {p.name: sorted(name for name in members(p.read_text(encoding="utf-8"))
                             if name.split(".")[1] not in read)
              for p in modules}
    families = (ROOT / "src" / "feqlab" / "families.py").read_text(encoding="utf-8")
    assert {"SolutionReport.values", "SuiteReport.failures"} <= members(families)
    assert {name: names for name, names in unread.items() if names} == {}
