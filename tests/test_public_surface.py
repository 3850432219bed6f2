"""Every name feqlab exports has a caller outside the tests.

A name counts as called when the code of src/feqlab/ refers to it outside
its own definition and __init__.py, or the code of perfbench/, or the
README's library example.  A name that only its own tests call belongs in
tests/scalar_reference.py or nowhere.
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
