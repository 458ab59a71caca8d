"""No ``leslie_sim`` module keeps a module-level cache or keys anything on
object identity.

A ``functools.lru_cache`` or ``cache`` holds its arguments and results for
the life of the process, and a value derived from ``id(obj)`` can outlive
the object and match a later one placed at the same address; either makes a
result depend on what ran before.  Standard library only (``ast``).
"""

import ast
import pathlib

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "leslie_sim"

CACHES = {"lru_cache", "cache"}


def violations(source: str) -> list:
    """(line, what) of each use of functools' caches and each call of the
    builtin ``id``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            found += [(node.lineno, f"functools.{a.name}") for a in node.names if a.name in CACHES]
        elif isinstance(node, ast.Attribute) and node.attr in CACHES:
            if isinstance(node.value, ast.Name) and node.value.id == "functools":
                found.append((node.lineno, f"functools.{node.attr}"))
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "id":
            found.append((node.lineno, "id()"))
    return sorted(found)


def test_checker_finds_caches_and_identity():
    source = (
        "import functools\n"
        "from functools import cache, partial\n"
        "@functools.lru_cache(maxsize=None)\n"
        "def f(x):\n"
        "    return {id(x): x}\n"
        "g = functools.cache(f)\n"
        "h = partial(f, 1)\n"
        "ident = obj.id(3)\n"
    )
    assert violations(source) == [
        (2, "functools.cache"), (3, "functools.lru_cache"), (5, "id()"), (6, "functools.cache"),
    ]


def test_no_module_caches_or_keys_on_identity():
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    found = [
        f"{path.name}:{line}: {what}"
        for path in modules
        for line, what in violations(path.read_text(encoding="utf-8"))
    ]
    assert found == []
