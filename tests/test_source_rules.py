"""No ``leslie_sim`` module keeps a module-level cache or keys anything on
object identity, and every public function has a use.

A ``functools.lru_cache`` or ``cache`` holds its arguments and results for
the life of the process, and a value derived from ``id(obj)`` can outlive
the object and match a later one placed at the same address; either makes a
result depend on what ran before.  A module-level function, public or
private, that nothing in ``src/`` refers to, that the package does not
export in ``__all__`` and that the benchmark's tracer does not wrap (its
``SPANNED`` table, read from ``perfbench/tracing.py`` as source, without
importing it) is code that nothing runs; a formula the tests need as a reference belongs
in ``tests/oracles.py``.  Standard library only (``ast``).
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "leslie_sim"
TRACING = ROOT / "perfbench" / "tracing.py"

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


def _assigned_literal(source: str, name: str):
    """The literal value assigned to the module-level ``name`` of ``source``."""
    for node in ast.parse(source).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == name for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise LookupError(f"no module-level {name} assignment")


def unused_functions(sources: dict, exported, spanned) -> list:
    """(module, name) of each module-level function, public or private, of
    the modules ``sources`` (module name -> source) that no code outside its
    own definition refers to, as a name or an attribute, and that is neither
    in ``exported`` nor a (module, name) pair of ``spanned``."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    references = []  # (module, line, referenced name)
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                references.append((module, node.lineno, node.id))
            elif isinstance(node, ast.Attribute):
                references.append((module, node.lineno, node.attr))
    found = []
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, ast.FunctionDef):
                continue
            if node.name in exported or (module, node.name) in spanned:
                continue
            if not any(name == node.name and not (where == module and node.lineno <= line <= node.end_lineno)
                       for where, line, name in references):
                found.append((module, node.name))
    return sorted(found)


def test_checker_finds_unused_functions():
    sources = {
        "a": (
            "def used():\n"
            "    return 1\n"
            "def exported():\n"
            "    return 2\n"
            "def traced():\n"
            "    return 3\n"
            "def recursive(n):\n"
            "    return recursive(n - 1)\n"
            "def dead():\n"
            "    return 4\n"
            "def _private():\n"
            "    return 5\n"
            "class C:\n"
            "    def method(self):\n"
            "        return 6\n"
        ),
        "b": "from . import a\nx = a.used()\ndef traced():\n    return 7\n",
    }
    found = unused_functions(sources, exported={"exported"}, spanned={("a", "traced")})
    assert found == [("a", "_private"), ("a", "dead"), ("a", "recursive"), ("b", "traced")]


def test_every_public_function_has_a_use():
    sources = {path.stem: path.read_text(encoding="utf-8") for path in sorted(PACKAGE.glob("*.py"))}
    exported = set(_assigned_literal(sources["__init__"], "__all__"))
    spanned = {(owner, attr) for _, owner, attr in
               _assigned_literal(TRACING.read_text(encoding="utf-8"), "SPANNED")}
    assert exported and spanned
    assert unused_functions(sources, exported, spanned) == []
