"""Every function, class and method that src/commlab defines is used by name
in src/commlab, or is pinned by the benchmark or an acceptance criterion; and
every name a module imports is used in that module.

A name counts as used when it appears as a name or an attribute anywhere in
the package's code; the strings of `__init__`'s export table do not count.
Code that only tests call belongs in tests/.
"""

import ast
import os

from test_perfbench_names import _source, _tracing

PACKAGE = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src", "commlab")

# binary_entropy: acceptance criterion 10 asserts its values; save_am writes
# the files that load_am reads
PINNED = {"binary_entropy", "save_am"}


def _benchmark_names() -> set[str]:
    """The names perfbench traces (SPANS, COUNTS) or imports (gate.py)."""
    tracing = _tracing()
    names = {attr.split(".")[-1] for _, attr, _ in tracing.SPANS + tracing.COUNTS}
    text, path = _source("gate.py")
    for node in ast.walk(ast.parse(text, path)):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("commlab"):
            names.update(alias.name for alias in node.names)
    return names


def _modules():
    """(file name, syntax tree) of every module in the package."""
    for name in sorted(os.listdir(PACKAGE)):
        if name.endswith(".py"):
            path = os.path.join(PACKAGE, name)
            with open(path, encoding="utf-8") as fh:
                yield name, ast.parse(fh.read(), path)


def test_every_defined_name_is_used_or_pinned():
    defined, used = {}, set()
    for name, tree in _modules():
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.setdefault(node.name, f"{name}:{node.lineno}")
            elif isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    allowed = used | PINNED | _benchmark_names()
    unused = {
        name: where
        for name, where in defined.items()
        if name not in allowed and not (name.startswith("__") and name.endswith("__"))
    }
    assert not unused, f"defined but used only outside src/commlab: {unused}"


def test_every_imported_name_is_used():
    # __init__ imports to re-export; __future__ imports switch on features
    unused = []
    for name, tree in _modules():
        if name == "__init__.py":
            continue
        imported, used = {}, set()
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                if getattr(node, "module", None) != "__future__":
                    for alias in node.names:
                        imported[alias.asname or alias.name.split(".")[0]] = node.lineno
            elif isinstance(node, ast.Name):
                used.add(node.id)
        unused += [f"{name}:{line} {alias}" for alias, line in imported.items() if alias not in used]
    assert not unused, f"imported but never used: {unused}"
