"""Every function, class and method that src/commlab defines is used by name
in src/commlab, or is pinned by the benchmark or an acceptance criterion.

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


def test_every_defined_name_is_used_or_pinned():
    defined, used = {}, set()
    for name in sorted(os.listdir(PACKAGE)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(PACKAGE, name)
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), path)
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
