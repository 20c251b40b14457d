"""The commlab names the benchmark reaches for still exist.

`perfbench/tracing.py` wraps module attributes by name and
`perfbench/gate.py` imports from commlab, so deleting or renaming one of
those names breaks the benchmark, which the unit tests do not run. Both files
are only read here: tracing.py is executed into a fresh module object (no
bytecode is written next to it) and gate.py is parsed, not imported.
"""

import ast
import importlib
import os
import types

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PERFBENCH = os.path.join(ROOT, "perfbench")


def _source(name: str) -> tuple[str, str]:
    path = os.path.join(PERFBENCH, name)
    with open(path, encoding="utf-8") as fh:
        return fh.read(), path


def _tracing() -> types.ModuleType:
    text, path = _source("tracing.py")
    module = types.ModuleType("perfbench_tracing")
    exec(compile(text, path, "exec"), module.__dict__)
    return module


def test_tracer_targets_resolve():
    tracing = _tracing()
    modules = {
        name: importlib.import_module(f"commlab.{name}")
        for name in {module for module, _, _ in tracing.SPANS + tracing.COUNTS}
    }
    for module, attr, _ in tracing.SPANS + tracing.COUNTS:
        # the lookup Tracer._plan makes before it wraps the attribute
        owner, name = tracing._resolve(modules, module, attr)
        assert name in owner.__dict__, f"perfbench traces missing commlab.{module}.{attr}"


def test_gate_imports_resolve():
    text, path = _source("gate.py")
    imports = [
        node
        for node in ast.walk(ast.parse(text, path))
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("commlab")
    ]
    assert imports
    for node in imports:
        module = importlib.import_module(node.module)
        for alias in node.names:
            missing = f"gate.py imports missing {node.module}.{alias.name}"
            assert hasattr(module, alias.name), missing
