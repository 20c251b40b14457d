"""Every function, class and method that src/commlab defines is used by name
in src/commlab, or is pinned by the benchmark or an acceptance criterion;
every name a module imports is used in that module; every defaulted
parameter is passed by some call in the package; and the entropy layer
imports no package module but core and errors.

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

# defaulted parameters that no call in the package passes, and why each stays
UNPASSED_DEFAULTS = {
    "random_tree(seed)": "random_tree is traced by the benchmark; only tests draw trees",
    "random_tree(rng)": "random_tree is traced by the benchmark; only tests draw trees",
    "random_tree(split_prob)": "random_tree is traced by the benchmark; only tests draw trees",
    "main(argv)": "the console script calls cli.main() with no arguments; tests pass argv",
    "enumerate_maximal_monochromatic(cap)": "tests lower the catalog cap to reach it",
    "random_bounded_cover(attempt_budget)": "tests shrink the budget to reach a failure",
}


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


def test_every_defaulted_parameter_is_passed_by_some_call():
    # a call passes a parameter by position, by keyword, or through *args or
    # **kwargs; calls are matched by the callee's name, and a class's name
    # stands for its __init__
    defs, calls, class_of = [], {}, {}
    for _, tree in _modules():
        for node in ast.walk(tree):  # breadth first: a class before its methods
            if isinstance(node, ast.ClassDef):
                class_of.update(
                    (id(f), node.name) for f in node.body if getattr(f, "name", "") == "__init__"
                )
            elif isinstance(node, ast.FunctionDef):
                defs.append(node)
            elif isinstance(node, ast.Call):
                func = node.func
                callee = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                calls.setdefault(callee, []).append(node)
    unpassed = set()
    for fn in defs:
        name = class_of.get(id(fn), fn.name)
        params = fn.args.posonlyargs + fn.args.args
        bound = 1 if params and params[0].arg in ("self", "cls") else 0
        first = len(params) - len(fn.args.defaults)
        defaulted = [(i - bound, p.arg) for i, p in enumerate(params) if i >= first]
        defaulted += [
            (None, p.arg) for p, d in zip(fn.args.kwonlyargs, fn.args.kw_defaults) if d is not None
        ]
        for position, param in defaulted:
            if not any(
                any(isinstance(a, ast.Starred) for a in call.args)
                or any(k.arg in (None, param) for k in call.keywords)
                or (position is not None and len(call.args) > position)
                for call in calls.get(name, [])
            ):
                unpassed.add(f"{name}({param})")
    unpassed = sorted(unpassed - set(UNPASSED_DEFAULTS))
    assert not unpassed, f"defaulted parameters that no call in src/commlab passes: {unpassed}"


# the names info may take from core: the grid shape and numeric helpers, no
# protocol, selector or thickness
INFO_CORE_NAMES = {"DomainShape", "dense_ids", "flat_positions", "stable_argsort"}


def test_info_imports_only_core_and_errors():
    # the entropy layer takes plain labels and charges: protocols, targets
    # and checks live above it
    with open(os.path.join(PACKAGE, "info.py"), encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), "info.py")
    modules = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level:  # from .core import x, from . import core
            names = [node.module] if node.module else [alias.name for alias in node.names]
            modules.update(f"commlab.{name}" for name in names)
        elif isinstance(node, ast.ImportFrom):
            modules.add(node.module)
    package = {m for m in modules if m.split(".")[0] == "commlab"}
    assert package <= {"commlab.core", "commlab.errors"}, f"info.py imports {sorted(package)}"
    assert "hashlib" not in modules, "verify hashes the instance id, not info"
    # every binding in info of core's module or of an object core defines,
    # whatever the import's form or alias
    import commlab.core
    import commlab.info

    taken = {
        name
        for name, value in vars(commlab.info).items()
        if value is commlab.core or getattr(value, "__module__", None) == "commlab.core"
    }
    assert taken <= INFO_CORE_NAMES, f"info.py takes {sorted(taken - INFO_CORE_NAMES)} from core"
