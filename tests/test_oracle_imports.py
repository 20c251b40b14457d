"""The naive oracles in tests/naive.py stay independent of the package: they
import only the standard library, neither commlab nor numpy, so that no
shared code can make an oracle agree with the implementation it checks."""

import ast
import os
import sys

NAIVE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "naive.py")


def test_naive_imports_only_the_standard_library():
    with open(NAIVE, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), NAIVE)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            assert node.level == 0, f"naive.py:{node.lineno} has a relative import"
            imported.add(node.module)
    outside = {name for name in imported if name.split(".")[0] not in sys.stdlib_module_names}
    assert not outside, f"naive.py imports outside the standard library: {sorted(outside)}"
