"""The package needs nothing beyond numpy and the standard library."""

import ast
import sys
from pathlib import Path

import tomcat

ALLOWED = {"tomcat", "numpy"} | set(sys.stdlib_module_names)


def test_every_import_is_numpy_or_stdlib():
    modules = sorted(Path(tomcat.__file__).parent.rglob("*.py"))
    assert modules
    outside = []
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                # a relative import stays inside the package
                names = [] if node.level else [node.module]
            else:
                continue
            outside += [f"{path.name}:{node.lineno} {name}" for name in names
                        if name.split(".")[0] not in ALLOWED]
    assert not outside, outside
