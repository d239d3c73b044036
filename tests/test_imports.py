"""The package needs nothing beyond numpy and the standard library, exports
what README's library example imports, and defines nothing that only the
tests use."""

import ast
import re
import sys
from pathlib import Path

import tomcat

ALLOWED = {"tomcat", "numpy"} | set(sys.stdlib_module_names)
README = Path(__file__).resolve().parents[1] / "README.md"
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


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


def test_readme_library_example_imports_from_the_package():
    section = README.read_text(encoding="utf-8").split("## Library use", 1)[1]
    block = re.search(r"^from tomcat import \(([^)]*)\)", section, re.MULTILINE)
    assert block, "README's Library use section has no 'from tomcat import (...)' block"
    names = [name.strip() for name in block.group(1).split(",") if name.strip()]
    assert names
    missing = [name for name in names if not hasattr(tomcat, name)]
    assert not missing, missing


def test_every_definition_is_named_by_the_package_or_the_benchmark():
    # a function, class or method that only the tests name is a second path
    # that no command runs; the package's re-export of a name in
    # __init__.py is not a use of it
    package = sorted(Path(tomcat.__file__).parent.rglob("*.py"))
    init = Path(tomcat.__file__)
    trees = {path: ast.parse(path.read_text(encoding="utf-8"))
             for path in package + sorted(PERFBENCH.rglob("*.py"))}
    named = set()
    for path, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif isinstance(node, ast.alias) and path != init:
                named.add(node.asname or node.name.rsplit(".", 1)[-1])
    unnamed = [f"{path.name}:{node.lineno} {node.name}" for path in package
               for node in ast.walk(trees[path])
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
               and not (node.name.startswith("__") and node.name.endswith("__"))
               and node.name not in named]
    assert not unnamed, unnamed

