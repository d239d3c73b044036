"""The package needs nothing beyond numpy and the standard library, and
exports what README's library example imports."""

import ast
import re
import sys
from pathlib import Path

import tomcat

ALLOWED = {"tomcat", "numpy"} | set(sys.stdlib_module_names)
README = Path(__file__).resolve().parents[1] / "README.md"


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
