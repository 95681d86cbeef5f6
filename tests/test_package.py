"""Package-wide rules that no single module's tests can see."""

import ast
import sys
from pathlib import Path

import matchforce


def test_the_package_imports_only_the_standard_library():
    sources = sorted(Path(matchforce.__file__).parent.glob("*.py"))
    assert len(sources) > 10
    outside = []
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:  # not an import, or a relative one
                continue
            outside += [
                (path.name, name) for name in names
                if name.split(".")[0] not in sys.stdlib_module_names
            ]
    assert not outside
