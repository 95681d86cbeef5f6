"""Package-wide rules that no single module's tests can see."""

import ast
import sys
from pathlib import Path

import matchforce


def _sources():
    sources = sorted(Path(matchforce.__file__).parent.glob("*.py"))
    assert len(sources) > 10
    return sources


def test_the_package_imports_only_the_standard_library():
    outside = []
    for path in _sources():
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


def test_every_imported_name_is_read():
    # no linter is installed, so this stands in for its unused-import rule:
    # a name imported into a module is read there or listed in its __all__,
    # unless its line says "# noqa: F401"
    unread = []
    for path in _sources():
        text = path.read_text(encoding="utf-8")
        lines, tree = text.splitlines(), ast.parse(text)
        read = {
            node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }
        for node in tree.body:
            if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
            ):
                read |= {elt.value for elt in node.value.elts}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in read and "# noqa: F401" not in lines[alias.lineno - 1]:
                        unread.append((path.name, alias.lineno, name))
    assert not unread
