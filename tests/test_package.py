"""Rules over the package source as a whole."""

import ast
import pathlib
import sys

import monochrome


def test_imports_only_the_standard_library():
    """monochrome has no runtime dependencies: every import in the package
    is relative or names a module of the standard library."""
    outside = set()
    for path in sorted(pathlib.Path(monochrome.__file__).parent.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside.update((path.name, name) for name in names
                           if name.partition(".")[0] not in sys.stdlib_module_names)
    assert not outside
