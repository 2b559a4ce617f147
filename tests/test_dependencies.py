"""The package imports only the standard library and its declared
dependencies (numpy and PyYAML); scipy may be installed but is not one."""
import ast
import sys
from pathlib import Path

import dactd

ALLOWED = {"numpy", "yaml", "dactd"}


def _imported_roots(path: Path) -> set[str]:
    roots = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            roots.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            roots.add(node.module.split(".")[0])
    return roots


def test_every_import_is_stdlib_or_declared():
    sources = sorted(Path(dactd.__file__).parent.glob("*.py"))
    assert sources
    stray = {f"{path.name}: {root}" for path in sources
             for root in _imported_roots(path)
             if root not in sys.stdlib_module_names and root not in ALLOWED}
    assert not stray, sorted(stray)
