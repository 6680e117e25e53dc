"""Static checks over the package source."""

import ast
from pathlib import Path

import sqglab


def _unused_imports(path: Path) -> list[str]:
    """Names a module imports and never reads (``__future__`` imports aside)."""
    tree = ast.parse(path.read_text())
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                imported[(a.asname or a.name).split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for a in node.names:
                imported[a.asname or a.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"{path.name}:{line} {name}" for name, line in imported.items() if name not in used]


def test_no_unused_imports():
    # __init__.py imports to re-export, so its names are read by callers
    modules = [p for p in sorted(Path(sqglab.__file__).parent.glob("*.py"))
               if p.name != "__init__.py"]
    assert modules
    assert [u for p in modules for u in _unused_imports(p)] == []
