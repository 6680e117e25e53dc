"""Static checks over the package source."""

import ast
import json
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


def _module_definitions(tree: ast.Module):
    """(line, name) of each module-level function, class and assigned name."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.lineno, node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        yield node.lineno, name.id


def _unread_private_definitions(paths: list[Path]) -> list[str]:
    """Module-level private functions, classes and constants no module of the package reads."""
    trees = {p: ast.parse(p.read_text()) for p in paths}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return [f"{p.name}:{line} {name}" for p, tree in trees.items()
            for line, name in _module_definitions(tree)
            if name.startswith("_") and not name.startswith("__") and name not in read]


def test_no_unread_private_definitions():
    modules = sorted(Path(sqglab.__file__).parent.glob("*.py"))
    assert modules
    assert _unread_private_definitions(modules) == []


def test_no_unused_imports():
    # __init__.py imports to re-export, so its names are read by callers
    modules = [p for p in sorted(Path(sqglab.__file__).parent.glob("*.py"))
               if p.name != "__init__.py"]
    assert modules
    assert [u for p in modules for u in _unused_imports(p)] == []


def _scipy_submodules(path: Path) -> set[str]:
    """scipy submodules a module imports, at any depth of its AST."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module == "scipy":
            names = [f"scipy.{a.name}" for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""]
        else:
            continue
        found.update(n for n in names if n.startswith("scipy."))
    return found


def test_package_imports_no_scipy_submodule():
    modules = sorted(Path(sqglab.__file__).parent.glob("*.py"))
    assert modules
    imported = {p.name: _scipy_submodules(p) for p in modules}
    assert set().union(*imported.values()) == set(), imported


def test_benchmark_layer_names_are_public_functions():
    # the benchmark times each per-layer name <module>.<fn>.self_s by wrapping
    # sqglab.<module>.<fn>, so every such name must stay a public module-level
    # function; BENCHMARK.json is read, not edited
    bench = json.loads((Path(__file__).parents[1] / "BENCHMARK.json").read_text())
    package = Path(sqglab.__file__).parent
    pinned = [m["name"].split(".")[:2] for m in bench["per_layer"]
              if m["name"].endswith(".self_s")]
    pinned = [(mod, fn) for mod, fn in pinned if (package / f"{mod}.py").is_file()]
    assert pinned
    missing = []
    for mod, fn in pinned:
        tree = ast.parse((package / f"{mod}.py").read_text())
        defined = {n.name for n in tree.body if isinstance(n, ast.FunctionDef)}
        if fn.startswith("_") or fn not in defined:
            missing.append(f"{mod}.{fn}")
    assert missing == []
