"""Every module-level private function in the package is used somewhere in
it, and every name a package module, a test or a demo imports is used in
that file.

A helper that nothing calls, or an import that nothing reads, is dead code;
this finds one by reading the package source with the stdlib ``ast``
module, without importing it.
"""

import ast
from pathlib import Path

import segal

PACKAGE = Path(segal.__file__).resolve().parent
REPO = Path(__file__).resolve().parent.parent


def _private_functions_and_references() -> tuple[dict[str, str], set[str]]:
    defined: dict[str, str] = {}
    referenced: set[str] = set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if node.name.startswith("_") and not node.name.startswith("__"):
                    defined[node.name] = path.name
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.alias):
                referenced.add(node.asname or node.name)
    return defined, referenced


def test_every_private_function_is_referenced():
    defined, referenced = _private_functions_and_references()
    unused = sorted(f"{module}: {name}" for name, module in defined.items() if name not in referenced)
    assert not unused, f"private functions nothing references: {unused}"


def _unused_imports(path: Path) -> list[str]:
    """Names ``path`` imports and never reads; lines marked ``# noqa`` are exempt."""
    source = path.read_text(encoding="utf-8")
    lines = source.splitlines()
    tree = ast.parse(source, filename=str(path))
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)) and "# noqa" not in lines[node.lineno - 1]:
            for alias in node.names:
                imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    where = f"{path.parent.name}/{path.name}"
    return [f"{where}:{line}: {name}" for name, line in imported.items() if name not in used]


def test_every_import_is_used():
    paths = [*PACKAGE.glob("*.py"), *(REPO / "tests").glob("*.py"), *(REPO / "demos").glob("*.py")]
    unused = [entry for path in sorted(paths) for entry in _unused_imports(path)]
    assert not unused, f"imports nothing reads: {unused}"
