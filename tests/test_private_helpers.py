"""Every module-level private function in the package is used somewhere in it.

A helper that nothing calls is dead code; this finds one by reading the
package source with the stdlib ``ast`` module, without importing it.
"""

import ast
from pathlib import Path

import segal

PACKAGE = Path(segal.__file__).resolve().parent


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
