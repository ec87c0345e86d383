"""Every module-level private function in the package is used somewhere in
it, every public function and public-class method is named by the package
or a demo, and every name a package module, a test or a demo imports is
used in that file.

A helper that nothing calls, a member that only tests reach, or an import
that nothing reads, is dead code; this finds one by reading the package
source with the stdlib ``ast`` module, without importing it.
"""

import ast
from pathlib import Path
from typing import Iterator

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


def _is_command(node: ast.FunctionDef) -> bool:
    """Whether ``node`` carries ``@command(...)``, which registers it as a handler."""
    return any(
        isinstance(d, ast.Call) and isinstance(d.func, ast.Name) and d.func.id == "command"
        for d in node.decorator_list
    )


def _public_members(tree: ast.Module) -> list[tuple[str, ast.AST]]:
    """The public functions of a module, except command handlers, and the
    public methods, properties, classmethods and staticmethods of its public
    classes, as (qualified name, definition)."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    members = []
    for node in tree.body:
        if isinstance(node, functions) and not node.name.startswith("_") and not _is_command(node):
            members.append((node.name, node))
        elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            members += [
                (f"{node.name}.{m.name}", m)
                for m in node.body
                if isinstance(m, functions) and not m.name.startswith("_")
            ]
    return members


def _references(tree: ast.AST, enclosing=frozenset()) -> Iterator[tuple[str, frozenset]]:
    """Each name ``tree`` reads as a variable or an attribute, or imports,
    with the ids of the definitions it sits in."""
    if isinstance(tree, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        enclosing = enclosing | {id(tree)}
    if isinstance(tree, ast.Name):
        yield tree.id, enclosing
    elif isinstance(tree, ast.Attribute):
        yield tree.attr, enclosing
    elif isinstance(tree, ast.alias):
        yield (tree.asname or tree.name).split(".")[-1], enclosing
    for child in ast.iter_child_nodes(tree):
        yield from _references(child, enclosing)


def test_every_public_member_is_used_outside_the_tests():
    """A public function or method that only tests reach is deleted.  Exempt:
    ``_oracles``, whose callers are the tests by design, and ``@command``
    handlers, which their decorator registers.  A name counts as used when
    the package or a demo names it outside the member's own definition."""
    members: list[tuple[str, ast.AST]] = []
    referenced: dict[str, list[frozenset]] = {}
    for path in sorted([*PACKAGE.glob("*.py"), *(REPO / "demos").glob("*.py")]):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for name, enclosing in _references(tree):
            referenced.setdefault(name, []).append(enclosing)
        if path.parent == PACKAGE and path.name != "_oracles.py":
            members += [(f"{path.stem}.{q}", node) for q, node in _public_members(tree)]
    unused = [
        name
        for name, node in members
        if all(id(node) in enc for enc in referenced.get(name.rsplit(".", 1)[1], []))
    ]
    assert not unused, f"public members only tests reach: {unused}"


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


def test_no_module_uses_numpy_linalg():
    """The package solves its small systems in closed form; LAPACK's digits
    could depend on the host's BLAS."""
    users = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            if (
                isinstance(node, ast.Attribute) and node.attr == "linalg"
                or isinstance(node, ast.alias) and "linalg" in node.name
                or isinstance(node, ast.ImportFrom) and "linalg" in (node.module or "")
            ):
                users.append(f"{path.name}:{node.lineno}")
    assert not users, f"numpy.linalg used at {users}"
