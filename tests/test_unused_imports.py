"""No module under ``src/`` imports a name it never uses.

A static AST check: every name an ``import`` binds must be read somewhere
in its module — as a name, the base of an attribute, or inside a string
annotation.  Names listed in the module's ``__all__`` are exports, and
package ``__init__`` modules exist to re-export, so both are exempt.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def _string_annotation_names(tree: ast.AST):
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            arguments = node.args
            annotations.append(node.returns)
            annotations.extend(
                argument.annotation
                for argument in (
                    *arguments.posonlyargs, *arguments.args, *arguments.kwonlyargs,
                    arguments.vararg, arguments.kwarg,
                )
                if argument is not None
            )
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
    for annotation in filter(None, annotations):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                try:
                    parsed = ast.parse(node.value, mode="eval")
                except SyntaxError:
                    continue
                yield from (n.id for n in ast.walk(parsed) if isinstance(n, ast.Name))


def unused_imports(path: Path):
    """``(line, name)`` of every imported name ``path`` never reads."""
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used.update(_string_annotation_names(tree))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_no_unused_imports_in_src():
    found = [
        f"{path.relative_to(SRC)}:{line}: {name}"
        for path in sorted(SRC.rglob("*.py"))
        if path.name != "__init__.py"
        for line, name in unused_imports(path)
    ]
    assert found == []


def test_the_check_sees_an_unused_import(tmp_path):
    module = tmp_path / "module.py"
    module.write_text(
        "from typing import Dict, List, Optional\n"
        "import os.path\n"
        "__all__ = ['List']\n"
        "def f(x: 'Optional[int]') -> Dict: return os.path.sep\n"
    )
    assert unused_imports(module) == []
    module.write_text("from typing import Dict\nimport os\n")
    assert unused_imports(module) == [(1, "Dict"), (2, "os")]
