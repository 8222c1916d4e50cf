"""No module under ``src/`` keeps a second book of counts.

Every count lives in the tenant's ``MetricsRegistry``.  The layers that
once kept their own counters copied each increment into the registry
through a ``bind_registry`` method; a static AST check keeps any such
mirror from coming back: no function or method of that name is defined
anywhere under ``src/``.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def mirror_definitions(path: Path):
    """``(line, name)`` of every ``bind_registry`` defined in ``path``."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return sorted(
        (node.lineno, node.name)
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and node.name == "bind_registry"
    )


def test_no_module_defines_bind_registry():
    found = [
        f"{path.relative_to(SRC)}:{line}: {name}"
        for path in sorted(SRC.rglob("*.py"))
        for line, name in mirror_definitions(path)
    ]
    assert found == []


def test_the_check_sees_a_mirror(tmp_path):
    module = tmp_path / "module.py"
    module.write_text("def bind(registry): pass\n")
    assert mirror_definitions(module) == []
    module.write_text(
        "class Stats:\n"
        "    def bind_registry(self, registry):\n"
        "        self.registry = registry\n"
    )
    assert mirror_definitions(module) == [(2, "bind_registry")]
