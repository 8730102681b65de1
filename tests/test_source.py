"""Source hygiene: every name the package imports is used."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "pnpmmse"


def unused_imports(source: str) -> list[str]:
    """Names bound by an import in ``source`` that nothing reads or ``__all__`` exports.

    ``from __future__`` imports are exempt; a dotted ``import a.b`` binds ``a``.
    """
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            exported.update(ast.literal_eval(node.value))
    return [f"{name} (line {line})" for name, line in imported.items() if name not in read | exported]


def test_unused_imports_are_found():
    source = "from __future__ import annotations\nimport os\nimport numpy as np\nfrom x import a, b\n__all__ = ['b']\nnp.sum(1)\n"
    assert unused_imports(source) == ["os (line 2)", "a (line 4)"]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda path: path.name)
def test_package_has_no_unused_import(path):
    assert unused_imports(path.read_text()) == []
