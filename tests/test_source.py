"""Source hygiene: every name the package imports is used, every private name it defines is
referenced, and the README's library example runs as written."""

import ast
import re
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "pnpmmse"
README = PACKAGE.parent.parent / "README.md"


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


def is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def unreferenced_privates(sources: dict[str, str]) -> list[str]:
    """Module-level private functions, classes and constants that no module of ``sources`` references.

    ``sources`` maps each module's name to its text.  A private name starts
    with an underscore; dunders are exempt.  A reference is a read of the
    name, an attribute of that name, or an import of it.
    """
    defined, referenced = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [name.id for target in targets for name in ast.walk(target) if isinstance(name, ast.Name)]
            else:
                continue
            defined += [(module, name) for name in names if name.startswith("_") and not is_dunder(name)]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                referenced.update(alias.name for alias in node.names)
    return [f"{module}.{name}" for module, name in defined if name not in referenced]


def test_unreferenced_privates_are_found():
    sources = {
        "a": "def _used(): pass\ndef _dead(): pass\nclass _Gone: pass\n_LIMIT: int = 1\n_SPARE = 2\n__all__ = []\n",
        "b": "from a import _used\nimport a\n_used()\nprint(a._LIMIT)\n",
    }
    assert unreferenced_privates(sources) == ["a._dead", "a._Gone", "a._SPARE"]


def test_package_has_no_unreferenced_private_name():
    sources = {path.stem: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    assert unreferenced_privates(sources) == []


def test_readme_library_example_runs():
    [example] = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.DOTALL)
    exec(compile(example, str(README), "exec"), {"__name__": "readme"})
