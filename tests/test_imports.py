"""Every module under ``src/perfid`` uses each name it imports.

The project depends on no linter, so this stdlib ``ast`` walk stands in
for pyflakes' unused-import check. Package ``__init__.py`` files are
skipped: their imports are the package's API.
"""

import ast
from pathlib import Path

import pytest

import perfid

PACKAGE = Path(perfid.__file__).parent
MODULES = sorted(p for p in PACKAGE.rglob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno

    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        annotation = getattr(node, "annotation", None) or getattr(node, "returns", None)
        if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
            used.update(n.id for n in ast.walk(ast.parse(annotation.value))
                        if isinstance(n, ast.Name))
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.relative_to(PACKAGE).as_posix())
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text()) == []


def test_the_check_sees_an_unused_import():
    source = (
        "import os\nimport sys\nfrom a import b, c as d\n"
        "def f() -> 'b':\n    sys.exit()\n"
    )
    assert unused_imports(source) == ["line 1: os", "line 3: d"]
