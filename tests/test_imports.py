"""Every module under ``src/perfid`` uses each name it imports, and every
module-level function and class, and each non-dunder method of such a
class, has a caller outside the tests, and so does each dataclass field:
some module outside the tests reads it as an attribute.

The project depends on no linter, so these stdlib ``ast`` walks stand in
for pyflakes' unused-import check and for a dead-code scan. Package
``__init__.py`` files are skipped: their imports are the package's API,
and a re-export is not a use.
"""

import ast
from pathlib import Path

import pytest

import perfid

PACKAGE = Path(perfid.__file__).parent
MODULES = sorted(p for p in PACKAGE.rglob("*.py") if p.name != "__init__.py")
REPO = Path(__file__).resolve().parent.parent
CALLERS = [*MODULES, *sorted(REPO.glob("scripts/*.py")), *sorted(REPO.glob("perfbench/*.py"))]

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


def referenced_names(source: str) -> set[str]:
    """Every name a module reads, as a bare name, an attribute or an import."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rsplit(".", 1)[-1])
    return names


def definitions(tree: ast.Module):
    """(qualified name, bare name) of each module-level def or class and of
    each non-dunder method of a module-level class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("__"):
                    yield f"{node.name}.{item.name}", item.name


def unused_definitions(defining: dict[str, str], callers: list[str]) -> list[str]:
    """``module:name`` of each definition in ``defining`` (module name to
    source) whose bare name no source in ``callers`` references."""
    used = set().union(*(referenced_names(source) for source in callers))
    return [
        f"{module}:{qualified}"
        for module, source in defining.items()
        for qualified, name in definitions(ast.parse(source))
        if name not in used
    ]


def test_every_definition_has_a_caller_outside_the_tests():
    defining = {p.relative_to(PACKAGE).as_posix(): p.read_text() for p in MODULES}
    unused = unused_definitions(defining, [p.read_text() for p in CALLERS])
    assert unused == []


def test_the_dead_name_check_sees_an_uncalled_definition():
    module = (
        "def used():\n    pass\n\ndef unused():\n    used()\n\nclass Idle:\n    pass\n\n"
        "class Net:\n    def __init__(self):\n        pass\n\n"
        "    def run(self):\n        self.stale()\n\n    def stale(self):\n        pass\n"
    )
    caller = "from m import used\nimport m\nm.Idle.x = 1\nm.Net().run()\n"
    assert unused_definitions({"m.py": module}, [caller]) == ["m.py:unused", "m.py:Net.stale"]
    assert unused_definitions({"m.py": module}, [module]) == [
        "m.py:unused", "m.py:Idle", "m.py:Net", "m.py:Net.run"]


def test_the_check_sees_an_unused_import():
    source = (
        "import os\nimport sys\nfrom a import b, c as d\n"
        "def f() -> 'b':\n    sys.exit()\n"
    )
    assert unused_imports(source) == ["line 1: os", "line 3: d"]


def dataclass_fields(tree: ast.Module):
    """(class name, field name) of each annotated field of a module-level
    class decorated with ``dataclass`` or ``dataclass(...)``."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and any(
            "dataclass" in (getattr(d, "id", None), getattr(d, "attr", None))
            for d in (getattr(d, "func", d) for d in node.decorator_list)
        ):
            for item in node.body:
                if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                    yield node.name, item.target.id


def unread_fields(defining: dict[str, str], callers: list[str]) -> list[str]:
    """``module:Class.field`` of each dataclass field in ``defining`` (module
    name to source) that no source in ``callers`` loads as ``x.field``."""
    read = {node.attr for source in callers for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    return [
        f"{module}:{cls}.{name}"
        for module, source in defining.items()
        for cls, name in dataclass_fields(ast.parse(source))
        if name not in read
    ]


def test_every_dataclass_field_is_read_outside_the_tests():
    defining = {p.relative_to(PACKAGE).as_posix(): p.read_text() for p in MODULES}
    assert unread_fields(defining, [p.read_text() for p in CALLERS]) == []


def test_the_field_check_sees_an_unread_field():
    module = (
        "from dataclasses import dataclass\nimport dataclasses\n\n"
        "@dataclass\nclass A:\n    read: int\n    written: int = 0\n\n"
        "@dataclasses.dataclass(frozen=True)\nclass B:\n    idle: int\n\n"
        "class Plain:\n    loose: int\n"
    )
    caller = "a = A(1)\na.written = 2\nprint(a.read, B(0))\n"
    assert unread_fields({"m.py": module}, [caller]) == ["m.py:A.written", "m.py:B.idle"]
