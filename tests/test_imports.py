"""Every name a neurphy module imports is read somewhere in that module."""

import ast
import pathlib

import pytest

import neurphy

SOURCES = sorted(pathlib.Path(neurphy.__file__).parent.glob("*.py"))

# Imported and never read on purpose: perfbench/tracer.py patches
# cli.load_tasks_jsonl by name, so the name must stay bound in cli.
UNREAD_ON_PURPOSE = {"cli": {"load_tasks_jsonl"}}


def unread_imports(source):
    """The names that source binds with an import statement and never loads."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {a.asname or a.name.partition(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return imported - read


def test_unread_imports_finds_an_unread_name():
    assert unread_imports("import os\nimport sys\nfrom a.b import c, d as e\n"
                          "sys.exit(e)\n") == {"os", "c"}


@pytest.mark.parametrize("path", SOURCES, ids=[p.stem for p in SOURCES])
def test_modules_read_every_name_they_import(path):
    unread = unread_imports(path.read_text(encoding="utf-8"))
    assert unread == UNREAD_ON_PURPOSE.get(path.stem, set())
