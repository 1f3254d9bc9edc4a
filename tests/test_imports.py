"""Every name a neurphy module imports is read somewhere in that module, and
every name it defines at top level is read somewhere in the repository."""

import ast
import pathlib

import pytest

import neurphy

SOURCES = sorted(pathlib.Path(neurphy.__file__).parent.glob("*.py"))
# Where a top-level name of a neurphy module may be read: the package, its
# tests and the benchmark, whose tracer looks names up by string.
ROOT = pathlib.Path(__file__).resolve().parents[1]
READERS = [p for d in ("src", "tests", "perfbench") for p in (ROOT / d).rglob("*.py")]

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


def top_level_names(tree):
    """(name, statement) for each function, class and constant that tree's
    module defines at top level; dunder names, read by Python itself, are left
    out."""
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [stmt.name]
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        yield from ((name, stmt) for name in names if not name.startswith("__"))


def reads(node):
    """Each name that node's subtree reads: a loaded name, an attribute, a name
    imported from a module, or a string constant."""
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            yield n.id
        elif isinstance(n, ast.Attribute):
            yield n.attr
        elif isinstance(n, ast.ImportFrom):
            yield from (a.name for a in n.names)
        elif isinstance(n, ast.Constant) and isinstance(n.value, str):
            yield n.value


def unread_definitions(module, trees):
    """The top-level names that trees[module] defines and that no tree in
    trees reads, apart from the statement that defines the name."""
    defined = dict(top_level_names(trees[module]))
    read = {r for path, tree in trees.items() for stmt in tree.body for r in reads(stmt)
            if path != module or defined.get(r) is not stmt}
    return set(defined) - read


def test_unread_definitions_finds_an_unread_name():
    sources = {"m.py": "import os\nLIMIT = 3\nUNUSED = 4\ndef f(n):\n    return f(n - 1)\n"
                       "def g():\n    return LIMIT\nclass C:\n    pass\n",
               "t.py": "from m import g\nprint(getattr(m, 'C'))\n"}
    trees = {path: ast.parse(source) for path, source in sources.items()}
    assert unread_definitions("m.py", trees) == {"UNUSED", "f"}


@pytest.fixture(scope="module")
def reader_trees():
    return {p: ast.parse(p.read_text(encoding="utf-8"))
            for p in {p.resolve() for p in READERS + SOURCES}}


@pytest.mark.parametrize("path", SOURCES, ids=[p.stem for p in SOURCES])
def test_modules_define_only_names_something_reads(path, reader_trees):
    assert unread_definitions(path.resolve(), reader_trees) == set()
