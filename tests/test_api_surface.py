"""Every name a module exports, and every public method and property of
its classes, has a caller inside the package; and no module reads the
process environment.

A name in some ``fpcirc.<module>.__all__``, or a public member of a
class, that nothing in src/fpcirc uses apart from its own definition
(and its ``__all__`` entry) is API kept alive only by its tests; such
code goes, or moves into tests/ when it serves as an oracle.  Uses are
names and attribute accesses found by an AST scan, matched by name
alone; imports do not count.

Run settings live in ``ExperimentConfig`` and the CLI flags only, so a
second, unrecorded way to change a run (an environment variable) is
caught by a scan for ``os.environ`` and ``os.getenv``.
"""

import ast
from pathlib import Path

import fpcirc

PACKAGE = Path(fpcirc.__file__).parent

# Kept on purpose although the package never calls it.
ALLOWED = {
    ("reduction", "reduced_rhs"),  # oracle of acceptance criterion 2
}


def _exported(tree: ast.Module) -> list[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return [elt.value for elt in node.value.elts]
    return []


def _references(tree: ast.AST, skip: ast.AST | None) -> set[str]:
    """Names and attribute names used in tree, outside the subtree skip."""
    found = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        stack.extend(ast.iter_child_nodes(node))
    return found


def _candidates(tree: ast.Module):
    """(label, name, definition) of each exported name and public class member."""
    definitions = {
        node.name: node
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    }
    for name in _exported(tree):
        yield name, name, definitions.get(name)
    for cls in definitions.values():
        if isinstance(cls, ast.ClassDef) and not cls.name.startswith("_"):
            for node in cls.body:
                if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                    yield f"{cls.name}.{node.name}", node.name, node


def unused_exports(package: Path) -> set[tuple[str, str]]:
    trees = {p.stem: ast.parse(p.read_text()) for p in sorted(package.glob("*.py"))}
    unused = set()
    for module, tree in trees.items():
        for label, name, own in _candidates(tree):
            if not any(
                name in _references(other, own if m == module else None)
                for m, other in trees.items()
            ):
                unused.add((module, label))
    return unused


def test_every_export_has_a_caller_in_the_package():
    assert unused_exports(PACKAGE) - ALLOWED == set()


def test_scan_flags_a_test_only_name(tmp_path):
    (tmp_path / "a.py").write_text(
        '__all__ = ["used", "lonely", "recursive", "Box"]\n'
        "def used():\n    return Box().size\n"
        "def lonely():\n    return used()\n"
        "def recursive(n):\n    return recursive(n - 1) if n else 0\n"
        "class Box:\n"
        "    def __init__(self):\n        self.n = 1\n"
        "    @property\n    def size(self):\n        return self.n\n"
        "    def spare(self):\n        return self.spare()\n"
    )
    (tmp_path / "b.py").write_text("from .a import lonely, recursive\n")
    assert unused_exports(tmp_path) == {
        ("a", "lonely"), ("a", "recursive"), ("a", "Box.spare")
    }


ENV_READERS = {"environ", "getenv"}


def environment_reads(package: Path) -> set[tuple[str, int]]:
    """(module, line) of every os.environ / os.getenv use or import."""
    found = set()
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == "os"
                and node.attr in ENV_READERS
            ) or (
                isinstance(node, ast.ImportFrom)
                and node.module == "os"
                and any(a.name in ENV_READERS for a in node.names)
            ):
                found.add((path.stem, node.lineno))
    return found


def test_no_module_reads_the_environment():
    assert environment_reads(PACKAGE) == set()


def test_environment_scan_flags_both_forms(tmp_path):
    (tmp_path / "a.py").write_text(
        "import os\nn = os.environ.get('N', '1')\nm = os.getenv('M')\n"
        "p = os.path.join('a', 'b')\n"
    )
    (tmp_path / "b.py").write_text("from os import environ\n")
    assert environment_reads(tmp_path) == {("a", 2), ("a", 3), ("b", 1)}
