"""Every public function and method has a caller.

A module-level function of the package whose name has no leading underscore
is exported in wittforge.__all__, or its name is used somewhere in the
package or the benchmark harness besides its own definition: code that
nothing calls goes.  A method with no leading underscore of a class with
none has its name used there too; exporting its class does not excuse it.
A use is a name, an attribute or an imported name, so a mention in a
comment or a string does not count.
"""

import ast

import wittforge
from test_one_coercion import SRC

PERFBENCH = SRC.parent.parent / "perfbench"


def _used_names(tree) -> set:
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.alias):
            used.add(node.name)
    return used


def _parsed(package: dict, others: dict):
    """The package's syntax trees, and the names any source, package or other, uses."""
    trees = {name: ast.parse(text, name) for name, text in package.items()}
    used = set().union(
        *map(_used_names, trees.values()),
        *(_used_names(ast.parse(text, name)) for name, text in others.items()),
    )
    return trees, used


def _uncalled(package: dict, others: dict, exported) -> list:
    """(file, name) of each public module-level def in the package sources
    that is not exported and whose name no source, package or other, uses."""
    trees, used = _parsed(package, others)
    return sorted(
        (name, node.name)
        for name, tree in trees.items()
        for node in tree.body
        if isinstance(node, ast.FunctionDef)
        and not node.name.startswith("_")
        and node.name not in exported
        and node.name not in used
    )


def _uncalled_methods(package: dict, others: dict) -> list:
    """(file, "Class.method") of each public method of a public class in the
    package sources whose name no source, package or other, uses."""
    trees, used = _parsed(package, others)
    return sorted(
        (name, f"{cls.name}.{node.name}")
        for name, tree in trees.items()
        for cls in tree.body
        if isinstance(cls, ast.ClassDef) and not cls.name.startswith("_")
        for node in cls.body
        if isinstance(node, ast.FunctionDef)
        and not node.name.startswith("_")
        and node.name not in used
    )


def _sources(directory) -> dict:
    paths = sorted(directory.glob("*.py"))
    assert paths, directory
    return {p.name: p.read_text() for p in paths}


def test_every_public_function_has_a_caller():
    found = _uncalled(_sources(SRC), _sources(PERFBENCH), set(wittforge.__all__))
    assert not found, found


def test_every_public_method_has_a_caller():
    found = _uncalled_methods(_sources(SRC), _sources(PERFBENCH))
    assert not found, found


def test_the_guard_sees_an_uncalled_function():
    package = {
        "a.py": (
            "def lonely():\n    return 'lonely'  # lonely\n"
            "def called():\n    pass\n"
            "def exported():\n    pass\n"
            "def _private():\n    pass\n"
            "def by_attribute():\n    pass\n"
            "def by_import():\n    pass\n"
            "def by_bench():\n    pass\n"
            "class C:\n    def method(self):\n        pass\n"
            "x = called()\n"
        ),
        "b.py": "from .a import by_import\nimport a\na.by_attribute()\n",
    }
    bench = {"bench.py": "from wittforge.a import by_bench\n"}
    assert _uncalled(package, bench, {"exported"}) == [("a.py", "lonely")]
    assert _uncalled(package, {}, {"exported"}) == [("a.py", "by_bench"), ("a.py", "lonely")]


def test_the_guard_sees_an_uncalled_method():
    package = {
        "a.py": (
            "class C:\n"
            "    def lonely(self):\n        return 'lonely'  # lonely\n"
            "    def called(self):\n        pass\n"
            "    def by_bench(self):\n        pass\n"
            "    def _private(self):\n        pass\n"
            "    def __len__(self):\n        return 0\n"
            "class _Hidden:\n    def method(self):\n        pass\n"
            "def f(c):\n    return c.called()\n"
        ),
    }
    bench = {"bench.py": "c.by_bench()\n"}
    assert _uncalled_methods(package, bench) == [("a.py", "C.lonely")]
    assert _uncalled_methods(package, {}) == [("a.py", "C.by_bench"), ("a.py", "C.lonely")]
