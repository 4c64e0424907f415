"""Every library error derives from one root, WittforgeError.

A caller, the command line included, catches WittforgeError and gets every
failure the library raises on purpose.  An exception class outside the root
would escape that handler, and so would the NotImplementedError of a stub:
an operation a class does not support raises a typed error instead
(UnsupportedRing for a ring).
"""

import ast
import importlib
import pkgutil
import types

import wittforge
from test_one_coercion import SRC
from wittforge import WittforgeError


def _modules() -> list:
    """Every module of the package."""
    return [
        importlib.import_module(f"wittforge.{info.name}")
        for info in pkgutil.iter_modules(wittforge.__path__)
        if info.name != "__main__"  # importing it runs the command line
    ]


def _stray_errors(modules) -> list:
    """Exception classes defined in the modules that are not WittforgeErrors."""
    return sorted(
        f"{module.__name__}.{name}"
        for module in modules
        for name, obj in vars(module).items()
        if isinstance(obj, type)
        and obj.__module__ == module.__name__
        and issubclass(obj, BaseException)
        and not issubclass(obj, WittforgeError)
    )


def _not_implemented(source: str, filename: str) -> list:
    """Line numbers where the name NotImplementedError appears, in order."""
    return sorted(
        node.lineno
        for node in ast.walk(ast.parse(source, filename))
        if (isinstance(node, ast.Name) and node.id == "NotImplementedError")
        or (isinstance(node, ast.Attribute) and node.attr == "NotImplementedError")
    )


def test_every_error_class_has_the_one_root():
    modules = _modules()
    assert {"wittforge.rings", "wittforge.cli", "wittforge.indexset"} <= {m.__name__ for m in modules}
    assert not _stray_errors(modules), _stray_errors(modules)


def test_index_set_errors_stay_value_errors():
    from wittforge.indexset import IndexSetError

    assert issubclass(IndexSetError, WittforgeError) and issubclass(IndexSetError, ValueError)


def test_no_source_raises_not_implemented():
    sources = sorted(SRC.glob("*.py"))
    assert sources
    found = [
        f"{path.name}:{line}"
        for path in sources
        for line in _not_implemented(path.read_text(), str(path))
    ]
    assert not found, found


def test_the_guard_sees_a_stray_error_class():
    planted = types.ModuleType("wittforge.planted")
    planted.WittforgeError = WittforgeError
    exec(
        "class Stray(ValueError):\n    pass\n"
        "class Typed(WittforgeError):\n    pass\n"
        "class NotAnError:\n    pass\n",
        planted.__dict__,
    )
    planted.Imported = KeyError  # defined elsewhere, so not this module's
    assert _stray_errors([planted]) == ["wittforge.planted.Stray"]


def test_the_guard_sees_not_implemented():
    source = (
        "def f(self):\n    raise NotImplementedError\n"
        "def g(self):\n    return 1\n"
        "def h(self):\n    raise builtins.NotImplementedError('h')\n"
    )
    assert _not_implemented(source, "<case>") == [2, 6]
