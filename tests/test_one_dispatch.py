"""Ring-specific knowledge lives behind the Ring interface, in rings.py.

A module that tests isinstance(..., C), type(...) is C, type(...) is not C
or type(...) == C (or !=) for a Ring subclass C is branching on the ring's
class; it should ask the ring instead (Ring.quotient_by, Ring.divide,
Ring.lift, Ring.clear_denominators, ...).
"""

import ast
import importlib
import pkgutil

import wittforge
from test_one_coercion import SRC, _names
from wittforge.rings import Ring


def _ring_classes() -> set:
    """Names of Ring and every subclass defined anywhere in the package."""
    for info in pkgutil.iter_modules(wittforge.__path__):
        if info.name != "__main__":  # importing it runs the command line
            importlib.import_module(f"wittforge.{info.name}")
    names, todo = set(), [Ring]
    while todo:
        cls = todo.pop()
        names.add(cls.__name__)
        todo.extend(cls.__subclasses__())
    return names


def _is_call_of(node, name: str, nargs: int) -> bool:
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == name
        and len(node.args) == nargs
    )


def _type_test(node, classes: set) -> bool:
    """A comparison type(x) is / is not / == / != C, either way round."""
    if not isinstance(node, ast.Compare):
        return False
    operands = [node.left, *node.comparators]
    for op, left, right in zip(node.ops, operands, operands[1:]):
        if isinstance(op, (ast.Is, ast.IsNot, ast.Eq, ast.NotEq)):
            for call, other in ((left, right), (right, left)):
                if _is_call_of(call, "type", 1) and classes & set(_names(other)):
                    return True
    return False


def _dispatches(source: str, filename: str, classes: set) -> list:
    """Line numbers of the class tests against a ring class, in order."""
    return sorted(
        node.lineno
        for node in ast.walk(ast.parse(source, filename))
        if (_is_call_of(node, "isinstance", 2) and classes & set(_names(node.args[1])))
        or _type_test(node, classes)
    )


def test_only_rings_tests_ring_classes():
    classes = _ring_classes()
    assert {"IntegerRing", "QuotientRing", "WittRing"} <= classes
    sources = sorted(p for p in SRC.glob("*.py") if p.name != "rings.py")
    assert sources
    found = [
        f"{path.name}:{line}"
        for path in sources
        for line in _dispatches(path.read_text(), str(path), classes)
    ]
    assert not found, found


def test_the_guard_sees_a_class_branch():
    source = (
        "if isinstance(ring, rings.IntegerRing):\n    pass\n"
        "if isinstance(q.module, FreeModule):\n    pass\n"
        "if isinstance(r, (int, QuotientRing)):\n    pass\n"
    )
    assert _dispatches(source, "<case>", _ring_classes()) == [1, 5]


def test_the_guard_sees_a_type_comparison():
    source = (
        "if type(ring) is RationalRing:\n    pass\n"
        "if type(ring) is not rings.IntegerRing:\n    pass\n"
        "if type(ring) == ZModRing:\n    pass\n"
        "if PolyRing != type(ring):\n    pass\n"
        "if type(value) is int:\n    pass\n"
        "if type(q.module) is FreeModule:\n    pass\n"
        "if kind == RationalRing:\n    pass\n"
    )
    assert _dispatches(source, "<case>", _ring_classes()) == [1, 3, 5, 7]
