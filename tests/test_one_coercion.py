"""Ring values are coerced in one place: Ring.raw in rings.py.

A module that tests isinstance(..., RingElement) is converting ring values
by hand; it should call ring.raw instead.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "wittforge"


def _names(node):
    """Names a class argument of isinstance refers to, through tuples."""
    if isinstance(node, ast.Tuple):
        return [n for elt in node.elts for n in _names(elt)]
    if isinstance(node, ast.Attribute):
        return [node.attr]
    if isinstance(node, ast.Name):
        return [node.id]
    return []


def test_only_rings_tests_for_ring_elements():
    sources = sorted(p for p in SRC.glob("*.py") if p.name != "rings.py")
    assert sources
    hand_rolled = []
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "isinstance"
                and len(node.args) == 2
                and "RingElement" in _names(node.args[1])
            ):
                hand_rolled.append(f"{path.name}:{node.lineno}")
    assert not hand_rolled, hand_rolled


def test_the_guard_sees_a_hand_rolled_converter():
    tree = ast.parse("if isinstance(v, (int, rings.RingElement)):\n    pass\n")
    call = next(n for n in ast.walk(tree) if isinstance(n, ast.Call))
    assert "RingElement" in _names(call.args[1])
