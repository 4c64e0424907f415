"""Nilpotence is searched in one place: Ring.nilpotent_index in rings.py.

A module that calls .bit_length() is computing a log2 bound of its own, the
way a hand-rolled nilpotence search sizes its powers; it should ask the ring
(Ring.nilpotent_index, or Ring.quotient_by for the ring to ask).
"""

import ast

from test_one_coercion import SRC


def _bit_lengths(source: str, filename: str) -> list:
    """Line numbers of the .bit_length() calls, in order."""
    return sorted(
        node.lineno
        for node in ast.walk(ast.parse(source, filename))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "bit_length"
    )


def test_only_rings_bounds_nilpotence():
    sources = sorted(p for p in SRC.glob("*.py") if p.name != "rings.py")
    assert sources
    found = [
        f"{path.name}:{line}"
        for path in sources
        for line in _bit_lengths(path.read_text(), str(path))
    ]
    assert not found, found


def test_the_guard_sees_a_bound_of_its_own():
    source = (
        "bound = len(classes).bit_length() - 1\n"
        "width = n.bit_length\n"
        "k = max(1, (size - 1).bit_length())\n"
    )
    assert _bit_lengths(source, "<case>") == [1, 3]
