"""A number has one spelling: the numeral grammar of numutil.

A numeral is 0, or an optional - and ASCII digits with no leading zero; a
fraction is a numeral, /, and a positive numeral.  Every parser reads
numbers through numutil.NUMERAL, numutil.FRACTION or numutil.integer.  A
second grammar lets a second spelling in: int() takes "+6", "1_0" and
non-ASCII digits, str.isdigit() and a regex \\d take non-ASCII digits.  The
guard fails on argparse's type=int, on the str digit tests and on \\d in a
string literal anywhere in the package; the rows below show that each
second spelling is refused, and that the canonical ones still read.  The
command line's integer options have their rows in test_cli.py, and the
Frobenius family names theirs in test_universal.py.  A list has one spelling
too: the rows below include lists with an empty item.
"""

import ast

import pytest

from test_one_coercion import SRC
from wittforge.indexset import IndexSetError, index_set_make
from wittforge.numutil import integer
from wittforge.rings import ParseError, make_ring
from wittforge.universal import GenerationError, get_universal

_DIGIT_TESTS = {"isdigit", "isdecimal", "isnumeric"}


def _second_grammars(source: str, filename: str) -> list:
    """Lines that read a number by a grammar other than numutil's, in order."""
    found = []
    for node in ast.walk(ast.parse(source, filename)):
        if (
            isinstance(node, ast.keyword)
            and node.arg == "type"
            and isinstance(node.value, ast.Name)
            and node.value.id == "int"
        ):
            found.append((node.value.lineno, node.value.col_offset, "type=int"))
        elif isinstance(node, ast.Attribute) and node.attr in _DIGIT_TESTS:
            found.append((node.lineno, node.end_col_offset, f".{node.attr}()"))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and "\\d" in node.value:
            found.append((node.lineno, node.col_offset, "\\d"))
    return [f"{filename}:{line} {what}" for line, _, what in sorted(found)]


def test_numbers_are_read_by_one_grammar():
    sources = sorted(SRC.glob("*.py"))
    assert sources
    found = [f for path in sources for f in _second_grammars(path.read_text(), path.name)]
    assert not found, found


def test_the_guard_sees_every_second_grammar():
    planted = (
        'p.add_argument("--n", type=int)\n'
        "if s.isdigit() or s.isdecimal() or str.isnumeric(s):\n"
        "    pass\n"
        'INT = re.compile(r"^-?\\d+$")\n'
        'TAIL = rf"{x}\\d"\n'
    )
    assert _second_grammars(planted, "planted.py") == [
        "planted.py:1 type=int",
        "planted.py:2 .isdigit()",
        "planted.py:2 .isdecimal()",
        "planted.py:2 .isnumeric()",
        "planted.py:4 \\d",
        "planted.py:5 \\d",
    ]
    assert _second_grammars('p.add_argument("--n", type=integer)\n', "clean.py") == []


@pytest.mark.parametrize("text, value", [
    ("0", 0), ("7", 7), ("-12", -12), ("1000", 1000), (" 42 ", 42),
])
def test_a_numeral_reads_as_its_integer(text, value):
    assert integer(text) == value


@pytest.mark.parametrize("text", [
    "", "-", "-0", "07", "+7", "1_0", "٣", "1.0", "0x1", "1e3", "4 2",
])
def test_anything_else_is_no_numeral(text):
    with pytest.raises(ValueError):
        integer(text)


# inputs that computed while a second grammar read them, and lists with an
# empty item, which read as the list without it
RING_DESCRIPTORS = [
    "zmod:٧", "zmod:07", "poly(integers; x,,y)", "poly(integers; x,)", "poly(integers; x; inv x,,)",
]
INDEX_SETS = ["div:1_0", "div:+6", "div:٦", "ptyp:٢:3", "set:1,٢", "set:1,,2", "set:1,2,", "set:,1"]
LITERALS = [
    ("zmod:7", "٣"),
    ("integers", "-0"),
    ("rationals", "٣/٤"),
    ("rationals", "1/02"),
    ("poly(integers; x)", "x^٢"),
    ("poly(integers; x)", "٣*x"),
]


@pytest.mark.parametrize("descriptor", RING_DESCRIPTORS)
def test_a_ring_descriptor_has_one_spelling(descriptor):
    with pytest.raises(ParseError):
        make_ring(descriptor)


@pytest.mark.parametrize("spec", INDEX_SETS)
def test_an_index_set_has_one_spelling(spec):
    with pytest.raises(IndexSetError):
        index_set_make(spec)


@pytest.mark.parametrize("descriptor, literal", LITERALS)
def test_a_literal_has_one_spelling(descriptor, literal):
    with pytest.raises(ParseError):
        make_ring(descriptor).raw(literal)


def test_a_frobenius_family_has_one_name():
    with pytest.raises(GenerationError):
        get_universal(index_set_make("div:2"), "frobenius:+2")


def test_a_blank_list_is_the_empty_one():
    assert make_ring("poly(integers; x; inv )") == make_ring("poly(integers; x)")


@pytest.mark.parametrize("descriptor, literal, value", [
    ("zmod:7", "10", 3),
    ("integers", "-7", -7),
    ("rationals", "-3/4", "-3/4"),
    ("rationals", "0", "0"),
    ("poly(integers; x; inv x)", "-2*x^-1+10*x^2", "-2*x^-1+10*x^2"),
])
def test_canonical_literals_still_read(descriptor, literal, value):
    ring = make_ring(descriptor)
    assert ring.el_to_str(ring.raw(literal)) == str(value)


def test_canonical_index_sets_still_read():
    assert [len(index_set_make(s)) for s in ("div:10", "ptyp:2:3", "set:1,2,3,6")] == [4, 4, 4]
