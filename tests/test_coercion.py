"""One coercion: every public entry point that takes a ring value goes
through Ring.raw, so each accepts and rejects the same inputs and gives the
same raw value."""

from fractions import Fraction

import pytest

from wittforge.cli import main
from wittforge.cone import QuasiIdeal, cone_hom_set
from wittforge.indexset import IndexSet, index_set_make
from wittforge.prismatic import AffinePresentation
from wittforge.rings import (
    INTEGERS,
    RATIONALS,
    ParseError,
    RingError,
    RingMismatch,
    ValidationError,
    make_ring,
)
from wittforge.witt import WittRing, make_witt, teichmuller, unghost, witt_mul

Z, Q = INTEGERS, RATIONALS
Z4 = make_ring("zmod:4")
Z8 = make_ring("zmod:8")
ZX = make_ring("poly(integers; x)")
E1 = IndexSet.explicit([1])
E2 = index_set_make("div:2")
W4 = WittRing(E2, Z4)

# each entry point maps (ring, value) to the raw value it stores
ENTRY_POINTS = {
    "Ring.__call__": lambda ring, v: ring(v).value,
    "RingElement.__add__": lambda ring, v: (ring(0) + v).value,
    "make_witt": lambda ring, v: make_witt(E1, ring, [v]).coords[0],
    "teichmuller": lambda ring, v: teichmuller(v, E1, ring).coords[0],
    "unghost": lambda ring, v: unghost({1: v}, E1, ring).coords[0],
    "QuasiIdeal.rank_one": lambda ring, v: QuasiIdeal.rank_one(ring, v).d_gens[0],
    "QuasiIdeal.from_ideal": lambda ring, v: QuasiIdeal.from_ideal(ring, [v]).d_gens[0],
    "cone_hom_set": lambda ring, v: cone_hom_set(QuasiIdeal.rank_one(ring, 1), 0, v)[0][0],
    # an affine presentation's ring is always Z[x]
    "AffinePresentation": lambda ring, v: AffinePresentation(("x",), (v,)).relations[0],
}

X_PLUS_2 = (((0,), 2), ((1,), 1))
# (ring, input, expected raw value or the RingError subclass raised)
CASES = {
    "element": (Z4, Z4(3), 3),
    "element-of-another-ring": (Z4, Z8(3), RingMismatch),
    "int": (Z4, -1, 3),
    "literal": (Z4, "7", 3),
    "raw-canonical": (Z4, 3, 3),
    "raw-non-canonical": (Z4, 7, 3),
    "float": (Z4, 1.5, ValidationError),
    "complex": (Z4, 1j, ValidationError),
    "fraction-into-Z": (Z, Fraction(1, 2), ValidationError),
    "fraction-into-Z4": (Z4, Fraction(1, 2), ValidationError),
    "Z-float": (Z, 1.5, ValidationError),
    "Z-int": (Z, 5, 5),
    "Q-float": (Q, 0.1, ValidationError),
    "Q-fraction": (Q, Fraction(1, 3), Fraction(1, 3)),
    "Q-literal": (Q, "-2/6", Fraction(-1, 3)),
    "Zx-element": (ZX, ZX("x+2"), X_PLUS_2),
    "Zx-element-of-another-ring": (ZX, Z(2), RingMismatch),
    "Zx-int": (ZX, 3, (((0,), 3),)),
    "Zx-literal": (ZX, "1*x + 2", X_PLUS_2),
    "Zx-raw-canonical": (ZX, X_PLUS_2, X_PLUS_2),
    "Zx-raw-non-canonical": (ZX, (((1,), 3), ((0,), 2), ((1,), -2)), X_PLUS_2),
    "Zx-float": (ZX, 1.5, ValidationError),
    "Zx-complex": (ZX, 1j, ValidationError),
    "Zx-fraction-coefficient": (ZX, (((1,), Fraction(1, 2)),), ValidationError),
    "Zx-float-coefficient": (ZX, (((1,), 1.0),), ValidationError),
    "W-element": (W4, W4((1, 3)), (1, 3)),
    "W-int": (W4, 3, W4.from_int(3)),
    "W-raw-non-canonical": (W4, (5, 7), (1, 3)),
    "W-float": (W4, 1.5, ValidationError),
    "W-wrong-length": (W4, (1,), ValidationError),
    "W-float-coordinate": (W4, (0.5, 1), ValidationError),
    "W-literal": (W4, "(5, 7)", (1, 3)),
    "W-bad-literal": (W4, "junk", ParseError),
    "W-literal-wrong-length": (W4, "(1)", ParseError),
}
MATRIX = [
    pytest.param(entry, case, id=f"{entry}-{case}")
    for entry in ENTRY_POINTS
    for case in CASES
    if entry != "AffinePresentation" or CASES[case][0] is ZX
]


@pytest.mark.parametrize("entry,case", MATRIX)
def test_every_entry_point_coerces_alike(entry, case):
    ring, value, expected = CASES[case]
    convert = ENTRY_POINTS[entry]
    if isinstance(expected, type):
        assert issubclass(expected, RingError)
        with pytest.raises(expected):
            convert(ring, value)
    else:
        assert convert(ring, value) == expected == ring.raw(value)


def test_a_fraction_keeps_its_identity():
    half = Fraction(1, 2)
    assert Q.raw(half) is half and Q.canonicalize(half) is half


def test_a_bool_is_stored_as_its_int():
    w = make_witt(E2, Z, [True, False])
    assert [type(c) for c in w.coords] == [int, int] and w.coords == (1, 0)
    assert w.to_json()["coords"] == {"1": "1", "2": "0"}
    assert ZX.raw((((1,), True),)) == (((1,), 1),)


# the defects this coercion removed, one case each: (call, error it now raises)
TABLE = {
    "integers-reject-a-float": (lambda: Z(1.5) * 2, ValidationError),
    "zmod-rejects-a-fraction": (lambda: Z4(Fraction(1, 2)) * 2, ValidationError),
    "rationals-reject-a-binary-float": (lambda: Q(0.1), ValidationError),
    "make-witt-rejects-float-coordinates": (
        lambda: witt_mul(make_witt(E2, Z, [0.5, 1]), make_witt(E2, Z, [0.5, 1])),
        ValidationError,
    ),
    "teichmuller-rejects-an-element-of-another-ring": (
        lambda: teichmuller(Z4(3), E2, Z8),
        RingMismatch,
    ),
    "unghost-rejects-an-element-of-another-ring": (
        lambda: unghost({1: make_ring("zmod:9")(1), 2: 0}, E2, Q),
        RingMismatch,
    ),
}


@pytest.mark.parametrize("row", TABLE)
def test_table_row_is_rejected(row):
    call, error = TABLE[row]
    with pytest.raises(error):
        call()


def test_table_row_teichmuller_parses_a_literal():
    assert teichmuller("3", E2, Z4).coords == (3, 0)


def test_table_row_rank_one_parses_a_literal():
    assert QuasiIdeal.rank_one(ZX, "1*x").d_gens == [ZX.variable("x")]


def test_table_row_hom_set_takes_elements():
    assert cone_hom_set(QuasiIdeal.rank_one(Z4, 2), Z4(1), Z4(3)) == [(1,), (3,)]


def test_arithmetic_accepts_a_literal():
    assert Z4(1) + "3" == Z4(0)
    assert "3" * Z4(3) == Z4(1)


@pytest.mark.parametrize(
    "argv",
    [
        ["teich", "--ring", "zmod:4", "--index-set", "div:2", "--r", "1.5"],
        ["teich", "--ring", "rationals", "--index-set", "div:2", "--r", "0.1"],
        ["cone", "--base", "integers", "--d", "2", "--hom", "0", "0.5"],
        ["cone", "--base", "zmod:4", "--d", "x"],
        ["witt", "neg", "--ring", "poly(integers; x)", "--index-set", "div:2", "--a", "1.5*x,0"],
    ],
)
def test_cli_rejects_a_bad_literal_with_one_error_line(argv, capsys):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
