import ast
import random
import re
from fractions import Fraction
from itertools import islice
from math import gcd
from pathlib import Path

import pytest

from test_one_coercion import SRC
from wittforge.indexset import index_set_make
from wittforge.numutil import WittforgeError
from wittforge.rings import (
    INTEGERS,
    RATIONALS,
    CosetRing,
    InexactDivision,
    ParseError,
    PolyRing,
    Ring,
    RingError,
    RingMismatch,
    UnsupportedRing,
    ValidationError,
    ZModRing,
    make_ring,
)
from wittforge.witt import WittRing


def test_parse_basic():
    assert make_ring("zmod:4").descriptor() == "zmod:4"
    assert make_ring("integers").descriptor() == "integers"
    r = make_ring("poly(rationals; x; inv x)")
    assert r.descriptor() == "poly(rationals; x; inv x)"
    q = make_ring("quot(poly(rationals; t); 1*t^3)")
    assert q.degree == 3


def test_parse_errors():
    with pytest.raises(ValidationError):
        make_ring("zmod:1")
    with pytest.raises(ParseError):
        make_ring("gibberish")
    with pytest.raises(ValidationError):
        make_ring("poly(integers; x; inv y)")
    with pytest.raises(UnsupportedRing):
        make_ring("quot(poly(rationals; t); 1*t^2, 1*t^3)")


@pytest.mark.parametrize("name", ["x\n", "x ", "\nx", "1x", "x-y", ""])
def test_a_variable_name_is_a_whole_identifier(name):
    with pytest.raises(ValidationError):
        PolyRing(INTEGERS, [name])


TESTS = Path(__file__).resolve().parent


def _described_rings():
    """The rings every string literal of the suites and the tests describes,
    and the rings they are built on."""
    found = {}
    for path in [SRC / "suites.py", *sorted(TESTS.glob("test_*.py"))]:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                try:
                    ring = make_ring(node.value)
                except WittforgeError:
                    continue
                while ring is not None:
                    found[ring.descriptor()] = ring
                    ring = getattr(ring, "poly", None) or getattr(ring, "base", None)
    return found


def test_every_built_ring_reads_back_from_its_descriptor():
    rings = _described_rings()
    assert len(rings) > 50 and {"integers", "rationals", "zmod:4"} <= set(rings)
    for descriptor, ring in rings.items():
        assert make_ring(descriptor) == ring, descriptor


def test_zmod_arith():
    z4 = make_ring("zmod:4")
    assert z4(2) + z4(3) == z4(1)
    assert z4(2) * z4(3) == z4(2)
    assert z4(1) - z4(3) == z4(2)
    assert -z4(3) == z4(1)


def test_laurent_inverse_monomial():
    lq = make_ring("poly(rationals; x; inv x)")
    x = lq.elem(lq.variable("x"))
    xinv = lq.elem(lq.monomial((-1,)))
    assert x * xinv == lq(1)
    assert lq.unit_inverse(x.value) == xinv.value


def test_exact_division():
    zx = make_ring("poly(integers; x)")
    e = zx.raw("6*x+3")
    assert zx.exact_div_int(e, 3) == zx.raw("2*x+1")
    with pytest.raises(InexactDivision):
        zx.exact_div_int(e, 2)


def test_unit_examples():
    z4 = make_ring("zmod:4")
    assert z4.unit_inverse(3) == 3
    assert z4.unit_inverse(2) is None
    assert INTEGERS.unit_inverse(-1) == -1
    assert INTEGERS.unit_inverse(2) is None
    assert RATIONALS.unit_inverse(RATIONALS.raw("2/3")) == Fraction(3, 2)


def test_unit_poly_over_zmod():
    # 1 + 2x is a unit in (Z/4)[x]; x alone is not
    r = make_ring("poly(zmod:4; x)")
    f = r("1+2*x")
    assert f * r.unit_inverse(f.value) == r(1)
    assert r.unit_inverse(r.variable("x")) is None
    # mixed CRT unit in (Z/6)[x, 1/x]
    r6 = make_ring("poly(zmod:6; x; inv x)")
    g = r6("4+3*x")
    assert g * r6.unit_inverse(g.value) == r6(1)


def test_nilpotent_examples():
    z4, z6 = make_ring("zmod:4"), make_ring("zmod:6")
    assert z4.nilpotent_index(2) == 2
    assert z6.nilpotent_index(2) is None
    assert INTEGERS.nilpotent_index(0) == 1
    assert INTEGERS.nilpotent_index(5) is None
    p = make_ring("poly(zmod:4; x)")
    k = p.nilpotent_index(p.raw("2*x+2"))
    assert (p("2*x+2") ** k).is_zero() and not (p("2*x+2") ** (k - 1)).is_zero()


def test_quotient_ring():
    q = make_ring("quot(poly(rationals; t); 1*t^3)")
    t = q.elem(q.variable("t"))
    assert (t**3).is_zero()
    assert q.nilpotent_index(t.value) == 3
    assert q("1+1*t") * q.unit_inverse(q.raw("1+1*t")) == q(1)
    assert q.unit_inverse(t.value) is None


def test_quotient_unit_over_integers():
    # t is a unit in Z[t]/(t^2 - 1), with inverse t
    q = make_ring("quot(poly(integers; t); 1*t^2+-1)")
    t = q.elem(q.variable("t"))
    assert q.unit_inverse(t.value) == t.value
    assert q.unit_inverse(q.raw(2)) is None


def test_equal_elements_hash_equal_and_equal_no_int():
    z4 = make_ring("zmod:4")
    assert z4(3) == z4(7) and hash(z4(3)) == hash(z4(7)) and len({z4(3), z4(7)}) == 1
    # an int is no element: Python's set and dict lookups agree with ==
    assert z4(3) != 7 and z4(3) != 3 and 7 != z4(3)
    assert 7 not in {z4(3)} and len({z4(3), 7}) == 2
    assert z4(3) != make_ring("zmod:5")(3) and z4(3) != INTEGERS(3)


def test_zero_ring():
    zr = make_ring("quot(poly(rationals; t); 1)")
    assert zr.size() == 1
    assert zr(1) == zr(0)


def test_ring_mismatch():
    with pytest.raises(RingMismatch):
        make_ring("zmod:4")(1) + make_ring("zmod:5")(1)


def test_serialization_round_trip():
    rng = random.Random(7)
    for desc in (
        "integers",
        "rationals",
        "zmod:12",
        "poly(integers; x,y)",
        "poly(rationals; x; inv x)",
        "poly(zmod:4; u,v)",
        "quot(poly(rationals; t); 1*t^3)",
    ):
        ring = make_ring(desc)
        for _ in range(50):
            raw = ring.canonicalize(ring.random(rng))
            assert ring.el_from_str(ring.el_to_str(raw)) == raw


def test_canonical_sorting():
    r = make_ring("poly(integers; x,y)")
    s = r.el_to_str(r.el_from_str("3+1*x^2+2*x*y+1*x"))
    # ascending total degree, then lexicographic exponent order
    assert s.index("3") < s.index("x^2")


@pytest.mark.parametrize(
    "desc",
    [
        "quot(poly(zmod:6; t); 1*t^2+1*t+5)",
        "quot(poly(zmod:12; t); 1*t^2+1)",
        "quot(poly(zmod:9; t); 1*t^2+3*t+3)",
        "quot(poly(zmod:5; t); 2*t^2+1)",  # not monic: normalized by the unit 2
    ],
)
def test_quotient_unit_inverse_brute_force(desc):
    q = make_ring(desc)
    elements = list(q.elements())
    one = q.one()
    for a in elements:
        expected = next((b for b in elements if q.mul(a, b) == one), None)
        assert q.unit_inverse(a) == expected, q.el_to_str(a)


def test_laurent_units_over_zmod():
    rng = random.Random(11)
    # 2 is nilpotent in Z/8, so 1 + 2f is a unit with inverse 1 - 2f + 4f^2
    # (two Newton steps lift the inverse from Z/2 to Z/8)
    r8 = make_ring("poly(zmod:8; x; inv x)")
    for _ in range(30):
        f = r8.elem(r8.random(rng))
        a = 1 + 2 * f
        assert r8.elem(r8.unit_inverse(a.value)) == 1 - 2 * f + 4 * f * f
    # units of (Z/6)[x^±] are unit monomials mod 2 and mod 3, glued by CRT
    r6 = make_ring("poly(zmod:6; x; inv x)")
    for _ in range(30):
        i, j, c = rng.randint(-3, 3), rng.randint(-3, 3), rng.choice((1, 2))
        a = r6.elem(r6.monomial((i,), 3)) + r6.elem(r6.monomial((j,), 4 * c))
        inv = r6.elem(r6.unit_inverse(a.value))
        assert inv == r6.elem(r6.monomial((-i,), 3)) + r6.elem(r6.monomial((-j,), 4 * c))
    for ring in (r8, r6):
        assert ring.unit_inverse(ring.raw("1+1*x")) is None


def test_rational_literal_zero_denominator():
    for s in ("1/0", "-3/0", "0/0"):
        with pytest.raises(ParseError):
            RATIONALS.el_from_str(s)
    with pytest.raises(ParseError):
        make_ring("poly(rationals; x)").el_from_str("1/0*x")


@pytest.mark.parametrize("descriptor, literal, sum_form", [
    ("poly(rationals; t)", "1*t^2-2", "1*t^2+-2"),
    ("poly(integers; x)", "x-1", "x+-1"),
    ("poly(integers; x; inv x)", "x^-1-x-3", "x^-1+-x+-3"),
])
def test_a_difference_is_refused_with_its_sum_form(descriptor, literal, sum_form):
    with pytest.raises(ParseError, match=f"'{re.escape(sum_form)}', not '{re.escape(literal)}'"):
        make_ring(descriptor).el_from_str(literal)
    make_ring(descriptor).el_from_str(sum_form)


def test_a_quotient_relation_is_a_sum():
    with pytest.raises(ParseError, match=re.escape("'1*t^2+-2'")):
        make_ring("quot(poly(rationals; t); 1*t^2-2)")
    assert make_ring("quot(poly(rationals; t); 1*t^2+-2)").degree == 2


def test_a_leading_minus_and_negative_exponents_still_read():
    r = make_ring("poly(integers; x; inv x)")
    assert r.el_to_str(r.el_from_str("-x^-1+--x")) == "-1*x^-1+1*x"
    assert r.el_to_str(r.el_from_str("-2*x^-2")) == "-2*x^-2"


def test_quotient_literal_with_large_exponent():
    # t^3 = 1, so t^(10^9 + 1) = t^2, found by squaring rather than one
    # division step per degree
    q = make_ring("quot(poly(rationals; t); 1*t^3+-1)")
    assert q("1*t^1000000001+2") == q("1*t^2+2")


# -- powers and nilpotence against independent slow paths ----------------------


def _cycle_nilpotent_index(ring, a):
    """Least k >= 1 with a^k = 0, or None once the powers of a repeat (finite rings)."""
    seen, power, k = set(), a, 1
    while power != ring.zero():
        if power in seen:
            return None
        seen.add(power)
        power, k = ring.mul(power, a), k + 1
    return k


POW_RINGS = [
    make_ring(desc)
    for desc in (
        "integers",
        "rationals",
        "zmod:12",
        "poly(zmod:4; x)",
        "poly(integers; x,y; inv x)",
        "poly(rationals; x; inv x)",
        "quot(poly(rationals; t); 1*t^3)",
        "quot(poly(zmod:8; t); 1*t^3+2*t)",
        "quot(poly(integers; t); 1*t^2+1)",
    )
] + [WittRing(index_set_make("div:2"), make_ring("zmod:4"))]


@pytest.mark.parametrize("ring", POW_RINGS, ids=repr)
def test_pow_is_repeated_mul(ring):
    rng = random.Random(3)
    for _ in range(20):
        a = ring.canonicalize(ring.random(rng))
        power = ring.one()
        for k in range(9):
            assert ring.pow(a, k) == power, (ring.el_to_str(a), k)
            assert (ring.elem(a) ** k).value == power
            power = ring.mul(power, a)


def test_pow_fixed_cases():
    assert INTEGERS.pow(-2, 5) == -32 and INTEGERS.pow(7, 0) == 1
    assert RATIONALS.pow(Fraction(2, 3), 3) == Fraction(8, 27)
    assert make_ring("zmod:12").pow(5, 2) == 1
    zx = make_ring("poly(integers; x)")
    assert zx.pow(zx.el_from_str("1*x+1"), 2) == zx.el_from_str("1*x^2+2*x+1")
    q = make_ring("quot(poly(rationals; t); 1*t^3)")
    assert q.pow(q.el_from_str("1+1*t"), 3) == q.el_from_str("1+3*t+3*t^2")
    assert q.pow(q.variable("t"), 0) == q.one()


def test_nilpotent_index_every_residue():
    for n in range(2, 65):
        ring = make_ring(f"zmod:{n}")
        for a in ring.elements():
            assert ring.nilpotent_index(a) == _cycle_nilpotent_index(ring, a), (n, a)


@pytest.mark.parametrize(
    "desc",
    [
        "quot(poly(zmod:4; t); 1*t^2)",
        "quot(poly(zmod:8; t); 1*t^3+2*t)",
        # t is a uniformizer of Z_2[sqrt(-2)], so its index is 2 * v_2(N):
        # 4 and 10, each equal to the search bound
        "quot(poly(zmod:4; t); 1*t^2+2)",
        "quot(poly(zmod:32; t); 1*t^2+2)",
    ],
)
def test_nilpotent_index_every_quotient_element(desc):
    ring = make_ring(desc)
    for a in ring.elements():
        assert ring.nilpotent_index(a) == _cycle_nilpotent_index(ring, a), ring.el_to_str(a)


def test_nilpotent_index_poly_zmod4_samples():
    # over Z/4 a polynomial is nilpotent iff every coefficient is even, and
    # then (2f)^2 = 4f^2 = 0
    ring = make_ring("poly(zmod:4; x)")
    rng = random.Random(9)
    for _ in range(300):
        a = ring.canonicalize(ring.random(rng))
        if rng.random() < 0.5:
            a = ring.canonicalize(tuple((e, 2 * c) for e, c in a))
        expected = 1 if not a else 2 if all(c % 2 == 0 for _, c in a) else None
        assert ring.nilpotent_index(a) == expected, ring.el_to_str(a)


def test_nilpotent_index_fixed_cases():
    assert INTEGERS.nilpotent_index(0) == 1
    assert INTEGERS.nilpotent_index(-3) is None
    assert RATIONALS.nilpotent_index(Fraction(0)) == 1
    assert RATIONALS.nilpotent_index(Fraction(1, 2)) is None
    zx = make_ring("poly(integers; x)")
    assert zx.nilpotent_index(zx.zero()) == 1
    for s in ("1*x", "2", "2*x+-1"):
        assert zx.nilpotent_index(zx.el_from_str(s)) is None
    q = make_ring("quot(poly(rationals; t); 1*t^3)")
    cases = {"0": 1, "1*t": 3, "1*t^2": 2, "2*t+1*t^2": 3, "1/2*t^2": 2, "1": None, "1+1*t": None}
    for s, k in cases.items():
        assert q.nilpotent_index(q.el_from_str(s)) == k, s
    q32 = make_ring("quot(poly(zmod:32; t); 1*t^2+2)")
    assert q32.nilpotent_index(q32.variable("t")) == 10


WITT_NIL_RINGS = [
    ("div:2", "zmod:4"),
    ("ptyp:2:2", "zmod:4"),
    ("div:2", "zmod:9"),
    ("ptyp:3:1", "zmod:9"),
    ("div:2", "zmod:8"),
    ("div:6", "zmod:2"),
    # W_{div:2}(Z/2) = Z/4 and W_{ptyp:2:2}(Z/2) = Z/8: 2 has index
    # log2 |W|, the search bound
    ("div:2", "zmod:2"),
    ("ptyp:2:2", "zmod:2"),
]


@pytest.mark.parametrize("E,coeff", WITT_NIL_RINGS)
def test_witt_nilpotent_index_every_element(E, coeff):
    W = WittRing(index_set_make(E), make_ring(coeff))
    indices = []
    for a in W.elements():
        k = W.nilpotent_index(a)
        assert k == _cycle_nilpotent_index(W, a), W.el_to_str(a)
        indices.append(k or 0)
    if coeff == "zmod:2" and E != "div:6":
        assert max(indices) == W.size().bit_length() - 1


def test_witt_nilpotent_index_needs_finite_ring():
    W = WittRing(index_set_make("div:2"), INTEGERS)
    with pytest.raises(UnsupportedRing):
        W.nilpotent_index(W.zero())


# ---------------------------------------------------------------------------
# Ring.quotient_by and Ring.divide against hand-computed oracles

ZERO_RING = "quot(poly(rationals; t); 1)"


@pytest.mark.parametrize(
    "values,g", [([0], 0), ([1], 1), ([-1], 1), ([-3], 3), ([4, 6], 2), ([-4, 6], 2)]
)
def test_integer_quotient_by_is_the_gcd(values, g):
    quotient, reduce = INTEGERS.quotient_by(values)
    expected = {0: "integers", 1: ZERO_RING}.get(g, f"zmod:{g}")
    assert quotient.descriptor() == expected
    for n in range(-30, 31):
        in_ideal = n == 0 if g == 0 else n % g == 0
        assert (reduce(n) == quotient.zero()) == in_ideal, n
        assert reduce(n * 7 + 3) == quotient.add(quotient.mul(reduce(n), reduce(7)), reduce(3))


def test_rational_quotient_by():
    assert RATIONALS.quotient_by([Fraction(0)])[0] == RATIONALS
    quotient, reduce = RATIONALS.quotient_by([Fraction(0), Fraction(1, 2)])
    assert quotient.descriptor() == ZERO_RING and reduce(Fraction(5, 3)) == quotient.zero()


def test_integer_divide_matches_a_search():
    for a in range(-3, 4):
        for c in range(-20, 21):
            solutions = [x for x in range(-60, 61) if a * x == c]
            if a == 0 and c == 0:
                assert len(solutions) == 121  # every x: no unique answer
                with pytest.raises(UnsupportedRing):
                    INTEGERS.divide(c, a)
                continue
            x = INTEGERS.divide(c, a)
            assert solutions == ([] if x is None else [x]), (a, c)


def test_rational_divide():
    assert RATIONALS.divide(Fraction(1, 2), Fraction(3)) == Fraction(1, 6)
    assert RATIONALS.divide(Fraction(1, 2), Fraction(0)) is None
    with pytest.raises(UnsupportedRing):
        RATIONALS.divide(Fraction(0), Fraction(0))


def test_divide_by_a_unit_elsewhere():
    q = make_ring("quot(poly(rationals; t); 1*t^2)")
    a, c = q.raw("1+1*t"), q.raw("3*t")
    assert q.mul(a, q.divide(c, a)) == c
    with pytest.raises(UnsupportedRing):
        q.divide(c, q.raw("1*t"))


@pytest.mark.parametrize(
    "desc,size",
    [
        ("quot(poly(integers; t); 1*t^2+1)", None),
        # finite quotients answer with their coset table: F_2[t]/(t^2+1), and
        # the zero ring, since 2 is a unit mod 5
        ("quot(poly(zmod:4; t); 1*t^2+1)", 4),
        ("quot(poly(zmod:5; t); 1*t^3+-1)", 1),
    ],
    ids=[
        "quot(poly(integers; t); 1*t^2+1)",
        "quot(poly(zmod:4; t); 1*t^2+1)",
        "quot(poly(zmod:5; t); 1*t^3+-1)",
    ],
)
def test_quotient_by_needs_a_rational_base(desc, size):
    """An infinite quotient answers only over Q; a finite one always does."""
    R = make_ring(desc)
    if size is None:
        with pytest.raises(UnsupportedRing):
            R.quotient_by([R.from_int(2)])
    else:
        assert R.quotient_by([R.from_int(2)])[0].size() == size


# ---------------------------------------------------------------------------
# the coset table a finite ring's quotient_by builds


def _coset_cases():
    z4 = make_ring("zmod:4")
    W = WittRing(index_set_make("div:2"), z4)
    Zt = make_ring("quot(poly(zmod:4; t); 1*t^2+1)")
    return {
        "W2(Z4)/(2,3)": (W, [(2, 3)]),
        "Z12/(4,6)": (make_ring("zmod:12"), [4, 6]),
        "Z4[t]/(t^2+1)/(t+1)": (Zt, [Zt.raw("1*t+1")]),
        "Z4[t]/(t^2+1)/(2)": (Zt, [Zt.from_int(2)]),  # F_2[t]/((t+1)^2): t+1 is nilpotent
    }


@pytest.mark.parametrize("name", list(_coset_cases()))
def test_coset_ring_axioms_and_reduction(name):
    R, values = _coset_cases()[name]
    Q, reduce = R.quotient_by(values)
    els = list(Q.elements())
    assert len(els) == len(set(els)) == Q.size() and len(els) < R.size()
    for a in els:
        assert Q.add(a, Q.zero()) == Q.mul(a, Q.one()) == a
        assert Q.add(a, Q.neg(a)) == Q.zero()
        for b in els:
            assert Q.add(a, b) == Q.add(b, a) and Q.mul(a, b) == Q.mul(b, a)
            for c in els:
                assert Q.add(Q.add(a, b), c) == Q.add(a, Q.add(b, c))
                assert Q.mul(Q.mul(a, b), c) == Q.mul(a, Q.mul(b, c))
                assert Q.mul(a, Q.add(b, c)) == Q.add(Q.mul(a, b), Q.mul(a, c))
    # reduce is a ring map onto Q that kills the values and fixes the classes
    assert reduce(R.one()) == Q.one() and reduce(R.zero()) == Q.zero()
    assert all(reduce(v) == Q.zero() for v in values)
    assert all(reduce(a) == a for a in els)
    for a in R.elements():
        assert reduce(R.neg(a)) == Q.neg(reduce(a))
        for b in R.elements():
            assert reduce(R.add(a, b)) == Q.add(reduce(a), reduce(b))
            assert reduce(R.mul(a, b)) == Q.mul(reduce(a), reduce(b))


@pytest.mark.parametrize("name", list(_coset_cases()))
def test_coset_ring_nilpotent_index_matches_a_search(name):
    R, values = _coset_cases()[name]
    Q = R.quotient_by(values)[0]
    indices = []
    for a in Q.elements():
        # a nilpotent element's index is at most log2 |Q| < |Q|
        powers = [Q.pow(a, k) for k in range(1, Q.size() + 1)]
        expected = next((k for k, x in enumerate(powers, 1) if x == Q.zero()), None)
        assert Q.nilpotent_index(a) == expected, a
        indices.append(expected)
    if name == "Z4[t]/(t^2+1)/(2)":
        assert sorted(indices, key=str) == [1, 2, None, None]


class _CountingZMod(ZModRing):
    """Z/N that counts its additions."""

    adds = 0

    def add(self, a, b):
        self.adds += 1
        return super().add(a, b)


@pytest.mark.parametrize("n, values", [(4001, [2, 3]), (360, [8, 12, 90]), (360, [0, 45]), (12, [])])
def test_coset_ring_additions_are_linear_in_the_ring(n, values):
    # summing the ideals pairwise would make |R|^2 additions on Z/4001
    R = _CountingZMod(n)
    Q = CosetRing(R, values)
    assert R.adds <= 2 * max(len(values), 1) * n
    g = gcd(n, *values)
    assert Q.size() == g and all(Q.canonicalize(a) == a % g for a in range(n))


# ---------------------------------------------------------------------------
# the lift's reduce over Z/N against the full canonicalize

LIFTED = ["poly(zmod:4; x)", "poly(zmod:12; x,y; inv y)", "quot(poly(zmod:8; t); 1*t^3+2*t+1)"]


@pytest.mark.parametrize("desc", LIFTED)
def test_lift_reduce_matches_canonicalize(desc):
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    R = make_ring(desc)
    S, reduce = R.lift()
    poly = getattr(S, "poly", S)
    exps = st.tuples(*(st.integers(-3, 3) if inv else st.integers(0, 4) for inv in poly._inv_mask))
    values = st.lists(st.tuples(exps, st.integers(-40, 40)), max_size=7).map(S.canonicalize)

    @hypothesis.settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @hypothesis.given(values, values)
    def check(a, b):
        for v in (a, S.add(a, b), S.mul(a, b), S.neg(a)):
            assert reduce(v) == R.canonicalize(v)
        assert reduce(S.mul(a, b)) == R.mul(reduce(a), reduce(b))

    check()


# ---------------------------------------------------------------------------
# the Ring contract: every method of every ring class answers or raises a
# RingError, never a bare exception

# what every ring defines; Ring itself defines the rest of the contract
REQUIRED = ("descriptor", "zero", "one", "from_int", "add", "neg", "mul", "el_to_str", "el_from_str")


def _contract() -> list:
    public = {n for n, v in vars(Ring).items() if not n.startswith("_") and callable(v)}
    return sorted(public | set(REQUIRED))


def _contract_rings():
    z12 = make_ring("zmod:12")
    pi0 = z12.quotient_by([4])[0]
    return {
        # every form of the descriptor grammar
        "Z": INTEGERS,
        "Q": RATIONALS,
        "Z/12": z12,
        "(Z/4)[x, y^+-1]": make_ring("poly(zmod:4; x,y; inv y)"),
        "(Z/4)[t]/(t^2+1)": make_ring("quot(poly(zmod:4; t); 1*t^2+1)"),
        "Q[t]/(t^3)": make_ring("quot(poly(rationals; t); 1*t^3)"),
        # Witt vectors over a finite ring and over Z
        "W2(Z/4)": WittRing(index_set_make("div:2"), make_ring("zmod:4")),
        "W2(Z)": WittRing(index_set_make("div:2"), INTEGERS),
        # a coset table, and the coset table of a coset table
        "Z/12/(4)": pi0,
        "Z/12/(4)/(2)": pi0.quotient_by([2])[0],
    }


def _contract_calls(R):
    a, b = R.from_int(2), R.from_int(3)
    return {
        "descriptor": lambda: R.descriptor(),
        "zero": lambda: R.zero(),
        "one": lambda: R.one(),
        "from_int": lambda: R.from_int(-5),
        "add": lambda: R.add(a, b),
        "neg": lambda: R.neg(a),
        "mul": lambda: R.mul(a, b),
        "sub": lambda: R.sub(a, b),
        "pow": lambda: R.pow(a, 3),
        "canonicalize": lambda: R.canonicalize(a),
        "exact_div_int": lambda: R.exact_div_int(a, 3),
        "unit_inverse": lambda: R.unit_inverse(b),
        "int_unit_inverse": lambda: R.int_unit_inverse(5),
        "nilpotent_index": lambda: R.nilpotent_index(a),
        "lift": lambda: R.lift(),
        "quotient_by": lambda: R.quotient_by([a]),
        "divide": lambda: R.divide(a, b),
        "size": lambda: R.size(),
        "elements": lambda: list(islice(R.elements(), 8)),
        "random": lambda: R.random(random.Random(0)),
        "el_to_str": lambda: R.el_to_str(a),
        "el_from_str": lambda: R.el_from_str(R.el_to_str(b)),
        "raw": lambda: R.raw(7),
        "elem": lambda: R.elem(a),
    }


def _refusals(R) -> set:
    """The contract methods R answers with a RingError; any other error fails."""
    calls = _contract_calls(R)
    assert sorted(calls) == _contract()
    refused = set()
    for name, call in calls.items():
        try:
            call()
        except RingError:
            refused.add(name)
    return refused


@pytest.mark.parametrize("name", list(_contract_rings()))
def test_every_ring_method_answers_or_raises_a_ring_error(name):
    R = _contract_rings()[name]
    assert not _refusals(R) & set(REQUIRED)
    assert R.el_from_str(R.el_to_str(R.from_int(3))) == R.from_int(3)
    assert R.raw(R.el_to_str(R.one())) == R.one()


@pytest.mark.parametrize("name", ["Z/12/(4)", "Z/12/(4)/(2)"])
def test_coset_ring_refuses_only_what_it_cannot_compute(name):
    R = _contract_rings()[name]
    refused = {"exact_div_int", "unit_inverse", "int_unit_inverse", "divide", "lift"}
    assert _refusals(R) == refused
    for call in (lambda: R.unit_inverse(R.one()), R.lift):
        with pytest.raises(UnsupportedRing) as refusal:
            call()
        assert str(refusal.value).endswith(f"unsupported over {R.descriptor()}")


def test_a_negative_power_of_an_element_is_a_ring_error():
    with pytest.raises(RingError, match="negative powers only via unit inverses"):
        RATIONALS(2) ** -1


@pytest.mark.parametrize("exponent", [0.5, 2.0, Fraction(1, 2), "2"], ids=repr)
def test_a_non_int_power_of_an_element_is_a_ring_error(exponent):
    # a float exponent used to round: RATIONALS(2) ** 0.5 gave 1.4142135623730951
    kind = type(exponent).__name__
    with pytest.raises(RingError, match=f"^an exponent must be an int, not {kind}$"):
        RATIONALS(2) ** exponent


@pytest.mark.parametrize(
    "descriptor, text, neg",
    [
        ("zmod:12", "5", "7"),
        ("poly(rationals; x; inv x)", "1/2*x^-1+3", "-1/2*x^-1+-3"),
        ("quot(poly(zmod:6; t); 1+1*t^2)", "1+5*t", "5+1*t"),
    ],
)
def test_element_negation_hash_truth_and_repr(descriptor, text, neg):
    R = make_ring(descriptor)
    a = R(text)
    assert repr(R) == descriptor and repr(a) == text and repr(-a) == neg
    assert -a == R(neg) and (-a).ring is R and -(-a) == a
    assert a and not R(0) and not (a + -a)
    twin = R(text)
    assert twin is not a and hash(twin) == hash(a) and {a: "a"}[twin] == "a"
    assert len({a, twin, -a}) == 2
