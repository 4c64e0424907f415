import random
from fractions import Fraction

import pytest

from wittforge.indexset import IndexSet, IndexSetError
from wittforge.rings import (
    INTEGERS,
    RATIONALS,
    InexactDivision,
    RingMismatch,
    UnsupportedRing,
    make_ring,
)
from wittforge.witt import (
    DworkError,
    WittError,
    WittRing,
    dwork_check,
    frobenius,
    ghost,
    ghost_raw,
    make_witt,
    map_coords,
    random_witt,
    restrict,
    teichmuller,
    unghost,
    verschiebung,
    witt_add,
    witt_from_int,
    witt_mul,
    witt_neg,
    witt_one,
    witt_space,
    witt_sub,
    witt_unit_inverse,
    witt_zero,
)

E2 = IndexSet.divisors_of(2)
E6 = IndexSet.divisors_of(6)


def test_add_examples():
    a = make_witt(E2, INTEGERS, [1, 0])
    assert (a + a).coords == (2, -1)
    zero = witt_zero(E2, INTEGERS)
    assert a + zero == a


def test_add_functoriality_mod5():
    z5 = make_ring("zmod:5")
    rng = random.Random(5)
    for _ in range(100):
        a, b = random_witt(E2, z5, rng), random_witt(E2, z5, rng)
        lift = lambda v: make_witt(E2, INTEGERS, list(v.coords))
        direct = a + b
        lifted = map_coords(lift(a) + lift(b), lambda c: c % 5, z5)
        assert direct == lifted


def test_mul_examples():
    two = make_witt(E2, INTEGERS, [2, 0])
    three = make_witt(E2, INTEGERS, [3, 0])
    assert (two * three).coords == (6, 0)
    v = make_witt(E2, INTEGERS, [0, 1])
    assert (v * v).coords == (0, 2)
    a = make_witt(E2, INTEGERS, [5, 7])
    assert a * witt_one(E2, INTEGERS) == a


def test_ghost():
    r = INTEGERS(3)
    t = teichmuller(r, E6, INTEGERS)
    g = ghost(t)
    assert [g[n].value for n in E6] == [3, 9, 27, 729]
    assert all(v.is_zero() for v in ghost(witt_zero(E6, INTEGERS)).values())
    assert ghost_raw(make_witt(E2, INTEGERS, [0, 1])) == {1: 0, 2: 2}


def test_unghost():
    assert unghost({1: 2, 2: 2}, E2, INTEGERS).coords == (2, -1)
    rng = random.Random(11)
    for _ in range(200):
        a = random_witt(E6, RATIONALS, rng)
        assert unghost(ghost_raw(a), E6, RATIONALS) == a
    with pytest.raises(DworkError):
        unghost({1: 0, 2: 1}, E2, INTEGERS)


def test_dwork():
    rng = random.Random(3)
    for _ in range(200):
        a = random_witt(E6, INTEGERS, rng)
        assert dwork_check(ghost_raw(a), E6)
    assert not dwork_check({1: 0, 2: 1}, E2)
    assert dwork_check({n: 0 for n in E6}, E6)
    E = IndexSet.p_typical(2, 3)
    w = ghost_raw(make_witt(E, INTEGERS, [1, 2, 3, 4]))
    assert w == {1: 1, 2: 5, 4: 21, 8: 101}
    # w_8 = w_4 mod 2^(1 + v_2(4)) = 8, not only mod 2
    assert not dwork_check({**w, 8: w[8] + 4}, E)
    assert dwork_check({**w, 8: w[8] + 8}, E)


GHOST_READERS = pytest.mark.parametrize("call", [
    lambda w, E: unghost(w, E, RATIONALS),
    dwork_check,
], ids=["unghost", "dwork_check"])


@GHOST_READERS
def test_a_missing_ghost_component_is_a_witt_error(call):
    with pytest.raises(WittError, match="^the ghost vector has no component at index 2$"):
        call({1: 0}, E2)


@GHOST_READERS
@pytest.mark.parametrize("w", [[0, 1], [0, 2, 4], (0, 2)], ids=repr)
def test_a_ghost_vector_that_is_not_a_mapping_is_a_witt_error(call, w):
    # indexed by the members of E, a short sequence failed with a bare
    # IndexError and a longer one was silently misread
    kind = type(w).__name__
    with pytest.raises(WittError, match=f"^a ghost vector maps each index of E to a component, not a {kind}$"):
        call(w, E2)


def test_frobenius():
    t = teichmuller(3, E6, INTEGERS)
    for n in (2, 3, 6):
        ft = frobenius(n, t)
        assert ft == teichmuller(3**n, E6.restrict(n), INTEGERS)
    Ep = IndexSet.p_typical(2, 1)
    a = make_witt(Ep, INTEGERS, [5, 7])
    assert frobenius(2, a).coords == (5**2 + 2 * 7,)
    assert frobenius(1, a) == a
    with pytest.raises(WittError):
        frobenius(5, a)


def test_verschiebung():
    c = make_witt(E2.restrict(2), INTEGERS, [9])
    v = verschiebung(2, c, E2)
    assert v.coords == (0, 9)
    assert ghost_raw(verschiebung(2, make_witt(E2.restrict(2), INTEGERS, [1]), E2)) == {
        1: 0,
        2: 2,
    }
    # F_2 V_2 = 2 over the p-typical length-2 ring
    z9 = make_ring("zmod:9")
    rng = random.Random(2)
    for _ in range(50):
        c = random_witt(E2.restrict(2), z9, rng)
        assert frobenius(2, verschiebung(2, c, E2)) == witt_from_int(2, E2.restrict(2), z9) * c


def test_verschiebung_outside_index_set():
    # E/4 is empty for E = div:6, so V_4 has no source to take a vector from
    E6 = IndexSet.divisors_of(6)
    for source in (IndexSet.explicit([1, 3]), E6):
        a = make_witt(source, INTEGERS, [1] * len(source))
        with pytest.raises(IndexSetError):
            verschiebung(4, a, E6)


def test_frobenius_verschiebung_identities_at_larger_index_sets():
    # F_n V_n = n and the projection formula V_n(a) b = V_n(a F_n(b))
    rng = random.Random(12)
    for E in (IndexSet.divisors_of(12), IndexSet.p_typical(2, 4), IndexSet.divisors_of(30)):
        for ring in (INTEGERS, make_ring("zmod:12"), RATIONALS):
            for n in E.elements[1:]:
                En = E.restrict(n)
                for _ in range(4):
                    a = random_witt(En, ring, rng)
                    b = random_witt(E, ring, rng)
                    va = verschiebung(n, a, E)
                    assert frobenius(n, va) == witt_from_int(n, En, ring) * a
                    assert va * b == verschiebung(n, a * frobenius(n, b), E)


def test_teichmuller():
    assert teichmuller(1, E6, INTEGERS) == witt_one(E6, INTEGERS)
    rng = random.Random(4)
    z12 = make_ring("zmod:12")
    for _ in range(50):
        r, s = z12.random(rng), z12.random(rng)
        assert teichmuller(r, E6, z12) * teichmuller(s, E6, z12) == teichmuller(
            z12.mul(r, s), E6, z12
        )


def test_restrict_is_ring_map():
    rng = random.Random(6)
    z12 = make_ring("zmod:12")
    for _ in range(50):
        a, b = random_witt(E6, z12, rng), random_witt(E6, z12, rng)
        assert restrict(a + b, E2) == restrict(a, E2) + restrict(b, E2)
        assert restrict(a * b, E2) == restrict(a, E2) * restrict(b, E2)


def test_unit_solve():
    z4 = make_ring("zmod:4")
    a = make_witt(E2, z4, [3, 0])
    assert witt_unit_inverse(a) == a
    assert witt_unit_inverse(make_witt(E2, z4, [2, 1])) is None
    # over Z: (1,1) has ghost (1,3): 3 is not a unit, so not invertible
    assert witt_unit_inverse(make_witt(E2, INTEGERS, [1, 1])) is None
    # a unit over Q that is not its own inverse
    u = make_witt(E6, RATIONALS, [2, 1, 0, 3])
    b = witt_unit_inverse(u)
    assert b is not None and u * b == witt_one(E6, RATIONALS)
    assert b.coords == (Fraction(1, 2), Fraction(-1, 24), 0, Fraction(-173, 290304))


def test_mismatches():
    a = make_witt(E2, INTEGERS, [1, 0])
    b = make_witt(E6, INTEGERS, [1, 0, 0, 0])
    with pytest.raises(WittError):
        a + b
    with pytest.raises(RingMismatch):
        a + make_witt(E2, make_ring("zmod:4"), [1, 0])


_Z4, _Z5 = make_ring("zmod:4"), make_ring("zmod:5")
_MIXED = {
    "ring": (
        make_witt(E2, _Z4, [1, 1]), make_witt(E2, _Z5, [3, 3]), RingMismatch,
        "^ring mismatch: zmod:4 vs zmod:5$",
    ),
    "index set": (
        make_witt(E2, INTEGERS, [1, 0]), make_witt(E6, INTEGERS, [1, 0, 0, 0]), WittError,
        r"^index set mismatch: \{1,2\} vs \{1,2,3,6\}$",
    ),
    "non-vector": (
        make_witt(E2, INTEGERS, [1, 0]), 3, WittError, "^cannot combine WittVector with 3$",
    ),
}
_OPERATIONS = {
    "add": (witt_add, lambda a, b: a + b),
    "sub": (witt_sub, lambda a, b: a - b),
    "mul": (witt_mul, lambda a, b: a * b),
}


@pytest.mark.parametrize("mixed", sorted(_MIXED))
@pytest.mark.parametrize("op", sorted(_OPERATIONS))
def test_an_operation_and_its_operator_refuse_mixed_operands_alike(op, mixed):
    a, b, error, message = _MIXED[mixed]
    for call in _OPERATIONS[op]:
        with pytest.raises(error, match=message):
            call(a, b)


def test_negation_operator_is_witt_neg():
    rng = random.Random(11)
    for ring in (INTEGERS, RATIONALS, _Z4):
        a = random_witt(E6, ring, rng)
        assert -a == witt_neg(a) and -a + a == witt_zero(E6, ring)


def test_equal_witt_vectors_hash_equal():
    a, b = make_witt(E2, _Z4, [1, 3]), make_witt(E2, _Z4, [5, -1])
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    assert a != make_witt(E2, _Z5, [1, 3]) and a != make_witt(E2, _Z4, [3, 1])
    assert a != (1, 3)


def test_json():
    a = make_witt(E2, make_ring("zmod:4"), [1, 3])
    obj = a.to_json()
    assert obj == {"ring": "zmod:4", "index_set": [1, 2], "coords": {"1": "1", "2": "3"}}


def test_witt_ring_wrapper():
    z4 = make_ring("zmod:4")
    W = WittRing(E2, z4)
    assert W.size() == 16
    one = W.one()
    assert W.mul(one, W.from_int(3)) == W.from_int(3)
    assert W.unit_inverse(W.from_int(3)) is not None
    assert len(list(W.elements())) == 16
    assert W.el_from_str(W.el_to_str(W.from_int(3))) == W.from_int(3)


def test_witt_vectors_of_witt_vectors():
    # W_E(Z) has no additive torsion, so it is its own lift
    WZ = WittRing(E2, INTEGERS)
    assert WZ.exact_div_int(WZ.from_int(4), 2) == WZ.from_int(2)
    with pytest.raises(InexactDivision):
        WZ.exact_div_int(WZ.from_int(1), 2)
    a = make_witt(E2, WZ, ["(1,0)", "(0,1)"])
    assert (a + a).coords == (WZ.from_int(2), WZ.add(WZ.el_from_str("(0,2)"), WZ.neg(WZ.one())))
    assert a * witt_one(E2, WZ) == a
    # W_E(Z/4) is not: Witt arithmetic over it is refused
    W4 = WittRing(E2, make_ring("zmod:4"))
    with pytest.raises(UnsupportedRing):
        make_witt(E2, W4, ["(1,0)", "(0,0)"]) + make_witt(E2, W4, ["(1,0)", "(0,0)"])


def test_enumeration():
    z2 = make_ring("zmod:2")
    assert len(list(witt_space(E2, z2))) == 4


def test_arithmetic_at_a_two_prime_truncation():
    E10 = IndexSet.divisors_of(10)
    z4 = make_ring("zmod:4")
    rng = random.Random(9)
    one = witt_one(E10, z4)
    for _ in range(25):
        a, b, c = (random_witt(E10, z4, rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        assert a * one == a
        ga, gb, gab = ghost_raw(a), ghost_raw(b), ghost_raw(a * b)
        assert all(gab[n] == z4.mul(ga[n], gb[n]) for n in E10)
