import random

import pytest

from wittforge.cone import (
    ConeError,
    FreeModule,
    QuasiIdeal,
    UnsupportedRing,
    cone_hom_set,
    cone_level_mul,
    cone_level_one,
    cone_pi0,
    quasi_ideal_check,
)
from wittforge.indexset import IndexSet
from wittforge.rings import INTEGERS, RATIONALS, ValidationError, make_ring
from wittforge.sparsepoly import IntPoly
from wittforge.witt import WittRing


def test_law_ideal_always_holds():
    q = QuasiIdeal.from_ideal(INTEGERS, [3])
    assert quasi_ideal_check(q) == (True, None)


def test_law_rank_one():
    q = QuasiIdeal.rank_one(INTEGERS, 7)
    assert quasi_ideal_check(q)[0]


def test_law_negative_control():
    R = make_ring("poly(integers; a,b)")
    q = QuasiIdeal(FreeModule(R, 2), [R.variable("a"), R.variable("b")])
    ok, witness = quasi_ideal_check(q)
    assert not ok and witness is not None
    # commutativity fails exactly when the law does
    e1 = (R.zero(), (R.one(), R.zero()))
    e2 = (R.zero(), (R.zero(), R.one()))
    assert cone_level_mul(q, e1, e2) != cone_level_mul(q, e2, e1)


def test_level_arithmetic_worked_example():
    q = QuasiIdeal.rank_one(INTEGERS, 2)
    assert cone_level_mul(q, (1, (3,)), (2, (5,))) == (2, (41,))
    assert cone_level_mul(q, (3, (0,)), (4, (0,))) == (12, (0,))
    assert cone_level_mul(q, (0, (3,)), (0, (5,))) == (0, (30,))


def test_level_mul_refuses_two_levels():
    # a product across R_3 and R_2 used to truncate to (2, (41,))
    q = QuasiIdeal.rank_one(INTEGERS, 2)
    with pytest.raises(ConeError):
        cone_level_mul(q, (1, (3,), (4,)), (2, (5,)))
    with pytest.raises(ConeError):
        cone_level_mul(q, (1,), (2, (5,)))


def test_a_quasi_ideal_takes_its_ring_from_its_module():
    z4 = make_ring("zmod:4")
    q = QuasiIdeal(FreeModule(z4, 1), [6])
    assert q.ring is z4 and q.d_gens == [2]
    assert QuasiIdeal.from_ideal(INTEGERS, [3]).ring is INTEGERS
    # the ring is no longer a second argument that could disagree with the module's
    with pytest.raises(TypeError):
        QuasiIdeal(INTEGERS, FreeModule(z4, 1), [2])
    with pytest.raises(AttributeError):
        q.ring = INTEGERS


def test_level_axioms_random():
    rng = random.Random(23)
    z4 = make_ring("zmod:4")
    for q in (QuasiIdeal.rank_one(INTEGERS, 2), QuasiIdeal.rank_one(z4, 2)):
        for n in (2, 3):
            one = cone_level_one(q, n)
            for _ in range(100):
                u = (q.ring.random(rng),) + tuple(
                    (q.ring.random(rng),) for _ in range(n - 1)
                )
                v = (q.ring.random(rng),) + tuple(
                    (q.ring.random(rng),) for _ in range(n - 1)
                )
                w = (q.ring.random(rng),) + tuple(
                    (q.ring.random(rng),) for _ in range(n - 1)
                )
                assert cone_level_mul(q, u, v) == cone_level_mul(q, v, u)
                assert cone_level_mul(q, cone_level_mul(q, u, v), w) == cone_level_mul(
                    q, u, cone_level_mul(q, v, w)
                )
                assert cone_level_mul(q, u, one) == u


def _image(q) -> set:
    """im d, by applying d to every element of a finite module."""
    return {q.d(x) for x in q.module.elements()}


def test_pi0():
    assert cone_pi0(QuasiIdeal.rank_one(INTEGERS, 2)).descriptor() == "zmod:2"
    assert cone_pi0(QuasiIdeal.rank_one(INTEGERS, 0)).descriptor() == "integers"
    p = cone_pi0(QuasiIdeal.from_ideal(INTEGERS, [3]))
    assert p.descriptor() == "zmod:3"
    z4 = make_ring("zmod:4")
    q4 = QuasiIdeal.rank_one(z4, 2)
    p4 = cone_pi0(q4)
    assert p4.size() == 2 and list(p4.elements()) == [0, 1] and _image(q4) == {0, 2}


def test_gadr_points():
    # points of the de Rham affine line: the cone of eta: R*e -> R, pi0 = R/(eta)
    R = make_ring("quot(poly(rationals; t); 1*t^3)")
    assert cone_pi0(QuasiIdeal.rank_one(R, R.variable("t"))).descriptor() == (
        "quot(poly(rationals; t); 1*t)"
    )
    assert cone_pi0(QuasiIdeal.rank_one(R, R.one())).size() == 1
    assert cone_pi0(QuasiIdeal.rank_one(R, R.zero())).descriptor() == R.descriptor()


def test_pi0_witt_coefficients():
    z4 = make_ring("zmod:4")
    W = WittRing(IndexSet.divisors_of(2), z4)
    q = QuasiIdeal.rank_one(W, W.from_int(2))
    assert cone_pi0(q).size() * len(_image(q)) == 16


def _scan_class_of(ring, classes, image, r):
    """Slow oracle: the first class whose representative differs from r by an
    element of im d, or None."""
    for i, rep in enumerate(classes):
        if ring.sub(r, rep) in image:
            return i
    return None


def _class_of_cases():
    z4, z12 = make_ring("zmod:4"), make_ring("zmod:12")
    W2 = WittRing(IndexSet.divisors_of(2), z4)
    W124 = WittRing(IndexSet.p_typical(2, 2), z4)
    return [
        (QuasiIdeal.rank_one(W2, (2, 3)), [(0, 0, 0), [0, 0]], [(0, 4), (4, -1)]),
        (QuasiIdeal.rank_one(W124, (2, 1, 0)), [(0, 0), (0, 0, "1")], [(0, 0, 4)]),
        (QuasiIdeal(FreeModule(z12, 2), [4, 6]), ["1", 0.5], [12, -1]),
    ]


@pytest.mark.parametrize(
    "q,outside,uncanonical", _class_of_cases(), ids=["W2(Z4)", "W124(Z4)", "Z12"]
)
def test_pi0_class_of_matches_coset_scan(q, outside, uncanonical):
    image, classes = _image(q), []
    for r in q.ring.elements():
        if _scan_class_of(q.ring, classes, image, r) is None:
            classes.append(r)
    p, reduce = q.ring.quotient_by(q.d_gens)
    assert list(p.elements()) == classes and p.size() == len(classes)
    for r in q.ring.elements():
        assert reduce(r) == classes[_scan_class_of(q.ring, classes, image, r)], r
    # reduce canonicalizes first, and refuses what is not a value of the ring
    for r in uncanonical:
        assert reduce(r) == reduce(q.ring.canonicalize(r))
    for r in outside:
        with pytest.raises(ValidationError):
            reduce(r)



# ---------------------------------------------------------------------------
# pi0 is a ring in its own right: its arithmetic against the base ring's,
# followed by the reduction onto pi0


def _pi0_cases():
    W2 = WittRing(IndexSet.divisors_of(2), make_ring("zmod:4"))
    return {
        "W2(Z4)/(2,3)": QuasiIdeal.rank_one(W2, (2, 3)),
        "Z12/(4)": QuasiIdeal.rank_one(make_ring("zmod:12"), 4),
    }


def _random_poly(rng, nvars):
    terms = {tuple(rng.randint(0, 4) for _ in range(nvars)): rng.randint(-20, 20) for _ in range(6)}
    return IntPoly(nvars, terms)


@pytest.mark.parametrize("name", list(_pi0_cases()))
def test_pi0_evaluation_is_base_evaluation_reduced(name):
    q = _pi0_cases()[name]
    pi0 = cone_pi0(q)
    reduce = q.ring.quotient_by(q.d_gens)[1]
    elements = list(q.ring.elements())
    rng = random.Random(16)
    for _ in range(30):
        f = _random_poly(rng, nvars := rng.randint(1, 3))
        values = [rng.choice(elements) for _ in range(nvars)]
        assert f.evaluate(pi0, [reduce(v) for v in values]) == reduce(f.evaluate(q.ring, values))


@pytest.mark.parametrize("name", list(_pi0_cases()))
def test_pi0_parses_prints_and_draws_its_own_values(name):
    pi0 = cone_pi0(_pi0_cases()[name])
    classes = list(pi0.elements())
    assert all(pi0.el_from_str(pi0.el_to_str(a)) == a for a in classes)
    rng = random.Random(16)
    assert all(pi0.random(rng) in classes for _ in range(50))
    assert pi0(3).value == pi0.from_int(3) == pi0.add(pi0.one(), pi0.from_int(2))
    # one nested quotient built twice is one ring; another one is not
    halves = [pi0.quotient_by([pi0.from_int(2)])[0] for _ in range(2)]
    assert halves[0] is not halves[1] and halves[0] == halves[1]
    assert hash(halves[0]) == hash(halves[1]) and repr(halves[0]) == repr(halves[1])
    assert halves[0] != pi0.quotient_by([pi0.from_int(3)])[0]

def test_ideal_module_over_finite_ring():
    z12 = make_ring("zmod:12")
    q = QuasiIdeal.from_ideal(z12, [4])
    assert [r for r in range(12) if cone_hom_set(q, 0, r)] == [0, 4, 8]
    assert cone_hom_set(q, 0, 4) == [4]
    assert cone_hom_set(q, 0, 1) == []
    assert cone_pi0(q).size() == 4
    with pytest.raises(UnsupportedRing):
        q.module.elements()  # hom sets come from R/I, not from listing I


@pytest.mark.parametrize("gens", [[4], [6, 4], [0]])
def test_ideal_built_once_per_module(monkeypatch, gens):
    z12 = make_ring("zmod:12")
    calls = []
    quotient_by = z12.quotient_by

    def counting(values):
        calls.append(values)
        return quotient_by(values)

    monkeypatch.setattr(z12, "quotient_by", counting)
    members = {(g * r) % 12 for g in gens for r in range(12)}
    members = sorted({(a + b) % 12 for a in members for b in members}, key=repr)
    for r1 in range(12):
        for r2 in range(12):
            q = QuasiIdeal.from_ideal(z12, gens)
            before = len(calls)
            homs = cone_hom_set(q, r1, r2)
            assert len(calls) == before + 1
            assert homs == [x for x in members if x == (r2 - r1) % 12]
    # a module reused across calls builds its quotient only the first time
    q = QuasiIdeal.from_ideal(z12, gens)
    before = len(calls)
    assert [r2 for r2 in range(12) if cone_hom_set(q, 0, r2)] == sorted(members)
    assert len(calls) == before + 1


def test_hom_sets():
    q = QuasiIdeal.rank_one(INTEGERS, 2)
    assert cone_hom_set(q, 0, 4) == [(2,)]
    assert cone_hom_set(q, 0, 3) == []
    z4 = make_ring("zmod:4")
    q4 = QuasiIdeal.rank_one(z4, 2)
    assert sorted(cone_hom_set(q4, 0, 2)) == [(1,), (3,)]
    # injective d: trivial isotropy
    q3 = QuasiIdeal.from_ideal(INTEGERS, [3])
    assert cone_hom_set(q3, 5, 5) == [0]
    assert cone_hom_set(q3, 0, 3) == [3]
    assert cone_hom_set(q3, 0, 1) == []


def test_groupoid_composition():
    z4 = make_ring("zmod:4")
    q = QuasiIdeal.rank_one(z4, 2)
    for r1 in range(4):
        for r2 in range(4):
            for r3 in range(4):
                h13 = cone_hom_set(q, r1, r3)
                for x in cone_hom_set(q, r1, r2):
                    for y in cone_hom_set(q, r2, r3):
                        assert tuple(z4.add(a, b) for a, b in zip(x, y)) in h13


def test_pi0_unsupported():
    with pytest.raises(UnsupportedRing):
        cone_pi0(QuasiIdeal.rank_one(make_ring("poly(integers; x)"), 2))


def test_pi0_of_a_large_finite_ring_is_refused():
    # listing Z/200001 and a dict over it is past the enumeration cap
    with pytest.raises(UnsupportedRing, match="200001 elements"):
        cone_pi0(QuasiIdeal.rank_one(make_ring("zmod:200001"), 2))


def test_pi0_univariate_rational_quotients():
    r = make_ring("quot(poly(rationals; t); 1*t^3)")

    def pi0(q):
        return cone_pi0(q).descriptor()

    assert pi0(QuasiIdeal.rank_one(r, r("1*t").value)) == "quot(poly(rationals; t); 1*t)"
    assert pi0(QuasiIdeal.rank_one(r, 0)) == "quot(poly(rationals; t); 1*t^3)"
    assert pi0(QuasiIdeal.rank_one(r, r("1+1*t").value)) == "quot(poly(rationals; t); 1)"
    # (t-1)(t-2)(t+1): the ideal of (t-1)(t-2) and (t-1)(t+1) is (t-1)
    s = make_ring("quot(poly(rationals; t); 1*t^3+-2*t^2+-1*t+2)")
    q = QuasiIdeal.from_ideal(s, [s("1*t^2+-3*t+2").value, s("1*t^2+-1").value])
    assert pi0(q) == "quot(poly(rationals; t); -1+1*t)"
    # a unit d kills everything; the zero ring keeps its fixed descriptor
    u = make_ring("quot(poly(rationals; u); 1*u^2+1)")
    assert pi0(QuasiIdeal.rank_one(u, u("1+1*u").value)) == "quot(poly(rationals; t); 1)"


@pytest.mark.parametrize("ring,r", [(INTEGERS, 0), (RATIONALS, "1/2")])
def test_an_infinite_hom_set_is_refused(ring, r):
    # d = 0: every x lies in Hom(r, r), which is the whole ring
    q = QuasiIdeal.rank_one(ring, 0)
    with pytest.raises(UnsupportedRing):
        cone_hom_set(q, r, r)
    assert cone_hom_set(q, 0, 1) == []


def test_ideal_hom_sets_over_a_rational_quotient():
    r = make_ring("quot(poly(rationals; t); 1*t^2)")
    q = QuasiIdeal.from_ideal(r, ["1*t"])
    t = r.raw("1*t")
    assert cone_hom_set(q, 0, t) == [t]
    assert cone_hom_set(q, 0, 1) == []
    assert cone_hom_set(QuasiIdeal.from_ideal(INTEGERS, [4, 6]), 1, 3) == [2]
    assert cone_hom_set(QuasiIdeal.from_ideal(RATIONALS, [0]), "1/2", "1/2") == [0]


def test_pi0_over_a_non_field_quotient_is_refused():
    r = make_ring("quot(poly(integers; t); 1*t^2+1)")
    with pytest.raises(UnsupportedRing):
        cone_pi0(QuasiIdeal.rank_one(r, 2))
