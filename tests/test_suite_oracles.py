"""The axiom and operator suites against the formulations they replaced.

witt-ring-axioms, witt-operators and ring-axioms compute each sum, product
and Frobenius image a draw needs once and let every check read it, and
report each failed axiom under its own label.  The oracles below recompute
each value where a check uses it and spell the labels out.  Under planted
faults in the kernel and in a ring, both must report the same cases and the
same failures, in the same order.  A second guard counts the kernel calls of
one seed, so that recomputation cannot come back unnoticed.  A third plants
a fault in the library function each structural suite checks and asserts
that the suite reports it under that check's label.
"""

import itertools
import sys
from fractions import Fraction

import pytest

from wittforge import cone, prismatic, rings, structure, suites, witt
from wittforge.indexset import IndexSet, index_set_make
from wittforge.rings import RATIONALS, make_ring
from wittforge.suites import SuiteReport, _rng, suite_run
from wittforge.witt import (
    frobenius,
    ghost_raw,
    random_witt,
    teichmuller,
    verschiebung,
    witt_from_int,
    witt_one,
    witt_zero,
)


def oracle_ring_axioms(rep, rng):
    for ring in map(make_ring, suites._RING_AXIOM_RINGS):
        for _ in range(1000):
            raw = ring.random(rng)
            once = ring.canonicalize(raw)
            if ring.canonicalize(once) != once:
                rep.fail("canonical-idempotence", ring.el_to_str(raw))
            rep.cases += 1
        zero, one = ring.zero(), ring.one()
        for _ in range(500):
            a, b, c = (ring.random(rng) for _ in range(3))
            checks = [
                ("add-associativity",
                 ring.add(ring.add(a, b), c) == ring.add(a, ring.add(b, c))),
                ("mul-associativity",
                 ring.mul(ring.mul(a, b), c) == ring.mul(a, ring.mul(b, c))),
                ("add-commutativity", ring.add(a, b) == ring.add(b, a)),
                ("mul-commutativity", ring.mul(a, b) == ring.mul(b, a)),
                ("distributivity",
                 ring.mul(a, ring.add(b, c)) == ring.add(ring.mul(a, b), ring.mul(a, c))),
                ("add-identity", ring.add(a, zero) == ring.canonicalize(a)),
                ("mul-identity", ring.mul(a, one) == ring.canonicalize(a)),
                ("additive-inverse", ring.add(a, ring.neg(a)) == zero),
            ]
            for label, ok in checks:
                if not ok:
                    rep.fail(label, f"{ring.descriptor()}: {ring.el_to_str(a)}")
            rep.cases += 1
        for _ in range(200):
            a = ring.random(rng)
            inv = ring.unit_inverse(a)
            if inv is not None and ring.mul(a, inv) != one:
                rep.fail("unit-witness", f"{ring.descriptor()}: {ring.el_to_str(a)}")
            rep.cases += 1
    for ring in (make_ring("zmod:12"), make_ring("zmod:8"), make_ring("poly(zmod:4; x)")):
        for _ in range(200):
            a = ring.random(rng)
            k = ring.nilpotent_index(a)
            if k is not None:
                if ring.pow(a, k) != ring.zero() or (k > 1 and ring.pow(a, k - 1) == ring.zero()):
                    rep.fail("nilpotent-witness", f"{ring.descriptor()}: {ring.el_to_str(a)}^{k}")
            rep.cases += 1


def oracle_witt_ring_axioms(rep, rng):
    for rdesc in suites._AXIOM_RINGS:
        ring = make_ring(rdesc)
        for edesc in suites._AXIOM_SETS:
            E = index_set_make(edesc)
            one = witt_one(E, ring)
            zero = witt_zero(E, ring)
            for _ in range(200):
                a, b, c = (random_witt(E, ring, rng) for _ in range(3))
                ga, gb = ghost_raw(a), ghost_raw(b)
                gsum, gprod = ghost_raw(a + b), ghost_raw(a * b)
                checks = [
                    ("add-associativity", (a + b) + c == a + (b + c)),
                    ("mul-associativity", (a * b) * c == a * (b * c)),
                    ("add-commutativity", a + b == b + a),
                    ("mul-commutativity", a * b == b * a),
                    ("distributivity", a * (b + c) == a * b + a * c),
                    ("add-identity", a + zero == a),
                    ("mul-identity", a * one == a),
                    ("additive-inverse", a - a == zero),
                    ("ghost-add", all(gsum[n] == ring.add(ga[n], gb[n]) for n in E)),
                    ("ghost-mul", all(gprod[n] == ring.mul(ga[n], gb[n]) for n in E)),
                ]
                for label, ok in checks:
                    if not ok:
                        rep.fail(label, f"{rdesc} {edesc}: {a} {b} {c}")
                rep.cases += 1


def oracle_witt_operators(rep, rng):
    ring = make_ring("zmod:12")
    E = IndexSet.divisors_of(6)
    for _ in range(100):
        a, b = random_witt(E, ring, rng), random_witt(E, ring, rng)
        for n in (2, 3, 6):
            if frobenius(n, a + b) != frobenius(n, a) + frobenius(n, b):
                rep.fail("frobenius-additive", f"n={n} {a} {b}")
            if frobenius(n, a * b) != frobenius(n, a) * frobenius(n, b):
                rep.fail("frobenius-multiplicative", f"n={n} {a} {b}")
        if frobenius(2, frobenius(3, a)) != frobenius(6, a):
            rep.fail("frobenius-composition", str(a))
        if frobenius(3, frobenius(2, a)) != frobenius(6, a):
            rep.fail("frobenius-composition-swap", str(a))
        rep.cases += 1
    for p, edesc, rdesc in ((2, "ptyp:2:2", "zmod:12"), (2, "div:6", "zmod:12"), (3, "div:6", "integers")):
        ring2 = make_ring(rdesc)
        E2 = index_set_make(edesc)
        source = E2.restrict(p)
        for _ in range(100):
            x = random_witt(source, ring2, rng)
            y = random_witt(E2, ring2, rng)
            vx = verschiebung(p, x, E2)
            if frobenius(p, vx) != witt_from_int(p, source, ring2) * x:
                rep.fail("FV=p", f"p={p} {x}")
            if vx * y != verschiebung(p, x * frobenius(p, y), E2):
                rep.fail("projection-formula", f"p={p} {x} {y}")
            x2 = random_witt(source, ring2, rng)
            if verschiebung(p, x, E2) + verschiebung(p, x2, E2) != verschiebung(p, x + x2, E2):
                rep.fail("V-additive", f"p={p}")
            rep.cases += 1
    for _ in range(100):
        r, s = ring.random(rng), ring.random(rng)
        if teichmuller(r, E, ring) * teichmuller(s, E, ring) != teichmuller(
            ring.mul(r, s), E, ring
        ):
            rep.fail("teichmuller-multiplicative", f"{r} {s}")
        rep.cases += 1
    for _ in range(50):
        a = random_witt(E, RATIONALS, rng)
        g = ghost_raw(a)
        for n in (2, 3, 6):
            gf = ghost_raw(frobenius(n, a))
            for d in E.restrict(n):
                if gf[d] != g[n * d]:
                    rep.fail("ghost-frobenius", f"n={n} d={d}")
        c = random_witt(E.restrict(2), RATIONALS, rng)
        gv = ghost_raw(verschiebung(2, c, E))
        gc = ghost_raw(c)
        for m in E:
            expect = 2 * gc[m // 2] if m % 2 == 0 else Fraction(0)
            if gv[m] != expect:
                rep.fail("ghost-verschiebung", f"m={m}")
        rep.cases += 1


ORACLES = {
    "ring-axioms": oracle_ring_axioms,
    "witt-ring-axioms": oracle_witt_ring_axioms,
    "witt-operators": oracle_witt_operators,
}


def _replace(monkeypatch, module, name, new):
    """Rebind module.name to new wherever a wittforge module or this one holds it."""
    old = getattr(module, name)
    for modname, mod in list(sys.modules.items()):
        if modname.startswith("wittforge") or modname == __name__:
            if mod.__dict__.get(name) is old:
                monkeypatch.setattr(mod, name, new)


def _odd(x):
    return x.numerator % 2 == 1


def _plus_one(v):
    return witt._ghostwise("add", v, witt_one(v.index_set, v.ring))


def _odd_product_is_off_by_one(monkeypatch):
    """witt_mul adds 1 when both first coordinates are odd."""
    mul = witt.witt_mul

    def faulty(a, b):
        ab = mul(a, b)
        return _plus_one(ab) if _odd(a.coords[0]) and _odd(b.coords[0]) else ab

    _replace(monkeypatch, witt, "witt_mul", faulty)
    monkeypatch.setattr(suites, "_AXIOM_RINGS", ("zmod:4",))
    monkeypatch.setattr(suites, "_AXIOM_SETS", ("div:6",))
    return ("witt-ring-axioms", "witt-operators")


def _witt_mul_is_not_commutative(monkeypatch):
    """a*b gains 1 unless a <= b as coordinate tuples."""
    mul = witt.witt_mul

    def faulty(a, b):
        ab = mul(a, b)
        return ab if a.coords <= b.coords else _plus_one(ab)

    _replace(monkeypatch, witt, "witt_mul", faulty)
    monkeypatch.setattr(suites, "_AXIOM_RINGS", ("zmod:4",))
    monkeypatch.setattr(suites, "_AXIOM_SETS", ("div:6",))
    return ("witt-ring-axioms",)


def _frobenius_3_is_off_by_one(monkeypatch):
    """F_3 adds 1 when the last coordinate is odd."""
    frob = witt.frobenius

    def faulty(n, a):
        fa = frob(n, a)
        return _plus_one(fa) if n == 3 and _odd(a.coords[-1]) else fa

    _replace(monkeypatch, witt, "frobenius", faulty)
    return ("witt-operators",)


def _poly_xy_mul_is_not_commutative(monkeypatch):
    """On poly(integers; x,y), a*b gains 1 unless a <= b as raw values."""
    target = make_ring("poly(integers; x,y)")
    mul = rings.PolyRing.mul

    def faulty(self, a, b):
        ab = mul(self, a, b)
        return ab if self != target or a <= b else self.add(ab, self.one())

    monkeypatch.setattr(rings.PolyRing, "mul", faulty)
    monkeypatch.setattr(suites, "_RING_AXIOM_RINGS", ("integers", "poly(integers; x,y)"))
    return ("ring-axioms",)


@pytest.mark.parametrize(
    "plant",
    [_odd_product_is_off_by_one, _witt_mul_is_not_commutative, _frobenius_3_is_off_by_one,
     _poly_xy_mul_is_not_commutative],
)
def test_a_planted_fault_reads_the_same_in_suite_and_oracle(monkeypatch, plant):
    for name in plant(monkeypatch):
        rep = suite_run(name, 5)
        expected = SuiteReport(name)
        ORACLES[name](expected, _rng(5, name))
        assert rep.failures, name
        assert rep.to_json() == expected.to_json(), name


@pytest.mark.parametrize("plant, name, label", [
    (_witt_mul_is_not_commutative, "witt-ring-axioms", "mul-commutativity"),
    (_odd_product_is_off_by_one, "witt-ring-axioms", "ghost-mul"),
    (_poly_xy_mul_is_not_commutative, "ring-axioms", "mul-commutativity"),
])
def test_a_broken_axiom_fails_under_its_own_label(monkeypatch, plant, name, label):
    plant(monkeypatch)
    labels = {f["case"] for f in suite_run(name, 5).failures}
    assert label in labels and not labels & {"ring-axioms", "witt-axioms"}


def _counting(monkeypatch, counts):
    for name in counts:
        fn = getattr(witt, name)

        def counted(*args, _fn=fn, _name=name):
            counts[_name] += 1
            return _fn(*args)

        _replace(monkeypatch, witt, name, counted)


def test_the_axiom_and_operator_suites_compute_each_value_once(monkeypatch):
    # entries, a kernel call over Q entering _ghostwise and frobenius twice:
    # once over Q and once over Z on the Teichmuller-scaled operands
    counts = {"_ghostwise": 0, "frobenius": 0, "ghost_raw": 0}
    _counting(monkeypatch, counts)
    assert suite_run("witt-ring-axioms", 0).ok()
    # 1,600 draws of 16 ring operations and 4 ghosts, 400 of them over Q
    assert counts == {"_ghostwise": (1600 + 400) * 16, "frobenius": 0, "ghost_raw": 1600 * 4}
    counts.update(dict.fromkeys(counts, 0))
    assert suite_run("witt-operators", 0).ok()
    # 100 draws of 8 ring operations and 14 Frobenius images on Z/12; 300 of
    # 5 and 2 for F_p V_p and V; 100 Teichmuller products; 50 over Q of 3
    # Frobenius images and 6 ghosts
    assert counts == {
        "_ghostwise": 100 * 8 + 300 * 5 + 100,
        "frobenius": 100 * 14 + 300 * 2 + 50 * 3 * 2,
        "ghost_raw": 50 * 6,
    }


def _hodge_tate_holds_at_zero(monkeypatch):
    """is_hodge_tate also holds at 0, which no Witt vector kills alone."""
    ht = structure.is_hodge_tate
    _replace(monkeypatch, structure, "is_hodge_tate", lambda v, ctx: v.is_zero() or ht(v, ctx))
    return "hodge-tate-equivalences", "ht-vs-V(unit)"


def _recompose_is_off_by_one(monkeypatch):
    """local_recompose adds 1 when the last coordinate comes out odd."""
    recompose = structure.local_recompose

    def faulty(d):
        a = recompose(d)
        return _plus_one(a) if _odd(a.coords[-1]) else a

    _replace(monkeypatch, structure, "local_recompose", faulty)
    return "local-decomposition", "roundtrip"


def _unit_inverse_is_off_by_one(monkeypatch):
    """witt_unit_inverse returns an inverse 1 too large when the unit's last coordinate is odd."""
    unit_inverse = witt.witt_unit_inverse

    def faulty(a):
        inv = unit_inverse(a)
        return _plus_one(inv) if inv is not None and _odd(a.coords[-1]) else inv

    _replace(monkeypatch, witt, "witt_unit_inverse", faulty)
    return "witt-unit", "unit-witness"


def _wf_misses_odd_last_coordinates(monkeypatch):
    """is_in_wf misses the members whose last coordinate is odd."""
    in_wf = structure.is_in_wf
    _replace(monkeypatch, structure, "is_in_wf", lambda a: in_wf(a) and not _odd(a.coords[-1]))
    return "wf-annihilator", "wf-vs-killsVW"


def _cone_product_is_not_commutative(monkeypatch):
    """u*v at a cone level gains 1 in degree 0 unless u <= v."""
    level_mul = cone.cone_level_mul

    def faulty(q, u, v):
        uv = level_mul(q, u, v)
        return uv if u <= v else (q.ring.add(uv[0], q.ring.one()),) + uv[1:]

    _replace(monkeypatch, cone, "cone_level_mul", faulty)
    return "cone-laws", "commutativity"


def _witt_points_miss_zero(monkeypatch):
    """witt_points leaves out the point that sends every generator to 0."""
    points = prismatic.witt_points

    def faulty(B, E, ring, cap=rings.ENUM_CAP):
        return [p for p in points(B, E, ring, cap=cap) if not all(w.is_zero() for w in p)]

    _replace(monkeypatch, prismatic, "witt_points", faulty)
    return "prismatic-points", "witt-points-idempotents"


@pytest.mark.parametrize("plant", [
    _hodge_tate_holds_at_zero, _recompose_is_off_by_one, _unit_inverse_is_off_by_one,
    _wf_misses_odd_last_coordinates, _cone_product_is_not_commutative, _witt_points_miss_zero,
])
def test_a_structural_suite_fails_under_the_label_of_the_broken_check(monkeypatch, plant):
    name, label = plant(monkeypatch)
    labels = {f["case"] for f in suite_run(name, 5).failures}
    assert label in labels, (name, labels)


def test_a_suite_report_reads_no_clock(monkeypatch):
    """verify's output does not depend on the host's load: with a clock that
    advances 2 s per reading, v-nonfree reports what it reports on a real one.
    Its 1 s bound is acceptance criterion 7, not a suite check."""
    expected = suite_run("v-nonfree", 42).to_json()
    monkeypatch.setattr(suites.time, "monotonic", itertools.count(0.0, 2.0).__next__)
    assert suite_run("v-nonfree", 42).to_json() == expected
