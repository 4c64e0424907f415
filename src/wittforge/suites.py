"""Named verification suites behind `verify`.

Each suite runs one module's invariant list and records the cases run and
any counterexamples found.  A suite is named once, by its key in SUITES:
suite_run builds the report under that name and hands the suite the report,
a generator seeded from (seed, name).  Everything here is deterministic
given the seed.
"""

from __future__ import annotations

import time
import zlib
from dataclasses import dataclass, field
from fractions import Fraction
from random import Random

from . import cone as cone_mod
from . import derham as derham_mod
from . import filtration as filt_mod
from . import prismatic as pris_mod
from . import structure as struct_mod
from .indexset import IndexSet, index_set_make
from .numutil import WittforgeError, binomial, divisors
from .rings import (
    ENUM_CAP,
    INTEGERS,
    RATIONALS,
    InexactDivision,
    elem_is_nilpotent,
    elem_is_unit,
    make_ring,
)
from .sparsepoly import IntPoly
from .universal import _ghost_target, get_universal, integrality_report
from .witt import (
    WittRing,
    dwork_check,
    frobenius,
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
    witt_one,
    witt_space,
    witt_unit_inverse,
    witt_zero,
)


@dataclass
class SuiteReport:
    name: str
    cases: int = 0
    failures: list = field(default_factory=list)
    seconds: float = 0.0

    def ok(self):
        return not self.failures

    def fail(self, case, detail):
        self.failures.append({"case": case, "detail": str(detail)})

    def to_json(self, with_timing=False):
        out = {
            "suite": self.name,
            "cases": self.cases,
            "failures": self.failures,
            "passed": self.ok(),
        }
        if with_timing:
            out["seconds"] = round(self.seconds, 3)
        return out


def _rng(seed, name):
    return Random(seed ^ zlib.crc32(name.encode()))


# ---------------------------------------------------------------------------
# ring_core


_RING_AXIOM_RINGS = (
    "integers",
    "rationals",
    "zmod:12",
    "zmod:4",
    "poly(integers; x,y)",
    "poly(rationals; x; inv x)",
    "quot(poly(rationals; t); 1*t^3)",
)


# one failure label per ring axiom, in the order the axiom suites check them
_AXIOM_LABELS = (
    "add-associativity",
    "mul-associativity",
    "add-commutativity",
    "mul-commutativity",
    "distributivity",
    "add-identity",
    "mul-identity",
    "additive-inverse",
)


def suite_ring_axioms(rep, rng):
    for ring in map(make_ring, _RING_AXIOM_RINGS):
        for _ in range(1000):
            raw = ring.random(rng)
            once = ring.canonicalize(raw)
            if ring.canonicalize(once) != once:
                rep.fail("canonical-idempotence", ring.el_to_str(raw))
            rep.cases += 1
        zero, one = ring.zero(), ring.one()
        for _ in range(500):
            a, b, c = (ring.random(rng) for _ in range(3))
            ab_sum, bc_sum = ring.add(a, b), ring.add(b, c)
            ab_prod, bc_prod = ring.mul(a, b), ring.mul(b, c)
            a_canon = ring.canonicalize(a)
            checks = (
                ring.add(ab_sum, c) == ring.add(a, bc_sum),
                ring.mul(ab_prod, c) == ring.mul(a, bc_prod),
                ab_sum == ring.add(b, a),
                ab_prod == ring.mul(b, a),
                ring.mul(a, bc_sum) == ring.add(ab_prod, ring.mul(a, c)),
                ring.add(a, zero) == a_canon,
                ring.mul(a, one) == a_canon,
                ring.add(a, ring.neg(a)) == zero,
            )
            for label, ok in zip(_AXIOM_LABELS, checks):
                if not ok:
                    rep.fail(label, f"{ring.descriptor()}: {ring.el_to_str(a)}")
            rep.cases += 1
        for _ in range(200):
            a = ring.elem(ring.random(rng))
            ok, inv = elem_is_unit(a)
            if ok and a * inv != ring.elem(one):
                rep.fail("unit-witness", f"{ring.descriptor()}: {a}")
            rep.cases += 1
    for ring in (make_ring("zmod:12"), make_ring("zmod:8"), make_ring("poly(zmod:4; x)")):
        for _ in range(200):
            a = ring.elem(ring.random(rng))
            ok, k = elem_is_nilpotent(a)
            if ok:
                if (a**k).value != ring.zero() or (k > 1 and (a ** (k - 1)).value == ring.zero()):
                    rep.fail("nilpotent-witness", f"{ring.descriptor()}: {a}^{k}")
            rep.cases += 1


# ---------------------------------------------------------------------------
# witt_core


_AXIOM_RINGS = ("integers", "zmod:12", "zmod:4", "rationals")
_AXIOM_SETS = ("div:6", "ptyp:2:3")


def suite_witt_ring_axioms(rep, rng):
    for rdesc in _AXIOM_RINGS:
        ring = make_ring(rdesc)
        for edesc in _AXIOM_SETS:
            E = index_set_make(edesc)
            one = witt_one(E, ring)
            zero = witt_zero(E, ring)
            for _ in range(200):
                a, b, c = (random_witt(E, ring, rng) for _ in range(3))
                ab_sum, bc_sum = a + b, b + c
                ab_prod, bc_prod = a * b, b * c
                ga, gb = ghost_raw(a), ghost_raw(b)
                gsum, gprod = ghost_raw(ab_sum), ghost_raw(ab_prod)
                checks = (
                    ab_sum + c == a + bc_sum,
                    ab_prod * c == a * bc_prod,
                    ab_sum == b + a,
                    ab_prod == b * a,
                    a * bc_sum == ab_prod + a * c,
                    a + zero == a,
                    a * one == a,
                    a - a == zero,
                    all(gsum[n] == ring.add(ga[n], gb[n]) for n in E),
                    all(gprod[n] == ring.mul(ga[n], gb[n]) for n in E),
                )
                for label, ok in zip(_AXIOM_LABELS + ("ghost-add", "ghost-mul"), checks):
                    if not ok:
                        rep.fail(label, f"{rdesc} {edesc}: {a} {b} {c}")
                rep.cases += 1


def suite_witt_operators(rep, rng):
    ring = make_ring("zmod:12")
    E = IndexSet.divisors_of(6)
    for _ in range(100):
        a, b = random_witt(E, ring, rng), random_witt(E, ring, rng)
        ab_sum, ab_prod = a + b, a * b
        fa = {}
        for n in (2, 3, 6):
            fa[n], fb = frobenius(n, a), frobenius(n, b)
            if frobenius(n, ab_sum) != fa[n] + fb:
                rep.fail("frobenius-additive", f"n={n} {a} {b}")
            if frobenius(n, ab_prod) != fa[n] * fb:
                rep.fail("frobenius-multiplicative", f"n={n} {a} {b}")
        if frobenius(2, fa[3]) != fa[6]:
            rep.fail("frobenius-composition", str(a))
        if frobenius(3, fa[2]) != fa[6]:
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
            if vx + verschiebung(p, x2, E2) != verschiebung(p, x + x2, E2):
                rep.fail("V-additive", f"p={p}")
            rep.cases += 1
    for _ in range(100):
        r, s = ring.random(rng), ring.random(rng)
        if teichmuller(r, E, ring) * teichmuller(s, E, ring) != teichmuller(
            ring.mul(r, s), E, ring
        ):
            rep.fail("teichmuller-multiplicative", f"{r} {s}")
        rep.cases += 1
    # ghost rules for F and V
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


def suite_witt_integrality(rep, rng):
    specs = [
        IndexSet.divisors_of(30),
        IndexSet.p_typical(2, 4),
        IndexSet.p_typical(3, 4),
        IndexSet.p_typical(5, 4),
    ]
    try:
        details = integrality_report(specs)
    except InexactDivision as e:
        rep.fail("inexact-division", e)
        return
    rep.cases += sum(len(d["materialized"]) + len(d["certified"]) for d in details)
    # frozen small forms
    E2 = IndexSet.divisors_of(2)
    s = get_universal(E2, "sum")
    m = get_universal(E2, "product")
    s2 = IntPoly(4, {(0, 1, 0, 0): 1, (0, 0, 0, 1): 1, (1, 0, 1, 0): -1})
    m2 = IntPoly(4, {(2, 0, 0, 1): 1, (0, 1, 2, 0): 1, (0, 1, 0, 1): 2})
    if s.poly(2) != s2:
        rep.fail("s2-form", repr(s.poly(2)))
    if m.poly(2) != m2:
        rep.fail("m2-form", repr(m.poly(2)))
    rep.cases += 2
    # negation family: s(x, neg(x)) = 0 symbolically
    for E in (IndexSet.divisors_of(6), IndexSet.p_typical(2, 2)):
        k = len(E)
        sfam = get_universal(E, "sum")
        nfam = get_universal(E, "negation")
        xs = [IntPoly.var(k, i) for i in range(k)]
        negs = [nfam.poly(n) for n in E]
        for n in E:
            composed = sfam.poly(n).substitute(xs + negs)
            if composed.terms:
                rep.fail("negation-law", f"E={E} n={n}")
            rep.cases += 1
    # ghost compatibility, symbolically on small sets
    for E in (IndexSet.divisors_of(6), IndexSet.p_typical(2, 2)):
        k = len(E)
        for op in ("sum", "product"):
            fam = get_universal(E, op)
            for n in E:
                lhs = IntPoly(2 * k)
                for d in divisors(n):
                    if d in E:
                        lhs = lhs + d * (fam.poly(d) ** (n // d))
                if lhs != _ghost_target(E, op, n):
                    rep.fail("ghost-compatibility", f"E={E} {op} n={n}")
                rep.cases += 1


def suite_witt_ghost_dwork(rep, rng):
    E = IndexSet.divisors_of(6)
    for _ in range(200):
        a = random_witt(E, RATIONALS, rng)
        g = ghost_raw(a)
        if unghost(g, E, RATIONALS) != a:
            rep.fail("unghost-ghost", str(a))
        rep.cases += 1
    for _ in range(200):
        a = random_witt(E, INTEGERS, rng)
        g = ghost_raw(a)
        if not dwork_check(g, E):
            rep.fail("dwork-soundness", str(a))
        elif unghost(g, E, INTEGERS) != a:
            rep.fail("ghost-unghost-integral", str(a))
        rep.cases += 1
    E2 = IndexSet.divisors_of(2)
    if dwork_check({1: 0, 2: 1}, E2):
        rep.fail("dwork-negative", "(0,1)")
    rep.cases += 1


def suite_witt_functoriality(rep, rng):
    z12, z4 = make_ring("zmod:12"), make_ring("zmod:4")
    maps = [
        (INTEGERS, z12, lambda v: v % 12),
        (z12, z4, lambda v: v % 4),
        (INTEGERS, RATIONALS, Fraction),
    ]
    E = IndexSet.divisors_of(6)
    for src, tgt, f in maps:
        for _ in range(50):
            a, b = random_witt(E, src, rng), random_witt(E, src, rng)
            fa, fb = map_coords(a, f, tgt), map_coords(b, f, tgt)
            if map_coords(a + b, f, tgt) != fa + fb or map_coords(a * b, f, tgt) != fa * fb:
                rep.fail("pushforward-ring-ops", f"{src.descriptor()}->{tgt.descriptor()}")
            if map_coords(frobenius(2, a), f, tgt) != frobenius(2, fa):
                rep.fail("pushforward-frobenius", str(a))
            c = random_witt(E.restrict(3), src, rng)
            if map_coords(verschiebung(3, c, E), f, tgt) != verschiebung(
                3, map_coords(c, f, tgt), E
            ):
                rep.fail("pushforward-verschiebung", str(c))
            rep.cases += 1
    # restriction maps are ring maps
    E_sub = IndexSet.divisors_of(2)
    for _ in range(100):
        a, b = random_witt(E, z12, rng), random_witt(E, z12, rng)
        ra, rb = restrict(a, E_sub), restrict(b, E_sub)
        if restrict(a + b, E_sub) != ra + rb:
            rep.fail("restriction-add", str(a))
        if restrict(a * b, E_sub) != ra * rb:
            rep.fail("restriction-mul", str(a))
        rep.cases += 1
    # composite presentation: W_{div 6}(Q) ~ W_{div 2}(W_{div 3}(Q)) via ghosts
    E2, E3 = IndexSet.divisors_of(2), IndexSet.divisors_of(3)
    inner = WittRing(E3, RATIONALS)

    def compose(a):
        outer_ghost = {}
        g = ghost_raw(a)
        for d in E2:
            w_d = unghost({e: g[d * e] for e in E3}, E3, RATIONALS)
            outer_ghost[d] = inner.wrap(w_d)
        return unghost(outer_ghost, E2, inner)

    for _ in range(30):
        a, b = random_witt(E, RATIONALS, rng), random_witt(E, RATIONALS, rng)
        ca, cb = compose(a), compose(b)
        if compose(a + b) != ca + cb:
            rep.fail("composite-additive", str(a))
        if compose(a * b) != ca * cb:
            rep.fail("composite-multiplicative", str(a))
        rep.cases += 1


# ---------------------------------------------------------------------------
# witt_struct


def suite_wf_annihilator(rep, rng):
    E = IndexSet.divisors_of(2)
    for rdesc in ("zmod:2", "zmod:4"):
        ring = make_ring(rdesc)
        for a in witt_space(E, ring):
            if struct_mod.is_in_wf(a) != struct_mod.wf_annihilator_check(a, "kills_VW"):
                rep.fail("wf-vs-killsVW", f"{rdesc}: {a}")
            rep.cases += 1
    # over a field the dual direction holds at point level too
    z2 = make_ring("zmod:2")
    for a in witt_space(E, z2):
        in_vw = ghost_raw(a)[1] == 0
        if in_vw != struct_mod.wf_annihilator_check(a, "killed_by_WF"):
            rep.fail("vw-vs-killedbyWF", str(a))
        rep.cases += 1
    if not struct_mod.wf_annihilator_check(witt_zero(E, z2), "kills_VW"):
        rep.fail("zero-kills", "0")
    if struct_mod.wf_annihilator_check(witt_one(E, make_ring("zmod:4")), "kills_VW"):
        rep.fail("one-kills", "teich(1)")
    rep.cases += 2


def suite_local_decomposition(rep, rng):
    E = IndexSet.divisors_of(6)
    z9 = make_ring("zmod:9")
    plans = [
        (struct_mod.LocalContext.p_local(3, z9, E), z9),
        (struct_mod.LocalContext.rational(RATIONALS, E), RATIONALS),
    ]
    for ctx, ring in plans:
        one_d = struct_mod.local_decompose(witt_one(E, ring), ctx)
        for _ in range(200):
            a = random_witt(E, ring, rng)
            b = random_witt(E, ring, rng)
            da = struct_mod.local_decompose(a, ctx)
            if struct_mod.local_recompose(da, ctx) != a:
                rep.fail("roundtrip", str(a))
            db = struct_mod.local_decompose(b, ctx)
            dsum = struct_mod.local_decompose(a + b, ctx)
            dprod = struct_mod.local_decompose(a * b, ctx)
            for n in da.factors:
                if witt_add(da.factor(n), db.factor(n)) != dsum.factor(n):
                    rep.fail("iso-add", f"{a} {b} factor {n}")
                if witt_mul(da.factor(n), db.factor(n)) != dprod.factor(n):
                    rep.fail("iso-mul", f"{a} {b} factor {n}")
            for n in one_d.factors:
                if one_d.factor(n) != witt_one(one_d.factor(n).index_set, ring):
                    rep.fail("iso-one", f"factor {n}")
            rep.cases += 1
    # reverse round trip: decompose(recompose(d)) = d on random decomposed data
    ctx, ring = plans[0]
    Ep = ctx.e_typical()
    for _ in range(100):
        d = struct_mod.DecomposedWitt(
            3, E, {n: random_witt(Ep, ring, rng) for n in ctx.e_prime_to()}
        )
        if struct_mod.local_decompose(struct_mod.local_recompose(d, ctx), ctx) != d:
            rep.fail("reverse-roundtrip", str(d.factors))
        rep.cases += 1
    # naturality in the ring along Z/9 -> Z/3
    z3 = make_ring("zmod:3")
    ctx9 = plans[0][0]
    ctx3 = struct_mod.LocalContext.p_local(3, z3, E)
    for _ in range(50):
        a = random_witt(E, z9, rng)
        d9 = struct_mod.local_decompose(a, ctx9)
        a3 = map_coords(a, lambda v: v % 3, z3)
        d3 = struct_mod.local_decompose(a3, ctx3)
        for n in d9.factors:
            if map_coords(d9.factor(n), lambda v: v % 3, z3) != d3.factor(n):
                rep.fail("naturality", str(a))
        rep.cases += 1


def _brute_force_inverse(a, space):
    one = witt_one(a.index_set, a.ring)
    for b in space:
        if witt_mul(a, b) == one:
            return b
    return None


def suite_hodge_tate(rep, rng):
    plans = [
        ("zmod:4", 2, IndexSet.divisors_of(2), None),
        ("zmod:4", 2, IndexSet.p_typical(2, 2), None),
        ("zmod:9", 3, IndexSet.p_typical(3, 1), None),
        ("zmod:9", 3, IndexSet.p_typical(3, 2), 200),
    ]
    for rdesc, p, E, sample in plans:
        ring = make_ring(rdesc)
        ctx = struct_mod.LocalContext.p_local(p, ring, E)
        space = list(witt_space(E, ring))
        source = E.restrict(p)
        v_of_unit = set()
        for w in witt_space(source, ring):
            if _brute_force_inverse(w, witt_space(source, ring)) is not None:
                v_of_unit.add(verschiebung(p, w, E))
        # the kernel condition is about the kernel ideal scheme; probe it on
        # R itself and on the dual numbers R[eps], which separates the
        # coincidental R-point agreements over non-reduced R
        dual = make_ring(f"quot(poly({rdesc}; eps); 1*eps^2)")
        compare = sample is None and dual.size() ** len(E) * len(space) <= ENUM_CAP
        if compare:
            dual_space = list(witt_space(E, dual))
            dual_wf = [w for w in dual_space if struct_mod.is_in_wf(w)]
            space_wf = [w for w in space if struct_mod.is_in_wf(w)]

        def kernel_matches(v):
            kernel = [a for a in space if witt_mul(v, a).is_zero()]
            if sorted(map(repr, kernel)) != sorted(map(repr, space_wf)):
                return False
            vd = map_coords(v, lambda c: dual.from_int(c), dual)
            kernel_d = [a for a in dual_space if witt_mul(vd, a).is_zero()]
            return sorted(map(repr, kernel_d)) == sorted(map(repr, dual_wf))

        vectors = space if sample is None else [random_witt(E, ring, rng) for _ in range(sample)]
        for v in vectors:
            predicate = struct_mod.is_hodge_tate(v, ctx)
            search = v in v_of_unit
            if predicate != search:
                rep.fail("ht-vs-V(unit)", f"{rdesc} {E}: {v}")
            if compare and predicate != kernel_matches(v):
                rep.fail("ht-vs-kernel", f"{rdesc} {E}: {v}")
            rep.cases += 1
    # distinguished <=> exhaustive [x] + V(unit) search over W_2(Z/4)
    ring = make_ring("zmod:4")
    E = IndexSet.divisors_of(2)
    ctx = struct_mod.LocalContext.p_local(2, ring, E)
    space = list(witt_space(E, ring))
    units1 = [w for w in witt_space(E.restrict(2), ring) if ring.unit_inverse(w.coords[0])]
    nilpotents = [x for x in ring.elements() if ring.nilpotent_index(x) is not None]
    dist_set = set()
    for x in nilpotents:
        for w in units1:
            dist_set.add(witt_add(teichmuller(x, E, ring), verschiebung(2, w, E)))
    for xi in space:
        ok, witness = struct_mod.is_distinguished(xi, ctx)
        if ok != (xi in dist_set):
            rep.fail("distinguished-vs-search", str(xi))
        if ok:
            x, v = witness
            if witt_add(teichmuller(x, E, ring), v) != xi:
                rep.fail("distinguished-witness", str(xi))
            if not struct_mod.is_hodge_tate(v, ctx):
                rep.fail("distinguished-witness-ht", str(xi))
        rep.cases += 1
    # rational characterization
    ctxQ = struct_mod.LocalContext.rational(RATIONALS, E)
    if not struct_mod.is_hodge_tate(unghost({1: 0, 2: 5}, E, RATIONALS), ctxQ):
        rep.fail("rational-ht", "(0,5)")
    if struct_mod.is_hodge_tate(unghost({1: 0, 2: 0}, E, RATIONALS), ctxQ):
        rep.fail("rational-ht-negative", "(0,0)")
    rep.cases += 2
    # both predicates are invariant under scaling by units (the element-level
    # shadow of quotienting by the unit group), exhaustively over W_2(Z/4)
    units = [u for u in space if witt_unit_inverse(u) is not None]
    for v in space:
        ht = struct_mod.is_hodge_tate(v, ctx)
        dist = struct_mod.is_distinguished(v, ctx)[0]
        for u in units:
            uv = witt_mul(u, v)
            if struct_mod.is_hodge_tate(uv, ctx) != ht:
                rep.fail("ht-unit-scaling", f"{u} * {v}")
            if struct_mod.is_distinguished(uv, ctx)[0] != dist:
                rep.fail("distinguished-unit-scaling", f"{u} * {v}")
            rep.cases += 1


def suite_v_one(rep, rng):
    E = IndexSet.divisors_of(6)
    z9 = make_ring("zmod:9")
    ctx = struct_mod.LocalContext.p_local(3, z9, E)
    vmod = struct_mod.VModuleLocal(ctx)
    Ep = ctx.e_typical()
    for _ in range(150):
        w = struct_mod.DecomposedWitt(
            3, E, {n: random_witt(Ep, z9, rng) for n in ctx.e_prime_to()}
        )
        img = struct_mod.v_one_apply(w, ctx)
        if ghost_raw(img)[1] != z9.zero():
            rep.fail("image-in-VW", str(w.factors))
        a = random_witt(E, z9, rng)
        if struct_mod.v_one_apply(vmod.scale(w, a), ctx) != witt_mul(a, img):
            rep.fail("module-linearity", str(a))
        rep.cases += 1
    # kernel: v_one(w) = 0 iff F_p(factor 1) = 0 and the other factors vanish
    small = list(witt_space(Ep, z9))
    for f1 in small[:30]:
        for f2 in small[:30]:
            w = struct_mod.DecomposedWitt(3, E, {1: f1, 2: f2})
            img_zero = struct_mod.v_one_apply(w, ctx).is_zero()
            expect = frobenius(3, f1).is_zero() and f2.is_zero()
            if img_zero != expect:
                rep.fail("kernel-statement", f"{f1} {f2}")
            rep.cases += 1
    # hodge-tate image of the generator
    gen = vmod.generator()
    if not struct_mod.is_hodge_tate(struct_mod.v_one_apply(gen, ctx), ctx):
        rep.fail("generator-image-ht", "gen")
    rep.cases += 1
    # chart overlap over Q: the two images differ by an explicit unit
    ctx2 = struct_mod.LocalContext.p_local(2, RATIONALS, E)
    ctx3 = struct_mod.LocalContext.p_local(3, RATIONALS, E)
    im2 = struct_mod.v_one_apply(struct_mod.VModuleLocal(ctx2).generator(), ctx2)
    im3 = struct_mod.v_one_apply(struct_mod.VModuleLocal(ctx3).generator(), ctx3)
    g2, g3 = ghost_raw(im2), ghost_raw(im3)
    ghost_u = {1: Fraction(1)}
    for n in E:
        if n != 1:
            if g3[n] == 0:
                rep.fail("overlap-ghost-zero", str(n))
                break
            ghost_u[n] = g2[n] / g3[n]
    else:
        u = unghost(ghost_u, E, RATIONALS)
        if witt_unit_inverse(u) is None:
            rep.fail("overlap-unit", str(u))
        if witt_mul(u, im3) != im2:
            rep.fail("overlap-transition", f"{im2} {im3}")
    rep.cases += 1


def suite_v_nonfree(rep, rng):
    t0 = time.monotonic()
    out = struct_mod.v_nonfree_obstruction(IndexSet.divisors_of(10))
    elapsed = time.monotonic() - t0
    if out.get("result") != "unsat" or out.get("congruence") != {"n": 10, "m": 2, "p": 5}:
        rep.fail("div10", out)
    if elapsed > 1.0:
        rep.fail("div10-time", f"{elapsed:.3f}s")
    rep.cases += 1
    out2 = struct_mod.v_nonfree_obstruction(IndexSet.divisors_of(2))
    if out2.get("result") != "sat":
        rep.fail("div2", out2)
    rep.cases += 1
    try:
        struct_mod.v_nonfree_obstruction(IndexSet.explicit([1]))
        rep.fail("no-prime", "expected a precondition error")
    except struct_mod.ContextError:
        pass
    rep.cases += 1


def suite_witt_unit(rep, rng):
    E = IndexSet.divisors_of(2)
    ring = make_ring("zmod:4")
    space = list(witt_space(E, ring))
    for a in space:
        ok, inv = struct_mod.witt_is_unit(a)
        brute = _brute_force_inverse(a, space)
        if ok != (brute is not None):
            rep.fail("unit-vs-brute", str(a))
        if ok and witt_mul(a, inv) != witt_one(E, ring):
            rep.fail("unit-witness", str(a))
        rep.cases += 1
    a = make_witt(E, ring, [3, 0])
    ok, inv = struct_mod.witt_is_unit(a)
    if not ok or inv != a:
        rep.fail("example-(3,0)", str(inv))
    ok2, _ = struct_mod.witt_is_unit(make_witt(E, ring, [2, 1]))
    if ok2:
        rep.fail("example-(2,1)", "should not be a unit")
    rep.cases += 2


# ---------------------------------------------------------------------------
# cone


def suite_cone(rep, rng):
    z4 = make_ring("zmod:4")
    positives = [
        cone_mod.QuasiIdeal.rank_one(INTEGERS, 2),
        cone_mod.QuasiIdeal.rank_one(z4, 2),
        cone_mod.QuasiIdeal.from_ideal(INTEGERS, [3]),
    ]
    for q in positives:
        ok, _ = cone_mod.quasi_ideal_check(q)
        if not ok:
            rep.fail("law-positive", q.ring.descriptor())
        rep.cases += 1
    R = make_ring("poly(integers; a,b)")
    qneg = cone_mod.QuasiIdeal(R, cone_mod.FreeModule(R, 2), [R.variable("a"), R.variable("b")])
    ok, witness = cone_mod.quasi_ideal_check(qneg)
    if ok or witness is None:
        rep.fail("law-negative-control", "law unexpectedly holds")
    e1 = (R.zero(), (R.one(), R.zero()))
    e2 = (R.zero(), (R.zero(), R.one()))
    if cone_mod.cone_level_mul(qneg, e1, e2) == cone_mod.cone_level_mul(qneg, e2, e1):
        rep.fail("commutativity-negative", "products agree despite law failure")
    rep.cases += 2

    def random_level(q, n):
        if isinstance(q.module, cone_mod.FreeModule):
            mod_rand = lambda: tuple(q.ring.random(rng) for _ in range(q.module.rank))
        else:
            gens = q.module.generators()
            mod_rand = lambda: q.ring.mul(q.ring.random(rng), gens[0])
        return (q.ring.random(rng),) + tuple(mod_rand() for _ in range(n - 1))

    for q in positives:
        for n in (2, 3):
            for _ in range(100):
                u, v, w = (random_level(q, n) for _ in range(3))
                lhs = cone_mod.cone_level_mul(q, cone_mod.cone_level_mul(q, u, v), w)
                rhs = cone_mod.cone_level_mul(q, u, cone_mod.cone_level_mul(q, v, w))
                if lhs != rhs:
                    rep.fail("associativity", f"level {n}")
                if cone_mod.cone_level_mul(q, u, v) != cone_mod.cone_level_mul(q, v, u):
                    rep.fail("commutativity", f"level {n}")
                one = cone_mod.cone_level_one(q, n)
                if cone_mod.cone_level_mul(q, u, one) != u:
                    rep.fail("unit-law", f"level {n}")
                rep.cases += 1
    # injective d: trivial isotropy and pi0 = R/I
    q3 = cone_mod.QuasiIdeal.from_ideal(INTEGERS, [3])
    p0 = cone_mod.cone_pi0(q3)
    if p0.descriptor() != "zmod:3":
        rep.fail("pi0-injective", p0.descriptor())
    if cone_mod.cone_hom_set(q3, 5, 5) != [0]:
        rep.fail("trivial-isotropy", str(cone_mod.cone_hom_set(q3, 5, 5)))
    rep.cases += 2
    # groupoid composition on the finite example
    q4 = cone_mod.QuasiIdeal.rank_one(z4, 2)
    for r1 in range(4):
        for r2 in range(4):
            for r3 in range(4):
                h12 = cone_mod.cone_hom_set(q4, r1, r2)
                h23 = cone_mod.cone_hom_set(q4, r2, r3)
                h13 = cone_mod.cone_hom_set(q4, r1, r3)
                for x in h12:
                    for y in h23:
                        s = tuple(z4.add(a, b) for a, b in zip(x, y))
                        if s not in h13:
                            rep.fail("groupoid-composition", f"{r1}->{r2}->{r3}")
                rep.cases += 1
    # counting: |pi0| * |im d| = |R| and |ker d| * |im d| = |I|
    p4 = cone_mod.cone_pi0(q4)
    image = {q4.d(x) for x in q4.module.elements()}
    kernel = [x for x in q4.module.elements() if q4.d(x) == z4.zero()]
    if p4.size() * len(image) != 4:
        rep.fail("count-pi0", f"{p4.size()} * {len(image)} != 4")
    if len(kernel) * len(image) != 4:
        rep.fail("count-kernel", f"{len(kernel)} * {len(image)} != 4")
    rep.cases += 2
    # spec example: (1,3)*(2,5) = (2, 41) for d = *2 on Z at level 2
    q = positives[0]
    if cone_mod.cone_level_mul(q, (1, (3,)), (2, (5,))) != (2, (41,)):
        rep.fail("worked-example", "level-2 product")
    rep.cases += 1


# ---------------------------------------------------------------------------
# rees_filtration


def _random_step_filtration(rng, ambient=3, steps=3):
    spaces = [filt_mod.Subspace.full(ambient)]
    current = filt_mod.Subspace.full(ambient)
    for _ in range(steps):
        if current.dim() == 0:
            break
        rows = list(current.basis)[: max(0, current.dim() - rng.randint(0, 2))]
        current = filt_mod.Subspace.span(ambient, rows)
        spaces.append(current)
    return filt_mod.step_filtration(spaces, rng.randint(-2, 2))


def suite_rees(rep, rng):
    unit = filt_mod.unit_filtration()
    # footnote normalization
    q1 = filt_mod.filtered_line(1)
    r1 = filt_mod.rees_of_filtered(q1)
    if r1.piece(-1).dim() != 1 or r1.piece(-2).dim() != 0 or r1.piece(0).dim() != 1:
        rep.fail("footnote-normalization", "Rees(Q{1})")
    rep.cases += 1
    for _ in range(60):
        M = _random_step_filtration(rng)
        rM = filt_mod.rees_of_filtered(M)
        if filt_mod.filtered_of_rees(rM) != M:
            rep.fail("roundtrip", f"lo={M.lo} hi={M.hi}")
        rep.cases += 1
        for n in range(-3, 4):
            # twisting by {n} shifts Rees degrees by -n
            rS = filt_mod.rees_of_filtered(filt_mod.shift_filtration(M, n))
            for d in range(rM.lo_deg - 4, rM.hi_deg + 5):
                if rS.piece(d - n).dim() != rM.piece(d).dim():
                    rep.fail("shift-degree", f"n={n} d={d}")
            rep.cases += 1
        if filt_mod.shift_filtration(M, 0) != M:
            rep.fail("shift-zero", "M{0} != M")
        if filt_mod.shift_filtration(filt_mod.shift_filtration(M, 2), -2) != M:
            rep.fail("shift-inverse", "M{2}{-2} != M")
        rep.cases += 1
    # Day convolution: unit, commutativity (dimensions), associativity (exact)
    for _ in range(25):
        M = _random_step_filtration(rng, ambient=2, steps=2)
        N = _random_step_filtration(rng, ambient=2, steps=2)
        P = _random_step_filtration(rng, ambient=2, steps=1)
        if filt_mod.day_tensor(unit, M) != M:
            rep.fail("day-unit", "unit (x) M != M")
        MN, NM = filt_mod.day_tensor(M, N), filt_mod.day_tensor(N, M)
        for i in range(MN.lo - 1, MN.hi + 2):
            if MN.piece(i).dim() != NM.piece(i).dim():
                rep.fail("day-commutative", f"i={i}")
        lhs = filt_mod.day_tensor(MN, P)
        rhs = filt_mod.day_tensor(M, filt_mod.day_tensor(N, P))
        if lhs != rhs:
            rep.fail("day-associative", "(M N) P != M (N P)")
        rep.cases += 1
    if filt_mod.day_tensor(filt_mod.filtered_line(1), filt_mod.filtered_line(1)) != filt_mod.filtered_line(2):
        rep.fail("day-lines", "Q{1} (x) Q{1} != Q{2}")
    rep.cases += 1
    # completeness
    M = _random_step_filtration(rng)
    _, verdict = filt_mod.complete_filtration(M)
    if not verdict["complete"]:
        rep.fail("complete-bounded", verdict)
    const = filt_mod.FilteredModule(1, 0, 0, {0: filt_mod.Subspace.full(1)}, "constant")
    _, verdict2 = filt_mod.complete_filtration(const)
    if verdict2["complete"]:
        rep.fail("complete-constant", verdict2)
    iadic = filt_mod.iadic_filtered_module(1, 3, 4)
    _, verdict3 = filt_mod.complete_filtration(iadic)
    if not verdict3["complete"]:
        rep.fail("complete-iadic", verdict3)
    rep.cases += 3
    # t-torsion rejection
    tor = filt_mod.ReesModule(
        1,
        0,
        1,
        {0: filt_mod.Subspace.full(1), 1: filt_mod.Subspace.full(1)},
        "zero",
        t_override={0: [[Fraction(0)]]},
    )
    try:
        filt_mod.filtered_of_rees(tor)
        rep.fail("torsion-rejection", "no error raised")
    except filt_mod.TorsionError:
        pass
    rep.cases += 1


def suite_iadic(rep, rng):
    for g, names in ((1, ["x"]), (2, ["x", "z"])):
        pieces = filt_mod.iadic_gr(names, "diagonal", 4)
        for p in pieces:
            if p.rank != binomial(g + p.degree - 1, p.degree):
                rep.fail("gr-rank", f"g={g} i={p.degree}")
            rep.cases += 1
        cap = 5 if g == 1 else 4
        if not filt_mod.iadic_gr_crosscheck(g, 4 if g == 1 else 3, cap):
            rep.fail("gr-crosscheck", f"g={g}")
        rep.cases += 1
    zero = filt_mod.iadic_gr(["x"], "zero", 3)
    if zero[0].rank != 1 or any(p.rank for p in zero[1:]):
        rep.fail("zero-ideal", str(zero))
    rep.cases += 1


# ---------------------------------------------------------------------------
# derham


def suite_derham(rep, rng):
    gm = derham_mod.hodge_cohomology(derham_mod.MonomialAlgebra(1, 0))
    if (gm.h[0], gm.h[1]) != (1, 1) or gm.fil[(1, 1)] != 1 or gm.fil[(2, 1)] != 0:
        rep.fail("gm", str(gm.h))
    a1 = derham_mod.hodge_cohomology(derham_mod.MonomialAlgebra(0, 1))
    if (a1.h[0], a1.h[1]) != (1, 0):
        rep.fail("a1", str(a1.h))
    rep.cases += 2
    for a in range(4):
        for b in range(3):
            H = derham_mod.hodge_cohomology(derham_mod.MonomialAlgebra(a, b))
            n = a + b
            for j in range(n + 1):
                if H.h[j] != binomial(a, j):
                    rep.fail("kunneth", f"a={a} b={b} j={j}")
            if a + b <= 4:
                for j in range(n + 1):
                    for i in range(n + 2):
                        expect = H.h[j] if i <= j else 0
                        if H.fil[(i, j)] != expect:
                            rep.fail("fil-pattern", f"a={a} b={b} i={i} j={j}")
            euler = sum((-1) ** j * H.h[j] for j in range(n + 1))
            if euler != (0 if a >= 1 else 1):
                rep.fail("euler", f"a={a} b={b}")
            if H.h[0] != 1:
                rep.fail("connectedness", f"a={a} b={b}")
            rep.cases += 1
    # slice checks on a mixed algebra
    A = derham_mod.MonomialAlgebra(2, 1)
    for sl in derham_mod.build_complex(A, 1, 2):
        if not sl.verify_d_squared():
            rep.fail("d-squared", str(sl.character))
        r = sum(1 for m in sl.character[1] if m >= 1)
        for k, d in enumerate(sl.dims()):
            if d != binomial(A.torus_rank + r, k):
                rep.fail("slice-dims", f"{sl.character} k={k}")
        rep.cases += 1
    # enlarging the character box does not change H
    small = derham_mod.hodge_cohomology(derham_mod.MonomialAlgebra(1, 1), 1, 1)
    big = derham_mod.hodge_cohomology(derham_mod.MonomialAlgebra(1, 1), 2, 3)
    if small.h != big.h:
        rep.fail("box-soundness", f"{small.h} vs {big.h}")
    rep.cases += 1
    # rees packaging
    rm = derham_mod.rees_package_degree(gm, 1)
    if rm.piece(-1).dim() != 1 or rm.piece(-2).dim() != 0:
        rep.fail("rees-gm", "generator degree")
    g2 = derham_mod.hodge_cohomology(derham_mod.MonomialAlgebra(2, 0))
    if derham_mod.rees_package_degree(g2, 1).piece(-1).dim() != 2:
        rep.fail("rees-gm2", "rank")
    if derham_mod.rees_package_degree(a1, 1).piece(-1).dim() != 0:
        rep.fail("rees-a1", "should be zero")
    rep.cases += 3


# ---------------------------------------------------------------------------
# prismatic_points


def suite_prismatic(rep, rng):
    z4 = make_ring("zmod:4")
    E2 = IndexSet.divisors_of(2)
    ctx2 = pris_mod.PrismaticContext(
        z4, E2, make_witt(E2, z4, [2, 3]), struct_mod.LocalContext.p_local(2, z4, E2)
    )
    model = pris_mod.wbar_ring(ctx2)
    if not model.check_pi0_maps():
        rep.fail("pi0-maps", "surjectivity/nilpotence")
    if not model.kernel_squares_into_ideal():
        rep.fail("kernel-squares", "VW^2 not inside (xi)")
    rep.cases += 2
    E1 = IndexSet.explicit([1])
    ctx1 = pris_mod.PrismaticContext(
        z4, E1, make_witt(E1, z4, [2]), struct_mod.LocalContext.p_local(2, z4, E1)
    )
    if pris_mod.wbar_ring(ctx1).pi0.size() != 2:
        rep.fail("pi0-size", "W1 cone of xi=2 over Z/4")
    rep.cases += 1
    B = pris_mod.AffinePresentation(("x",), ("1*x^2",))
    gpd = pris_mod.prismatic_points_affine(B, ctx1)
    if gpd.object_count() != 4:
        rep.fail("x2-objects", gpd.object_count())
    if not gpd.check_axioms():
        rep.fail("groupoid-axioms", "x^2 over E={1}")
    rep.cases += 2
    scaled = pris_mod.prismatic_points_affine(B, ctx1.scaled(make_witt(E1, z4, [3])))
    if (scaled.object_count(), scaled.morphism_count(), len(scaled.components)) != (
        gpd.object_count(),
        gpd.morphism_count(),
        len(gpd.components),
    ):
        rep.fail("unit-scaling", "counts changed")
    rep.cases += 1
    g2 = pris_mod.prismatic_points_affine(B, ctx2)
    u = make_witt(E2, z4, [3, 1])
    g2s = pris_mod.prismatic_points_affine(B, ctx2.scaled(u))
    if (g2.object_count(), g2.morphism_count(), len(g2.components)) != (
        g2s.object_count(),
        g2s.morphism_count(),
        len(g2s.components),
    ):
        rep.fail("unit-scaling-E2", "counts changed")
    if not g2.check_axioms():
        rep.fail("groupoid-axioms-E2", "x^2 over E={1,2}")
    rep.cases += 2
    # free presentation: groupoid pi0 = cone pi0; hom sizes constant in classes
    Bfree = pris_mod.AffinePresentation(("x",))
    gf = pris_mod.prismatic_points_affine(Bfree, ctx2)
    if len(gf.components) != model.pi0.size():
        rep.fail("free-pi0", f"{len(gf.components)} vs {model.pi0.size()}")
    sizes = {len(ms) for ms in gf.homs.values()}
    if len(sizes) != 1:
        rep.fail("free-hom-sizes", str(sizes))
    for comp in gf.components:
        for i in comp:
            for j in comp:
                if not gf.hom(i, j):
                    rep.fail("free-hom-within-class", f"{i} {j}")
    rep.cases += 3
    # witt points: idempotent count matches brute force
    z2 = make_ring("zmod:2")
    Bid = pris_mod.AffinePresentation(("x",), ("1*x^2+-1*x",))
    pts = pris_mod.witt_points(Bid, E2, z2)
    brute = [w for w in witt_space(E2, z2) if witt_mul(w, w) == w]
    if len(pts) != len(brute):
        rep.fail("witt-points-idempotents", f"{len(pts)} vs {len(brute)}")
    free_pts = pris_mod.witt_points(pris_mod.AffinePresentation(("x",)), E2, z2)
    if len(free_pts) != 4:
        rep.fail("witt-points-free", len(free_pts))
    rep.cases += 2


# ---------------------------------------------------------------------------
# registry


SUITES = {
    "ring-axioms": ("ring_core", suite_ring_axioms),
    "witt-ring-axioms": ("witt_core", suite_witt_ring_axioms),
    "witt-operators": ("witt_core", suite_witt_operators),
    "witt-universal-integrality": ("witt_core", suite_witt_integrality),
    "witt-ghost-dwork": ("witt_core", suite_witt_ghost_dwork),
    "witt-functoriality": ("witt_core", suite_witt_functoriality),
    "wf-annihilator": ("witt_struct", suite_wf_annihilator),
    "local-decomposition": ("witt_struct", suite_local_decomposition),
    "hodge-tate-equivalences": ("witt_struct", suite_hodge_tate),
    "v-one": ("witt_struct", suite_v_one),
    "v-nonfree": ("witt_struct", suite_v_nonfree),
    "witt-unit": ("witt_struct", suite_witt_unit),
    "cone-laws": ("cone", suite_cone),
    "rees-dictionary": ("rees_filtration", suite_rees),
    "iadic-gr": ("rees_filtration", suite_iadic),
    "derham-cohomology": ("derham", suite_derham),
    "prismatic-points": ("prismatic_points", suite_prismatic),
}


def suite_check(name: str) -> str:
    """`name`, if it names a suite; otherwise the WittforgeError verify reports."""
    if name not in SUITES:
        raise WittforgeError(f"unknown suite {name!r}; see verify --list")
    return name


def suite_run(name: str, seed: int) -> SuiteReport:
    _, fn = SUITES[suite_check(name)]
    rep = SuiteReport(name)
    t0 = time.monotonic()
    fn(rep, _rng(seed, name))
    rep.seconds = time.monotonic() - t0
    return rep


def coverage_map():
    out = {}
    for name, (module, _) in sorted(SUITES.items()):
        out.setdefault(module, []).append(name)
    return out
