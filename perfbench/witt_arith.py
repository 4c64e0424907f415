"""witt-arith: a seeded stream of Witt vector operations.

The kernel and the rings layer do almost all of the work; generation does
none, because set-up warms every universal family the stream needs.  The
beyond-cap share (div:30 products, ptyp:2:12 sums, products and negations
over Z/12) raises NotMaterialized at the time of writing, so the term-cap
defect shows in the success rate.  It stays on Z/12: the same ptyp:2:12 op
over Q[x^+-1] runs for minutes before it fails.
"""

from __future__ import annotations

import hashlib
import random
from fractions import Fraction

from wittforge import rings, universal, witt
from wittforge.indexset import index_set_make

from harness import Workload

Q_POLY = ("quot(poly(rationals; t); 1*t^3)", "poly(rationals; x; inv x)")
RINGS = ("zmod:12", "integers", "rationals", "poly(zmod:4; x)") + Q_POLY
INDEX_SETS = ("div:6", "ptyp:2:3", "div:12", "ptyp:3:3")

# Repetitions of each operation per (ring, index set) cell in one pass, fixed
# once.  No cell dominates a pass (~1.4 s on a 2-CPU box; the largest cells
# take 8% of it).  About 40 operations of a pass cost over 1 ms, all on the
# rational and polynomial rings, where the cost swings with the drawn
# operands; the Z/12 and Z cells at div:12 and ptyp:3:3 have enough
# operations of steady cost (0.4-0.9 ms) that the 99th percentile falls among
# them rather than on a few draws.  The Q-polynomial rings run only at div:6
# and ptyp:2:3: a single div:12 product over them takes 0.1-0.65 s.
REPS = {
    ("zmod:12", "div:6"): 160, ("zmod:12", "ptyp:2:3"): 120,
    ("zmod:12", "div:12"): 50, ("zmod:12", "ptyp:3:3"): 50,
    ("integers", "div:6"): 160, ("integers", "ptyp:2:3"): 120,
    ("integers", "div:12"): 50, ("integers", "ptyp:3:3"): 50,
    ("rationals", "div:6"): 25, ("rationals", "ptyp:2:3"): 15,
    ("rationals", "div:12"): 1, ("rationals", "ptyp:3:3"): 1,
    ("poly(zmod:4; x)", "div:6"): 20, ("poly(zmod:4; x)", "ptyp:2:3"): 12,
    ("poly(zmod:4; x)", "div:12"): 2, ("poly(zmod:4; x)", "ptyp:3:3"): 1,
    (Q_POLY[0], "div:6"): 1, (Q_POLY[0], "ptyp:2:3"): 1,
    (Q_POLY[1], "div:6"): 2, (Q_POLY[1], "ptyp:2:3"): 1,
}
# beyond the term cap: (index set, op, repetitions per pass)
BEYOND_CAP = (("div:30", "mul", 20), ("ptyp:2:12", "add", 1), ("ptyp:2:12", "mul", 1),
              ("ptyp:2:12", "neg", 1))
OPS = ("add", "mul", "neg", "sub", "frobenius", "unit_inverse", "ghost_raw", "unghost")
CHECK_EVERY = 3  # ghost-side check of every third result of the first pass


def _unghost_defined(ring, E):
    """unghost needs every n in E invertible, or the integers (Dwork-checked)."""
    return isinstance(ring, rings.IntegerRing) or all(
        ring.int_unit_inverse(n) is not None for n in E)


class WittArith(Workload):
    name = "witt-arith"

    def __init__(self, seed, make_ring, scratch, traced):
        self.seed = seed
        self.make_ring = make_ring

    def setup(self):
        universal.clear_memory_cache()
        rng = random.Random(self.seed)
        self.rings = {d: self.make_ring(d) for d in RINGS}
        sets = {s: index_set_make(s) for s in INDEX_SETS + ("div:30", "ptyp:2:12")}
        for s in INDEX_SETS + ("ptyp:2:12",):
            for op in ("sum", "product", "negation"):
                universal.get_universal(sets[s], op)
        for s in INDEX_SETS:
            for n in sets[s].elements[1:]:
                universal.get_universal(sets[s], f"frobenius:{n}")
        universal.get_universal(sets["div:30"], "product")

        stream = []
        for (rdesc, s), reps in REPS.items():
            ring, E = self.rings[rdesc], sets[s]
            ops = [op for op in OPS if op != "unghost" or _unghost_defined(ring, E)]
            for _ in range(reps):
                for op in ops:
                    stream.append(self._op(op, ring, E, rng))
        z12 = self.rings["zmod:12"]
        for s, op, reps in BEYOND_CAP:
            for _ in range(reps):
                stream.append(self._op(op, z12, sets[s], rng))
        rng.shuffle(stream)
        self.stream = stream

    def _op(self, op, ring, E, rng):
        a = witt.random_witt(E, ring, rng)
        if op in ("add", "mul", "sub"):
            fn = {"add": witt.witt_add, "mul": witt.witt_mul, "sub": witt.witt_sub}[op]
            return op, fn, (a, witt.random_witt(E, ring, rng))
        if op == "neg":
            return op, witt.witt_neg, (a,)
        if op == "frobenius":
            return op, witt.frobenius, (rng.choice(E.elements[1:]), a)
        if op == "unit_inverse":
            return op, witt.witt_unit_inverse, (a,)
        if op == "ghost_raw":
            return op, witt.ghost_raw, (a,)
        return op, witt.unghost, (witt.ghost_raw(a), E, ring)

    def ops(self):
        return self.stream

    def counts(self, outcomes):
        h = hashlib.sha256()
        failed = {}
        for label, _, result, error in outcomes:
            h.update(repr((label, result, error)).encode())
            if error:
                failed[error] = failed.get(error, 0) + 1
        return {"ops": len(outcomes), "failed": failed, "results_sha256": h.hexdigest()}

    def check(self, outcomes):
        problems, checked = [], 0
        for i, (label, args, result, error) in enumerate(outcomes):
            if error is None and i % CHECK_EVERY == 0:
                checked += 1
                if not ghost_side_agrees(label, args, result):
                    problems.append(f"{label} #{i}: ghost-side answer differs")
        self.checked = checked
        return problems


# ---------------------------------------------------------------------------
# the output check: the ghost-side answer over a torsion-free lift
#
# Every ring here is a quotient of a Q-algebra L whose ghost map is injective
# (Z/12 and Z of Q; (Z/4)[x] of Q[x]).  Ghost components are ring maps, so
# the answer is unghost(ghost(lift a) o ghost(lift b)) over L, reduced to R.
# This uses ghost_raw and unghost only, never the universal polynomials.


def _lift(ring):
    """(L, lift raw value, reduce raw value) for a ring of the workload."""
    base = ring.base if isinstance(ring, rings.PolyRing) else ring
    if isinstance(ring, rings.QuotientRing) or isinstance(base, rings.RationalRing):
        return ring, (lambda v: v), (lambda v: v)
    if isinstance(ring, rings.PolyRing):  # (Z/N)[x]: coefficientwise through Q
        lift_ring = rings.PolyRing(rings.RATIONALS, ring.variables, ring.inverted)

        def down(v):
            return ring.canonicalize(tuple((e, _integral(c)) for e, c in v))

        return lift_ring, (lambda v: tuple((e, Fraction(c)) for e, c in v)), down
    return rings.RATIONALS, Fraction, (lambda v: ring.canonicalize(_integral(v)))


def _integral(q: Fraction) -> int:
    if q.denominator != 1:
        raise ValueError(f"ghost-side answer {q} is not integral")
    return q.numerator


def _lift_vector(a, lift_ring, up):
    return witt.WittVector(a.index_set, lift_ring, tuple(lift_ring.canonicalize(up(c))
                                                         for c in a.coords))


def _down_vector(v, down):
    return tuple(down(c) for c in v.coords)


def ghost_side_agrees(label, args, result) -> bool:
    if label == "unghost":
        w, E, ring = args
        g = witt.ghost_raw(result)
        return all(g[n] == w[n] for n in E)
    a = args[1] if label == "frobenius" else args[0]
    ring, E = a.ring, a.index_set
    lift_ring, up, down = _lift(ring)
    ga = witt.ghost_raw(_lift_vector(a, lift_ring, up))
    if label == "ghost_raw":
        return all(down(ga[n]) == result[n] for n in E)
    if label == "frobenius":
        n = args[0]
        target = E.restrict(n)
        expect = witt.unghost({d: ga[n * d] for d in target}, target, lift_ring)
        return _down_vector(expect, down) == result.coords
    if label == "unit_inverse":
        if result is None:  # a is a unit iff every ghost component is one
            g = witt.ghost_raw(a)
            return any(ring.unit_inverse(g[n]) is None for n in E)
        gb = witt.ghost_raw(_lift_vector(result, lift_ring, up))
        prod = {n: lift_ring.mul(ga[n], gb[n]) for n in E}
        one = witt.unghost(prod, E, lift_ring)
        return _down_vector(one, down) == witt.witt_one(E, ring).coords
    return ghost_side(label, *args) == result.coords


def ghost_side(label, a, b=None):
    """Coordinates of the Witt add, sub, mul ("add", ...) of a and b, or of
    the negation of a, computed on the ghost side over a torsion-free lift."""
    ring, E = a.ring, a.index_set
    lift_ring, up, down = _lift(ring)
    ga = witt.ghost_raw(_lift_vector(a, lift_ring, up))
    if label == "neg":
        w = {n: lift_ring.neg(ga[n]) for n in E}
    else:
        gb = witt.ghost_raw(_lift_vector(b, lift_ring, up))
        combine = {"add": lift_ring.add, "sub": lift_ring.sub, "mul": lift_ring.mul}[label]
        w = {n: combine(ga[n], gb[n]) for n in E}
    return _down_vector(witt.unghost(w, E, lift_ring), down)
