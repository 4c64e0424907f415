"""Point-level prismatization over finite rings.

A prismatic context is a distinguished Witt vector xi over W_E(R) together
with the rank-one quasi-ideal d(e) = xi.  Its cone gives the ring levels of
W-bar; points of an affine scheme B = Z[x_j]/(f_k) are pairs

    (w_j in W_E(R),  g_k in P(R))   with   xi * g_k = f_k(w),

and a morphism (w, g) -> (w', g') is a tuple a_j in P(R) with
xi * a_j = w'_j - w_j and g'_k = g_k + D_k(w, a, xi), where D_k is the exact
finite-difference polynomial f(X + sA) = f(X) + s * D(X, A, s).  Composition
is addition of the a-tuples; the difference identity makes the g-condition
compose, so the result is a groupoid.

It is the action groupoid of W^g on the objects: every a in W_E(R)^g is a
morphism out of every object, to (w + xi*a, g + D(w, a, xi)), because
f(w + xi*a) = xi * (g + D).  D(X, A+B, s) = D(X, A, s) + D(X+sA, B, s) holds
over Z, so the action composes and the components are the orbits.  A
PointGroupoid stores that action: act[i][a] is the index of the target of the
a-th element of W^g out of object i.  The hom sets are derived from it, and
the axioms are checked as the action law (0 fixes every object, -a undoes a,
a then b is a + b) on tables of negation and addition over W^g.
w + xi*a and D(w, a, xi) depend on w alone and the objects over one w are
consecutive, so the walk steps each (w, a) once and adds g + D per object.
The morphism budget refuses objects^2 > cap, which is not the walk's cost: it
keeps the same presentations refused (perfbench's points-enum checks that the
two-generator ones are), where a bound on objects x |W|^g would let some of
them compute.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from functools import cached_property
from itertools import product as iter_product

from .cone import QuasiIdeal, cone_pi0
from .indexset import IndexSet
from .numutil import WittforgeError
from .rings import ENUM_CAP, INTEGERS, PolyRing, Ring
from .sparsepoly import IntPoly
from .structure import EnumerationBudget, LocalContext, is_distinguished
from .witt import WittRing, WittVector, witt_mul, witt_space, witt_space_size, witt_unit_inverse


class PrismaticError(WittforgeError):
    pass


@dataclass(frozen=True)
class AffinePresentation:
    """B = Z[x_j] / (f_1, .., f_m), relations as integer polynomials."""

    generators: tuple
    relations: tuple = ()

    def __post_init__(self):
        ring = self.coordinate_ring()
        relations = tuple(ring.raw(rel) for rel in self.relations)
        if ring.zero() in relations:
            raise PrismaticError("zero relation is a zerodivisor: not Koszul regular")
        object.__setattr__(self, "relations", relations)

    def coordinate_ring(self) -> PolyRing:
        return PolyRing(INTEGERS, self.generators)

    def relation_intpolys(self):
        g = len(self.generators)
        out = []
        for rel in self.relations:
            out.append(IntPoly(g, {exps: c for exps, c in rel}))
        return out


@dataclass
class PrismaticContext:
    ring: Ring
    index_set: IndexSet
    xi: WittVector
    local: LocalContext

    def __post_init__(self):
        if self.xi.ring != self.ring or self.xi.index_set != self.index_set:
            raise PrismaticError(
                f"{self.xi} is not in W_{self.index_set}({self.ring.descriptor()})"
            )
        ok, _ = is_distinguished(self.xi, self.local)
        if not ok:
            raise PrismaticError(f"{self.xi} is not distinguished")
        self.witt_ring = WittRing(self.index_set, self.ring)

    def quasi_ideal(self) -> QuasiIdeal:
        return QuasiIdeal.rank_one(self.witt_ring, self.xi.coords)

    def scaled(self, unit: WittVector) -> "PrismaticContext":
        if witt_unit_inverse(unit) is None:
            raise PrismaticError("scaling element is not a unit")
        return PrismaticContext(
            self.ring, self.index_set, witt_mul(unit, self.xi), self.local
        )


# ---------------------------------------------------------------------------
# the ring levels of W-bar and their pi0 maps


@dataclass
class WbarModel:
    context: PrismaticContext
    quasi_ideal: QuasiIdeal
    pi0: Ring  # W_E(R) / (xi)
    rbar: Ring  # R / (xi_1)
    to_rbar: Callable  # the reduction R -> R / (xi_1)

    def _kernel(self) -> list:
        """The classes of pi0 that the first coordinate sends to zero in rbar."""
        zero = self.rbar.zero()
        return [w for w in self.pi0.elements() if self.to_rbar(w[0]) == zero]

    def check_pi0_maps(self):
        """Surjectivity and nilpotent kernels of pi0(Wbar_n(R)) -> Rbar <- R."""
        ring, rbar = self.context.ring, self.rbar
        every = set(rbar.elements())
        if {self.to_rbar(w[0]) for w in self.pi0.elements()} != every:
            return False
        if {self.to_rbar(r) for r in ring.elements()} != every:
            return False
        if any(self.pi0.nilpotent_index(w) is None for w in self._kernel()):
            return False
        zero = rbar.zero()
        return all(
            ring.nilpotent_index(r) is not None for r in ring.elements() if self.to_rbar(r) == zero
        )

    def kernel_squares_into_ideal(self) -> bool:
        """Every pi0-kernel class has square zero in pi0 (VW^2 inside (xi))."""
        kernel, zero = self._kernel(), self.pi0.zero()
        return all(self.pi0.mul(u, v) == zero for u in kernel for v in kernel)


def wbar_ring(ctx: PrismaticContext) -> WbarModel:
    if ctx.ring.size() is None:
        raise EnumerationBudget("wbar model needs a finite ring")
    q = ctx.quasi_ideal()
    rbar, to_rbar = ctx.ring.quotient_by([ctx.xi.coords[0]])
    return WbarModel(ctx, q, cone_pi0(q), rbar, to_rbar)


# ---------------------------------------------------------------------------
# J(X) points: homomorphisms into the Witt vectors themselves


def witt_points(B: AffinePresentation, E: IndexSet, ring: Ring, cap: int = ENUM_CAP):
    """All ring maps B -> W_E(R), by enumeration and relation filtering."""
    g = len(B.generators)
    total = witt_space_size(E, ring)
    if total is None or total**g > cap:
        raise EnumerationBudget("witt point search exceeds the budget")
    wring = WittRing(E, ring)
    rels = B.relation_intpolys()
    zero = wring.zero()
    out = []
    space = [v.coords for v in witt_space(E, ring)]
    for combo in iter_product(space, repeat=g):
        if all(f.evaluate(wring, list(combo)) == zero for f in rels):
            out.append(tuple(WittVector(E, ring, c) for c in combo))
    return out


# ---------------------------------------------------------------------------
# prismatic point groupoids


@dataclass
class PointGroupoid:
    """The action groupoid of W^g: alphas[a] sends object i to object act[i][a]."""

    wring: WittRing
    objects: list  # (w tuple of coord-tuples, gamma tuple of coord-tuples)
    alphas: list  # W^g in enumeration order: g-tuples of coord-tuples
    act: list  # act[i][a]: index of the target of alphas[a] out of object i
    components: list  # pi0: lists of object indices

    def object_count(self):
        return len(self.objects)

    @cached_property
    def homs(self) -> dict:
        """(i, j) -> the alphas from i to j; keys by i, then increasing j."""
        out = {}
        for i, row in enumerate(self.act):
            by_target: dict = {}
            for alpha, j in zip(self.alphas, row):
                by_target.setdefault(j, []).append(alpha)
            for j in sorted(by_target):
                out[(i, j)] = by_target[j]
        return out

    def hom(self, i, j):
        return self.homs.get((i, j), [])

    def morphism_count(self):
        return len(self.objects) * len(self.alphas)

    def check_axioms(self) -> bool:
        """The action law: 0 fixes every object, -a undoes a, and a then b is a + b."""
        wring, alphas, act = self.wring, self.alphas, self.act
        index = {alpha: a for a, alpha in enumerate(alphas)}
        zero = index[tuple(wring.zero() for _ in alphas[0])]
        neg = [index[tuple(map(wring.neg, alpha))] for alpha in alphas]
        add = [[index[tuple(map(wring.add, x, y))] for y in alphas] for x in alphas]
        for i, row in enumerate(act):
            if row[zero] != i:
                return False
            for a, j in enumerate(row):
                if act[j][neg[a]] != i or act[j] != [row[s] for s in add[a]]:
                    return False
        return True

    def to_json(self):
        wring = self.wring
        objs = []
        for w, gamma in self.objects:
            objs.append(
                {
                    "w": [wring.el_to_str(c) for c in w],
                    "g": [wring.el_to_str(c) for c in gamma],
                }
            )
        n = len(self.objects)
        counts = [[len(self.hom(i, j)) for j in range(n)] for i in range(n)]
        return {
            "objects": objs,
            "morphism_counts": counts,
            "pi0": self.components,
        }


def _difference_polys(B: AffinePresentation):
    """D_f with f(X + sA) = f(X) + s * D_f(X, A, s), exactly over Z.

    Variables of D_f: X_1..X_g, A_1..A_g, s.
    """
    g = len(B.generators)
    nv = 2 * g + 1
    subs = []
    for j in range(g):
        xj = IntPoly.var(nv, j)
        aj = IntPoly.var(nv, g + j)
        s = IntPoly.var(nv, 2 * g)
        subs.append(xj + s * aj)
    out = []
    for f in B.relation_intpolys():
        shifted = f.substitute(subs)
        base = f.substitute([IntPoly.var(nv, j) for j in range(g)])
        diff = shifted - base
        # every term carries s at least once; divide by shifting the exponent
        terms = {}
        for exps, c in diff.terms.items():
            if exps[-1] < 1:
                raise PrismaticError("difference polynomial missing its s factor")
            terms[exps[:-1] + (exps[-1] - 1,)] = c
        out.append(IntPoly(nv, terms))
    return out


def prismatic_points_affine(
    B: AffinePresentation, ctx: PrismaticContext, cap: int = ENUM_CAP
) -> PointGroupoid:
    wring = ctx.witt_ring
    size = wring.size()
    g = len(B.generators)
    if size is None or size**g > cap:
        raise EnumerationBudget("prismatic point search exceeds the budget")
    xi = wring.wrap(ctx.xi)
    space = [v.coords for v in witt_space(ctx.index_set, ctx.ring)]
    xi_times = {c: wring.mul(xi, c) for c in space}
    # fibers of multiplication by xi: target value -> all preimages
    fibers: dict = {}
    for gamma, key in xi_times.items():
        fibers.setdefault(key, []).append(gamma)
    rels = B.relation_intpolys()
    diffs = _difference_polys(B)

    # every w with a preimage of f(w), and the gamma tuples over it
    over_w = []
    for w in iter_product(space, repeat=g):
        vals = [f.evaluate(wring, list(w)) for f in rels]
        if all(v in fibers for v in vals):
            over_w.append((w, list(iter_product(*[fibers[v] for v in vals]))))
    objects = [(w, gam) for w, gammas in over_w for gam in gammas]
    if len(objects) ** 2 > cap:
        raise EnumerationBudget("morphism enumeration exceeds the budget")

    # alpha sends (w, gamma) to (w + xi*alpha, gamma + D(w, alpha, xi)): all but
    # the gamma sum depends on w alone, so it is stepped once per (w, alpha)
    index = {obj: i for i, obj in enumerate(objects)}
    alphas = list(iter_product(space, repeat=g))
    act = []
    for w, gammas in over_w:
        steps = []
        for alpha in alphas:
            vals = list(w) + list(alpha) + [xi]
            w2 = tuple(wring.add(a, xi_times[b]) for a, b in zip(w, alpha))
            steps.append((w2, [d.evaluate(wring, vals) for d in diffs]))
        for gam in gammas:
            row = [index.get((w2, tuple(map(wring.add, gam, ds)))) for w2, ds in steps]
            if None in row:
                raise PrismaticError("the W^g action left the object set")
            act.append(row)
    # the orbit of an object not yet seen is a new component
    components = []
    seen = set()
    for i, row in enumerate(act):
        if i not in seen:
            seen.update(row)
            components.append(sorted(set(row)))
    return PointGroupoid(wring, objects, alphas, act, components)
