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
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product as iter_product

from .cone import Pi0, QuasiIdeal, cone_pi0
from .indexset import IndexSet
from .rings import PolyRing, Ring, INTEGERS
from .sparsepoly import IntPoly
from .structure import EnumerationBudget, LocalContext, is_distinguished
from .witt import WittRing, WittVector, witt_space, witt_space_size

DEFAULT_POINT_CAP = 200_000


class PrismaticError(Exception):
    pass


@dataclass(frozen=True)
class AffinePresentation:
    """B = Z[x_j] / (f_1, .., f_m), relations as integer polynomials."""

    generators: tuple
    relations: tuple = ()
    koszul_regular: bool = True

    def __post_init__(self):
        ring = self.coordinate_ring()
        canon = []
        for rel in self.relations:
            if isinstance(rel, str):
                rel = ring.el_from_str(rel)
            rel = ring.canonicalize(rel)
            if rel == ring.zero():
                raise PrismaticError("zero relation is a zerodivisor: not Koszul regular")
            canon.append(rel)
        object.__setattr__(self, "relations", tuple(canon))

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
        ok, _ = is_distinguished(self.xi, self.local)
        if not ok:
            raise PrismaticError(f"{self.xi} is not distinguished")
        self.witt_ring = WittRing(self.index_set, self.ring)

    def quasi_ideal(self) -> QuasiIdeal:
        return QuasiIdeal.rank_one(self.witt_ring, self.xi.coords)

    def scaled(self, unit: WittVector) -> "PrismaticContext":
        from .witt import witt_mul, witt_unit_inverse

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
    pi0: Pi0  # W_E(R) / (xi)
    rbar: Pi0  # R / (xi_1)

    def level_arith(self, n: int, op: str, u, v=None):
        from .cone import cone_level_arith

        return cone_level_arith(self.quasi_ideal, n, op, u, v)

    def pi0_to_rbar(self, cls_index: int) -> int:
        w = self.pi0.classes[cls_index]
        return self.rbar.class_of(w[0])

    def r_to_rbar(self, r) -> int:
        return self.rbar.class_of(r)

    def check_pi0_maps(self):
        """Surjectivity and nilpotent kernels of pi0(Wbar_n(R)) -> Rbar <- R."""
        hit = {self.pi0_to_rbar(i) for i in range(len(self.pi0.classes))}
        if hit != set(range(len(self.rbar.classes))):
            return False
        if {self.r_to_rbar(r) for r in self.context.ring.elements()} != set(
            range(len(self.rbar.classes))
        ):
            return False
        zero_cls = self.rbar.class_of(self.context.ring.zero())
        wr = self.context.witt_ring
        zero_w = self.pi0.class_of(wr.zero())
        for i in range(len(self.pi0.classes)):
            if self.pi0_to_rbar(i) == zero_cls:
                if not self._pi0_nilpotent(i, zero_w):
                    return False
        for r in self.context.ring.elements():
            if self.r_to_rbar(r) == zero_cls:
                if self.context.ring.nilpotent_index(r) is None:
                    return False
        return True

    def _pi0_nilpotent(self, cls_index: int, zero_cls: int) -> bool:
        wr = self.context.witt_ring
        rep = self.pi0.classes[cls_index]
        power = rep
        for _ in range(len(self.pi0.classes) + 1):
            if self.pi0.class_of(power) == zero_cls:
                return True
            power = wr.mul(power, rep)
        return False

    def kernel_squares_into_ideal(self) -> bool:
        """Every pi0-kernel class has square zero in pi0 (VW^2 inside (xi))."""
        zero_cls = self.rbar.class_of(self.context.ring.zero())
        wr = self.context.witt_ring
        zero_w = self.pi0.class_of(wr.zero())
        for i in range(len(self.pi0.classes)):
            if self.pi0_to_rbar(i) != zero_cls:
                continue
            rep = self.pi0.classes[i]
            # quotient further to R/(x): the class of VW + (xi); its square
            for j in range(len(self.pi0.classes)):
                if self.pi0_to_rbar(j) != zero_cls:
                    continue
                prod = wr.mul(rep, self.pi0.classes[j])
                if self.pi0.class_of(prod) != zero_w:
                    return False
        return True


def wbar_ring(ctx: PrismaticContext) -> WbarModel:
    if ctx.ring.size() is None:
        raise EnumerationBudget("wbar model needs a finite ring")
    q = ctx.quasi_ideal()
    pi0 = cone_pi0(q)
    rbar = cone_pi0(QuasiIdeal.rank_one(ctx.ring, ctx.xi.coords[0]))
    return WbarModel(ctx, q, pi0, rbar)


# ---------------------------------------------------------------------------
# J(X) points: homomorphisms into the Witt vectors themselves


def witt_points(B: AffinePresentation, E: IndexSet, ring: Ring, cap: int = DEFAULT_POINT_CAP):
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
    wring: WittRing
    objects: list  # (w tuple of coord-tuples, gamma tuple of coord-tuples)
    homs: dict  # (i, j) -> list of alpha tuples
    components: list  # pi0: lists of object indices

    def object_count(self):
        return len(self.objects)

    def hom(self, i, j):
        return self.homs.get((i, j), [])

    def morphism_count(self):
        return sum(len(v) for v in self.homs.values())

    def _compose(self, m1, m2):
        return tuple(self.wring.add(x, y) for x, y in zip(m1, m2))

    def check_axioms(self) -> bool:
        n = len(self.objects)
        g = len(self.objects[0][0]) if self.objects else 0
        identity = tuple(self.wring.zero() for _ in range(g))
        for i in range(n):
            if identity not in self.hom(i, i):
                return False
        for (i, j), ms in self.homs.items():
            for m in ms:
                inverse = tuple(self.wring.neg(a) for a in m)
                if inverse not in self.hom(j, i):
                    return False
        for (i, j), ms1 in self.homs.items():
            for (j2, k), ms2 in self.homs.items():
                if j2 != j:
                    continue
                for m1 in ms1:
                    for m2 in ms2:
                        if self._compose(m1, m2) not in self.hom(i, k):
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
    B: AffinePresentation, ctx: PrismaticContext, cap: int = DEFAULT_POINT_CAP
) -> PointGroupoid:
    wring = ctx.witt_ring
    size = wring.size()
    g = len(B.generators)
    if size is None or size**g > cap:
        raise EnumerationBudget("prismatic point search exceeds the budget")
    if len(B.relations) > 1 and not B.koszul_regular:
        raise PrismaticError("multiple relations need the Koszul-regularity assertion")
    xi = wring.wrap(ctx.xi)
    space = [v.coords for v in witt_space(ctx.index_set, ctx.ring)]
    # fibers of multiplication by xi: target value -> all preimages
    fibers: dict = {}
    for gamma in space:
        key = wring.mul(xi, gamma)
        fibers.setdefault(key, []).append(gamma)
    rels = B.relation_intpolys()
    diffs = _difference_polys(B)

    objects = []
    for combo in iter_product(space, repeat=g):
        vals = [f.evaluate(wring, list(combo)) for f in rels]
        if any(v not in fibers for v in vals):
            continue
        for gammas in iter_product(*[fibers[v] for v in vals]) if rels else [()]:
            objects.append((tuple(combo), tuple(gammas)))
    if len(objects) ** 2 > cap:
        raise EnumerationBudget("morphism enumeration exceeds the budget")

    _koszul_pair_check(rels, wring, objects, xi)

    homs: dict = {}
    for i, (w, gam) in enumerate(objects):
        for j, (w2, gam2) in enumerate(objects):
            deltas = [wring.sub(b, a) for a, b in zip(w, w2)]
            if any(d not in fibers for d in deltas):
                continue
            found = []
            for alpha in iter_product(*[fibers[d] for d in deltas]):
                ok = True
                for k, dpoly in enumerate(diffs):
                    vals = list(w) + list(alpha) + [xi]
                    transported = wring.add(gam[k], dpoly.evaluate(wring, vals))
                    if transported != gam2[k]:
                        ok = False
                        break
                if ok:
                    found.append(tuple(alpha))
            if found:
                homs[(i, j)] = found

    components = _components(len(objects), homs)
    return PointGroupoid(wring, objects, homs, components)


def _koszul_pair_check(rels, wring, objects, xi):
    """Well-definedness of f_k -> g_k on the Koszul syzygies f_l f_k = f_k f_l."""
    for w, gam in objects[: min(len(objects), 64)]:
        vals = [f.evaluate(wring, list(w)) for f in rels]
        for k in range(len(rels)):
            for l in range(k + 1, len(rels)):
                left = wring.mul(vals[l], gam[k])
                right = wring.mul(vals[k], gam[l])
                if left != right:
                    raise PrismaticError(
                        "syzygy inconsistency: the assigned preimages do not "
                        "satisfy the quasi-ideal relation"
                    )


def _components(n, homs):
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for (i, j) in homs:
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[ri] = rj
    groups: dict = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    return sorted(groups.values())
