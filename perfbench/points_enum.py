"""points-enum: the brute-force enumeration layers.

Prismatic point groupoids of one-generator presentations over W_{div:2}(Z/4)
with xi = (2, 3), each also under a unit rescaling of xi; a few
two-generator presentations that the enumeration cap refuses; exhaustive
Hodge-Tate, distinguished and W[F]-annihilator searches; cone pi_0 and hom
sets.  These layers make very many tiny Witt kernel calls and generation does
nothing, so the workload shows the enumeration cost.
"""

from __future__ import annotations

import functools
import random

from wittforge import cone, prismatic, structure, universal, witt
from wittforge.indexset import IndexSet, index_set_make

from harness import Workload
from witt_arith import ghost_side

# One-generator relations, chosen to span 0 to 64 objects and 0 to 16
# components at up to 0.4 s each on a 2-CPU box.  They are fixed: the cost of
# a search depends on the relation (even on the size of its coefficients,
# through Z -> W), so the seed draws the scaling units, the hom-set pairs and
# the order of the operations, and every pass does the same enumeration work.
ONE_GENERATOR = ("1*x+1", "1*x^2+1", "2*x+2", "2*x+1")
# two generators: refused by the morphism cap (256 candidates each)
TWO_GENERATOR = (("1*x*y",), ("2*x*y",), ("1*x^2", "1*y^2"))
HOM_PAIRS = 16
AXIOM_SAMPLE = 300  # composable pairs of morphisms checked per groupoid


def _points_into(cell, B, ctx):
    cell[0] = prismatic.prismatic_points_affine(B, ctx)
    return cell[0]


def _points_scaled(B, ctx, u):
    return prismatic.prismatic_points_affine(B, ctx.scaled(u))


def _axioms(cell):
    return cell[0].check_axioms()


def _summary(gpd):
    return (gpd.object_count(), gpd.morphism_count(), len(gpd.components))


class PointsEnum(Workload):
    name = "points-enum"

    def __init__(self, seed, make_ring, scratch, traced):
        self.seed = seed
        self.make_ring = make_ring

    def setup(self):
        universal.clear_memory_cache()
        rng = random.Random(self.seed)
        z4, z2 = self.make_ring("zmod:4"), self.make_ring("zmod:2")
        E1, E2, E4 = IndexSet.explicit([1]), index_set_make("div:2"), index_set_make("ptyp:2:2")
        for E in (E1, E2, E4):
            for op in ("sum", "product", "negation"):
                universal.get_universal(E, op)
            for n in E:
                universal.get_universal(E, f"frobenius:{n}")
        local2 = structure.LocalContext.p_local(2, z4, E2)
        local4 = structure.LocalContext.p_local(2, z4, E4)
        ctx = prismatic.PrismaticContext(z4, E2, witt.make_witt(E2, z4, [2, 3]), local2)
        ctx1 = prismatic.PrismaticContext(
            z4, E1, witt.make_witt(E1, z4, [2]), structure.LocalContext.p_local(2, z4, E1))
        units = [v for v in witt.witt_space(E2, z4) if witt.witt_unit_inverse(v) is not None]

        groups = []
        x_squared = prismatic.AffinePresentation(("x",), ("1*x^2",))
        cell = [None]
        groups.append([("points:x^2", _points_into, (cell, x_squared, ctx1)),
                       ("axioms", _axioms, (cell,))])
        for relation in ONE_GENERATOR:
            B = prismatic.AffinePresentation(("x",), (relation,))
            cell = [None]
            groups.append([("points", _points_into, (cell, B, ctx)),
                           ("axioms", _axioms, (cell,)),
                           ("points_scaled", _points_scaled, (B, ctx, rng.choice(units)))])
        for rels in TWO_GENERATOR:
            B = prismatic.AffinePresentation(("x", "y"), rels)
            groups.append([("points_refused", prismatic.prismatic_points_affine, (B, ctx))])
        for local, E in ((local2, E2), (local4, E4)):
            for v in witt.witt_space(E, z4):
                groups.append([("is_hodge_tate", structure.is_hodge_tate, (v, local)),
                               ("is_distinguished", structure.is_distinguished, (v, local))])
        for ring in (z2, z4):
            for a in witt.witt_space(E2, ring):
                for direction in ("kills_VW", "killed_by_WF"):
                    groups.append([("wf_annihilator_check", structure.wf_annihilator_check,
                                    (a, direction))])
        q = cone.QuasiIdeal.rank_one(ctx.witt_ring, ctx.xi.coords)
        groups.append([("cone_pi0", cone.cone_pi0, (q,))])
        space = [v.coords for v in witt.witt_space(E2, z4)]
        for _ in range(HOM_PAIRS):
            groups.append([("cone_hom_set", cone.cone_hom_set,
                            (q, rng.choice(space), rng.choice(space)))])
        rng.shuffle(groups)
        self.stream = [op for group in groups for op in group]
        self.rng = rng

    def ops(self):
        return self.stream

    def counts(self, outcomes):
        out = {}
        for i, (label, args, result, error) in enumerate(outcomes):
            if error is not None:
                value = error
            elif label.startswith("points"):
                value = _summary(result)
            elif label == "is_distinguished":
                value = result[0]
            elif label == "cone_pi0":
                value = result.size()
            elif label == "cone_hom_set":
                value = len(result)
            else:
                value = result
            out[f"{i}:{label}"] = value
        return out

    def check(self, outcomes):
        problems, checked = [], 0
        for i, (label, args, result, error) in enumerate(outcomes):
            if label == "points_refused" and error != "EnumerationBudget":
                problems.append(f"#{i}: a two-generator search was not refused")
            if error is not None:
                continue
            if label == "points:x^2":
                checked += 1
                if result.object_count() != 4:
                    problems.append(f"x^2 over W_{{1}}(Z/4) has {result.object_count()} objects")
            if label.startswith("points") and not groupoid_axioms_hold(result, self.rng):
                problems.append(f"#{i}: groupoid axioms fail")
            if label == "axioms" and result is not True:
                problems.append(f"#{i}: check_axioms returned {result}")
            if label == "points_scaled":
                checked += 1
                plain = outcomes[i - 2][2]
                if _summary(result) != _summary(plain):
                    problems.append(f"#{i}: counts change under unit scaling")
            checked += label.startswith("points")
        self.checked = checked
        return problems


def groupoid_axioms_hold(gpd, rng) -> bool:
    """Identities, inverses and (on a sample) composition, by hand.

    A morphism is a tuple of Witt vectors, one per generator, and composes by
    Witt addition.  Sums and negatives are taken on the ghost side over a
    torsion-free lift (as in the witt-arith check), not with the kernel that
    built the hom sets.
    """
    if not gpd.objects:
        return True
    E, coeff = gpd.wring.E, gpd.wring.coeff

    def vec(coords):
        return witt.WittVector(E, coeff, coords)

    @functools.cache
    def neg(a):
        return ghost_side("neg", vec(a))

    @functools.cache
    def add(a, b):
        return ghost_side("add", vec(a), vec(b))

    g = len(gpd.objects[0][0])
    zero = tuple(coeff.zero() for _ in E)
    identity = (zero,) * g
    homs = {k: set(v) for k, v in gpd.homs.items()}
    for i in range(len(gpd.objects)):
        if identity not in homs.get((i, i), ()):
            return False
    for (i, j), ms in homs.items():
        for m in ms:
            if tuple(neg(a) for a in m) not in homs.get((j, i), ()):
                return False
    arrows = [(i, j, m) for (i, j), ms in homs.items() for m in ms]
    outgoing: dict = {}
    for i, j, m in arrows:
        outgoing.setdefault(i, []).append((j, m))
    for _ in range(AXIOM_SAMPLE):
        i, j, m1 = rng.choice(arrows)
        k, m2 = rng.choice(outgoing[j])
        if tuple(add(a, b) for a, b in zip(m1, m2)) not in homs.get((i, k), ()):
            return False
    return True
