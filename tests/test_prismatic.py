import dataclasses
from collections import Counter
from itertools import product as iter_product

import pytest

from wittforge.cone import cone_level_mul
from wittforge.indexset import IndexSet
from wittforge.rings import make_ring
from wittforge.sparsepoly import IntPoly
from wittforge.structure import EnumerationBudget, LocalContext
from wittforge.prismatic import (
    AffinePresentation,
    PrismaticContext,
    PrismaticError,
    _difference_polys,
    prismatic_points_affine,
    wbar_ring,
    witt_points,
)
from wittforge.witt import WittRing, make_witt, witt_mul, witt_space, witt_unit_inverse

Z4 = make_ring("zmod:4")
E1 = IndexSet.explicit([1])
E2 = IndexSet.divisors_of(2)


def ctx_e1():
    return PrismaticContext(Z4, E1, make_witt(E1, Z4, [2]), LocalContext.p_local(2, Z4, E1))


def ctx_e2():
    return PrismaticContext(Z4, E2, make_witt(E2, Z4, [2, 3]), LocalContext.p_local(2, Z4, E2))


def test_context_requires_distinguished():
    with pytest.raises(PrismaticError):
        PrismaticContext(Z4, E1, make_witt(E1, Z4, [1]), LocalContext.p_local(2, Z4, E1))


@pytest.mark.parametrize("ring, E", [(make_ring("zmod:8"), E2), (Z4, E1)], ids=["ring", "index-set"])
def test_context_agrees_with_its_xi(ring, E):
    # xi = (2, 3) and the local context lie over W_{1,2}(Z/4)
    xi = make_witt(E2, Z4, [2, 3])
    with pytest.raises(PrismaticError, match="is not in W_"):
        PrismaticContext(ring, E, xi, LocalContext.p_local(2, Z4, E2))


def test_wbar_pi0():
    model = wbar_ring(ctx_e1())
    assert model.pi0.size() == 2
    assert model.rbar.size() == 2
    assert model.check_pi0_maps()


def test_wbar_levels():
    model = wbar_ring(ctx_e2())
    W = model.context.witt_ring
    u = (W.from_int(1), (W.from_int(3),))
    v = (W.from_int(2), (W.from_int(5),))
    prod = cone_level_mul(model.quasi_ideal, u, v)
    assert prod[0] == W.from_int(2)
    assert model.check_pi0_maps()
    assert model.kernel_squares_into_ideal()


def test_x_squared_groupoid():
    gpd = prismatic_points_affine(AffinePresentation(("x",), ("1*x^2",)), ctx_e1())
    assert gpd.object_count() == 4
    ws = sorted((w[0][0], g[0][0]) for w, g in gpd.objects)
    assert ws == [(0, 0), (0, 2), (2, 0), (2, 2)]
    assert gpd.check_axioms()
    assert len(gpd.components) == 2


def test_free_groupoid():
    model = wbar_ring(ctx_e2())
    gpd = prismatic_points_affine(AffinePresentation(("x",)), ctx_e2())
    assert gpd.object_count() == 16
    assert len(gpd.components) == model.pi0.size()
    sizes = {len(ms) for ms in gpd.homs.values()}
    assert len(sizes) == 1  # |Hom| constant within classes, zero across
    assert gpd.check_axioms()


def test_unit_scaling_invariance():
    base = prismatic_points_affine(AffinePresentation(("x",), ("1*x^2",)), ctx_e2())
    scaled_ctx = ctx_e2().scaled(make_witt(E2, Z4, [3, 1]))
    scaled = prismatic_points_affine(AffinePresentation(("x",), ("1*x^2",)), scaled_ctx)
    assert base.object_count() == scaled.object_count()
    assert base.morphism_count() == scaled.morphism_count()
    assert len(base.components) == len(scaled.components)


def test_scaling_requires_unit():
    with pytest.raises(PrismaticError):
        ctx_e2().scaled(make_witt(E2, Z4, [2, 0]))


def test_witt_points():
    z2 = make_ring("zmod:2")
    pts = witt_points(AffinePresentation(("x",)), E2, z2)
    assert len(pts) == 4
    idem = witt_points(AffinePresentation(("x",), ("1*x^2+-1*x",)), E2, z2)
    brute = [w for w in witt_space(E2, z2) if witt_mul(w, w) == w]
    assert len(idem) == len(brute) == 2
    none = witt_points(AffinePresentation(("x",), ("1",)), E2, z2)
    assert none == []


def test_zero_relation_rejected():
    with pytest.raises(PrismaticError):
        AffinePresentation(("x",), ("0",))


def test_budget():
    z8 = make_ring("zmod:8")
    E3 = IndexSet.p_typical(2, 2)
    with pytest.raises(EnumerationBudget):
        witt_points(AffinePresentation(("x", "y", "z")), E3, z8, cap=100)


@pytest.mark.parametrize(
    "generators, relations",
    [
        (("x",), ("1*x^2",)),
        (("x",), ("1*x^3+-1*x",)),
        (("x", "y"), ("1*x*y+-1",)),
        (("x", "y"), ("1*y^2+-1*x", "1*x^2")),
        (("x",), ("2*x",)),
        (("x", "y"), ("1*x^2*y^3+3*x",)),
    ],
)
def test_difference_polynomial_at_zero_is_the_jacobian(generators, relations):
    # D_f(X, A, 0) = sum_j df/dx_j(X) * A_j, with the partials taken formally
    B = AffinePresentation(generators, relations)
    g = len(generators)
    for f, d in zip(B.relation_intpolys(), _difference_polys(B)):
        at_zero = {e[:-1]: c for e, c in d.terms.items() if e[-1] == 0}
        jacobian = IntPoly(2 * g)
        for j in range(g):
            unit = tuple(int(k == j) for k in range(g))
            jacobian = jacobian + IntPoly(2 * g, {
                tuple(x - u for x, u in zip(e, unit)) + unit: c * e[j]
                for e, c in f.terms.items() if e[j]
            })
        assert IntPoly(2 * g, at_zero) == jacobian, f


def test_two_generators():
    B = AffinePresentation(("x", "y"), ("1*x^2",))
    gpd = prismatic_points_affine(B, ctx_e1())
    # objects: (w_x, w_y, gamma) with 2*gamma = w_x^2: 4 choices of (w_x, gamma), 4 of w_y
    assert gpd.object_count() == 16
    assert gpd.check_axioms()


def test_groupoid_json():
    gpd = prismatic_points_affine(AffinePresentation(("x",), ("1*x^2",)), ctx_e1())
    obj = gpd.to_json()
    assert len(obj["objects"]) == 4
    assert len(obj["morphism_counts"]) == 4
    assert obj["pi0"]


@pytest.mark.parametrize("relations", [("1*x*y",), ("2*x*y",), ("1*x^2", "1*y^2")])
def test_two_generator_refusals(relations):
    # 512 or 1,024 objects: the objects^2 bound refuses them before any walk
    with pytest.raises(EnumerationBudget):
        prismatic_points_affine(AffinePresentation(("x", "y"), relations), ctx_e2())


# ---------------------------------------------------------------------------
# the action-law check against the hom-set check it replaced: every pair of
# hom keys, one Witt addition per composable pair of morphisms


def _hom_pair_axioms(gpd):
    wring = gpd.wring
    g = len(gpd.objects[0][0]) if gpd.objects else 0
    identity = tuple(wring.zero() for _ in range(g))
    for i in range(len(gpd.objects)):
        if identity not in gpd.hom(i, i):
            return False
    for (i, j), ms in gpd.homs.items():
        for m in ms:
            inverse = tuple(wring.neg(a) for a in m)
            if inverse not in gpd.hom(j, i):
                return False
    for (i, j), ms1 in gpd.homs.items():
        for (j2, k), ms2 in gpd.homs.items():
            if j2 != j:
                continue
            for m1 in ms1:
                for m2 in ms2:
                    if tuple(wring.add(x, y) for x, y in zip(m1, m2)) not in gpd.hom(i, k):
                        return False
    return True


@pytest.mark.parametrize("corruption", ["identity moved", "targets swapped", "target redirected"])
def test_action_law_rejects_corrupted_tables(corruption):
    gpd = prismatic_points_affine(AffinePresentation(("x",), ("1*x^2+1",)), ctx_e2())
    assert gpd.check_axioms() and _hom_pair_axioms(gpd)
    row = gpd.act[0]
    zero = gpd.alphas.index(tuple(gpd.wring.zero() for _ in gpd.alphas[0]))
    a, b = next(
        (a, b) for a in range(len(row)) for b in range(a) if zero not in (a, b) and row[a] != row[b]
    )
    edits = {
        "identity moved": {zero: 1},
        "targets swapped": {a: row[b], b: row[a]},
        "target redirected": {a: next(j for j in range(gpd.object_count()) if j != row[a])},
    }[corruption]
    act = [list(r) for r in gpd.act]
    for k, j in edits.items():
        act[0][k] = j
    bad = dataclasses.replace(gpd, act=act)  # a new instance: homs derive from the bad table
    assert not bad.check_axioms()
    assert not _hom_pair_axioms(bad)


# ---------------------------------------------------------------------------
# the action-groupoid walk against a brute-force oracle: every pair of
# objects, every alpha in the fibre product, and a union-find for pi0


def _brute_force_groupoid(B, ctx):
    wring = ctx.witt_ring
    g = len(B.generators)
    xi = wring.wrap(ctx.xi)
    space = [v.coords for v in witt_space(ctx.index_set, ctx.ring)]
    fibers: dict = {}
    for gamma in space:
        fibers.setdefault(wring.mul(xi, gamma), []).append(gamma)
    rels = B.relation_intpolys()
    diffs = _difference_polys(B)

    objects = []
    for combo in iter_product(space, repeat=g):
        vals = [f.evaluate(wring, list(combo)) for f in rels]
        if any(v not in fibers for v in vals):
            continue
        for gammas in iter_product(*[fibers[v] for v in vals]) if rels else [()]:
            objects.append((tuple(combo), tuple(gammas)))

    homs: dict = {}
    for i, (w, gam) in enumerate(objects):
        for j, (w2, gam2) in enumerate(objects):
            deltas = [wring.sub(b, a) for a, b in zip(w, w2)]
            if any(d not in fibers for d in deltas):
                continue
            found = []
            for alpha in iter_product(*[fibers[d] for d in deltas]):
                vals = list(w) + list(alpha) + [xi]
                if all(
                    wring.add(gam[k], dpoly.evaluate(wring, vals)) == gam2[k]
                    for k, dpoly in enumerate(diffs)
                ):
                    found.append(tuple(alpha))
            if found:
                homs[(i, j)] = found

    parent = list(range(len(objects)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i, j in homs:
        parent[find(i)] = find(j)
    groups: dict = {}
    for i in range(len(objects)):
        groups.setdefault(find(i), []).append(i)
    return objects, homs, sorted(groups.values())


def _draw_presentation(draw, st):
    """Relations of degree <= 2: 0-2 over W_{1}(Z/4) in 1-2 generators, 0-1 over W_{div:2}(Z/4)
    in one (two there give up to 256 objects, 5 s of brute force each)."""
    ctx, g, most = draw(st.sampled_from([(ctx_e1, 1, 2), (ctx_e1, 2, 2), (ctx_e2, 1, 1)]))
    ctx = ctx()
    monomials = [e for e in iter_product(range(3), repeat=g) if sum(e) <= 2]
    coeffs = st.integers(-3, 3).filter(bool)
    relation = st.dictionaries(st.sampled_from(monomials), coeffs, min_size=1, max_size=3)
    relations = draw(st.lists(relation, max_size=most))
    B = AffinePresentation(("x", "y")[:g], tuple(tuple(r.items()) for r in relations))
    if draw(st.booleans()):
        units = [v for v in witt_space(ctx.index_set, Z4) if witt_unit_inverse(v) is not None]
        ctx = ctx.scaled(draw(st.sampled_from(units)))
    return B, ctx


def test_groupoid_matches_brute_force():
    # hypothesis is imported here so that the rest of the module runs without it
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @hypothesis.settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @hypothesis.given(st.data())
    def check(data):
        B, ctx = _draw_presentation(data.draw, st)
        try:
            expected = _brute_force_groupoid(B, ctx)
        except PrismaticError as e:
            with pytest.raises(PrismaticError, match=str(e)):
                prismatic_points_affine(B, ctx)
            return
        gpd = prismatic_points_affine(B, ctx)
        assert gpd.check_axioms()
        assert (gpd.objects, list(gpd.homs.items()), gpd.components) == (
            expected[0], list(expected[1].items()), expected[2])

    check()


# WittRing operations of each walk over W_{div:2}(Z/4), xi = (2, 3): the
# polynomial evaluation makes no from_int for a coefficient of 1 or -1 and
# no zero() to start a sum.  The plain evaluation made 608, 1904, 2144, 96,
# 5136 and 1536 operations on these six.
WALK_OPS = [
    ("1*x+1", {"add": 336, "mul": 16, "from_int": 16}),
    ("1*x^2+1", {"add": 784, "mul": 544, "from_int": 144}),
    ("2*x+2", {"add": 1296, "mul": 288, "from_int": 288}),
    ("2*x+1", {"add": 16, "mul": 32, "from_int": 32}),
    ("1*x^3+-1*x", {"add": 1552, "mul": 2160, "neg": 208, "from_int": 384}),
]


def _counting(monkeypatch):
    counts = Counter()
    for name in ("add", "mul", "neg", "from_int"):
        def counted(self, *args, _op=getattr(WittRing, name), _name=name):
            counts[_name] += 1
            return _op(self, *args)

        monkeypatch.setattr(WittRing, name, counted)
    return counts


@pytest.mark.parametrize("relation, ops", WALK_OPS, ids=[r for r, _ in WALK_OPS])
def test_the_walk_makes_its_pinned_witt_operations(monkeypatch, relation, ops):
    counts = _counting(monkeypatch)
    prismatic_points_affine(AffinePresentation(("x",), (relation,)), ctx_e2())
    assert counts == ops


def test_witt_points_make_their_pinned_witt_operations(monkeypatch):
    counts = _counting(monkeypatch)
    pts = witt_points(AffinePresentation(("x", "y"), ("1*x*y+-1",)), E2, Z4)
    assert len(pts) == 8 and counts == {"add": 256, "mul": 256, "from_int": 256}
