import random

import pytest

from wittforge.indexset import IndexSet, index_set_make
from wittforge.rings import RATIONALS, make_ring
from wittforge.structure import (
    ContextError,
    DecomposedWitt,
    LocalContext,
    VModuleLocal,
    is_distinguished,
    is_hodge_tate,
    is_in_wf,
    local_decompose,
    local_recompose,
    v_nonfree_obstruction,
    v_one_apply,
    wf_annihilator_check,
)
from wittforge.witt import (
    frobenius,
    ghost_raw,
    make_witt,
    random_witt,
    teichmuller,
    unghost,
    witt_mul,
    witt_one,
    witt_space,
    witt_unit_inverse,
    witt_zero,
)

E2 = IndexSet.divisors_of(2)
E6 = IndexSet.divisors_of(6)
Z4 = make_ring("zmod:4")
Z9 = make_ring("zmod:9")


def test_wf_examples():
    z2 = make_ring("zmod:2")
    for c in range(2):
        assert is_in_wf(make_witt(E2, z2, [0, c]))
    assert not is_in_wf(teichmuller(1, E2, z2))
    assert is_in_wf(witt_zero(E2, z2))


def test_wf_annihilator_equivalence():
    for ring in (make_ring("zmod:2"), Z4):
        for a in witt_space(E2, ring):
            assert is_in_wf(a) == wf_annihilator_check(a, "kills_VW")
    assert wf_annihilator_check(witt_zero(E2, Z4), "killed_by_WF")
    assert not wf_annihilator_check(witt_one(E2, Z4), "kills_VW")


def test_local_context_certificates():
    LocalContext.p_local(3, Z9, E6)
    # 3 is invertible mod 4, so the 2-local context over Z/4 exists
    LocalContext.p_local(2, Z4, E6)
    # over Z/6 neither 2 nor 3 can be inverted
    with pytest.raises(ContextError):
        LocalContext.p_local(3, make_ring("zmod:6"), E6)


def test_decompose_teichmuller():
    ctx = LocalContext.p_local(3, Z9, E6)
    d = local_decompose(teichmuller(5, E6, Z9), ctx)
    assert d.factor(1) == teichmuller(5, ctx.e_typical, Z9)
    assert d.factor(2) == teichmuller(25 % 9, ctx.e_typical, Z9)
    assert local_decompose(witt_zero(E6, Z9), ctx).factor(2).is_zero()


def test_decompose_round_trip_and_iso():
    ctx = LocalContext.p_local(3, Z9, E6)
    rng = random.Random(17)
    for _ in range(100):
        a, b = random_witt(E6, Z9, rng), random_witt(E6, Z9, rng)
        da, db = local_decompose(a, ctx), local_decompose(b, ctx)
        assert local_recompose(da) == a
        dprod = local_decompose(a * b, ctx)
        for n in da.factors:
            assert dprod.factor(n) == da.factor(n) * db.factor(n)
    ctxq = LocalContext.rational(RATIONALS, E6)
    for _ in range(100):
        a = random_witt(E6, RATIONALS, rng)
        assert local_recompose(local_decompose(a, ctxq)) == a


def test_a_decomposition_carries_its_context():
    ctx9 = LocalContext.p_local(3, Z9, E6)
    ctx3 = LocalContext.p_local(3, make_ring("zmod:3"), E6)
    a = random_witt(E6, Z9, random.Random(5))
    d = local_decompose(a, ctx9)
    assert d.context == ctx9
    assert local_recompose(d) == a and local_recompose(d).ring == Z9
    assert v_one_apply(d).ring == Z9
    # recomposing or applying V(1) in another context used to return a
    # vector over that context's ring; the context is no longer an argument
    with pytest.raises(TypeError):
        local_recompose(d, ctx3)
    with pytest.raises(TypeError):
        v_one_apply(d, ctx3)
    # factors over another ring, index set or key set are refused
    with pytest.raises(ContextError):
        DecomposedWitt(ctx3, d.factors)
    with pytest.raises(ContextError):
        DecomposedWitt(ctx9, {1: d.factor(1)})
    with pytest.raises(ContextError):
        DecomposedWitt(ctx9, {n: witt_zero(E2, Z9) for n in d.factors})
    with pytest.raises(ContextError):
        DecomposedWitt(ctx9, {n: 0 for n in d.factors})


def test_scale_refuses_a_vector_of_another_context():
    ctx9 = LocalContext.p_local(3, Z9, E6)
    ctx3 = LocalContext.p_local(3, make_ring("zmod:3"), E6)
    a = random_witt(E6, Z9, random.Random(6))
    w3 = VModuleLocal(ctx3).generator()
    with pytest.raises(ContextError):
        VModuleLocal(ctx9).scale(w3, a)
    w9 = VModuleLocal(ctx9).generator()
    assert VModuleLocal(ctx9).scale(w9, a) == local_decompose(a, ctx9)


def test_witt_unit():
    space = list(witt_space(E2, Z4))
    one = witt_one(E2, Z4)
    for a in space:
        inv = witt_unit_inverse(a)
        brute = any(witt_mul(a, b) == one for b in space)
        assert (inv is not None) == brute
        if inv is not None:
            assert witt_mul(a, inv) == one
    assert witt_unit_inverse(make_witt(E2, Z4, [3, 0])) == make_witt(E2, Z4, [3, 0])
    assert witt_unit_inverse(make_witt(E2, Z4, [2, 1])) is None
    u = Z4.elem(3)
    assert witt_unit_inverse(teichmuller(u, E6, Z4)) is not None


def test_v_one_examples():
    E3 = IndexSet.p_typical(3, 1)
    ctx = LocalContext.p_local(3, Z9, E3)
    gen = VModuleLocal(ctx).generator()
    img = v_one_apply(gen)
    assert img == make_witt(E3, Z9, [0, 1])
    assert ghost_raw(img)[1] == 0
    zero = DecomposedWitt(ctx, {1: witt_zero(E3, Z9)})
    assert v_one_apply(zero).is_zero()
    # image of the generator is Hodge-Tate in the richer index set too
    ctx6 = LocalContext.p_local(3, Z9, E6)
    img6 = v_one_apply(VModuleLocal(ctx6).generator())
    assert is_hodge_tate(img6, ctx6)


def test_v_one_degenerate_direction():
    # E^(p) = {1}: V_p . F_p is zero, so the factor at 1 goes to zero
    ctxq = LocalContext.rational(RATIONALS, E6)
    img = v_one_apply(VModuleLocal(ctxq).generator())
    assert img == make_witt(E6, RATIONALS, ["0", "1/2", "1/3", "5/72"])
    assert ghost_raw(img) == {1: 0, 2: 1, 3: 1, 6: 1}
    Z7 = make_ring("zmod:7")
    ctx5 = LocalContext.p_local(5, Z7, E6)
    assert v_one_apply(VModuleLocal(ctx5).generator()) == make_witt(E6, Z7, [0, 4, 5, 6])


def test_hodge_tate_examples():
    ctx = LocalContext.p_local(2, Z4, E2)
    assert is_hodge_tate(make_witt(E2, Z4, [0, 3]), ctx)
    assert not is_hodge_tate(make_witt(E2, Z4, [0, 2]), ctx)
    assert not is_hodge_tate(make_witt(E2, Z4, [2, 3]), ctx)
    assert not is_hodge_tate(witt_zero(E2, Z4), ctx)
    ctxq = LocalContext.rational(RATIONALS, E2)
    assert is_hodge_tate(unghost({1: 0, 2: 5}, E2, RATIONALS), ctxq)
    assert not is_hodge_tate(unghost({1: 0, 2: 0}, E2, RATIONALS), ctxq)



def ghost_criterion(v):
    """The rational Hodge-Tate criterion, read off the ghost components:
    g_1(v) = 0 and every other g_n(v) a unit."""
    g = ghost_raw(v)
    return g[1] == v.ring.zero() and all(
        v.ring.unit_inverse(g[n]) is not None for n in v.index_set if n != 1
    )


@pytest.mark.parametrize(
    "ring, spec",
    [("zmod:9", "div:2"), ("zmod:9", "set:1,2,4"), ("zmod:9", "div:4"), ("zmod:25", "div:3")],
)
def test_rational_hodge_tate_is_the_ghost_criterion_exhaustively(ring, spec):
    ring, E = make_ring(ring), index_set_make(spec)
    ctx = LocalContext.rational(ring, E)
    verdicts = [(is_hodge_tate(v, ctx), ghost_criterion(v)) for v in witt_space(E, ring)]
    assert all(a == b for a, b in verdicts)
    assert {a for a, _ in verdicts} == {True, False}


def _fractions(st):
    return st.builds("{}/{}".format, st.integers(-9, 9), st.integers(1, 6))


def _coordinates(st, descriptor):
    """Strings of ring elements; a linear term is dropped half the time, so
    constant ghost components, the units of a polynomial ring, come up."""
    if descriptor.startswith("zmod:"):
        return st.integers(0, int(descriptor[5:]) - 1).map(str)
    if descriptor == "rationals":
        return _fractions(st)
    var = "x" if descriptor.startswith("poly") else "t"
    scalar = st.integers(0, 34).map(str) if "zmod:35" in descriptor else _fractions(st)
    linear = st.one_of(st.just("0"), scalar)
    return st.builds(f"{{}}*{var}+{{}}".format, linear, scalar)


POLY_RINGS = ["poly(rationals; x)", "quot(poly(rationals; t); 1*t^2+1)", "quot(poly(zmod:35; t); 1*t^2)"]


@pytest.mark.parametrize(
    "ring, spec",
    [("zmod:25", "div:6"), ("zmod:35", "div:6")]
    + [("rationals", spec) for spec in ("div:6", "div:12", "ptyp:3:2")]
    + [(ring, spec) for ring in POLY_RINGS for spec in ("div:2", "div:6", "ptyp:3:2")],
)
def test_rational_hodge_tate_is_the_ghost_criterion(ring, spec):
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    descriptor, ring, E = ring, make_ring(ring), index_set_make(spec)
    ctx = LocalContext.rational(ring, E)
    coordinate = _coordinates(st, descriptor)
    # the first coordinate is g_1: zero half the time, or the predicate is always false
    first = st.one_of(st.just("0"), coordinate)
    vectors = st.tuples(first, st.lists(coordinate, min_size=len(E) - 1, max_size=len(E) - 1))
    seen = set()

    @hypothesis.settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @hypothesis.given(vectors)
    def check(parts):
        v = make_witt(E, ring, [parts[0], *parts[1]])
        verdict = is_hodge_tate(v, ctx)
        assert verdict == ghost_criterion(v), parts
        seen.add(verdict)

    check()
    assert seen == {True, False}


def test_a_rational_context_refuses_another_vector():
    ctx = LocalContext.rational(RATIONALS, E6)
    with pytest.raises(ContextError):
        is_hodge_tate(unghost({1: 0, 2: 5}, E2, RATIONALS), ctx)
    with pytest.raises(ContextError):
        is_hodge_tate(make_witt(E6, Z9, [0, 1, 1, 1]), ctx)

def test_distinguished_examples():
    ctx = LocalContext.p_local(2, Z4, E2)
    ok, (x, v) = is_distinguished(make_witt(E2, Z4, [2, 3]), ctx)
    assert ok and x == Z4.elem(2) and v == make_witt(E2, Z4, [0, 3])
    # 2 = 1 + 1 = (2, -1) = (2, 3) mod 4
    two = witt_one(E2, Z4) + witt_one(E2, Z4)
    assert two == make_witt(E2, Z4, [2, 3])
    assert is_distinguished(two, ctx)[0]
    assert not is_distinguished(make_witt(E2, Z4, [1, 1]), ctx)[0]


def test_nonfree_obstruction():
    out = v_nonfree_obstruction(IndexSet.divisors_of(10))
    assert out == {"result": "unsat", "congruence": {"n": 10, "m": 2, "p": 5}}
    out2 = v_nonfree_obstruction(E2)
    assert out2["result"] == "sat"
    from wittforge.witt import dwork_check

    witness = {int(k): v for k, v in out2["witness"].items()}
    assert dwork_check(witness, E2)
    with pytest.raises(ContextError):
        v_nonfree_obstruction(IndexSet.explicit([1]))
