"""The packed-key engine of IntPoly against independent slow paths: a naive
product on exponent tuples, and evaluation at random integer points."""

import pytest

from wittforge.rings import INTEGERS
from wittforge.sparsepoly import IntPoly

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

SETTINGS = hypothesis.settings(max_examples=200, deadline=None, derandomize=True, database=None)


def naive_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def naive_pow(a: dict, k: int, nvars: int) -> dict:
    out = {(0,) * nvars: 1}
    for _ in range(k):
        out = naive_mul(out, a)
    return out


@st.composite
def polys(draw, nvars, max_exp=4):
    """Sparse polynomials, often zero or constant, often missing some variables."""
    used = draw(st.sets(st.integers(0, nvars - 1), max_size=nvars)) if nvars else set()
    exps = st.tuples(*(st.integers(0, max_exp if i in used else 0) for i in range(nvars)))
    terms = draw(st.dictionaries(exps, st.integers(-9, 9), max_size=5))
    return IntPoly(nvars, terms)


def evaluate(p, point):
    return p.evaluate(INTEGERS, point)


@st.composite
def cases(draw):
    nvars = draw(st.integers(0, 4))
    point = draw(st.lists(st.integers(-3, 3), min_size=nvars, max_size=nvars))
    return nvars, point


@SETTINGS
@hypothesis.given(st.data())
def test_product(data):
    nvars, point = data.draw(cases())
    p, q = data.draw(polys(nvars)), data.draw(polys(nvars))
    pq = p * q
    assert pq.terms == naive_mul(p.terms, q.terms)
    assert evaluate(pq, point) == evaluate(p, point) * evaluate(q, point)


@SETTINGS
@hypothesis.given(st.data())
def test_power(data):
    nvars, point = data.draw(cases())
    p = data.draw(polys(nvars, max_exp=3))
    k = data.draw(st.integers(0, 5))
    pk = p**k
    assert pk.terms == naive_pow(p.terms, k, nvars)
    assert evaluate(pk, point) == evaluate(p, point) ** k


@SETTINGS
@hypothesis.given(st.data())
def test_power_sum(data):
    nvars, point = data.draw(cases())
    summands = data.draw(
        st.lists(st.tuples(st.integers(-4, 4), polys(nvars, max_exp=3), st.integers(0, 4)),
                 max_size=4)
    )
    total = IntPoly.power_sum(nvars, summands)
    expected = IntPoly(nvars)
    for c, p, k in summands:
        expected = expected + IntPoly(nvars, naive_pow(p.terms, k, nvars)) * c
    assert total.terms == expected.terms
    assert evaluate(total, point) == sum(c * evaluate(p, point) ** k for c, p, k in summands)


def test_edge_cases():
    x, y = IntPoly.var(2, 0), IntPoly.var(2, 1)
    zero, three = IntPoly(2), IntPoly.const(2, 3)
    assert (zero * x).terms == {} and (x * zero).terms == {}
    assert (zero**0).terms == {(0, 0): 1} and (zero**3).terms == {}
    assert (three * x**2).terms == {(2, 0): 3}
    # variables missing from one factor: the radix must come from both
    assert (x**3 * y**2).terms == {(3, 2): 1}
    assert ((x + y) * x**2).terms == {(3, 0): 1, (2, 1): 1}
    assert IntPoly.power_sum(2, [(1, x + y, 2), (-1, x, 2), (-1, y, 2)]).terms == {(1, 1): 2}
    assert IntPoly.power_sum(2, []).terms == {}
    assert (IntPoly.const(0, 2) ** 3).terms == {(): 8}
    with pytest.raises(ValueError):
        x**-1
