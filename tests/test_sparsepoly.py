"""The packed-key engine of IntPoly against independent slow paths: a naive
product on exponent tuples, and evaluation at random integer points.

The strategies draw exponents on both sides of 255 -> 256, so that products,
powers, sums and substitutions cross from one-byte to two-byte keys."""

import pytest

from wittforge.rings import INTEGERS
from wittforge.sparsepoly import IntPoly, _pmul, _width_for

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


def exponents(max_exp):
    """Small exponents, or exponents just below or past a one-byte field."""
    return st.integers(0, max_exp) | st.integers(254, 257)


@st.composite
def polys(draw, nvars, max_exp=4, max_terms=5):
    """Sparse polynomials, often zero or constant, often missing some variables."""
    used = draw(st.sets(st.integers(0, nvars - 1), max_size=nvars)) if nvars else set()
    exps = st.tuples(*(exponents(max_exp) if i in used else st.just(0) for i in range(nvars)))
    terms = draw(st.dictionaries(exps, st.integers(-9, 9), max_size=max_terms))
    return IntPoly(nvars, terms)


def naive_add(a: dict, b: dict) -> dict:
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) + c
    return {e: c for e, c in out.items() if c}


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


@SETTINGS
@hypothesis.given(st.data())
def test_product_of_unequal_sizes(data):
    # a large operand (up to ~30 terms) against a small one, in both orders, so
    # the larger-operand-outer loop runs with either argument outermost
    nvars = data.draw(st.integers(2, 4))
    point = data.draw(st.lists(st.integers(-3, 3), min_size=nvars, max_size=nvars))
    exps = st.tuples(*(st.integers(0, 6) for _ in range(nvars)))
    nonzero = st.integers(-9, 9).filter(bool)
    big = IntPoly(nvars, data.draw(st.dictionaries(exps, nonzero, min_size=10, max_size=30)))
    small = data.draw(polys(nvars, max_terms=3))
    for p, q in ((big, small), (small, big)):
        pq = p * q
        assert pq.terms == naive_mul(p.terms, q.terms)
        assert evaluate(pq, point) == evaluate(p, point) * evaluate(q, point)


@SETTINGS
@hypothesis.given(st.data())
def test_pmul_into_cancelling_out(data):
    # out already holds terms, some of them the negatives of terms of a*b, so
    # adding the product must delete them rather than leave zero coefficients
    nvars, _ = data.draw(cases())
    p = data.draw(polys(nvars, max_terms=30))
    q = data.draw(polys(nvars, max_terms=4))
    product = naive_mul(p.terms, q.terms)
    cancel = {e: -c for e, c in product.items() if data.draw(st.booleans())}
    r = IntPoly(nvars, cancel) + data.draw(polys(nvars))
    width = max(p.width, q.width, r.width, _width_for(p.top + q.top))
    a, b = p._at(width), q._at(width)
    if data.draw(st.booleans()):
        a, b = b, a
    out = _pmul(a, b, dict(r._at(width)))
    got = IntPoly.from_packed(nvars, width, max(p.top + q.top, r.top), out)
    assert 0 not in out.values()
    assert got.terms == naive_add(r.terms, product)


@SETTINGS
@hypothesis.given(st.data())
def test_add_and_sub(data):
    # q repeats some of p's terms with opposite signs, so that they cancel,
    # and its exponents may be wider or narrower than p's
    nvars, point = data.draw(cases())
    p = data.draw(polys(nvars))
    cancel = {e: -c for e, c in p.terms.items() if data.draw(st.booleans())}
    q = IntPoly(nvars, cancel) + data.draw(polys(nvars))
    assert (p + q).terms == naive_add(p.terms, q.terms)
    assert (p - q).terms == naive_add(p.terms, {e: -c for e, c in q.terms.items()})
    assert 0 not in (p + q).terms.values()
    assert evaluate(p - q, point) == evaluate(p, point) - evaluate(q, point)


@SETTINGS
@hypothesis.given(st.data())
def test_equal_across_widths(data):
    # adding and removing a term with exponent 300 leaves p's terms on
    # two-byte keys: still equal to p, with the same hash
    nvars = data.draw(st.integers(1, 4))
    p = data.draw(polys(nvars, max_exp=3))
    wide = IntPoly.var(nvars, data.draw(st.integers(0, nvars - 1)), power=300)
    q = (p + wide) - wide
    assert q.width == max(2, p.width) and q.terms == p.terms
    assert q == p and p == q and hash(q) == hash(p)
    assert q + IntPoly.const(nvars, 1) != p


@SETTINGS
@hypothesis.given(st.data())
def test_frobenius_substitute(data):
    nvars, point = data.draw(cases())
    p = data.draw(polys(nvars))
    k = data.draw(st.sampled_from([2, 3, 5, 257]))
    pk = p.frobenius_substitute(k)
    assert pk.terms == {tuple(k * e for e in exps): c for exps, c in p.terms.items()}
    assert evaluate(pk, point) == evaluate(p, [v**k for v in point])


def test_edge_cases():
    x, y = IntPoly.var(2, 0), IntPoly.var(2, 1)
    zero, three = IntPoly(2), IntPoly.const(2, 3)
    assert (zero * x).terms == {} and (x * zero).terms == {}
    assert (zero**0).terms == {(0, 0): 1} and (zero**3).terms == {}
    assert (three * x**2).terms == {(2, 0): 3}
    # variables missing from one factor
    assert (x**3 * y**2).terms == {(3, 2): 1}
    assert ((x + y) * x**2).terms == {(3, 0): 1, (2, 1): 1}
    assert IntPoly.power_sum(2, [(1, x + y, 2), (-1, x, 2), (-1, y, 2)]).terms == {(1, 1): 2}
    assert IntPoly.power_sum(2, []).terms == {}
    assert (IntPoly.const(0, 2) ** 3).terms == {(): 8}
    assert (IntPoly.const(0, 2) * IntPoly.const(0, -3)).terms == {(): -6}
    assert _pmul({0: 2}, {0: 3}, {0: -6}) == {}
    with pytest.raises(ValueError):
        x**-1


def test_widths():
    assert [_width_for(e) for e in (0, 255, 256, 65535, 65536, 2**32 - 1, 2**32)] == [
        1, 1, 2, 2, 4, 4, 8]
    assert _width_for(2**64 - 1) == 8 and _width_for(2**64) == 16
    for e in (255, 256, 2**16, 2**40, 2**63):
        x = IntPoly.var(2, 1, power=e, coeff=-2)
        assert x.width == _width_for(e) and x.terms == {(0, e): -2}
        assert (x * x).terms == {(0, 2 * e): 4}
        assert (x**3).terms == {(0, 3 * e): -8}
        assert (x * IntPoly.var(2, 0)).terms == {(1, e): -2}
    # a width-one polynomial whose product needs two bytes
    p = IntPoly(2, {(200, 1): 1, (0, 100): 3})
    assert (p * p).width == 2 and (p * p).terms == naive_mul(p.terms, p.terms)


def test_terms_view_is_read_only():
    p = IntPoly(2, {(1, 0): 2, (0, 3): -1})
    view = p.terms
    assert len(view) == 2 and view[(0, 3)] == -1 and (1, 0) in view
    assert (300, 0) not in view and (-1, 0) not in view and (1,) not in view
    assert view.get((2, 2)) is None and sorted(view) == [(0, 3), (1, 0)]
    with pytest.raises(TypeError):
        view[(2, 2)] = 1
    assert dict(view.items()) == {(1, 0): 2, (0, 3): -1} == view


# ---------------------------------------------------------------------------
# block-symmetric inputs: powers of polynomials invariant under swapping the
# two halves of the variable list run through the mirrored product steps


def swapped(p: IntPoly) -> IntPoly:
    half = p.nvars // 2
    return IntPoly(p.nvars, {e[half:] + e[:half]: c for e, c in p.terms.items()})


@st.composite
def symmetric_polys(draw, half, max_exp=3):
    """p + swap(p), plus fixed terms (equal halves), minus some of p's terms
    with their mirrors, so that those monomials cancel again."""
    nvars = 2 * half
    p = draw(polys(nvars, max_exp))
    block = st.tuples(*(exponents(max_exp) for _ in range(half)))
    fixed = draw(st.dictionaries(block, st.integers(-9, 9), max_size=3))
    f = IntPoly(nvars, {e + e: c for e, c in fixed.items()})
    cancel = IntPoly(nvars, {e: c for e, c in p.terms.items() if draw(st.booleans())})
    return p + swapped(p) + f - (cancel + swapped(cancel))


@st.composite
def symmetric_cases(draw):
    half = draw(st.integers(1, 2))
    point = draw(st.lists(st.integers(-3, 3), min_size=2 * half, max_size=2 * half))
    return half, point


@SETTINGS
@hypothesis.given(st.data())
def test_symmetric_product(data):
    half, point = data.draw(symmetric_cases())
    p, q = data.draw(symmetric_polys(half)), data.draw(symmetric_polys(half))
    assert swapped(p) == p and swapped(q) == q
    pq = p * q
    assert pq.terms == naive_mul(p.terms, q.terms)
    assert evaluate(pq, point) == evaluate(p, point) * evaluate(q, point)


@SETTINGS
@hypothesis.given(st.data())
def test_symmetric_power(data):
    half, point = data.draw(symmetric_cases())
    p = data.draw(symmetric_polys(half, max_exp=2))
    k = data.draw(st.integers(0, 5))
    pk = p**k
    assert pk.terms == naive_pow(p.terms, k, 2 * half)
    assert evaluate(pk, point) == evaluate(p, point) ** k


@SETTINGS
@hypothesis.given(st.data())
def test_symmetric_power_sum(data):
    half, point = data.draw(symmetric_cases())
    nvars = 2 * half
    summand = st.tuples(st.integers(-4, 4), symmetric_polys(half, max_exp=2), st.integers(0, 5))
    summands = data.draw(st.lists(summand, min_size=1, max_size=3))
    if data.draw(st.booleans()):
        # a summand that is not swap-invariant takes the plain path
        summands.append((1, data.draw(polys(nvars, max_exp=2)), data.draw(st.integers(0, 4))))
    total = IntPoly.power_sum(nvars, summands)
    expected = IntPoly(nvars)
    for c, p, k in summands:
        expected = expected + IntPoly(nvars, naive_pow(p.terms, k, nvars)) * c
    assert total.terms == expected.terms
    assert evaluate(total, point) == sum(c * evaluate(p, point) ** k for c, p, k in summands)


@SETTINGS
@hypothesis.given(st.data())
def test_symmetric_maxima_without_symmetry(data):
    # a support that is swap-invariant but a coefficient that breaks the
    # swap invariance: the power must fall back to the plain path
    half, _ = data.draw(symmetric_cases())
    nvars = 2 * half
    p = data.draw(symmetric_polys(half, max_exp=2))
    movable = [e for e in sorted(p.terms) if e[half:] + e[:half] != e]
    hypothesis.assume(movable)
    e = data.draw(st.sampled_from(movable))
    # doubling one coefficient keeps the support
    p = p + IntPoly(nvars, {e: p.terms[e]})
    assert swapped(p) != p
    k = data.draw(st.integers(3, 4))
    assert (p**k).terms == naive_pow(p.terms, k, nvars)


def test_symmetric_edge_cases():
    x, y = IntPoly.var(2, 0), IntPoly.var(2, 1)
    # a fixed term only (x*y), a canonical pair only (x + y), and both
    assert ((x * y) ** 3).terms == {(3, 3): 1}
    assert ((x + y) ** 3).terms == {(3, 0): 1, (2, 1): 3, (1, 2): 3, (0, 3): 1}
    assert ((x + y + x * y) ** 3).terms == naive_pow((x + y + x * y).terms, 3, 2)
    # x^2 + 2x + y^2 - y has symmetric maxima and is not swap-invariant
    p = x**2 + 2 * x + y**2 - y
    assert (p**3).terms == naive_pow(p.terms, 3, 2)
