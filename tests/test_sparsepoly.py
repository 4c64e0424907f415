"""The packed-key engine of IntPoly against independent slow paths: a naive
product on exponent tuples, and evaluation at random integer points.
Evaluation itself is checked against the plain sum of from_int(c) times the
powers, over five rings.

The strategies draw exponents on both sides of 255 -> 256, so that products,
powers, sums and substitutions cross from one-byte to two-byte keys.  Each
strategy is built once per variable count and variable subset and then
shared, so that Hypothesis builds and validates it once rather than on
every draw."""

import random
from functools import lru_cache

import pytest

from wittforge.indexset import index_set_make
from wittforge.rings import INTEGERS, make_ring
from wittforge.sparsepoly import IntPoly, _pmul, _width_for
from wittforge.witt import WittRing

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


@lru_cache(maxsize=None)
def term_dicts(nvars, used, max_exp, max_terms):
    """Terms in the variables of `used` only."""
    exps = st.tuples(*(exponents(max_exp) if i in used else st.just(0) for i in range(nvars)))
    return st.dictionaries(exps, st.integers(-9, 9), max_size=max_terms)


@lru_cache(maxsize=None)
def polys(nvars, max_exp=4, max_terms=5):
    """Sparse polynomials, often zero or constant, often missing some variables."""
    used = st.sets(st.integers(0, nvars - 1), max_size=nvars) if nvars else st.just(set())
    return used.flatmap(
        lambda u: term_dicts(nvars, frozenset(u), max_exp, max_terms)
    ).map(lambda terms: IntPoly(nvars, terms))


def naive_add(a: dict, b: dict) -> dict:
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) + c
    return {e: c for e, c in out.items() if c}


def evaluate(p, point):
    return p.evaluate(INTEGERS, point)


@lru_cache(maxsize=None)
def points(nvars):
    return st.lists(st.integers(-3, 3), min_size=nvars, max_size=nvars)


@st.composite
def cases(draw):
    nvars = draw(st.integers(0, 4))
    return nvars, draw(points(nvars))


@lru_cache(maxsize=None)
def dense_dicts(nvars):
    """10 to 30 nonzero terms of exponents up to 6."""
    exps = st.tuples(*(st.integers(0, 6) for _ in range(nvars)))
    return st.dictionaries(exps, st.integers(-9, 9).filter(bool), min_size=10, max_size=30)


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
    point = data.draw(points(nvars))
    big = IntPoly(nvars, data.draw(dense_dicts(nvars)))
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
# block-symmetric inputs, the shape of the sum and product families: powers
# of polynomials invariant under swapping the two halves of the variable list


def swapped(p: IntPoly) -> IntPoly:
    half = p.nvars // 2
    return IntPoly(p.nvars, {e[half:] + e[:half]: c for e, c in p.terms.items()})


@lru_cache(maxsize=None)
def half_dicts(half, max_exp):
    block = st.tuples(*(exponents(max_exp) for _ in range(half)))
    return st.dictionaries(block, st.integers(-9, 9), max_size=3)


@lru_cache(maxsize=None)
@st.composite
def symmetric_polys(draw, half, max_exp=3):
    """p + swap(p), plus fixed terms (equal halves), minus some of p's terms
    with their mirrors, so that those monomials cancel again."""
    nvars = 2 * half
    p = draw(polys(nvars, max_exp))
    fixed = draw(half_dicts(half, max_exp))
    f = IntPoly(nvars, {e + e: c for e, c in fixed.items()})
    cancel = IntPoly(nvars, {e: c for e, c in p.terms.items() if draw(st.booleans())})
    return p + swapped(p) + f - (cancel + swapped(cancel))


@st.composite
def symmetric_cases(draw):
    half = draw(st.integers(1, 2))
    return half, draw(points(2 * half))


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
        # and a summand that is not swap-invariant
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
    # swap invariance
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


# ---------------------------------------------------------------------------
# strips: power_sum packs one dense variable of each monomial class into an
# int.  A grading (weights under which a summand may or may not be
# homogeneous) changes only how dense the strips are, never a result.


def naive_power_sum(nvars, summands) -> dict:
    total: dict = {}
    for c, p, k in summands:
        total = naive_add(total, {e: c * v for e, v in naive_pow(p.terms, k, nvars).items()})
    return total


@st.composite
def gradings(draw, nvars):
    """One grading over all variables, or one per block of a split variable
    list, as for the product families: weights 0 to 3, with a variable of
    weight 1 in each grading that the other grading weighs 0."""
    if nvars >= 2 and draw(st.booleans()):
        cut = draw(st.integers(1, nvars - 1))
        blocks = [range(cut), range(cut, nvars)]
    else:
        blocks = [range(nvars)]
    out = []
    for block in blocks:
        w = [0] * nvars
        for i in block:
            w[i] = draw(st.integers(0, 3))
        w[draw(st.sampled_from(block))] = 1
        out.append(w)
    return out


def homogeneous_part(p: IntPoly, w) -> IntPoly:
    """The terms of p of the weighted degree of its first term."""
    degrees = {e: sum(x * y for x, y in zip(e, w)) for e in p.terms}
    first = next(iter(degrees.values()), None)
    return IntPoly(p.nvars, {e: c for e, c in p.terms.items() if degrees[e] == first})


@SETTINGS
@hypothesis.given(st.data())
def test_power_sum_under_gradings(data):
    # bases homogeneous for the first grading (dense strips, as in the
    # universal families) or not homogeneous at all
    nvars = data.draw(st.integers(1, 4))
    grading = data.draw(gradings(nvars))
    summand = st.tuples(st.integers(-4, 4), polys(nvars, max_exp=3), st.integers(0, 4))
    summands = data.draw(st.lists(summand, max_size=4))
    if data.draw(st.booleans()):
        summands = [(c, homogeneous_part(p, grading[0]), k) for c, p, k in summands]
    total = IntPoly.power_sum(nvars, summands, grading)
    assert total.terms == naive_power_sum(nvars, summands)


@SETTINGS
@hypothesis.given(st.data())
def test_power_sum_two_block_gradings(data):
    # bases that are products of a homogeneous polynomial in each block, as
    # in the product families, so each block's strips are dense
    nvars = data.draw(st.integers(2, 4))
    cut = data.draw(st.integers(1, nvars - 1))
    w = data.draw(st.lists(st.integers(1, 3), min_size=nvars, max_size=nvars))
    w[0] = w[cut] = 1
    grading = [w[:cut] + [0] * (nvars - cut), [0] * cut + w[cut:]]
    summands = []
    for _ in range(data.draw(st.integers(1, 3))):
        x = homogeneous_part(data.draw(polys(nvars, max_exp=3)), grading[0])
        y = homogeneous_part(data.draw(polys(nvars, max_exp=3)), grading[1])
        xy = IntPoly(nvars, naive_mul(x.terms, y.terms))
        summands.append((data.draw(st.integers(-4, 4)), xy, data.draw(st.integers(1, 4))))
    total = IntPoly.power_sum(nvars, summands, grading)
    assert total.terms == naive_power_sum(nvars, summands)


@SETTINGS
@hypothesis.given(st.data())
def test_power_sum_small_powers(data):
    # k = 0 and 1 are added without a power, k = 2 is the square alone
    nvars = data.draw(st.integers(1, 3))
    grading = data.draw(gradings(nvars) | st.just([]))
    summand = st.tuples(st.integers(-4, 4), polys(nvars), st.sampled_from([0, 1, 2]))
    summands = data.draw(st.lists(summand, max_size=4))
    total = IntPoly.power_sum(nvars, summands, grading)
    assert total.terms == naive_power_sum(nvars, summands)


@SETTINGS
@hypothesis.given(st.data())
def test_power_sum_at_the_slot_bound(data):
    # c * (a * m)^k for a monomial m has the coefficient c * a^k, which is the
    # bound the slot width is made from; it is drawn with a bit length of 8,
    # 16, 32 or 64 or a multiple of 8 past 64, where one bit fewer would give
    # a slot too narrow to hold it.  m has exponent 1 in variable 0, so the
    # powers run on strips along it, the coefficient in slot k.
    nvars = data.draw(st.integers(1, 3))
    bits = 8 * data.draw(st.sampled_from([1, 2, 4, 8, 9, 16]))
    k = data.draw(st.integers(2, 4))
    a = data.draw(st.sampled_from([1, 2, 3]))
    c = data.draw(st.integers(-(-(2 ** (bits - 1)) // a**k), (2**bits - 1) // a**k))
    c *= data.draw(st.sampled_from([1, -1]))
    a *= data.draw(st.sampled_from([1, -1]))
    m = (1,) + data.draw(st.tuples(*(exponents(3) for _ in range(nvars - 1))))
    # beside it, outside the bound, a term m^k * v added to the unpacked ones
    v = data.draw(st.integers(0, nvars - 1))
    beside = tuple(k * e + (i == v) for i, e in enumerate(m))
    summands = [(c, IntPoly(nvars, {m: a}), k), (1, IntPoly(nvars, {beside: 1}), 1)]
    total = IntPoly.power_sum(nvars, summands)
    assert total.terms == naive_power_sum(nvars, summands)
    assert max(map(abs, total.terms.values())) == abs(c * a**k) >= 2 ** (bits - 1)


@SETTINGS
@hypothesis.given(st.data())
def test_power_sum_cancelling_to_zero(data):
    # c * p^(2j) - c * (p^2)^j + q - q is zero: every strip cancels
    nvars = data.draw(st.integers(1, 3))
    grading = data.draw(gradings(nvars) | st.just([]))
    p, q = data.draw(polys(nvars, max_exp=3)), data.draw(polys(nvars))
    j, c = data.draw(st.integers(1, 3)), data.draw(st.integers(-4, 4))
    square = IntPoly(nvars, naive_mul(p.terms, p.terms))
    summands = [(c, p, 2 * j), (-c, square, j), (1, q, 1), (-1, q, 1)]
    assert IntPoly.power_sum(nvars, summands, grading).terms == {}


def test_power_sum_strip_edge_cases():
    x, y = IntPoly.var(2, 0), IntPoly.var(2, 1)
    # exponents far apart: strips along either variable would be almost all
    # empty slots
    p = IntPoly.var(2, 0, power=2**40) + y
    assert IntPoly.power_sum(2, [(1, p, 3)], [[1, 1]]).terms == naive_pow(p.terms, 3, 2)
    # (x + y)^k is one strip under the grading (1, 1)
    assert IntPoly.power_sum(2, [(2, x + y, 4)], [[1, 1]]).terms == {
        e: 2 * c for e, c in naive_pow((x + y).terms, 4, 2).items()}
    for bad in ([[2, 2]], [[1, 1], [1, 1]], [[1]], [[1, -1]]):
        with pytest.raises(ValueError):
            IntPoly.power_sum(2, [(1, x + y, 2)], bad)


# ---------------------------------------------------------------------------
# evaluate skips the ring's ones and zeros; the plain formulation is its oracle


def plain_evaluate(p: IntPoly, ring, values):
    """from_int(c) times each power, summed from zero()."""
    total = ring.zero()
    for exps, c in p.terms.items():
        term = ring.from_int(c)
        for v, e in zip(values, exps):
            if e:
                term = ring.mul(term, ring.pow(v, e))
        total = ring.add(total, term)
    return total


EVAL_RINGS = {
    "integers": make_ring("integers"),
    "zmod:12": make_ring("zmod:12"),
    "rationals": make_ring("rationals"),
    "poly(zmod:4; x)": make_ring("poly(zmod:4; x)"),
    "witt(div:2, zmod:4)": WittRing(index_set_make("div:2"), make_ring("zmod:4")),
}
# coefficients 1 and -1 half the time; exponents up to 3 or past a one-byte field
EVAL_TERMS = st.dictionaries(
    st.tuples(exponents(3), exponents(3)),
    st.sampled_from([1, -1]) | st.integers(-9, 9),
    max_size=4,
)


@pytest.mark.parametrize("name", list(EVAL_RINGS))
@hypothesis.settings(max_examples=40, deadline=None, derandomize=True, database=None)
@hypothesis.given(terms=EVAL_TERMS, seed=st.integers(0, 2**16))
@hypothesis.example(terms={}, seed=0)
@hypothesis.example(terms={(0, 0): 7}, seed=1)
@hypothesis.example(terms={(0, 0): -1}, seed=2)
@hypothesis.example(terms={(1, 0): 1, (0, 0): -1}, seed=3)
@hypothesis.example(terms={(256, 1): -1, (0, 2): 3, (1, 0): 1}, seed=4)
def test_evaluate_equals_the_plain_sum(name, terms, seed):
    ring = EVAL_RINGS[name]
    rng = random.Random(seed)
    values = [ring.random(rng) for _ in range(2)]
    p = IntPoly(2, terms)
    assert p.evaluate(ring, values) == plain_evaluate(p, ring, values)
