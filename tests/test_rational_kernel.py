"""Exact Q arithmetic on integers, against plain Fraction slow paths.

The Witt kernel computes over Q, Q[x^+-1] and Q[t]/(g) with g monic over Z
on Teichmuller multiples [D]x over Z, Z[x^+-1] and Z[t]/(g), and the
linear-algebra core eliminates on integer rows.  The oracles here are the
textbook Fraction computations they replaced: ghost components, the
level-by-level unghost and the unit inverse through inverted ghosts over
these Q-algebras, and Gauss-Jordan over Q.
"""

from fractions import Fraction

import pytest

from wittforge.cli import main
from wittforge.filtration import Subspace, matrix_rank, rref
from wittforge.indexset import index_set_make
from wittforge.numutil import divisors
from wittforge import rings
from wittforge.rings import RATIONALS, make_ring
from wittforge.witt import (
    WittRing,
    WittVector,
    frobenius,
    ghost_raw,
    unghost,
    witt_add,
    witt_mul,
    witt_neg,
    witt_sub,
    witt_unit_inverse,
)

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

SETTINGS = hypothesis.settings(max_examples=60, deadline=None, derandomize=True, database=None)

INDEX_SETS = ("div:1", "div:2", "div:6", "div:12", "ptyp:2:3", "ptyp:3:2", "ptyp:5:1")

# zero, small, and large numerators and denominators, of either sign
rationals = st.one_of(
    st.just(Fraction(0)),
    st.builds(Fraction, st.integers(-9, 9), st.integers(1, 12)),
    st.builds(Fraction, st.integers(-(10**30), 10**30), st.integers(1, 10**12)),
)


# ---------------------------------------------------------------------------
# slow paths: Fraction arithmetic, as in the textbook


def slow_ghost(E, xs, ring=RATIONALS):
    """g_n = sum over d | n of d * x_d^(n/d), in the ring's own Fraction arithmetic."""
    x = dict(zip(E, map(ring.canonicalize, xs)))
    out = []
    for n in E:
        g = ring.zero()
        for d in divisors(n):
            g = ring.add(g, ring.mul(ring.from_int(d), ring.pow(x[d], n // d)))
        out.append(g)
    return out


def slow_unghost(E, ws, ring=RATIONALS):
    """x_n = (w_n - sum over d | n, d < n of d * x_d^(n/d)) / n, level by level."""
    x = {}
    for n, w in zip(E, ws):
        acc = ring.canonicalize(w)
        for d in divisors(n):
            if d < n:
                acc = ring.sub(acc, ring.mul(ring.from_int(d), ring.pow(x[d], n // d)))
        x[n] = ring.exact_div_int(acc, n)
    return [x[n] for n in E]


def slow_op(op, E, *vectors, ring=RATIONALS):
    ghosts = [slow_ghost(E, v, ring) for v in vectors]
    if op == "neg":
        w = list(map(ring.neg, ghosts[0]))
    else:
        w = list(map(getattr(ring, op), *ghosts))
    return slow_unghost(E, w, ring)


def slow_rref(rows):
    """Gauss-Jordan over Q, one Fraction operation at a time."""
    rows = [list(map(Fraction, r)) for r in rows]
    pivots, r = [], 0
    ncols = len(rows[0]) if rows else 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return [tuple(row) for row in rows[:r]], pivots


# ---------------------------------------------------------------------------
# the Witt kernel over Q


@st.composite
def vector_pairs(draw):
    E = index_set_make(draw(st.sampled_from(INDEX_SETS)))
    a, b = (draw(st.lists(rationals, min_size=len(E), max_size=len(E))) for _ in "ab")
    return E, a, b


def _witt(E, xs):
    return WittVector(E, RATIONALS, tuple(xs))


def _exact(values):
    """Canonical Fractions, as the ring keeps them."""
    return [Fraction(v) for v in values]


@SETTINGS
@hypothesis.given(vector_pairs())
def test_ring_operations_match_fraction_ghosts(case):
    E, a, b = case
    A, B = _witt(E, a), _witt(E, b)
    for op, fn in (("add", witt_add), ("sub", witt_sub), ("mul", witt_mul)):
        out = fn(A, B).coords
        assert list(out) == _exact(slow_op(op, E, a, b)), op
        assert all(type(c) is Fraction for c in out)
    assert list(witt_neg(A).coords) == _exact(slow_op("neg", E, a))


@SETTINGS
@hypothesis.given(vector_pairs())
def test_ghosts_and_every_frobenius_match(case):
    E, a, _ = case
    A = _witt(E, a)
    g = slow_ghost(E, a)
    got = ghost_raw(A)
    assert [got[n] for n in E] == _exact(g)
    assert all(type(v) is Fraction for v in got.values())
    for n in E:
        target = E.restrict(n)
        expected = slow_unghost(target, [g[E.position(n * d)] for d in target])
        out = frobenius(n, A)
        assert out.index_set == target and list(out.coords) == _exact(expected), n


@SETTINGS
@hypothesis.given(vector_pairs())
def test_unghost_matches_the_level_by_level_division(case):
    E, w, _ = case
    out = unghost(dict(zip(E, w)), E, RATIONALS)
    assert list(out.coords) == _exact(slow_unghost(E, w))
    assert all(type(c) is Fraction for c in out.coords)
    assert [ghost_raw(out)[n] for n in E] == _exact(w)


def test_unghost_needs_the_radical_of_the_index_set():
    # integral ghosts whose unghost is not integral: D = 1 would not do
    E = index_set_make("div:6")
    w = {1: 0, 2: 5, 3: 1, 6: 0}
    assert list(unghost(w, E, RATIONALS).coords) == _exact(slow_unghost(E, [0, 5, 1, 0]))


def test_witt_vectors_over_q_stay_torsion_free():
    # W(Q) is its own lift, so W(W(Q)) computes through its ghosts
    R = WittRing(index_set_make("div:2"), RATIONALS)
    assert R._torsion_free() and R.lift()[0] is R
    a = (Fraction(1, 2), Fraction(-3, 4))
    assert R.exact_div_int(R.mul(R.from_int(3), a), 3) == a


# ---------------------------------------------------------------------------
# the Witt kernel over polynomial and quotient rings over Q

# poly(rationals; x; inv x) and poly(rationals; x,y) compute over Z[x^+-1]
# and Z[x,y]; the quotients by t^3, t^2+1 and t^2-2 (which has no Frobenius
# lift) over Z[t]/(g); t^2+1/2 is not integral, so that ring stays on Fractions
Q_ALGEBRAS = (
    "poly(rationals; x; inv x)",
    "poly(rationals; x,y)",
    "quot(poly(rationals; t); 1*t^3)",
    "quot(poly(rationals; t); 1*t^2+1)",
    "quot(poly(rationals; t); 1*t^2+-2)",
    "quot(poly(rationals; t); 1*t^2+1/2)",
)
ALGEBRA_SETS = ("div:6", "ptyp:2:3", "div:12", "ptyp:3:2")
ALGEBRA_SETTINGS = hypothesis.settings(
    max_examples=16, deadline=None, derandomize=True, database=None
)

# primes past 10^9: the denominators of different coefficients stay coprime
BIG_PRIMES = (1_000_000_007, 1_000_000_009, 998_244_353, 2_147_483_647)
coefficients = st.one_of(
    rationals,
    st.builds(Fraction, st.integers(-(10**20), 10**20), st.sampled_from(BIG_PRIMES)),
)


over_each_algebra = pytest.mark.parametrize("descriptor", Q_ALGEBRAS)


def algebra_values(ring, max_terms=3):
    """Sums of up to max_terms monomials: Laurent exponents where a variable
    is inverted, and past the relation's degree in a quotient."""
    poly = getattr(ring, "poly", ring)
    low = [-2 if v in poly.inverted else 0 for v in poly.variables]
    exps = st.tuples(*(st.integers(lo, 3) for lo in low))
    terms = st.lists(st.tuples(exps, coefficients), max_size=max_terms)
    return terms.map(lambda ts: ring.canonicalize(tuple(ts)))


@st.composite
def algebra_vectors(draw, ring, sets=ALGEBRA_SETS, count=2):
    E = index_set_make(draw(st.sampled_from(sets)))
    # one term a coordinate past four levels, so that x_1^12 stays small
    values = algebra_values(ring, 3 if len(E) <= 4 else 1)
    vectors = [draw(st.lists(values, min_size=len(E), max_size=len(E))) for _ in range(count)]
    return E, vectors


def _fractions(values):
    """Every coefficient of every value is a Fraction, as the ring keeps them."""
    return all(type(c) is Fraction for v in values for _, c in v)


def test_which_q_algebras_compute_on_integers():
    cleared = {d: make_ring(d).clear_denominators is not None for d in Q_ALGEBRAS}
    assert cleared == dict.fromkeys(Q_ALGEBRAS[:-1], True) | {Q_ALGEBRAS[-1]: False}
    v = (((0,), Fraction(1, 6)), ((2,), Fraction(-3, 4)))
    S, D, scale, unscale = make_ring(Q_ALGEBRAS[2]).clear_denominators([v], [])
    assert S.descriptor() == "quot(poly(integers; t); 1*t^3)" and D == 12
    assert scale(v, 24) == (((0,), 4), ((2,), -18)) and unscale(scale(v, 24), 24) == v


@over_each_algebra
@ALGEBRA_SETTINGS
@hypothesis.given(data=st.data())
def test_algebra_operations_match_fraction_ghosts(descriptor, data):
    ring = make_ring(descriptor)
    E, (a, b) = data.draw(algebra_vectors(ring))
    A, B = WittVector(E, ring, tuple(a)), WittVector(E, ring, tuple(b))
    for op, fn in (("add", witt_add), ("sub", witt_sub), ("mul", witt_mul)):
        out = fn(A, B).coords
        assert list(out) == slow_op(op, E, a, b, ring=ring), op
        assert _fractions(out)
    assert list(witt_neg(A).coords) == slow_op("neg", E, a, ring=ring)


@over_each_algebra
@ALGEBRA_SETTINGS
@hypothesis.given(data=st.data())
def test_algebra_ghosts_and_every_frobenius_match(descriptor, data):
    ring = make_ring(descriptor)
    E, (a,) = data.draw(algebra_vectors(ring, count=1))
    A = WittVector(E, ring, tuple(a))
    g = slow_ghost(E, a, ring)
    got = ghost_raw(A)
    assert [got[n] for n in E] == g and _fractions(got.values())
    for n in E:
        target = E.restrict(n)
        expected = slow_unghost(target, [g[E.position(n * d)] for d in target], ring)
        out = frobenius(n, A)
        assert out.index_set == target and list(out.coords) == expected, n
        assert _fractions(out.coords)


@over_each_algebra
@ALGEBRA_SETTINGS
@hypothesis.given(data=st.data())
def test_algebra_unghost_matches_the_level_by_level_division(descriptor, data):
    ring = make_ring(descriptor)
    sets = ALGEBRA_SETS + ("ptyp:2:5", "div:24")
    E, (w,) = data.draw(algebra_vectors(ring, sets, count=1))
    out = unghost(dict(zip(E, w)), E, ring)
    assert list(out.coords) == slow_unghost(E, w, ring)
    assert _fractions(out.coords)


def _slow_unit_inverse(ring, E, a):
    """The inverse through the ghosts: unghost of (1/g_n(a))_n, or None."""
    inverses = [ring.unit_inverse(g) for g in slow_ghost(E, a, ring)]
    return None if None in inverses else slow_unghost(E, inverses, ring)


@over_each_algebra
@ALGEBRA_SETTINGS
@hypothesis.given(data=st.data())
def test_algebra_unit_inverse_matches_inverted_ghosts(descriptor, data):
    ring = make_ring(descriptor)
    E, (a,) = data.draw(algebra_vectors(ring, count=1))
    # and a unit: the unghost of ghosts that are unit monomials c*x^k
    poly = getattr(ring, "poly", ring)
    exps = st.tuples(*(st.integers(-2, 2) if v in poly.inverted else st.just(0)
                       for v in poly.variables))
    monomials = st.tuples(exps, coefficients.filter(bool)).map(lambda t: ring.canonicalize((t,)))
    unit = slow_unghost(E, data.draw(st.lists(monomials, min_size=len(E), max_size=len(E))), ring)
    assert _slow_unit_inverse(ring, E, unit) is not None
    for x in (a, unit):
        inv = witt_unit_inverse(WittVector(E, ring, tuple(x)))
        assert (inv if inv is None else list(inv.coords)) == _slow_unit_inverse(ring, E, x)


def test_a_laurent_product_does_no_arithmetic_over_q(monkeypatch):
    # the whole product runs over Z[x^+-1]: no mul over Q or a ring over Q
    ring = make_ring("poly(rationals; x; inv x)")
    calls = []

    def counting(cls):
        mul = cls.mul

        def counted(self, a, b):
            if RATIONALS in (self, getattr(self, "base", None)):
                calls.append(self)
            return mul(self, a, b)

        monkeypatch.setattr(cls, "mul", counted)

    E = index_set_make("div:6")
    a = [ring.el_from_str(s) for s in ("1/2*x^-1+3/7*x^2", "-5/3", "2/9*x", "1/11*x^-2")]
    b = [ring.el_from_str(s) for s in ("4/5*x", "1/13+x", "0", "-7/2*x^3")]
    counting(rings.PolyRing)
    counting(rings.RationalRing)
    out = witt_mul(WittVector(E, ring, tuple(a)), WittVector(E, ring, tuple(b)))
    assert calls == []
    monkeypatch.undo()
    assert list(out.coords) == slow_op("mul", E, a, b, ring=ring)


# ---------------------------------------------------------------------------
# the linear-algebra core


@st.composite
def matrices(draw):
    """Empty, zero, tall, wide and rank-deficient matrices alike."""
    nrows, ncols = draw(st.integers(0, 6)), draw(st.integers(1, 6))
    entries = st.one_of(st.just(0), st.just(0), rationals)
    rows = draw(st.lists(st.lists(entries, min_size=ncols, max_size=ncols),
                         min_size=nrows, max_size=nrows))
    if rows and draw(st.booleans()):
        # a combination of the others, so the rank drops
        k = draw(st.lists(st.integers(-3, 3), min_size=len(rows), max_size=len(rows)))
        rows.append([sum(c * r[j] for c, r in zip(k, rows)) for j in range(ncols)])
    return ncols, rows


@SETTINGS
@hypothesis.given(matrices())
def test_rref_matches_gauss_jordan(case):
    _, rows = case
    reduced, pivots = rref(rows)
    assert (reduced, pivots) == slow_rref(rows)
    assert all(type(x) is Fraction for row in reduced for x in row)
    assert matrix_rank(rows) == len(pivots)


@SETTINGS
@hypothesis.given(matrices(), st.data())
def test_reduce_matches_fraction_elimination(case, data):
    ncols, rows = case
    space = Subspace.span(ncols, rows)
    v = data.draw(st.lists(rationals, min_size=ncols, max_size=ncols))
    coords, residual = space.reduce(v)
    w = list(map(Fraction, v))
    expected = []
    for row, c in zip(space.basis, space.pivots()):
        expected.append(w[c])
        w = [x - w[c] * y for x, y in zip(w, row)]
    assert (coords, residual) == (expected, w)
    assert all(type(x) is Fraction for x in coords + residual)
    assert space.contains_vector(v) == (not any(w))


def test_rref_edge_cases():
    assert rref([]) == ([], [])
    assert rref([[0, 0], [0, 0]]) == ([], [])
    assert rref([[0, -2, 4], [0, 3, -6]]) == ([(0, 1, -2)], [1])
    tall = [[Fraction(1, 3)], [-5], [0], [10**40]]
    assert rref(tall) == ([(Fraction(1),)], [0])
    wide = [[2, 4, 6, 8], [Fraction(-1, 2), 0, Fraction(3, 2), 1]]
    assert rref(wide) == slow_rref(wide)


# ---------------------------------------------------------------------------
# command-line outputs over the rationals, as the Fraction kernel printed them


CLI_GOLDEN = [
    (["ghost", "--ring", "rationals", "--index-set", "div:6", "--a=1/2,-3/4,5,-7/3"],
     '{"ghost":{"1":"1/2","2":"-5/4","3":"121/8","6":"3851/64"}}'),
    (["witt", "add", "--ring", "rationals", "--index-set", "ptyp:2:3",
      "--a=3/2,-1/3,0,1", "--b=-5/4,2/9,7,-1/8"],
     '{"coords":{"1":"1/4","2":"127/72","4":"25573/3456","8":"-33659687/71663616"}}'),
    (["witt", "mul", "--ring", "rationals", "--index-set", "div:6",
      "--a=1/2,-3/4,5,-7/3", "--b=-2/5,1,0,123456789/1000"],
     '{"coords":{"1":"-1/5","2":"-137/100","3":"-8/25","6":"59429179039083/8000000"}}'),
    (["witt", "sub", "--ring", "rationals", "--index-set", "ptyp:3:2",
      "--a=-7/6,5/12,0", "--b=1/3,-2,4/9"],
     '{"coords":{"1":"-3/2","3":"3","9":"-1638803/559872"}}'),
    (["witt", "neg", "--ring", "rationals", "--index-set", "div:4", "--a=5/2,-1/3,9/8"],
     '{"coords":{"1":"-5/2","2":"-71/12","4":"-5503/144"}}'),
    (["frobenius", "--n", "2", "--ring", "rationals", "--index-set", "div:12",
      "--a=1/2,-1/3,0,3/4,5,-1/6"],
     '{"coords":{"1":"-5/12","2":"14/9","3":"2161/216","6":"-3278791/124416"},'
     '"index_set":[1,2,3,6]}'),
]


@pytest.mark.parametrize("argv, expected", CLI_GOLDEN,
                         ids=["ghost", "add", "mul", "sub", "neg", "frobenius"])
def test_cli_outputs_over_the_rationals(argv, expected, capsys):
    assert main(argv) == 0
    assert capsys.readouterr().out == expected + "\n"


def test_unghost_outputs_over_the_rationals():
    big = Fraction(10**20 + 1, 9)
    assert repr(unghost({1: 0, 2: 5, 4: Fraction(-1, 3), 8: Fraction(2, 7)},
                        index_set_make("ptyp:2:3"), RATIONALS)) == (
        "W{1,2,4,8}(0,5/2,-77/24,-119965/8064)")
    assert repr(unghost({1: Fraction(-4, 3), 3: big, 9: 0}, index_set_make("ptyp:3:2"),
                        RATIONALS)) == (
        "W{1,3,9}(-4/3,300000000000000000067/81,"
        "-27000000000000000018090000000000000004040099999999999997941467/1594323)")
