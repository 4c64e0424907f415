"""Exact Q arithmetic on integers, against plain Fraction slow paths.

The Witt kernel computes over Q on Teichmuller multiples [D]x, and the
linear-algebra core eliminates on integer rows.  The oracles here are the
textbook Fraction computations they replaced: ghost components and the
level-by-level unghost over Q, and Gauss-Jordan over Q.
"""

from fractions import Fraction

import pytest

from wittforge.cli import main
from wittforge.filtration import Subspace, matrix_rank, rref
from wittforge.indexset import index_set_make
from wittforge.numutil import divisors
from wittforge.rings import RATIONALS
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


def slow_ghost(E, xs):
    x = dict(zip(E, xs))
    return [sum(d * x[d] ** (n // d) for d in divisors(n) if d in x) for n in E]


def slow_unghost(E, ws):
    x = {}
    for n, w in zip(E, ws):
        x[n] = (Fraction(w) - sum(d * x[d] ** (n // d) for d in divisors(n) if d < n)) / n
    return [x[n] for n in E]


def slow_op(op, E, *vectors):
    ghosts = [slow_ghost(E, v) for v in vectors]
    if op == "neg":
        w = [-g for g in ghosts[0]]
    else:
        f = {"add": Fraction.__add__, "sub": Fraction.__sub__, "mul": Fraction.__mul__}[op]
        w = [f(Fraction(g), Fraction(h)) for g, h in zip(*ghosts)]
    return slow_unghost(E, w)


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
