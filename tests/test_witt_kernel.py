"""The ghost-lift kernel against the universal polynomials.

The universal polynomials of `universal` compute every Witt operation by
evaluating integer polynomials in the coordinates; the kernel never uses
them, so they are an independent oracle.
"""

import random

import pytest

from wittforge.indexset import index_set_make
from wittforge.rings import make_ring
from wittforge.universal import get_universal
from wittforge.witt import (
    WittVector,
    frobenius,
    ghost_raw,
    random_witt,
    witt_add,
    witt_from_int,
    witt_mul,
    witt_neg,
    witt_one,
    witt_sub,
    witt_unit_inverse,
)

RINGS = (
    "integers",
    "rationals",
    "zmod:7",
    "zmod:12",
    "poly(integers; x)",
    "poly(rationals; x,y)",
    "poly(zmod:4; x; inv x)",
    "quot(poly(zmod:4; t); 1*t^2+3)",
    "quot(poly(integers; t); t^2+-2)",
    "quot(poly(rationals; t); t^3)",
)
INDEX_SETS = ("div:2", "div:6", "div:10", "ptyp:2:3", "ptyp:3:2")


def _oracle(E, op, ring, values, levels=None):
    entry = get_universal(E, op)
    return tuple(entry.poly(n).evaluate(ring, values) for n in (levels or E))


def _oracle_unit_inverse(a):
    """The triangular solve of a * b = 1 through the product polynomials."""
    E, ring = a.index_set, a.ring
    entry = get_universal(E, "product")
    ghosts = ghost_raw(a)
    one = witt_one(E, ring)
    partial = [ring.zero()] * len(E)
    for i, n in enumerate(E):
        inv = ring.unit_inverse(ghosts[n])
        if inv is None:
            return None
        known = entry.poly(n).evaluate(ring, list(a.coords) + partial)
        partial[i] = ring.mul(inv, ring.sub(one.coord_raw(n), known))
    return WittVector(E, ring, tuple(partial))


def check_against_oracle(a: WittVector, b: WittVector):
    E, ring = a.index_set, a.ring
    ab = list(a.coords + b.coords)
    assert witt_add(a, b).coords == _oracle(E, "sum", ring, ab)
    assert witt_mul(a, b).coords == _oracle(E, "product", ring, ab)
    neg_b = _oracle(E, "negation", ring, list(b.coords))
    assert witt_neg(b).coords == neg_b
    assert witt_sub(a, b).coords == _oracle(E, "sum", ring, list(a.coords + neg_b))
    for n in E:
        assert frobenius(n, a).coords == _oracle(
            E, f"frobenius:{n}", ring, list(a.coords), list(E.restrict(n))
        )
    for u in (a, witt_from_int(-1, E, ring)):
        assert witt_unit_inverse(u) == _oracle_unit_inverse(u)


@pytest.mark.parametrize("descriptor", RINGS)
def test_kernel_matches_universal_polynomials(descriptor):
    ring = make_ring(descriptor)
    rng = random.Random(descriptor)
    for spec in INDEX_SETS:
        E = index_set_make(spec)
        for _ in range(2):
            check_against_oracle(random_witt(E, ring, rng), random_witt(E, ring, rng))


def test_kernel_matches_universal_polynomials_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @hypothesis.settings(max_examples=30, deadline=None, derandomize=True)
    @hypothesis.given(
        st.sampled_from(RINGS), st.sampled_from(INDEX_SETS), st.integers(0, 2**32)
    )
    def agree(descriptor, spec, seed):
        ring, E = make_ring(descriptor), index_set_make(spec)
        rng = random.Random(seed)
        check_against_oracle(random_witt(E, ring, rng), random_witt(E, ring, rng))

    agree()


ODD_RINGS = (
    "integers",
    "rationals",
    "zmod:12",
    "zmod:9",
    "poly(zmod:4; x)",
    "poly(rationals; x; inv x)",
    "quot(poly(zmod:6; t); 1*t^2+1)",
)


@pytest.mark.parametrize("descriptor", ODD_RINGS)
def test_negation_is_coordinatewise_when_every_index_is_odd(descriptor):
    # with every n in E odd, each exponent n/d in g_n = sum d x_d^(n/d) is odd,
    # so (-x_d) has the ghosts -g_n of -x; the universal identity holds in any ring
    ring = make_ring(descriptor)
    rng = random.Random(descriptor)
    for spec in ("div:15", "ptyp:3:3", "div:9", "set:1", "div:45"):
        E = index_set_make(spec)
        for _ in range(30):
            a = random_witt(E, ring, rng)
            assert witt_neg(a).coords == tuple(ring.neg(c) for c in a.coords), (spec, a)


def test_negation_is_not_coordinatewise_at_an_even_index():
    # the control of the oracle above: at E = {1, 2} the identity fails
    ring, E = make_ring("zmod:12"), index_set_make("div:2")
    rng = random.Random(2)
    draws = [random_witt(E, ring, rng) for _ in range(50)]
    assert any(witt_neg(a).coords != tuple(ring.neg(c) for c in a.coords) for a in draws)
