"""PolyRing.mul against a naive product of the drawn term lists, computed with
plain int/Fraction arithmetic and reduced modulo N at the end."""

from fractions import Fraction

import pytest

from wittforge.rings import RationalRing, ZModRing, make_ring

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

SETTINGS = hypothesis.settings(max_examples=150, deadline=None, derandomize=True, database=None)

RINGS = [
    "poly(integers; x)",
    "poly(rationals; x)",
    "poly(zmod:12; x,y)",
    "poly(integers; x,y)",
    "poly(rationals; x; inv x)",
]


def _coeffs(ring):
    if isinstance(ring.base, RationalRing):
        return st.builds(Fraction, st.integers(-9, 9), st.integers(1, 4))
    return st.integers(-30, 30)


def _terms(ring):
    """Term lists with repeated exponents and, for Z/12, non-canonical coefficients."""
    exps = st.tuples(*(st.integers(-3, 3) if inv else st.integers(0, 3) for inv in ring._inv_mask))
    return st.lists(st.tuples(exps, _coeffs(ring)), max_size=6)


def naive_mul(ring, ta, tb) -> dict:
    out: dict = {}
    for e1, c1 in ta:
        for e2, c2 in tb:
            e = tuple(x + y for x, y in zip(e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    if isinstance(ring.base, ZModRing):
        out = {e: c % ring.base.n for e, c in out.items()}
    return {e: c for e, c in out.items() if c}


@pytest.mark.parametrize("desc", RINGS)
def test_mul_matches_naive_product(desc):
    ring = make_ring(desc)

    @SETTINGS
    @hypothesis.given(_terms(ring), _terms(ring))
    def check(ta, tb):
        product = ring.mul(ring.canonicalize(ta), ring.canonicalize(tb))
        assert dict(product) == naive_mul(ring, ta, tb)
        # canonical form: by total degree, then exponent tuple
        assert list(product) == sorted(product, key=lambda t: (sum(t[0]), t[0]))

    check()
