from fractions import Fraction

import pytest

from wittforge.derham import (
    DeRhamError,
    MonomialAlgebra,
    build_complex,
    hodge_cohomology,
    rees_package_degree,
)
from wittforge.numutil import binomial


def test_gm():
    H = hodge_cohomology(MonomialAlgebra(1, 0))
    assert (H.h[0], H.h[1]) == (1, 1)
    assert H.fil[(1, 1)] == 1 and H.fil[(2, 1)] == 0
    assert H.fil[(0, 0)] == 1 and H.fil[(1, 0)] == 0


def test_affine_line():
    H = hodge_cohomology(MonomialAlgebra(0, 1))
    assert (H.h[0], H.h[1]) == (1, 0)


def test_torus_squared():
    H = hodge_cohomology(MonomialAlgebra(2, 0))
    assert [H.h[j] for j in range(3)] == [1, 2, 1]


@pytest.mark.parametrize("a", range(4))
@pytest.mark.parametrize("b", range(3))
def test_kunneth_and_fil(a, b):
    H = hodge_cohomology(MonomialAlgebra(a, b))
    n = a + b
    for j in range(n + 1):
        assert H.h[j] == binomial(a, j)
    if n <= 4:
        for j in range(n + 1):
            for i in range(n + 2):
                assert H.fil[(i, j)] == (H.h[j] if i <= j else 0)
    assert sum((-1) ** j * H.h[j] for j in range(n + 1)) == (0 if a >= 1 else 1)
    assert H.h[0] == 1


def test_slices():
    A = MonomialAlgebra(1, 1)
    for sl in build_complex(A, 1, 2):
        assert sl.verify_d_squared()
        r = sum(1 for m in sl.character[1] if m >= 1)
        for k, d in enumerate(sl.dims()):
            assert d == binomial(1 + r, k)
        # exactness off the zero character
        if any(sl.character[0]) or any(sl.character[1]):
            for j in range(A.dim() + 1):
                assert sl.cohomology_dim(j) == 0


def _null_space(mat, ncols):
    """A basis of {v : mat v = 0}, by Gauss-Jordan elimination written out here."""
    rows = [[Fraction(x) for x in r] for r in mat]
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        p = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if p is None:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        rows[r] = [x / rows[r][c] for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                rows[i] = [a - rows[i][c] * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
    basis = []
    for free in (c for c in range(ncols) if c not in pivots):
        v = [Fraction(int(c == free)) for c in range(ncols)]
        for row, p in zip(rows, pivots):
            v[p] = -row[free]
        basis.append(v)
    return basis


@pytest.mark.parametrize("a", range(3))
@pytest.mark.parametrize("b", range(3))
def test_cohomology_dim_against_null_spaces(a, b):
    A = MonomialAlgebra(a, b)
    n = A.dim()
    for sl in build_complex(A, 1, 2):
        dims = sl.dims()
        kernels = []
        for k in range(n + 1):
            mat = sl.d_mats[k] if k < n else []
            basis = _null_space(mat, dims[k])
            for v in basis:
                assert all(sum(x * y for x, y in zip(row, v)) == 0 for row in mat)
            kernels.append(len(basis))
        for j in range(n + 1):
            image = dims[j - 1] - kernels[j - 1] if j >= 1 else 0
            assert sl.cohomology_dim(j) == kernels[j] - image, (sl.character, j)


def test_zero_slice_contributes():
    A = MonomialAlgebra(1, 0)
    zero_slice = [
        sl for sl in build_complex(A, 1, 0) if not any(sl.character[0])
    ][0]
    assert zero_slice.cohomology_dim(0) == 1
    assert zero_slice.cohomology_dim(1) == 1


def test_box_soundness():
    small = hodge_cohomology(MonomialAlgebra(1, 1), 1, 1)
    big = hodge_cohomology(MonomialAlgebra(1, 1), 2, 3)
    assert small.h == big.h and small.fil == big.fil


def test_rees_packaging():
    gm = hodge_cohomology(MonomialAlgebra(1, 0))
    rm = rees_package_degree(gm, 1)
    assert rm.piece(-1).dim() == 1 and rm.piece(-2).dim() == 0
    a1 = hodge_cohomology(MonomialAlgebra(0, 1))
    assert rees_package_degree(a1, 1).piece(-1).dim() == 0
    g2 = hodge_cohomology(MonomialAlgebra(2, 0))
    assert rees_package_degree(g2, 1).piece(-1).dim() == 2
    assert set(g2.filtered) == {0, 1, 2}
    assert [rees_package_degree(g2, j).piece(-j).dim() for j in (0, 1, 2)] == [1, 2, 1]


def test_report_json():
    obj = hodge_cohomology(MonomialAlgebra(1, 0)).to_json()
    assert obj["a"] == 1 and obj["b"] == 0
    assert obj["H"] == {"0": 1, "1": 1}
    assert obj["Fil"]["1"]["1"] == 1 and obj["Fil"]["1"]["2"] == 0
    assert "rees" in obj


def test_bad_algebra():
    with pytest.raises(DeRhamError):
        MonomialAlgebra(-1, 0)


@pytest.mark.parametrize("a, b, bounds", [(0, 9, ()), (6, 0, ()), (1, 1, (50, 50))])
def test_a_box_past_the_form_cap_is_refused(a, b, bounds):
    with pytest.raises(DeRhamError, match="more than 10000 basis forms"):
        build_complex(MonomialAlgebra(a, b), *bounds)
