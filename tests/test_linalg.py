"""The exact linear-algebra core of filtration.py against rank counts:
Subspace.reduce and membership, and the completion's quotient dimensions."""

from fractions import Fraction

import pytest

from wittforge.filtration import FilteredModule, Subspace, complete_filtration, matrix_rank

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

SETTINGS = hypothesis.settings(max_examples=200, deadline=None, derandomize=True, database=None)

rationals = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 3))


def vectors(n):
    # small entries, often zero, so that dependent rows and zero rows turn up
    return st.lists(st.one_of(st.just(Fraction(0)), rationals), min_size=n, max_size=n)


@st.composite
def row_sets(draw):
    n = draw(st.integers(1, 4))
    rows = draw(st.lists(vectors(n), max_size=5))
    return n, rows


@SETTINGS
@hypothesis.given(row_sets(), st.data())
def test_reduce_and_membership(case, data):
    n, rows = case
    s = Subspace.span(n, rows)
    # a vector in the span half of the time, an arbitrary one otherwise
    if rows and data.draw(st.booleans()):
        scalars = data.draw(st.lists(rationals, min_size=len(rows), max_size=len(rows)))
        v = [sum(c * r[k] for c, r in zip(scalars, rows)) for k in range(n)]
    else:
        v = data.draw(vectors(n))
    assert s.contains_vector(v) == (matrix_rank(list(s.basis) + [v]) == s.dim())
    coords, residual = s.reduce(v)
    assert len(coords) == s.dim()
    recombined = [sum(c * row[k] for c, row in zip(coords, s.basis)) + residual[k] for k in range(n)]
    assert recombined == v


@st.composite
def filtrations(draw):
    """A decreasing chain of prefix spans of random rows, with either tail."""
    n = draw(st.integers(1, 4))
    rows = draw(st.lists(vectors(n), max_size=5))
    cuts = sorted(draw(st.lists(st.integers(0, len(rows)), min_size=1, max_size=4)), reverse=True)
    lo = draw(st.integers(-2, 2))
    pieces = {lo + k: Subspace.span(n, rows[:c]) for k, c in enumerate(cuts)}
    tail = draw(st.sampled_from(["zero", "constant"]))
    return FilteredModule(n, lo, lo + len(cuts) - 1, pieces, tail)


@SETTINGS
@hypothesis.given(filtrations())
def test_completion_dims(M):
    T = M.tail_space()
    completed, verdict = complete_filtration(M)
    assert verdict["complete"] == (T.dim() == 0)
    assert completed.ambient == M.ambient - T.dim()
    for i in range(M.lo, M.hi + 1):
        piece = M.piece(i)
        expected = matrix_rank(list(piece.basis) + list(T.basis)) - T.dim()
        assert completed.piece(i).dim() == expected
