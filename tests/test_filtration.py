import random
from fractions import Fraction

import pytest

from wittforge.filtration import (
    FilteredModule,
    FiltrationError,
    ReesModule,
    Subspace,
    TorsionError,
    complete_filtration,
    day_tensor,
    filtered_line,
    filtered_of_rees,
    iadic_filtered_module,
    iadic_gr,
    iadic_gr_crosscheck,
    matrix_rank,
    rees_of_filtered,
    shift_filtration,
    step_filtration,
)
from wittforge.numutil import binomial


def test_subspace_basics():
    s = Subspace.span(3, [(1, 0, 0), (1, 1, 0)])
    assert s.dim() == 2
    assert s.contains_vector((2, 3, 0))
    assert not s.contains_vector((0, 0, 1))
    assert Subspace.full(3).contains(s)
    assert matrix_rank([(1, 2), (2, 4)]) == 1


def test_unit_and_line():
    unit = filtered_line(0)
    r = rees_of_filtered(unit)
    assert r.piece(0).dim() == 1 and r.piece(-1).dim() == 0 and r.piece(5).dim() == 1
    q1 = filtered_line(1)
    r1 = rees_of_filtered(q1)
    assert r1.piece(-1).dim() == 1 and r1.piece(-2).dim() == 0


def test_round_trips():
    rng = random.Random(31)
    for _ in range(40):
        spaces = [Subspace.full(3)]
        cur = Subspace.full(3)
        for _ in range(3):
            rows = list(cur.basis)[: max(0, cur.dim() - rng.randint(0, 2))]
            cur = Subspace.span(3, rows)
            spaces.append(cur)
        M = step_filtration(spaces, rng.randint(-2, 2))
        assert filtered_of_rees(rees_of_filtered(M)) == M


def test_shift():
    q1 = filtered_line(1)
    assert shift_filtration(q1, 0) == q1
    assert shift_filtration(q1, -1) == filtered_line(0)
    assert shift_filtration(shift_filtration(q1, 2), -2) == q1
    # {n} shifts Rees degrees by -n
    M = filtered_line(0)
    for n in range(-3, 4):
        rM = rees_of_filtered(M)
        rS = rees_of_filtered(shift_filtration(M, n))
        for d in range(-5, 5):
            assert rS.piece(d - n).dim() == rM.piece(d).dim()


def test_day():
    unit = filtered_line(0)
    q1 = filtered_line(1)
    assert day_tensor(q1, q1) == filtered_line(2)
    line = Subspace.span(2, [(1, 1)])
    M = step_filtration([Subspace.full(2), line], 0)
    assert day_tensor(unit, M) == M
    N = step_filtration([Subspace.full(2), Subspace.span(2, [(1, 0)])], -1)
    MN, NM = day_tensor(M, N), day_tensor(N, M)
    for i in range(-3, 4):
        assert MN.piece(i).dim() == NM.piece(i).dim()
    P = filtered_line(-1)
    assert day_tensor(day_tensor(M, N), P) == day_tensor(M, day_tensor(N, P))


def test_completeness():
    M = filtered_line(2)
    completed, verdict = complete_filtration(M)
    assert verdict["complete"] and completed == M
    const = FilteredModule(1, 0, 0, {0: Subspace.full(1)}, "constant")
    completed, verdict = complete_filtration(const)
    assert not verdict["complete"] and verdict["intersection_dim"] == 1
    assert completed.ambient == 0
    tower = iadic_filtered_module(1, 3, 4)
    assert complete_filtration(tower)[1]["complete"]


def test_torsion_rejected():
    tor = ReesModule(
        1,
        0,
        1,
        {0: Subspace.full(1), 1: Subspace.full(1)},
        "zero",
        t_override={0: [[Fraction(0)]]},
    )
    with pytest.raises(TorsionError):
        filtered_of_rees(tor)


def test_iadic_gr_ranks():
    for g, names in ((1, ["x"]), (2, ["x", "z"])):
        for piece in iadic_gr(names, "diagonal", 4):
            assert piece.rank == binomial(g + piece.degree - 1, piece.degree)
            assert len(piece.generators) == piece.rank
            assert piece.relations == ()
    zero = iadic_gr(["x"], "zero", 2)
    assert [p.rank for p in zero] == [1, 0, 0]


def test_iadic_crosscheck():
    assert iadic_gr_crosscheck(1, 4, 5)
    assert iadic_gr_crosscheck(2, 3, 4)


def test_rees_json():
    r = rees_of_filtered(filtered_line(1))
    obj = r.to_json()
    assert obj["pieces"]["-1"] == {"rank": 1, "relations": []}


def test_equal_modules_hash_equal():
    full, zero = Subspace.full(1), Subspace.zero(1)
    M = FilteredModule(1, 0, 1, {0: full, 1: zero})
    N = FilteredModule(1, -1, 1, {-1: full, 0: full, 1: zero})
    assert M == N and len({M, N}) == 1
    RM, RN = rees_of_filtered(M), rees_of_filtered(N)
    assert RM == RN and len({RM, RN}) == 1


def test_bad_tail_flags_are_typed():
    with pytest.raises(FiltrationError):
        FilteredModule(1, 0, 0, {0: Subspace.full(1)}, "zeroo")
    with pytest.raises(FiltrationError):
        ReesModule(1, 0, 0, {0: Subspace.full(1)}, "zeroo")


def test_mismatched_ambient_is_typed():
    with pytest.raises(FiltrationError):
        step_filtration([Subspace.full(3), Subspace.full(2)])
    with pytest.raises(FiltrationError):
        Subspace.full(3).contains_vector((1, 0))
