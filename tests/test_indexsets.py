import pytest

from wittforge.indexset import IndexSet, IndexSetError, index_set_make


def test_divisors_of():
    assert IndexSet.divisors_of(6).elements == (1, 2, 3, 6)
    assert IndexSet.divisors_of(1).elements == (1,)


def test_p_typical():
    E = IndexSet.p_typical(2, 2)
    assert E.elements == (1, 2, 4)
    assert E.p_part(2) == E
    assert E.prime_to(2).elements == (1,)
    assert IndexSet.p_typical(2, 0).elements == (1,)
    with pytest.raises(IndexSetError):
        IndexSet.p_typical(4, 2)


def test_explicit_closure_errors():
    with pytest.raises(IndexSetError):
        IndexSet.explicit([1, 2, 3])  # missing 6 = 2*3
    with pytest.raises(IndexSetError):
        IndexSet.explicit([1, 4])  # missing divisor 2
    with pytest.raises(IndexSetError):
        IndexSet.explicit([2, 4])  # missing 1
    assert IndexSet.explicit([1, 2, 3, 6]) == IndexSet.divisors_of(6)


def test_restrict():
    E = IndexSet.divisors_of(6)
    assert E.restrict(2).elements == (1, 3)
    assert E.restrict(3).elements == (1, 2)
    assert E.restrict(6).elements == (1,)
    assert E.restrict(1) == E
    E4 = IndexSet.p_typical(2, 2)
    assert E4.restrict(2).elements == (1, 2)
    assert E4.restrict(4).elements == (1,)
    for n in (0, 4, 5):  # E/n is empty when n is not in E
        with pytest.raises(IndexSetError):
            E.restrict(n)


def test_prime_to_and_p_part():
    E = IndexSet.divisors_of(12)
    assert E.prime_to(2).elements == (1, 3)
    assert E.p_part(2).elements == (1, 2, 4)
    assert E.primes() == [2, 3]


def test_parse():
    assert index_set_make("div:6") == IndexSet.divisors_of(6)
    assert index_set_make("ptyp:2:3").elements == (1, 2, 4, 8)
    assert index_set_make("set:1,2").elements == (1, 2)
    with pytest.raises(IndexSetError):
        index_set_make("weird:3")


def test_parse_bad_inputs():
    for bad in ("div:0", "div:x", "ptyp:2:x", "set:1,q"):
        with pytest.raises(IndexSetError):
            index_set_make(bad)
