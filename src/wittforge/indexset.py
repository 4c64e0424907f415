"""Truncation sets for Witt vectors.

An index set is a finite set of positive integers containing 1, closed under
divisors and under products of coprime members.  The derived sets E|n, E_(n)
and E^(p) are methods.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .numutil import divisors, factorize, is_prime


class IndexSetError(ValueError):
    pass


@dataclass(frozen=True)
class IndexSet:
    elements: tuple[int, ...]

    def __post_init__(self):
        elems = tuple(sorted(set(self.elements)))
        object.__setattr__(self, "elements", elems)
        if not elems or elems[0] < 1:
            raise IndexSetError("index set needs positive integers")
        if 1 not in elems:
            raise IndexSetError("index set must contain 1")
        s = set(elems)
        for n in elems:
            for d in divisors(n):
                if d not in s:
                    raise IndexSetError(f"not divisor-closed: {d} divides {n} but is missing")
        for a in elems:
            for b in elems:
                if gcd(a, b) == 1 and a * b not in s:
                    raise IndexSetError(
                        f"not closed under coprime products: missing {a * b} = {a}*{b}"
                    )

    # -- constructors --------------------------------------------------------
    @classmethod
    def divisors_of(cls, n: int) -> "IndexSet":
        if n < 1:
            raise IndexSetError("divisors_of needs a positive integer")
        return cls(tuple(divisors(n)))

    @classmethod
    def p_typical(cls, p: int, length: int) -> "IndexSet":
        """{1, p, ..., p^length}; length 0 gives the one-point set {1}."""
        if not is_prime(p):
            raise IndexSetError(f"{p} is not prime")
        if length < 0:
            raise IndexSetError("length must be >= 0")
        return cls(tuple(p**i for i in range(length + 1)))

    @classmethod
    def explicit(cls, elems) -> "IndexSet":
        return cls(tuple(elems))

    # -- container protocol ---------------------------------------------------
    def __iter__(self):
        return iter(self.elements)

    def __len__(self):
        return len(self.elements)

    def __contains__(self, n):
        return n in self.elements

    def __le__(self, other):
        return set(self.elements) <= set(other.elements)

    def position(self, n: int) -> int:
        return self.elements.index(n)

    # -- derived sets ----------------------------------------------------------
    def restrict(self, n: int) -> "IndexSet":
        """E|n = {m : nm in E} for n in E, iterating E|p over the prime power
        decomposition of n."""
        if n not in self:
            raise IndexSetError(f"{n} is not in the index set {self}")
        elems = set(self.elements)
        for p, r in factorize(n).items():
            for _ in range(r):
                elems = {m // gcd(m, p) for m in elems}
        return IndexSet(tuple(elems))

    def prime_to(self, n: int) -> "IndexSet":
        """E_(n): members coprime to n."""
        return IndexSet(tuple(m for m in self.elements if gcd(m, n) == 1))

    def p_part(self, p: int) -> "IndexSet":
        """E^(p): members that are powers of p."""
        if not is_prime(p):
            raise IndexSetError(f"{p} is not prime")
        out = []
        for m in self.elements:
            q = m
            while q % p == 0:
                q //= p
            if q == 1:
                out.append(m)
        return IndexSet(tuple(out))

    def primes(self) -> list[int]:
        return [n for n in self.elements if is_prime(n)]

    def key(self) -> tuple[int, ...]:
        return self.elements

    def __repr__(self):
        return "{" + ",".join(str(n) for n in self.elements) + "}"


def index_set_make(spec: str) -> IndexSet:
    """Parse 'div:N', 'ptyp:p:len' or 'set:a,b,c'."""
    spec = spec.strip()
    try:
        if spec.startswith("div:"):
            return IndexSet.divisors_of(int(spec[4:]))
        if spec.startswith("ptyp:"):
            parts = spec[5:].split(":")
            if len(parts) != 2:
                raise IndexSetError(f"bad p-typical spec {spec!r}")
            return IndexSet.p_typical(int(parts[0]), int(parts[1]))
        if spec.startswith("set:"):
            return IndexSet.explicit(int(x) for x in spec[4:].split(",") if x.strip())
    except ValueError as e:
        raise IndexSetError(f"bad index set spec {spec!r}: {e}") from e
    raise IndexSetError(f"unrecognized index set spec {spec!r}")
