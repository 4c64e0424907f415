"""Quasi-ideals and the cone construction at finite level.

A quasi-ideal is a module map d: I -> R with x*d(y) = y*d(x).  The cone
groupoid has object set R and Hom(r1, r2) = d^{-1}(r2 - r1); its ring levels
are R_n = R x I^{n-1} with the multiplication

    (r, x_1, ..) * (s, y_1, ..) = (rs, r y_i + s x_i + d(x_i) y_i, ..)

whose commutativity is equivalent to the quasi-ideal law.  Everything here is
generic over the Ring interface, so the same code drives cones over plain
rings and over W_E(R).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import product as iter_product

from .numutil import WittforgeError
from .rings import ENUM_CAP, Ring, UnsupportedRing


class ConeError(WittforgeError):
    """A failed cone computation, such as a product across two ring levels."""


class Module:
    """Module interface for quasi-ideal sources; values are raw.

    Every module defines zero, add, scalar, generators, d (the
    structure map, given the images of the generators), solve (d^-1 of a
    target, for a module too large to list) and el_to_str (the JSON form).
    """

    ring: Ring

    def elements(self):
        raise UnsupportedRing("module is not enumerable")

    def size(self):
        return None


class FreeModule(Module):
    """Free module of finite rank; elements are tuples over the base ring."""

    def __init__(self, ring: Ring, rank: int):
        self.ring = ring
        self.rank = rank

    def zero(self):
        return tuple(self.ring.zero() for _ in range(self.rank))

    def add(self, x, y):
        return tuple(self.ring.add(a, b) for a, b in zip(x, y))

    def scalar(self, r, x):
        return tuple(self.ring.mul(r, a) for a in x)

    def generators(self):
        out = []
        for i in range(self.rank):
            out.append(
                tuple(self.ring.one() if j == i else self.ring.zero() for j in range(self.rank))
            )
        return out

    def d(self, d_gens, x):
        out = self.ring.zero()
        for coeff, dg in zip(x, d_gens):
            out = self.ring.add(out, self.ring.mul(coeff, dg))
        return out

    def solve(self, d_gens, target):
        if self.rank != 1:
            raise UnsupportedRing("hom sets over an infinite ring need a rank-one module")
        x = self.ring.divide(target, d_gens[0])
        return [] if x is None else [(x,)]

    def el_to_str(self, x):
        return [self.ring.el_to_str(c) for c in x]

    def elements(self):
        # the zero module has one element over any ring
        base = list(self.ring.elements()) if self.rank else []
        return iter_product(base, repeat=self.rank)

    def size(self):
        s = self.ring.size() if self.rank else 1
        return None if s is None else s**self.rank


class IdealModule(Module):
    """An ideal of R viewed as a module; elements are ring values."""

    def __init__(self, ring: Ring, generators):
        self.ring = ring
        self._gens = [ring.raw(g) for g in generators]

    def zero(self):
        return self.ring.zero()

    def add(self, x, y):
        return self.ring.add(x, y)

    def scalar(self, r, x):
        return self.ring.mul(r, x)

    def generators(self):
        return list(self._gens)

    def d(self, d_gens, x):
        return x  # the inclusion: each generator is its own d-value

    @cached_property
    def _quotient(self):
        """R/I and the map onto it, built once per module."""
        return self.ring.quotient_by(self._gens)

    def solve(self, d_gens, target):
        # d is the inclusion: injective, with the ideal itself as its image
        quotient, reduce = self._quotient
        return [target] if reduce(target) == quotient.zero() else []

    def el_to_str(self, x):
        return self.ring.el_to_str(x)


@dataclass
class QuasiIdeal:
    module: Module
    d_gens: list  # image of each module generator under d, in the module's ring

    def __post_init__(self):
        self.d_gens = [self.ring.raw(v) for v in self.d_gens]

    @property
    def ring(self) -> Ring:
        return self.module.ring

    def d(self, x):
        """Apply the structure map, expanding x against the generators."""
        return self.module.d(self.d_gens, x)

    @classmethod
    def rank_one(cls, ring: Ring, d_value) -> "QuasiIdeal":
        return cls(FreeModule(ring, 1), [d_value])

    @classmethod
    def from_ideal(cls, ring: Ring, generators) -> "QuasiIdeal":
        mod = IdealModule(ring, generators)
        return cls(mod, mod.generators())


def quasi_ideal_check(q: QuasiIdeal):
    """Verify x*d(y) = y*d(x) on generator pairs; return (ok, witness)."""
    gens = q.module.generators()
    for i, x in enumerate(gens):
        for y in gens[i + 1 :]:
            left = q.module.scalar(q.d(y), x)
            right = q.module.scalar(q.d(x), y)
            if left != right:
                return False, (x, y)
    return True, None


# ---------------------------------------------------------------------------
# ring levels R_n = R x I^{n-1}


def cone_level_one(q: QuasiIdeal, n: int):
    return (q.ring.one(),) + tuple(q.module.zero() for _ in range(n - 1))


def cone_level_mul(q: QuasiIdeal, u, v):
    """The product of two elements of one ring level R_n."""
    if len(u) != len(v):
        raise ConeError(f"cannot multiply elements of the levels R_{len(u)} and R_{len(v)}")
    r, s = u[0], v[0]
    out = [q.ring.mul(r, s)]
    for x, y in zip(u[1:], v[1:]):
        term = q.module.add(q.module.scalar(r, y), q.module.scalar(s, x))
        term = q.module.add(term, q.module.scalar(q.d(x), y))
        out.append(term)
    return tuple(out)


# ---------------------------------------------------------------------------
# pi_0 = coker(d) and hom sets


def cone_pi0(q: QuasiIdeal) -> Ring:
    """pi_0 = R / image(d), the quotient by the ideal of the d-values."""
    return q.ring.quotient_by([q.d(g) for g in q.module.generators()])[0]


def cone_hom_set(q: QuasiIdeal, r1, r2):
    """Hom(r1, r2) = {x in I : d(x) = r2 - r1}."""
    ring = q.ring
    target = ring.sub(ring.raw(r2), ring.raw(r1))
    size = q.module.size()
    if size is not None:
        if size > ENUM_CAP:
            raise UnsupportedRing(
                f"the hom set searches the {size} elements of the module, more than {ENUM_CAP}"
            )
        return [x for x in q.module.elements() if q.d(x) == target]
    return q.module.solve(q.d_gens, target)
