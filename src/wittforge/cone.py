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
from itertools import product as iter_product

from .rings import (
    IntegerRing,
    PolyRing,
    QuotientRing,
    RationalRing,
    Ring,
    UnsupportedRing,
    ZModRing,
)


class ConeError(Exception):
    pass


class Module:
    """Module interface for quasi-ideal sources; values are raw."""

    ring: Ring

    def zero(self):
        raise NotImplementedError

    def add(self, x, y):
        raise NotImplementedError

    def neg(self, x):
        raise NotImplementedError

    def scalar(self, r, x):
        raise NotImplementedError

    def eq(self, x, y):
        return x == y

    def generators(self):
        raise NotImplementedError

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

    def neg(self, x):
        return tuple(self.ring.neg(a) for a in x)

    def scalar(self, r, x):
        return tuple(self.ring.mul(r, a) for a in x)

    def generators(self):
        out = []
        for i in range(self.rank):
            out.append(
                tuple(self.ring.one() if j == i else self.ring.zero() for j in range(self.rank))
            )
        return out

    def elements(self):
        base = list(self.ring.elements())
        for combo in iter_product(base, repeat=self.rank):
            yield combo

    def size(self):
        s = self.ring.size()
        return None if s is None else s**self.rank


class IdealModule(Module):
    """An ideal of R viewed as a module; elements are ring values."""

    def __init__(self, ring: Ring, generators):
        self.ring = ring
        self._gens = [_raw(ring, g) for g in generators]

    def zero(self):
        return self.ring.zero()

    def add(self, x, y):
        return self.ring.add(x, y)

    def neg(self, x):
        return self.ring.neg(x)

    def scalar(self, r, x):
        return self.ring.mul(r, x)

    def generators(self):
        return list(self._gens)

    def elements(self):
        if self.ring.size() is None:
            raise UnsupportedRing("ideal enumeration needs a finite ring")
        seen = {self.ring.zero()}
        frontier = [self.ring.zero()]
        while frontier:
            x = frontier.pop()
            for g in self._gens:
                for r in self.ring.elements():
                    y = self.ring.add(x, self.ring.mul(r, g))
                    if y not in seen:
                        seen.add(y)
                        frontier.append(y)
        return iter(sorted(seen, key=repr))

    def size(self):
        if self.ring.size() is None:
            return None
        return len(list(self.elements()))


@dataclass
class QuasiIdeal:
    ring: Ring
    module: Module
    d_gens: list  # image of each module generator under d

    def d(self, x):
        """Apply the structure map, expanding x against the generators.

        Free modules apply d coordinatewise; ideal modules include.
        """
        if isinstance(self.module, FreeModule):
            out = self.ring.zero()
            for coeff, dg in zip(x, self.d_gens):
                out = self.ring.add(out, self.ring.mul(coeff, dg))
            return out
        if isinstance(self.module, IdealModule):
            return x
        raise ConeError("unknown module flavor")

    @classmethod
    def rank_one(cls, ring: Ring, d_value) -> "QuasiIdeal":
        return cls(ring, FreeModule(ring, 1), [_raw(ring, d_value)])

    @classmethod
    def from_ideal(cls, ring: Ring, generators) -> "QuasiIdeal":
        mod = IdealModule(ring, generators)
        return cls(ring, mod, mod.generators())


def _raw(ring: Ring, v):
    if isinstance(v, int):
        return ring.from_int(v)
    return ring.canonicalize(v)


def quasi_ideal_to_json(q: QuasiIdeal) -> dict:
    if not isinstance(q.module, FreeModule):
        raise UnsupportedRing("only free modules serialize")
    return {
        "base": q.ring.descriptor(),
        "generators": q.module.rank,
        "relations": [],
        "d": [q.ring.el_to_str(v) for v in q.d_gens],
    }


def quasi_ideal_from_json(obj: dict) -> QuasiIdeal:
    from .rings import make_ring

    if obj.get("relations"):
        raise UnsupportedRing("relation matrices are not supported; use a free module")
    ring = make_ring(obj["base"])
    dvals = [ring.el_from_str(s) for s in obj["d"]]
    if len(dvals) != obj.get("generators", len(dvals)):
        raise UnsupportedRing("generator count does not match the d-values")
    return QuasiIdeal(ring, FreeModule(ring, len(dvals)), dvals)


def quasi_ideal_check(q: QuasiIdeal):
    """Verify x*d(y) = y*d(x) on generator pairs; return (ok, witness)."""
    gens = q.module.generators()
    for i, x in enumerate(gens):
        for y in gens[i + 1 :]:
            left = q.module.scalar(q.d(y), x)
            right = q.module.scalar(q.d(x), y)
            if not q.module.eq(left, right):
                return False, (x, y)
    return True, None


# ---------------------------------------------------------------------------
# ring levels R_n = R x I^{n-1}


def cone_level_one(q: QuasiIdeal, n: int):
    return (q.ring.one(),) + tuple(q.module.zero() for _ in range(n - 1))


def cone_level_add(q: QuasiIdeal, u, v):
    return (q.ring.add(u[0], v[0]),) + tuple(
        q.module.add(x, y) for x, y in zip(u[1:], v[1:])
    )


def cone_level_neg(q: QuasiIdeal, u):
    return (q.ring.neg(u[0]),) + tuple(q.module.neg(x) for x in u[1:])


def cone_level_mul(q: QuasiIdeal, u, v):
    r, s = u[0], v[0]
    out = [q.ring.mul(r, s)]
    for x, y in zip(u[1:], v[1:]):
        term = q.module.add(q.module.scalar(r, y), q.module.scalar(s, x))
        term = q.module.add(term, q.module.scalar(q.d(x), y))
        out.append(term)
    return tuple(out)


def cone_level_arith(q: QuasiIdeal, n: int, op: str, u, v=None):
    if len(u) != n or (v is not None and len(v) != n):
        raise ConeError(f"level-{n} elements need {n} components")
    if op == "add":
        return cone_level_add(q, u, v)
    if op == "mul":
        return cone_level_mul(q, u, v)
    if op == "neg":
        return cone_level_neg(q, u)
    if op == "sub":
        return cone_level_add(q, u, cone_level_neg(q, v))
    raise ConeError(f"unknown op {op!r}")


# ---------------------------------------------------------------------------
# pi_0 = coker(d) and hom sets


@dataclass
class Pi0:
    """R / image(d), either as explicit cosets or a structured quotient ring."""

    kind: str  # "cosets" or "ring"
    ring: Ring
    image: frozenset | None = None
    classes: list | None = None
    quotient_ring: Ring | None = None

    def size(self):
        if self.kind == "cosets":
            return len(self.classes)
        s = self.quotient_ring.size()
        return s

    def class_of(self, r):
        if self.kind != "cosets":
            raise ConeError("structured quotient: use the quotient ring map")
        for i, rep in enumerate(self.classes):
            if self.ring.sub(r, rep) in self.image:
                return i
        raise ConeError("value outside the enumerated ring")


def _image_of_d(q: QuasiIdeal):
    ring = q.ring
    if ring.size() is None:
        raise UnsupportedRing("image enumeration needs a finite ring")
    # the image of d is the ideal generated by the d-values of the generators
    gens = [q.d(g) for g in q.module.generators()]
    seen = {ring.zero()}
    frontier = [ring.zero()]
    while frontier:
        x = frontier.pop()
        for g in gens:
            for r in ring.elements():
                y = ring.add(x, ring.mul(r, g))
                if y not in seen:
                    seen.add(y)
                    frontier.append(y)
    return frozenset(seen)


def cone_pi0(q: QuasiIdeal) -> Pi0:
    ring = q.ring
    if ring.size() is not None:
        image = _image_of_d(q)
        classes = []
        covered = set()
        for r in ring.elements():
            if r in covered:
                continue
            classes.append(r)
            covered.update(ring.add(r, x) for x in image)
        return Pi0("cosets", ring, image=image, classes=classes)
    dvals = [q.d(g) for g in q.module.generators()]
    if isinstance(ring, IntegerRing):
        from math import gcd

        g = 0
        for v in dvals:
            g = gcd(g, v)
        if g == 0:
            return Pi0("ring", ring, quotient_ring=ring)
        if g == 1:
            return Pi0("ring", ring, quotient_ring=_zero_ring())
        return Pi0("ring", ring, quotient_ring=ZModRing(g))
    if isinstance(ring, QuotientRing) and isinstance(ring.poly.base, RationalRing):
        return Pi0("ring", ring, quotient_ring=_univariate_quotient(ring, dvals))
    if isinstance(ring, RationalRing):
        nonzero = any(v != ring.zero() for v in dvals)
        return Pi0("ring", ring, quotient_ring=_zero_ring() if nonzero else ring)
    raise UnsupportedRing(f"pi0 unsupported over {ring.descriptor()}")


def _zero_ring():
    p = PolyRing(RationalRing(), ("t",))
    return QuotientRing(p, p.one())


def _univariate_quotient(ring: QuotientRing, dvals):
    """k[t]/(g) modulo an ideal: gcd of the relation with the d-values."""
    base = ring.poly

    def to_dense(v):
        out = [base.base.zero()] * (ring.degree + 1)
        for (e,), c in v:
            out[e] = c
        return out

    def deg(v):
        for i in range(len(v) - 1, -1, -1):
            if v[i] != base.base.zero():
                return i
        return -1

    def polymod(a, b):
        db = deg(b)
        lcinv = base.base.unit_inverse(b[db])
        a = list(a)
        while deg(a) >= db:
            da = deg(a)
            c = base.base.mul(a[da], lcinv)
            for i in range(db + 1):
                a[i + da - db] = base.base.sub(a[i + da - db], base.base.mul(c, b[i]))
        return a

    g = to_dense(ring.relation)
    g[ring.degree] = base.base.one()
    for v in dvals:
        v = to_dense(v)
        while deg(v) >= 0:
            g, v = v, polymod(g, v)
    dg = deg(g)
    if dg <= 0:
        return _zero_ring()
    lcinv = base.base.unit_inverse(g[dg])
    rel = base.canonicalize(tuple(((i,), base.base.mul(c, lcinv)) for i, c in enumerate(g[: dg + 1])))
    return QuotientRing(base, rel)


def cone_hom_set(q: QuasiIdeal, r1, r2, cap: int = 10**6):
    """Hom(r1, r2) = {x in I : d(x) = r2 - r1}."""
    ring = q.ring
    target = ring.sub(_raw(ring, r2), _raw(ring, r1))
    size = q.module.size()
    if size is not None:
        if size > cap:
            raise UnsupportedRing("module too large to enumerate")
        return [x for x in q.module.elements() if q.d(x) == target]
    if isinstance(q.module, FreeModule) and q.module.rank == 1:
        a = q.d_gens[0]
        sol = _solve_linear(ring, a, target)
        return [] if sol is None else [(sol,)]
    if isinstance(q.module, IdealModule):
        # d is the inclusion: the hom set is {target} when target lies in the ideal
        if isinstance(ring, IntegerRing):
            from math import gcd

            g = 0
            for v in q.module.generators():
                g = gcd(g, v)
            member = target == 0 if g == 0 else target % g == 0
            return [target] if member else []
        if isinstance(ring, RationalRing):
            nonzero = any(v != ring.zero() for v in q.module.generators())
            return [target] if (nonzero or target == ring.zero()) else []
    raise UnsupportedRing("hom sets need a finite module or rank one over Z/Q")


def _solve_linear(ring: Ring, a, c):
    """One solution of a*x = c over Z or Q, or None."""
    if isinstance(ring, IntegerRing):
        if a == 0:
            return 0 if c == 0 else None
        q, r = divmod(c, a)
        return q if r == 0 else None
    if isinstance(ring, RationalRing):
        if a == 0:
            return ring.zero() if c == ring.zero() else None
        return c / a
    inv = ring.unit_inverse(a)
    if inv is not None:
        return ring.mul(inv, c)
    raise UnsupportedRing(f"linear solve unsupported over {ring.descriptor()}")
