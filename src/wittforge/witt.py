"""E-typical Witt vectors over the supported exact rings.

Coordinates are indexed directly by the members of the index set E.  All
arithmetic runs through one kernel on the ghost side.  Every supported ring R
is a quotient of a ring S without additive torsion (``Ring.lift``): Z of
Z/N, Z[x^+-1] of (Z/N)[x^+-1], Z[t]/(g) of (Z/N)[t]/(g), and Z, Q and
polynomial or quotient rings over them are their own lifts.  W_E is a
functor, so W_E(S) -> W_E(R) is a ring map, and over S the ghost map is
injective.  Hence

    a o b = reduce(unghost(ghost(lift a) o ghost(lift b)))

for o in {+, -, *}, and likewise negation, the Frobenius F_n (through
g_d(F_n a) = g_{nd}(a)) and the triangular unit solve.  Unghosting over S
divides by n exactly, checked by S.exact_div_int.  Every step is a plain
ring operation, so there is no term cap; the universal polynomials of
``universal`` stay an independent cross-check in the tests.

Over a Q-algebra with integral numerators -- Q, Q[x^+-1], or Q[t]/(g) with
g monic over Z -- the kernel computes over Z, Z[x^+-1] or Z[t]/(g)
(Ring.clear_denominators).  Ghost components are isobaric, so the
Teichmuller multiple [D]x = (D^n x_n)_n has g_n([D]x) = D^n g_n(x).  With D
the lcm of the operands' coefficient denominators, [D]x is integral, and
[D]a o [D]b = [D](a o b) for o in {+, -}, [D^2](a b) for the product,
-[D]a = [D](-a) and F_n([D]a) = [D^n] F_n(a): the plan runs over the
integral ring and each coordinate z_n of the result comes back as z_n / s^n,
for s = D, D^2 or D^n.  ghost_raw reads g_n(x) = g_n([D]x) / D^n.  The public
unghost of a ghost vector w takes D = lcm(denominators of w) times
rad(lcm E).  Then [D]x is integral: the universal unghost polynomial of x_n
is isobaric of weight n with denominators dividing rad(n)^n, and D^n clears
them, over Z as over any Z[x^+-1] or Z[t]/(g).  Over Z this is Dwork's
criterion: for a prime p and m with mp in E, p divides D, so D^m w_m and
D^{mp} w_{mp} are both divisible by p^m, and p^m by p^{1 + v_p(m)}.  Every
division of the integral unghost is therefore exact, and S.exact_div_int
still raises if one is not.  The unit solve (witt_unit_inverse) still computes
in Fractions over these rings; a quotient whose relation is not integral,
such as Q[t]/(t^2 + 1/2), computes in Fractions throughout.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from itertools import product as iter_product
from math import lcm, prod

from .indexset import IndexSet
from .numutil import WittforgeError, divisors, factorize, valuation
from .rings import (
    INTEGERS,
    InexactDivision,
    ParseError,
    Ring,
    RingElement,
    RingMismatch,
    UnsupportedRing,
    _same,
)


class WittError(WittforgeError):
    pass


class DworkError(WittError):
    """An integer ghost vector is not in the image of the ghost map."""


@dataclass(frozen=True, slots=True)
class WittVector:
    index_set: IndexSet
    ring: Ring
    coords: tuple  # raw canonical coefficient values, in index order

    def __post_init__(self):
        if len(self.coords) != len(self.index_set):
            raise WittError(
                f"expected {len(self.index_set)} coordinates, got {len(self.coords)}"
            )

    # -- accessors -----------------------------------------------------------
    def coord(self, n: int) -> RingElement:
        return self.ring.elem(self.coords[self.index_set.position(n)])

    def coord_raw(self, n: int):
        return self.coords[self.index_set.position(n)]

    def __repr__(self):
        body = ",".join(self.ring.el_to_str(c) for c in self.coords)
        return f"W{self.index_set}({body})"

    # -- arithmetic ------------------------------------------------------------
    def _match(self, other):
        if not isinstance(other, WittVector):
            raise WittError(f"cannot combine WittVector with {other!r}")
        if other.index_set != self.index_set:
            raise WittError(f"index set mismatch: {self.index_set} vs {other.index_set}")
        if other.ring != self.ring:
            raise RingMismatch(
                f"ring mismatch: {self.ring.descriptor()} vs {other.ring.descriptor()}"
            )
        return other

    def __add__(self, other):
        return witt_add(self, self._match(other))

    def __mul__(self, other):
        return witt_mul(self, self._match(other))

    def __neg__(self):
        return witt_neg(self)

    def __sub__(self, other):
        return witt_sub(self, self._match(other))

    def __eq__(self, other):
        return (
            isinstance(other, WittVector)
            and self.index_set == other.index_set
            and self.ring == other.ring
            and self.coords == other.coords
        )

    def __hash__(self):
        return hash((self.index_set, self.ring, self.coords))

    def is_zero(self):
        z = self.ring.zero()
        return all(c == z for c in self.coords)

    def to_json(self):
        return {
            "ring": self.ring.descriptor(),
            "index_set": list(self.index_set.elements),
            "coords": {str(n): self.ring.el_to_str(c) for n, c in zip(self.index_set, self.coords)},
        }


def make_witt(E: IndexSet, ring: Ring, values) -> WittVector:
    return WittVector(E, ring, tuple(ring.raw(v) for v in values))


def witt_zero(E: IndexSet, ring: Ring) -> WittVector:
    return WittVector(E, ring, tuple(ring.zero() for _ in E))


def teichmuller(r, E: IndexSet, ring: Ring = None) -> WittVector:
    """[r] = (r, 0, 0, ...), the multiplicative section of the first ghost,
    over the ring of the RingElement r when no ring is given."""
    if ring is None:
        ring = getattr(r, "ring", None)
        if ring is None:
            raise WittError("teichmuller needs a ring for a raw value")
    coords = [ring.raw(r)] + [ring.zero()] * (len(E) - 1)
    return WittVector(E, ring, tuple(coords))


def witt_one(E: IndexSet, ring: Ring) -> WittVector:
    return teichmuller(1, E, ring)


# ---------------------------------------------------------------------------
# the kernel: per-E plans, ghost and unghost over any ring


class _Plan:
    """What the kernel needs to know about one index set E.

    lower[i] lists (j, d, n // d) for every proper divisor d = E[j] of
    n = E[i].  chain[j] lists steps (e, f, k) that compute x^e = (x^f)^k for
    every exponent e > 1 the coordinate at E[j] is raised to, in increasing
    order, f being the largest exponent already at hand that divides e.
    """

    __slots__ = ("elements", "pos", "lower", "chain", "radical", "_restricted")

    def __init__(self, E: IndexSet):
        self.elements = E.elements
        self.radical = prod(factorize(lcm(*E.elements)))
        self.pos = {n: i for i, n in enumerate(E.elements)}
        self.lower = tuple(
            tuple((self.pos[d], d, n // d) for d in divisors(n) if d < n) for n in E.elements
        )
        needed = [set() for _ in E.elements]
        for terms in self.lower:
            for j, _, e in terms:
                needed[j].add(e)
        self.chain = tuple(_chain(sorted(es)) for es in needed)
        self._restricted = {}

    def restricted(self, E: IndexSet, n: int):
        """(E|n, its plan, positions in E of n*d for d in E|n), n in E."""
        out = self._restricted.get(n)
        if out is None:
            target = E.restrict(n)
            out = (target, _plan(target), tuple(self.pos[n * d] for d in target))
            self._restricted[n] = out
        return out


def _chain(exps):
    steps, have = [], [1]
    for e in exps:
        f = max(h for h in have if e % h == 0)
        steps.append((e, f, e // f))
        have.append(e)
    return tuple(steps)


_PLANS: dict = {}


def _plan(E: IndexSet) -> _Plan:
    plan = _PLANS.get(E.elements)
    if plan is None:
        plan = _PLANS[E.elements] = _Plan(E)
    return plan


def _powers(ring: Ring, x, chain):
    """{e: x^e} for e = 1 and every exponent of the chain."""
    pw = {1: x}
    for e, f, k in chain:
        pw[e] = ring.pow(pw[f], k)
    return pw


def _ghost(plan: _Plan, ring: Ring, xs) -> list:
    """g_n(x) = sum_{d|n} d * x_d^(n/d) for every n in E, in index order."""
    mul, add, from_int = ring.mul, ring.add, ring.from_int
    pows = [_powers(ring, x, chain) for x, chain in zip(xs, plan.chain)]
    out = []
    for n, x, terms in zip(plan.elements, xs, plan.lower):
        total = x if n == 1 else mul(from_int(n), x)
        for j, d, e in terms:
            v = pows[j][e]
            total = add(total, v if d == 1 else mul(from_int(d), v))
        out.append(total)
    return out


def _unghost(plan: _Plan, ring: Ring, w) -> list:
    """x_n = (w_n - sum_{d|n, d<n} d * x_d^(n/d)) / n, level by level.

    Each division goes through ring.exact_div_int, which raises unless it is
    exact.
    """
    mul, sub, from_int = ring.mul, ring.sub, ring.from_int
    xs, pows = [], []
    for n, acc, terms, chain in zip(plan.elements, w, plan.lower, plan.chain):
        for j, d, e in terms:
            v = pows[j][e]
            acc = sub(acc, v if d == 1 else mul(from_int(d), v))
        x = acc if n == 1 else ring.exact_div_int(acc, n)
        xs.append(x)
        pows.append(_powers(ring, x, chain))
    return xs


def _cleared(ring: Ring, elements, lists, factor: int = 1):
    """(S, D, lists over S, unscale) over a ring of fractions of S.

    Each list, coordinates or ghost components indexed by elements, becomes
    that of the Teichmuller multiple [D]x, its entry at n times D^n, with D
    factor times the common denominator of Ring.clear_denominators.
    """
    S, D, scale, unscale = ring.clear_denominators(*lists)
    D *= factor
    ks = [D**n for n in elements]
    return S, D, [tuple(map(scale, xs, ks)) for xs in lists], unscale


def _divided(unscale, zs, elements, s: int) -> tuple:
    """y from the coordinates (or ghosts) zs over S of [s]y: z_n / s^n."""
    return tuple(map(unscale, zs, [s**n for n in elements]))


# ---------------------------------------------------------------------------
# ring operations, computed over the torsion-free lift S of the ring


def _ghostwise(op: str, *vectors: WittVector) -> WittVector:
    """Apply the ring operation op of the lift S to the ghosts, level by level.

    Over a ring of fractions of S it computes on [D]a (and [D]b) over S, which
    gives [D](a o b), or [D^2](a * b) for a product.
    """
    E, ring = vectors[0].index_set, vectors[0].ring
    if ring.clear_denominators is not None:
        S, D, lists, unscale = _cleared(ring, E.elements, [v.coords for v in vectors])
        z = _ghostwise(op, *(WittVector(E, S, xs) for xs in lists)).coords
        return WittVector(E, ring, _divided(unscale, z, E.elements, D * D if op == "mul" else D))
    plan = _plan(E)
    S, reduce = ring.lift()
    w = list(map(getattr(S, op), *(_ghost(plan, S, v.coords) for v in vectors)))
    return WittVector(E, ring, tuple(map(reduce, _unghost(plan, S, w))))


def witt_add(a: WittVector, b: WittVector) -> WittVector:
    return _ghostwise("add", a, b)


def witt_sub(a: WittVector, b: WittVector) -> WittVector:
    return _ghostwise("sub", a, b)


def witt_mul(a: WittVector, b: WittVector) -> WittVector:
    return _ghostwise("mul", a, b)


def witt_neg(a: WittVector) -> WittVector:
    return _ghostwise("neg", a)


def witt_from_int(n: int, E: IndexSet, ring: Ring) -> WittVector:
    """Image of the integer n under Z -> W_E(R): its ghost is (n, n, ...)."""
    coords = _unghost(_plan(E), INTEGERS, [n] * len(E))
    return WittVector(E, ring, tuple(ring.from_int(c) for c in coords))


# ---------------------------------------------------------------------------
# ghost components


def ghost_raw(a: WittVector) -> dict:
    """g_n(a) = sum_{d|n} d * a_d^{n/d} as raw ring values."""
    E = a.index_set
    if a.ring.clear_denominators is not None:
        S, D, (xs,), unscale = _cleared(a.ring, E.elements, [a.coords])
        return dict(zip(E.elements, _divided(unscale, _ghost(_plan(E), S, xs), E.elements, D)))
    return dict(zip(E.elements, _ghost(_plan(E), a.ring, a.coords)))


def ghost(a: WittVector) -> dict:
    """Ghost components as RingElements, keyed by n in E."""
    return {n: a.ring.elem(v) for n, v in ghost_raw(a).items()}


def _components(w, E: IndexSet) -> list:
    """The ghost vector w's components, in the order of E."""
    if not isinstance(w, Mapping):
        raise WittError(
            f"a ghost vector maps each index of E to a component, not a {type(w).__name__}"
        )
    try:
        return [w[n] for n in E]
    except KeyError as e:
        raise WittError(f"the ghost vector has no component at index {e.args[0]}") from None


def dwork_check(w: dict, E: IndexSet) -> bool:
    """True iff the integer vector w is the ghost of an integral Witt vector.

    Criterion: w_{mp} = w_m mod p^(1 + v_p(m)) for every prime p and m with
    mp in E.
    """
    entries = _components(w, E)
    if not all(isinstance(v, int) for v in entries):
        raise WittError("dwork_check expects integer entries")
    for n in E:
        for p in factorize(n):
            m = n // p
            modulus = p ** (1 + valuation(m, p))
            if (w[n] - w[m]) % modulus:
                return False
    return True


def unghost(w: dict, E: IndexSet, ring: Ring) -> WittVector:
    """Invert the ghost map.

    Requires every n in E invertible in the ring, or the integers together
    with a passing Dwork certificate (in which case every division is exact).
    Over a ring of fractions it unghosts the integral ghost vector of [D]x,
    D the common denominator times rad(lcm E).
    """
    raw = list(map(ring.raw, _components(w, E)))
    if ring == INTEGERS:
        ints = dict(zip(E, raw))
        if not dwork_check(ints, E):
            raise DworkError(f"{ints} is not integral: fails the Dwork congruences")
    else:
        for n in E.elements[1:]:
            if ring.int_unit_inverse(n) is None:
                raise WittError(f"{n} is not invertible in {ring.descriptor()}")
    plan = _plan(E)
    if ring.clear_denominators is not None:
        S, D, (ys,), unscale = _cleared(ring, E.elements, [raw], plan.radical)
        return WittVector(E, ring, _divided(unscale, _unghost(plan, S, ys), E.elements, D))
    return WittVector(E, ring, tuple(_unghost(plan, ring, raw)))


# ---------------------------------------------------------------------------
# Frobenius / Verschiebung / restriction


def frobenius(n: int, a: WittVector) -> WittVector:
    """F_n : W_E -> W_{E|n}, characterized by g_d(F_n a) = g_{nd}(a).

    F_n[D] = [D^n], so over a ring of fractions F_n([D]a) = [D^n] F_n(a).
    """
    E, ring = a.index_set, a.ring
    if n not in E:
        raise WittError(f"{n} is not in the index set {E}")
    plan = _plan(E)
    target, target_plan, positions = plan.restricted(E, n)
    if ring.clear_denominators is not None:
        S, D, (xs,), unscale = _cleared(ring, E.elements, [a.coords])
        z = frobenius(n, WittVector(E, S, xs)).coords
        return WittVector(target, ring, _divided(unscale, z, target.elements, D**n))
    S, reduce = ring.lift()
    g = _ghost(plan, S, a.coords)
    coords = _unghost(target_plan, S, [g[i] for i in positions])
    return WittVector(target, ring, tuple(map(reduce, coords)))


def verschiebung(n: int, a: WittVector, E: IndexSet) -> WittVector:
    """V_n : W_{E|n} -> W_E, the index shift (V_n a)_m = a_{m/n} for n | m."""
    source = E.restrict(n)
    if a.index_set != source:
        raise WittError(f"expected a vector over {source}, got {a.index_set}")
    ring = a.ring
    coords = []
    for m in E:
        if m % n == 0 and (m // n) in source:
            coords.append(a.coord_raw(m // n))
        else:
            coords.append(ring.zero())
    return WittVector(E, ring, tuple(coords))


def restrict(a: WittVector, E_sub: IndexSet) -> WittVector:
    if not (E_sub <= a.index_set):
        raise WittError(f"{E_sub} is not contained in {a.index_set}")
    return WittVector(E_sub, a.ring, tuple(a.coord_raw(n) for n in E_sub))


def map_coords(a: WittVector, ring_map, target: Ring) -> WittVector:
    """Push forward along a ring homomorphism given on raw values."""
    return WittVector(
        a.index_set, target, tuple(target.canonicalize(ring_map(c)) for c in a.coords)
    )


# ---------------------------------------------------------------------------
# units (ghost criterion with a constructive triangular solve)


def witt_unit_inverse(a: WittVector):
    """The b with a * b = 1, or None when a is not a unit.

    Coordinate n of a * b is g_n(a) * b_n plus terms in lower coordinates of
    b, so the system is triangular; it is solvable exactly when every ghost
    component of a is a unit, which in turn characterizes units of W_E(R)
    since the ghosts are ring homomorphisms into R.

    One pass over the lift S: with c = lift(a) * b~ and b~_n still 0, the
    product coordinate is known_n = (g_n(a~) g'_n - sum_{d|n,d<n} d c_d^(n/d)) / n
    where g'_n is the ghost of b~ without b_n.  Then b_n solves
    g_n(a) b_n = [n = 1] - known_n in R, and c_n = known_n + g_n(a~) b~_n.
    """
    E, ring = a.index_set, a.ring
    plan = _plan(E)
    S, reduce = ring.lift()
    ga = _ghost(plan, S, a.coords)
    invs = [ring.unit_inverse(reduce(g)) for g in ga]
    if any(inv is None for inv in invs):
        return None
    mul, add, sub, from_int = S.mul, S.add, S.sub, S.from_int
    bs, b_pows, c_pows = [], [], []
    for n, g, inv, t, terms, chain in zip(
        plan.elements, ga, invs, witt_one(E, ring).coords, plan.lower, plan.chain
    ):
        known = S.zero()
        if terms:
            gb = csum = S.zero()
            for j, d, e in terms:
                bv, cv = b_pows[j][e], c_pows[j][e]
                if d > 1:
                    bv, cv = mul(from_int(d), bv), mul(from_int(d), cv)
                gb, csum = add(gb, bv), add(csum, cv)
            known = S.exact_div_int(sub(mul(g, gb), csum), n)
        b = ring.mul(inv, ring.sub(t, reduce(known)))
        bs.append(b)
        b_pows.append(_powers(S, b, chain))
        c_pows.append(_powers(S, add(known, mul(g, b)), chain))
    return WittVector(E, ring, tuple(bs))


# ---------------------------------------------------------------------------
# enumeration and randomness


def witt_space(E: IndexSet, ring: Ring):
    """All Witt vectors over a finite ring, in a deterministic order."""
    base = list(ring.elements())
    for combo in iter_product(base, repeat=len(E)):
        yield WittVector(E, ring, tuple(combo))


def witt_space_size(E: IndexSet, ring: Ring):
    s = ring.size()
    return None if s is None else s ** len(E)


def random_witt(E: IndexSet, ring: Ring, rng) -> WittVector:
    return WittVector(E, ring, tuple(ring.canonicalize(ring.random(rng)) for _ in E))


# ---------------------------------------------------------------------------
# W_E(R) as a coefficient ring (used for composed Witt functors and cones)


class WittRing(Ring):
    """W_E(R) packaged behind the Ring interface; raw values are coord tuples."""

    def __init__(self, E: IndexSet, coeff: Ring):
        self.E = E
        self.coeff = coeff

    def descriptor(self):
        return f"witt[{','.join(str(n) for n in self.E)}]({self.coeff.descriptor()})"

    def wrap(self, v: WittVector):
        return v.coords

    def unwrap(self, raw) -> WittVector:
        return WittVector(self.E, self.coeff, raw)

    def zero(self):
        return tuple(self.coeff.zero() for _ in self.E)

    def one(self):
        return witt_one(self.E, self.coeff).coords

    def from_int(self, n):
        return witt_from_int(n, self.E, self.coeff).coords

    def add(self, a, b):
        return witt_add(self.unwrap(a), self.unwrap(b)).coords

    def neg(self, a):
        return witt_neg(self.unwrap(a)).coords

    def mul(self, a, b):
        return witt_mul(self.unwrap(a), self.unwrap(b)).coords

    def canonicalize(self, a):
        if not isinstance(a, tuple) or len(a) != len(self.E):
            self._reject(a)
        return tuple(self.coeff.canonicalize(c) for c in a)

    def _torsion_free(self):
        return self.coeff.lift()[0] is self.coeff

    def lift(self):
        """W_E(R) is its own lift when R is: the ghost map embeds it in R^E."""
        if not self._torsion_free():
            raise UnsupportedRing(f"no Witt arithmetic over {self.descriptor()}")
        return self, _same

    def exact_div_int(self, a, n):
        if self._torsion_free():
            # the ghost map embeds W_E(R) in R^E: divide there, then unghost
            plan = _plan(self.E)
            ghosts = [self.coeff.exact_div_int(g, n) for g in _ghost(plan, self.coeff, a)]
            return tuple(_unghost(plan, self.coeff, ghosts))
        inv = self.int_unit_inverse(n)
        if inv is None:
            raise InexactDivision(f"{n} is not invertible in {self.descriptor()}")
        return self.mul(a, inv)

    def unit_inverse(self, a):
        b = witt_unit_inverse(self.unwrap(a))
        return None if b is None else b.coords

    def size(self):
        return witt_space_size(self.E, self.coeff)

    def elements(self):
        for v in witt_space(self.E, self.coeff):
            yield v.coords

    def random(self, rng):
        return tuple(self.coeff.canonicalize(self.coeff.random(rng)) for _ in self.E)

    def el_to_str(self, a):
        return "(" + ",".join(self.coeff.el_to_str(c) for c in a) + ")"

    def el_from_str(self, s):
        s = s.strip()
        if not (s.startswith("(") and s.endswith(")")):
            raise ParseError(f"bad Witt literal {s!r}")
        parts = s[1:-1].split(",")
        if len(parts) != len(self.E):
            raise ParseError("wrong number of coordinates")
        return tuple(self.coeff.el_from_str(p) for p in parts)
