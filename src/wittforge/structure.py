"""Structural ideals and predicates in W_E(R).

Covers the Frobenius-kernel ideal W[F], the annihilator equivalences with the
Verschiebung ideal, unit testing, the local decomposition of W_E into
p-typical factors when the other primes are invertible, the twisted
Verschiebung map on the decomposed module, the Hodge-Tate and distinguished
element predicates, and the integrality obstruction showing the module
carrying the twisted Verschiebung cannot have a global generator.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .indexset import IndexSet
from .numutil import factorize, is_prime
from .rings import Ring
from .witt import (
    WittError,
    WittVector,
    dwork_check,
    frobenius,
    ghost_raw,
    restrict,
    teichmuller,
    verschiebung,
    witt_mul,
    witt_one,
    witt_space,
    witt_space_size,
    witt_sub,
    witt_unit_inverse,
    witt_zero,
)

DEFAULT_ENUM_CAP = 10**6


class ContextError(WittError):
    pass


class EnumerationBudget(WittError):
    pass


@dataclass(frozen=True)
class LocalContext:
    """Base data for p-local predicates: explicit inverses of the other primes.

    p is None in the rational case, where every prime of E is inverted.
    """

    p: int | None
    ring: Ring
    index_set: IndexSet
    inverses: dict = field(default_factory=dict, compare=False)

    def __post_init__(self):
        if self.p is not None and not is_prime(self.p):
            raise ContextError(f"{self.p} is not prime")
        need = [q for q in self.index_set.primes() if q != self.p]
        one = self.ring.one()
        filled = dict(self.inverses)
        for q in need:
            if q not in filled:
                inv = self.ring.int_unit_inverse(q)
                if inv is None:
                    raise ContextError(
                        f"{q} is not invertible in {self.ring.descriptor()}; "
                        f"no p-local context at p={self.p}"
                    )
                filled[q] = inv
            if self.ring.mul(self.ring.from_int(q), filled[q]) != one:
                raise ContextError(f"bad certificate: {q} * {filled[q]} != 1")
        object.__setattr__(self, "inverses", filled)

    @classmethod
    def p_local(cls, p: int, ring: Ring, E: IndexSet) -> "LocalContext":
        return cls(p, ring, E)

    @classmethod
    def rational(cls, ring: Ring, E: IndexSet) -> "LocalContext":
        return cls(None, ring, E)

    def is_rational(self):
        return self.p is None

    def integer_inverse(self, n: int):
        """Inverse of n in the ring, for n a product of the inverted primes."""
        out = self.ring.one()
        for q, r in factorize(n).items():
            if q == self.p:
                raise ContextError(f"{q} is not inverted in this context")
            for _ in range(r):
                out = self.ring.mul(out, self.inverses[q])
        return out

    def e_prime_to(self) -> IndexSet:
        return self.index_set if self.p is None else self.index_set.prime_to(self.p)

    def e_typical(self) -> IndexSet:
        return IndexSet.explicit([1]) if self.p is None else self.index_set.p_part(self.p)


@dataclass(frozen=True)
class DecomposedWitt:
    """Image of a Witt vector under W_E(R) ~ prod_{n in E_(p)} W_{E^(p)}(R)."""

    p: int | None
    index_set: IndexSet
    factors: dict  # n in E_(p) -> WittVector over E^(p)

    def __post_init__(self):
        sets = {f.index_set for f in self.factors.values()}
        if len(sets) > 1:
            raise ContextError("factors must share one p-typical index set")

    def factor(self, n: int) -> WittVector:
        return self.factors[n]


@dataclass(frozen=True)
class VModuleLocal:
    """Rank-one chart of the twisted-Verschiebung module in decomposed form."""

    context: LocalContext

    def generator(self) -> DecomposedWitt:
        ctx = self.context
        Ep = ctx.e_typical()
        one = witt_one(Ep, ctx.ring)
        return DecomposedWitt(ctx.p, ctx.index_set, {n: one for n in ctx.e_prime_to()})

    def scale(self, w: DecomposedWitt, a: WittVector) -> DecomposedWitt:
        da = local_decompose(a, self.context)
        return DecomposedWitt(
            w.p,
            w.index_set,
            {n: witt_mul(da.factor(n), w.factor(n)) for n in w.factors},
        )


# ---------------------------------------------------------------------------
# W[F] and annihilators


def is_in_wf(a: WittVector) -> bool:
    """Membership in W_E[F], the intersection of the Frobenius kernels."""
    for p in a.index_set.primes():
        if not frobenius(p, a).is_zero():
            return False
    return True


def wf_annihilator_check(a: WittVector, direction: str, cap: int = DEFAULT_ENUM_CAP) -> bool:
    """kills_VW: a * V_p(b) = 0 for all primes p and all b.
    killed_by_WF: a * w = 0 for all w in W[F](R).  Both by enumeration.
    """
    E, ring = a.index_set, a.ring
    if witt_space_size(E, ring) is None:
        raise EnumerationBudget("enumeration needs a finite coefficient ring")
    if direction == "kills_VW":
        for p in E.primes():
            source = E.restrict(p)
            if witt_space_size(source, ring) > cap:
                raise EnumerationBudget("Verschiebung source too large")
            for b in witt_space(source, ring):
                if not witt_mul(a, verschiebung(p, b, E)).is_zero():
                    return False
        return True
    if direction == "killed_by_WF":
        if witt_space_size(E, ring) > cap:
            raise EnumerationBudget("space too large")
        for w in witt_space(E, ring):
            if is_in_wf(w) and not witt_mul(a, w).is_zero():
                return False
        return True
    raise WittError(f"unknown direction {direction!r}")


def witt_is_unit(a: WittVector):
    """(True, inverse) iff a is a unit.

    a is a unit exactly when every ghost component g_n(a) is a unit in R: the
    ghosts are ring homomorphisms, and conversely the product polynomial at
    level n is g_n(a) * b_n plus lower terms, so the inverse is found by a
    triangular solve.  Over p-typical truncations of Z/p^k this reduces to
    the usual first-coordinate criterion.
    """
    inv = witt_unit_inverse(a)
    if inv is None:
        return False, None
    return True, inv


# ---------------------------------------------------------------------------
# local decomposition


def local_decompose(a: WittVector, ctx: LocalContext) -> DecomposedWitt:
    """Factor at n in E_(p) is the E^(p)-truncation of F_n(a)."""
    if a.index_set != ctx.index_set or a.ring != ctx.ring:
        raise ContextError("context does not match the vector")
    Ep = ctx.e_typical()
    factors = {}
    for n in ctx.e_prime_to():
        factors[n] = restrict(frobenius(n, a), Ep)
    return DecomposedWitt(ctx.p, ctx.index_set, factors)


def local_recompose(d: DecomposedWitt, ctx: LocalContext) -> WittVector:
    """Two-sided inverse of local_decompose.

    Coordinates are recovered in increasing order: for m = n p^j with n prime
    to p, the Frobenius coordinate (F_n a)_{p^j} equals n * a_m plus terms in
    lower coordinates, and n is invertible by the context certificate.  The
    lower terms are F_n of the partial vector, whose coordinates from m on
    are still zero.
    """
    E, ring = ctx.index_set, ctx.ring
    coords = [ring.zero()] * len(E)
    for i, m in enumerate(E):
        n = m
        pj = 1
        if ctx.p is not None:
            while n % ctx.p == 0:
                n //= ctx.p
                pj *= ctx.p
        target = d.factor(n).coord_raw(pj)
        known = frobenius(n, WittVector(E, ring, tuple(coords))).coord_raw(pj)
        residual = ring.sub(target, known)
        coords[i] = ring.mul(ctx.integer_inverse(n), residual) if n > 1 else residual
    return WittVector(E, ring, tuple(coords))


# ---------------------------------------------------------------------------
# the twisted Verschiebung map V(1) in a local chart


def v_one_apply(w: DecomposedWitt, ctx: LocalContext) -> WittVector:
    """Send factor 1 through V_p . F_p, keep the other factors, recompose.

    The image always has first ghost component zero, i.e. lands in the
    Verschiebung ideal.
    """
    Ep = ctx.e_typical()
    if ctx.p is None or len(Ep) < 2:
        # degenerate p-typical direction: V_p . F_p is the zero map
        factors = dict(w.factors)
        factors[1] = witt_zero(Ep, ctx.ring)
    else:
        f1 = w.factor(1)
        factors = dict(w.factors)
        factors[1] = verschiebung(ctx.p, frobenius(ctx.p, f1), Ep)
    return local_recompose(DecomposedWitt(w.p, w.index_set, factors), ctx)


# ---------------------------------------------------------------------------
# Hodge-Tate and distinguished elements


def _shift_down(v: WittVector, p: int) -> WittVector:
    """For p-typical v = V_p(w), recover w over the shorter truncation."""
    source = v.index_set.restrict(p)
    return WittVector(source, v.ring, tuple(v.coord_raw(n * p) for n in source))


def is_hodge_tate(v: WittVector, ctx: LocalContext) -> bool:
    """Kernel-exactness predicate, decided through the local description.

    p-local: in the decomposition the factor at 1 must be V_p of a unit and
    every other factor must be a unit.  Rational: first ghost component zero
    and all higher ghost components units.  When the p-typical direction is
    a single coordinate the factor-1 condition degenerates to being zero.
    """
    if ctx.is_rational():
        g = ghost_raw(v)
        if g[1] != v.ring.zero():
            return False
        return all(
            v.ring.unit_inverse(g[n]) is not None for n in v.index_set if n != 1
        )
    d = local_decompose(v, ctx)
    Ep = ctx.e_typical()
    f1 = d.factor(1)
    if f1.coord_raw(1) != ctx.ring.zero():
        return False
    if len(Ep) >= 2:
        ok, _ = witt_is_unit(_shift_down(f1, ctx.p))
        if not ok:
            return False
    else:
        if not f1.is_zero():
            return False
    for n in d.factors:
        if n == 1:
            continue
        ok, _ = witt_is_unit(d.factor(n))
        if not ok:
            return False
    return True


def is_distinguished(xi: WittVector, ctx: LocalContext):
    """xi = [x] + v with x nilpotent and v Hodge-Tate; witness (x, v).

    The candidate x is forced: it is the first coordinate, since
    xi - [xi_1] always has first ghost component zero.
    """
    x = xi.coord_raw(1)
    k = xi.ring.nilpotent_index(x)
    if k is None:
        return False, None
    v = witt_sub(xi, teichmuller(x, xi.index_set, xi.ring))
    if not is_hodge_tate(v, ctx):
        return False, None
    return True, (xi.ring.elem(x), v)


# ---------------------------------------------------------------------------
# the non-freeness obstruction


def v_nonfree_obstruction(E: IndexSet, bound: int = 10**6) -> dict:
    """Search for an integral ghost profile a global module generator would have.

    Profile: g_1 = 0, g_{p^r} = +-p at prime powers, g_n = +-1 at n with at
    least two prime factors.  Every profile is run through the Dwork
    congruences; if none is integral the certificate names a congruence
    v_{p*l} = v_l mod p that fails for all sign choices.
    """
    if not E.primes():
        raise ContextError("obstruction search needs at least one prime in E")
    slots = []
    for n in E:
        if n == 1:
            continue
        fac = factorize(n)
        slots.append((n, list(fac)[0] if len(fac) == 1 else None))
    if 2 ** len(slots) > bound:
        raise EnumerationBudget(f"{2 ** len(slots)} sign patterns exceed the bound")
    from itertools import product as iproduct

    for signs in iproduct((1, -1), repeat=len(slots)):
        w = {1: 0}
        for (n, p), s in zip(slots, signs):
            w[n] = s * (p if p is not None else 1)
        if dwork_check(w, E):
            return {"result": "sat", "witness": {str(n): w[n] for n in E}}
    # find a single congruence refuting every sign choice
    for n in E:
        fac = factorize(n)
        if len(fac) < 2:
            continue
        for p in fac:
            m = n // p
            m_fac = factorize(m) if m > 1 else {}
            n_vals = {1, -1}
            if m == 1:
                m_vals = {0}
            elif len(m_fac) == 1:
                q = list(m_fac)[0]
                m_vals = {q, -q}
            else:
                m_vals = {1, -1}
            if all((a - b) % p for a in n_vals for b in m_vals):
                return {"result": "unsat", "congruence": {"n": n, "m": m, "p": p}}
    return {"result": "unsat", "congruence": None}
