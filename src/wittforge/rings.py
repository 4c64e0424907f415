"""Exact commutative ring substrate.

Supported rings: the integers, the rationals, residue rings Z/N, sparse
multivariate polynomial rings over these (with a chosen subset of the
variables inverted, i.e. Laurent directions), and quotients of univariate
polynomial rings by a single monic relation.

Every element is kept in a canonical form, so equality of elements is
equality of their raw representations.  All arithmetic is exact; integer
division is a partial operation that raises rather than rounding or
promoting to rationals.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .numutil import factorize, inverse_mod, crt_pair


class RingError(Exception):
    pass


class ParseError(RingError):
    pass


class ValidationError(RingError):
    pass


class RingMismatch(RingError):
    pass


class InexactDivision(RingError):
    pass


class UnsupportedRing(RingError):
    pass


def _same(a):
    return a


_NAME_RE = re.compile(r"^[A-Za-z_][A-Za-z_0-9]*$")
_INT_RE = re.compile(r"^-?\d+$")
_FRAC_RE = re.compile(r"^-?\d+(/\d+)?$")


class Ring:
    """Base class: a ring acts as a factory and arithmetic engine for raw values."""

    def descriptor(self) -> str:
        raise NotImplementedError

    def __repr__(self):
        return self.descriptor()

    def __eq__(self, other):
        return isinstance(other, Ring) and self.descriptor() == other.descriptor()

    def __hash__(self):
        return hash(self.descriptor())

    # -- raw arithmetic ----------------------------------------------------
    def zero(self):
        raise NotImplementedError

    def one(self):
        raise NotImplementedError

    def from_int(self, n: int):
        raise NotImplementedError

    def add(self, a, b):
        raise NotImplementedError

    def neg(self, a):
        raise NotImplementedError

    def mul(self, a, b):
        raise NotImplementedError

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def canonicalize(self, a):
        """Renormalize a possibly non-canonical raw value."""
        return a

    def exact_div_int(self, a, n: int):
        """Divide by the integer n, raising InexactDivision unless exact."""
        raise NotImplementedError

    def unit_inverse(self, a):
        """Return the inverse of a if a is a unit, else None."""
        raise NotImplementedError

    def nilpotent_index(self, a):
        """Return least k >= 1 with a^k = 0, or None if a is not nilpotent."""
        raise NotImplementedError

    def lift(self):
        """(S, reduce): a ring S without additive torsion that maps onto this one.

        Raw values of this ring are raw values of S, and reduce maps a raw
        value of S to its canonical image here; it is a ring homomorphism.
        The Witt kernel computes over S, where the ghost map is injective.
        """
        raise NotImplementedError

    # -- sets of elements --------------------------------------------------
    def size(self):
        return None  # None = infinite

    def elements(self):
        raise UnsupportedRing(f"{self.descriptor()} is not enumerable")

    def random(self, rng):
        raise NotImplementedError

    # -- serialization -----------------------------------------------------
    def el_to_str(self, a) -> str:
        raise NotImplementedError

    def el_from_str(self, s: str):
        raise NotImplementedError

    # -- convenience -------------------------------------------------------
    def __call__(self, value) -> "RingElement":
        if isinstance(value, RingElement):
            if value.ring != self:
                raise RingMismatch(f"{value} is not in {self.descriptor()}")
            return value
        if isinstance(value, int):
            return RingElement(self, self.from_int(value))
        if isinstance(value, str):
            return RingElement(self, self.el_from_str(value))
        return RingElement(self, self.canonicalize(value))

    def elem(self, raw) -> "RingElement":
        return RingElement(self, raw)

    def int_unit_inverse(self, n: int):
        """Inverse of the image of the integer n, or None."""
        return self.unit_inverse(self.from_int(n))


class RingElement:
    """An element of a supported ring, kept in canonical form."""

    __slots__ = ("ring", "value")

    def __init__(self, ring: Ring, value):
        self.ring = ring
        self.value = value

    def _coerce(self, other):
        if isinstance(other, RingElement):
            if other.ring != self.ring:
                raise RingMismatch(
                    f"ring mismatch: {self.ring.descriptor()} vs {other.ring.descriptor()}"
                )
            return other.value
        if isinstance(other, int):
            return self.ring.from_int(other)
        raise RingMismatch(f"cannot coerce {other!r} into {self.ring.descriptor()}")

    def __add__(self, other):
        return RingElement(self.ring, self.ring.add(self.value, self._coerce(other)))

    __radd__ = __add__

    def __neg__(self):
        return RingElement(self.ring, self.ring.neg(self.value))

    def __sub__(self, other):
        return RingElement(self.ring, self.ring.sub(self.value, self._coerce(other)))

    def __rsub__(self, other):
        return RingElement(self.ring, self.ring.sub(self._coerce(other), self.value))

    def __mul__(self, other):
        return RingElement(self.ring, self.ring.mul(self.value, self._coerce(other)))

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative powers only via unit inverses")
        result = RingElement(self.ring, self.ring.one())
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __eq__(self, other):
        if isinstance(other, RingElement):
            return self.ring == other.ring and self.value == other.value
        if isinstance(other, int):
            return self.value == self.ring.from_int(other)
        return NotImplemented

    def __hash__(self):
        return hash((self.ring, self.value))

    def __bool__(self):
        return self.value != self.ring.zero()

    def is_zero(self):
        return self.value == self.ring.zero()

    def __repr__(self):
        return self.ring.el_to_str(self.value)


# ---------------------------------------------------------------------------
# the base rings


class IntegerRing(Ring):
    def descriptor(self):
        return "integers"

    def zero(self):
        return 0

    def one(self):
        return 1

    def from_int(self, n):
        return n

    def add(self, a, b):
        return a + b

    def neg(self, a):
        return -a

    def mul(self, a, b):
        return a * b

    def exact_div_int(self, a, n):
        if n == 0:
            raise InexactDivision("division by zero")
        q, r = divmod(a, n)
        if r:
            raise InexactDivision(f"{n} does not divide {a}")
        return q

    def unit_inverse(self, a):
        return a if a in (1, -1) else None

    def lift(self):
        return self, _same

    def nilpotent_index(self, a):
        return 1 if a == 0 else None

    def random(self, rng):
        return rng.randint(-20, 20)

    def el_to_str(self, a):
        return str(a)

    def el_from_str(self, s):
        s = s.strip()
        if not _INT_RE.match(s):
            raise ParseError(f"bad integer literal {s!r}")
        return int(s)


class RationalRing(Ring):
    def descriptor(self):
        return "rationals"

    def zero(self):
        return Fraction(0)

    def one(self):
        return Fraction(1)

    def from_int(self, n):
        return Fraction(n)

    def add(self, a, b):
        return a + b

    def neg(self, a):
        return -a

    def mul(self, a, b):
        return a * b

    def exact_div_int(self, a, n):
        if n == 0:
            raise InexactDivision("division by zero")
        return a / n

    def unit_inverse(self, a):
        return 1 / a if a != 0 else None

    def lift(self):
        return self, _same

    def nilpotent_index(self, a):
        return 1 if a == 0 else None

    def random(self, rng):
        return Fraction(rng.randint(-12, 12), rng.randint(1, 9))

    def el_to_str(self, a):
        return str(a)

    def el_from_str(self, s):
        s = s.strip()
        if not _FRAC_RE.match(s):
            raise ParseError(f"bad rational literal {s!r}")
        return Fraction(s)


class ZModRing(Ring):
    def __init__(self, n: int):
        if n < 2:
            raise ValidationError("zmod requires N >= 2")
        self.n = n

    def descriptor(self):
        return f"zmod:{self.n}"

    def zero(self):
        return 0

    def one(self):
        return 1 % self.n

    def from_int(self, k):
        return k % self.n

    def add(self, a, b):
        return (a + b) % self.n

    def neg(self, a):
        return (-a) % self.n

    def mul(self, a, b):
        return (a * b) % self.n

    def canonicalize(self, a):
        return a % self.n

    def exact_div_int(self, a, k):
        inv = inverse_mod(k, self.n)
        if inv is None:
            raise InexactDivision(f"{k} is not invertible mod {self.n}")
        return (a * inv) % self.n

    def unit_inverse(self, a):
        return inverse_mod(a, self.n)

    def lift(self):
        return INTEGERS, self.canonicalize

    def nilpotent_index(self, a):
        # if a is nilpotent mod N its index is at most max_p v_p(N) <= bitlength
        x = a % self.n
        if x == 0:
            return 1
        k = 1
        for _ in range(self.n.bit_length()):
            x = (x * (a % self.n)) % self.n
            k += 1
            if x == 0:
                return k
        return None

    def size(self):
        return self.n

    def elements(self):
        return range(self.n)

    def random(self, rng):
        return rng.randrange(self.n)

    def el_to_str(self, a):
        return str(a)

    def el_from_str(self, s):
        s = s.strip()
        if not _INT_RE.match(s):
            raise ParseError(f"bad residue literal {s!r}")
        return int(s) % self.n


# ---------------------------------------------------------------------------
# sparse multivariate polynomials, optionally Laurent in some variables


class PolyRing(Ring):
    """Sparse polynomials over integers/rationals/zmod.

    Raw form: tuple of (exponent tuple, coefficient raw), zero coefficients
    dropped, sorted by total degree then by exponent tuple.  Exponents of
    non-inverted variables must be nonnegative.
    """

    def __init__(self, base: Ring, variables, inverted=()):
        if not isinstance(base, (IntegerRing, RationalRing, ZModRing)):
            raise ValidationError("poly base must be integers, rationals or zmod")
        variables = tuple(variables)
        if not variables:
            raise ValidationError("poly ring needs at least one variable")
        for v in variables:
            if not _NAME_RE.match(v):
                raise ValidationError(f"bad variable name {v!r}")
        if len(set(variables)) != len(variables):
            raise ValidationError("duplicate variable names")
        inverted = frozenset(inverted)
        unknown = inverted - set(variables)
        if unknown:
            raise ValidationError(f"inverted variables {sorted(unknown)} not among {variables}")
        self.base = base
        self.variables = variables
        self.inverted = inverted
        self._inv_mask = tuple(v in inverted for v in variables)

    def descriptor(self):
        s = f"poly({self.base.descriptor()}; {','.join(self.variables)}"
        if self.inverted:
            s += f"; inv {','.join(v for v in self.variables if v in self.inverted)}"
        return s + ")"

    def _check_exps(self, exps):
        for e, inv in zip(exps, self._inv_mask):
            if e < 0 and not inv:
                raise ValidationError("negative exponent on a non-inverted variable")

    def canonicalize(self, a):
        acc = {}
        for exps, c in a:
            exps = tuple(exps)
            self._check_exps(exps)
            c = self.base.canonicalize(c)
            if exps in acc:
                acc[exps] = self.base.add(acc[exps], c)
            else:
                acc[exps] = c
        return self._from_dict(acc)

    def _from_dict(self, d):
        zero = self.base.zero()
        items = [(e, c) for e, c in d.items() if c != zero]
        items.sort(key=lambda t: (sum(t[0]), t[0]))
        return tuple(items)

    def zero(self):
        return ()

    def one(self):
        return (((0,) * len(self.variables), self.base.one()),)

    def constant(self, c):
        c = self.base.canonicalize(c)
        if c == self.base.zero():
            return ()
        return (((0,) * len(self.variables), c),)

    def from_int(self, n):
        return self.constant(self.base.from_int(n))

    def monomial(self, exps, coeff=None):
        exps = tuple(exps)
        self._check_exps(exps)
        c = self.base.one() if coeff is None else self.base.canonicalize(coeff)
        if c == self.base.zero():
            return ()
        return ((exps, c),)

    def variable(self, name):
        i = self.variables.index(name)
        exps = tuple(1 if j == i else 0 for j in range(len(self.variables)))
        return self.monomial(exps)

    def add(self, a, b):
        acc = dict(a)
        zero = self.base.zero()
        for exps, c in b:
            if exps in acc:
                s = self.base.add(acc[exps], c)
                if s == zero:
                    del acc[exps]
                else:
                    acc[exps] = s
            else:
                acc[exps] = c
        return self._from_dict(acc)

    def neg(self, a):
        return tuple((exps, self.base.neg(c)) for exps, c in a)

    def mul(self, a, b):
        if not a or not b:
            return ()
        acc = {}
        badd = self.base.add
        bmul = self.base.mul
        for e1, c1 in a:
            for e2, c2 in b:
                e = tuple(x + y for x, y in zip(e1, e2))
                c = bmul(c1, c2)
                if e in acc:
                    acc[e] = badd(acc[e], c)
                else:
                    acc[e] = c
        return self._from_dict(acc)

    def exact_div_int(self, a, n):
        return tuple((exps, self.base.exact_div_int(c, n)) for exps, c in a)

    def coefficients(self, a):
        return [c for _, c in a]

    def lift(self):
        """(Z/N)[x^+-1] lifts to Z[x^+-1]; over Z or Q the ring is its own lift."""
        if isinstance(self.base, ZModRing):
            return PolyRing(INTEGERS, self.variables, self.inverted), self.canonicalize
        return self, _same

    # units of R[x^±]: over a domain base a unit monomial in the inverted
    # variables; over Z/N decided prime power by prime power and Hensel lifted
    def unit_inverse(self, a):
        if isinstance(self.base, (IntegerRing, RationalRing)):
            if len(a) != 1:
                return None
            exps, c = a[0]
            for e, inv in zip(exps, self._inv_mask):
                if e != 0 and not inv:
                    return None
            cinv = self.base.unit_inverse(c)
            if cinv is None:
                return None
            return self.monomial(tuple(-e for e in exps), cinv)
        return self._zmod_unit_inverse(a)

    def _map_modulus(self, a, m):
        """Reduce coefficients of a into the same poly ring with base Z/m."""
        ring_m = PolyRing(ZModRing(m), self.variables, self.inverted)
        return ring_m, ring_m.canonicalize(tuple((e, c % m) for e, c in a))

    def _zmod_unit_inverse(self, a):
        n = self.base.n
        parts = []
        for p, r in factorize(n).items():
            # over Z/p the reduction must be a single unit monomial
            ring_p, a_p = self._map_modulus(a, p)
            if len(a_p) != 1:
                return None
            exps, c = a_p[0]
            for e, inv in zip(exps, self._inv_mask):
                if e != 0 and not inv:
                    return None
            cinv = inverse_mod(c, p)
            if cinv is None:
                return None
            inv_p = ring_p.monomial(tuple(-e for e in exps), cinv)
            # Hensel: g -> g(2 - f g) doubles the precision
            mod = p
            ring_m, g = ring_p, inv_p
            while mod < p**r:
                mod = min(mod * mod, p**r)
                ring_m, f_m = self._map_modulus(a, mod)
                g = ring_m.canonicalize(tuple((e, c % mod) for e, c in g))
                two = ring_m.from_int(2)
                g = ring_m.mul(g, ring_m.sub(two, ring_m.mul(f_m, g)))
            parts.append((p**r, g))
        # CRT on coefficients
        total_exps = set()
        for _, g in parts:
            total_exps.update(e for e, _ in g)
        acc = {}
        for exps in total_exps:
            val, mod = 0, 1
            for pk, g in parts:
                coeff = dict(g).get(exps, 0)
                val = crt_pair(val, mod, coeff, pk) if mod > 1 else coeff
                mod *= pk
            acc[exps] = val % n
        inv = self._from_dict(acc)
        if self.mul(a, inv) != self.one():
            return None
        return inv

    def nilpotent_index(self, a):
        if not a:
            return 1
        bounds = []
        for _, c in a:
            k = self.base.nilpotent_index(c)
            if k is None:
                return None
            bounds.append(k)
        # if each coefficient has index <= k_i the polynomial's index is at
        # most sum(k_i - 1) + 1, by pigeonhole on monomial products
        cap = sum(k - 1 for k in bounds) + 1
        power = self.one()
        for k in range(1, cap + 1):
            power = self.mul(power, a)
            if not power:
                return k
        return None

    def random(self, rng):
        acc = {}
        for _ in range(rng.randint(1, 3)):
            exps = tuple(
                rng.randint(-2, 2) if inv else rng.randint(0, 2) for inv in self._inv_mask
            )
            acc[exps] = self.base.random(rng)
        return self.canonicalize(tuple(acc.items()))

    # -- string form: c*v1^e1*... terms joined by '+', canonical order ------
    def _term_to_str(self, exps, c):
        parts = [self.base.el_to_str(c)]
        for v, e in zip(self.variables, exps):
            if e == 0:
                continue
            parts.append(v if e == 1 else f"{v}^{e}")
        return "*".join(parts)

    def el_to_str(self, a):
        if not a:
            return "0"
        return "+".join(self._term_to_str(exps, c) for exps, c in a)

    def el_from_str(self, s):
        s = s.replace(" ", "")
        if not s:
            raise ParseError("empty polynomial")
        # split on '+' but keep '-' attached to the following term
        terms = []
        for chunk in s.split("+"):
            if chunk == "":
                raise ParseError(f"bad polynomial {s!r}")
            terms.append(chunk)
        acc = {}
        for term in terms:
            exps, c = self._parse_term(term)
            if exps in acc:
                acc[exps] = self.base.add(acc[exps], c)
            else:
                acc[exps] = c
        return self._from_dict(acc)

    def _parse_term(self, term):
        sign = 1
        while term.startswith("-"):
            sign = -sign
            term = term[1:]
        if not term:
            raise ParseError("dangling sign")
        coeff = self.base.one()
        exps = [0] * len(self.variables)
        for factor in term.split("*"):
            if not factor:
                raise ParseError(f"bad term {term!r}")
            if factor[0].isdigit():
                coeff = self.base.mul(coeff, self.base.el_from_str(factor))
                continue
            if "^" in factor:
                name, _, e = factor.partition("^")
                if not _INT_RE.match(e):
                    raise ParseError(f"bad exponent in {factor!r}")
                e = int(e)
            else:
                name, e = factor, 1
            if name not in self.variables:
                raise ParseError(f"unknown variable {name!r}")
            exps[self.variables.index(name)] += e
        if sign < 0:
            coeff = self.base.neg(coeff)
        exps = tuple(exps)
        self._check_exps(exps)
        return exps, coeff

    def total_degree(self, a):
        return max((sum(e) for e, _ in a), default=None)


class QuotientRing(Ring):
    """k[t]/(g) for a single monic univariate relation g over the poly base."""

    def __init__(self, poly: PolyRing, relation):
        if len(poly.variables) != 1 or poly.inverted:
            raise UnsupportedRing("quotients are supported for plain univariate bases only")
        relation = poly.canonicalize(relation)
        if relation == poly.zero():
            raise ValidationError("quotient relation must be nonzero")
        self.poly = poly
        deg = poly.total_degree(relation)
        lead = dict(relation).get((deg,))
        leadinv = poly.base.unit_inverse(lead)
        if leadinv is None:
            raise UnsupportedRing("quotient relation must be monic up to a unit")
        if lead != poly.base.one():
            relation = poly.canonicalize(
                tuple((e, poly.base.mul(c, leadinv)) for e, c in relation)
            )
        self.relation = relation
        self.degree = deg

    def descriptor(self):
        return f"quot({self.poly.descriptor()}; {self.poly.el_to_str(self.relation)})"

    def reduce(self, a):
        # monic division: substitute t^d = -(lower terms of the relation)
        p = self.poly
        base = p.base
        d = self.degree
        if d == 0:
            return ()
        acc = {e[0]: c for e, c in a}
        while True:
            top = max((e for e, c in acc.items() if c != base.zero()), default=-1)
            if top < d:
                break
            c = acc.pop(top)
            shift = top - d
            for (e,), rc in self.relation:
                if e == d:
                    continue
                key = e + shift
                acc[key] = base.sub(acc.get(key, base.zero()), base.mul(c, rc))
        return p._from_dict({(e,): c for e, c in acc.items()})

    def canonicalize(self, a):
        return self.reduce(self.poly.canonicalize(a))

    def zero(self):
        return ()

    def one(self):
        return self.reduce(self.poly.one())

    def from_int(self, n):
        return self.reduce(self.poly.from_int(n))

    def add(self, a, b):
        return self.reduce(self.poly.add(a, b))

    def neg(self, a):
        return self.reduce(self.poly.neg(a))

    def mul(self, a, b):
        return self.reduce(self.poly.mul(a, b))

    def exact_div_int(self, a, n):
        return self.reduce(self.poly.exact_div_int(a, n))

    def lift(self):
        """(Z/N)[t]/(g) lifts to Z[t]/(g) with g read over Z, still monic;
        over Z or Q the ring is its own lift."""
        S, _ = self.poly.lift()
        if S is self.poly:
            return self, _same
        return QuotientRing(S, self.relation), self.canonicalize

    def _dense(self, a):
        out = [self.poly.base.zero()] * max(self.degree, 1)
        for (e,), c in a:
            out[e] = c
        return out

    def unit_inverse(self, a):
        if self.degree == 0:
            return ()  # the zero ring: 0 = 1 is its own inverse
        base = self.poly.base
        if isinstance(base, RationalRing):
            return self._field_inverse(a)
        if isinstance(base, ZModRing):
            from .numutil import is_prime

            if is_prime(base.n):
                return self._field_inverse(a)
            return self._zmod_inverse(a)
        if isinstance(base, IntegerRing):
            # a is a unit over Z iff its rational inverse has integer coefficients
            qring = QuotientRing(
                PolyRing(RATIONALS, self.poly.variables),
                tuple((e, Fraction(c)) for e, c in self.relation),
            )
            qinv = qring._field_inverse(tuple((e, Fraction(c)) for e, c in a))
            if qinv is None or any(c.denominator != 1 for _, c in qinv):
                return None
            return self.canonicalize(tuple((e, int(c)) for e, c in qinv))
        return None

    def _field_inverse(self, a):
        """Extended Euclid in k[t] for a field base k."""
        base = self.poly.base
        zero = base.zero()

        def deg(v):
            for i in range(len(v) - 1, -1, -1):
                if v[i] != zero:
                    return i
            return -1

        def subshift(v, w, c, k):
            out = list(v) + [zero] * max(0, len(w) + k - len(v))
            for i, x in enumerate(w):
                out[i + k] = base.sub(out[i + k], base.mul(c, x))
            return out

        def reduce_by(r0, s0, r1, s1):
            d1 = deg(r1)
            lcinv = base.unit_inverse(r1[d1])
            while deg(r0) >= d1:
                d0 = deg(r0)
                c = base.mul(r0[d0], lcinv)
                r0 = subshift(r0, r1, c, d0 - d1)
                s0 = subshift(s0, s1, c, d0 - d1)
            return r0, s0

        # invariant: s * a = r modulo the relation
        r0 = [dict(self.relation).get((i,), zero) for i in range(self.degree + 1)]
        s0 = [zero]
        r1 = self._dense(a)
        s1 = [base.one()]
        while deg(r1) >= 0:
            r0, s0 = reduce_by(r0, s0, r1, s1)
            r0, s0, r1, s1 = r1, s1, r0, s0
        if deg(r0) != 0:
            return None
        cinv = base.unit_inverse(r0[0])
        inv = self.canonicalize(tuple(((i,), base.mul(c, cinv)) for i, c in enumerate(s0)))
        return inv if self.mul(a, inv) == self.one() else None

    def _zmod_inverse(self, a):
        n = self.poly.base.n
        parts = []
        for p, r in factorize(n).items():
            ring_p = QuotientRing(
                PolyRing(ZModRing(p), self.poly.variables),
                tuple((e, c % p) for e, c in self.relation),
            )
            inv_p = ring_p._field_inverse(ring_p.canonicalize(tuple((e, c % p) for e, c in a)))
            if inv_p is None:
                return None
            mod, g, ring_m = p, inv_p, ring_p
            while mod < p**r:
                mod = min(mod * mod, p**r)
                ring_m = QuotientRing(
                    PolyRing(ZModRing(mod), self.poly.variables),
                    tuple((e, c % mod) for e, c in self.relation),
                )
                f_m = ring_m.canonicalize(tuple((e, c % mod) for e, c in a))
                g = ring_m.canonicalize(tuple((e, c % mod) for e, c in g))
                g = ring_m.mul(g, ring_m.sub(ring_m.from_int(2), ring_m.mul(f_m, g)))
            parts.append((p**r, g))
        acc = {}
        exps = set()
        for _, g in parts:
            exps.update(e for e, _ in g)
        for e in exps:
            val, mod = 0, 1
            for pk, g in parts:
                coeff = dict(g).get(e, 0)
                val = crt_pair(val, mod, coeff, pk) if mod > 1 else coeff
                mod *= pk
            acc[e] = val % n
        inv = self.canonicalize(tuple(acc.items()))
        return inv if self.mul(a, inv) == self.one() else None

    def nilpotent_index(self, a):
        if a == self.zero():
            return 1
        base = self.poly.base
        base_cap = 1 if isinstance(base, (IntegerRing, RationalRing)) else base.n.bit_length()
        cap = self.degree + base_cap + 1
        power = self.one()
        for k in range(1, cap + 1):
            power = self.mul(power, a)
            if power == self.zero():
                return k
        return None

    def size(self):
        if self.degree == 0:
            return 1  # the zero ring
        s = self.poly.base.size()
        if s is None:
            return None
        return s**self.degree

    def elements(self):
        from itertools import product

        base = self.poly.base
        if base.size() is None:
            raise UnsupportedRing("infinite quotient ring")
        if self.degree == 0:
            yield ()
            return
        for coeffs in product(list(base.elements()), repeat=self.degree):
            yield self.canonicalize(tuple(((i,), c) for i, c in enumerate(coeffs)))

    def random(self, rng):
        if self.degree == 0:
            return ()
        coeffs = [(i, self.poly.base.random(rng)) for i in range(self.degree)]
        return self.canonicalize(tuple(((i,), c) for i, c in coeffs))

    def variable(self, name):
        return self.reduce(self.poly.variable(name))

    def monomial(self, exps, coeff=None):
        return self.reduce(self.poly.monomial(exps, coeff))

    def el_to_str(self, a):
        return self.poly.el_to_str(a)

    def el_from_str(self, s):
        return self.reduce(self.poly.el_from_str(s))


# ---------------------------------------------------------------------------
# descriptor grammar:
#   integers | rationals | zmod:N
#   | poly(<base>; v1,v2,...; inv vi,vj,...)
#   | quot(<poly>; rel1, rel2,...)


def _split_top(s: str, sep: str) -> list[str]:
    parts, depth, cur = [], 0, []
    for ch in s:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise ParseError(f"unbalanced parentheses in {s!r}")
        if ch == sep and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    if depth != 0:
        raise ParseError(f"unbalanced parentheses in {s!r}")
    parts.append("".join(cur))
    return parts


def make_ring(descriptor: str) -> Ring:
    """Parse and validate a ring descriptor."""
    s = descriptor.strip()
    if s == "integers":
        return IntegerRing()
    if s == "rationals":
        return RationalRing()
    if s.startswith("zmod:"):
        body = s[len("zmod:"):].strip()
        if not _INT_RE.match(body):
            raise ParseError(f"bad modulus {body!r}")
        return ZModRing(int(body))
    if s.startswith("poly(") and s.endswith(")"):
        sections = _split_top(s[len("poly("):-1], ";")
        if len(sections) not in (2, 3):
            raise ParseError(f"poly descriptor needs 2 or 3 sections: {s!r}")
        base = make_ring(sections[0])
        variables = [v.strip() for v in sections[1].split(",") if v.strip()]
        inverted = []
        if len(sections) == 3:
            inv = sections[2].strip()
            if not inv.startswith("inv"):
                raise ParseError(f"third poly section must start with 'inv': {s!r}")
            inverted = [v.strip() for v in inv[3:].split(",") if v.strip()]
        return PolyRing(base, variables, inverted)
    if s.startswith("quot(") and s.endswith(")"):
        sections = _split_top(s[len("quot("):-1], ";")
        if len(sections) != 2:
            raise ParseError(f"quot descriptor needs 2 sections: {s!r}")
        base = make_ring(sections[0])
        if not isinstance(base, PolyRing):
            raise ParseError("quot base must be a poly ring")
        relations = [r.strip() for r in _split_top(sections[1], ",") if r.strip()]
        if len(relations) != 1:
            raise UnsupportedRing("only a single principal relation is supported")
        return QuotientRing(base, base.el_from_str(relations[0]))
    raise ParseError(f"unrecognized ring descriptor {descriptor!r}")


# ---------------------------------------------------------------------------
# spec-level operation entry points


def elem_arith(op: str, a: RingElement, b: RingElement = None) -> RingElement:
    if op == "neg":
        return -a
    if b is None:
        raise RingError(f"{op} needs two operands")
    if op == "add":
        return a + b
    if op == "sub":
        return a - b
    if op == "mul":
        return a * b
    raise RingError(f"unknown operation {op!r}")


def exact_div(a: RingElement, n: int) -> RingElement:
    return RingElement(a.ring, a.ring.exact_div_int(a.value, n))


def elem_is_unit(a: RingElement):
    """Return (True, inverse) or (False, None)."""
    inv = a.ring.unit_inverse(a.value)
    if inv is None:
        return False, None
    return True, RingElement(a.ring, inv)


def elem_is_nilpotent(a: RingElement):
    """Return (True, least k with a^k = 0) or (False, None)."""
    k = a.ring.nilpotent_index(a.value)
    if k is None:
        return False, None
    return True, k


INTEGERS = IntegerRing()
RATIONALS = RationalRing()
