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
from functools import cached_property
from itertools import product as iter_product
from math import gcd, lcm
from operator import add as _add

from .numutil import FRACTION, NUMERAL, WittforgeError, crt_pair, factorize, inverse_mod, is_prime, split_items


class RingError(WittforgeError):
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


# the most elements a search lists one by one: the cosets of a finite ring's
# quotient, and by default the prismatic point and verify searches
ENUM_CAP = 200_000


def _same(a):
    return a


_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")
_INT_RE = re.compile(NUMERAL)
_FRAC_RE = re.compile(FRACTION)
_DIFFERENCE_RE = re.compile(r"([A-Za-z_0-9])-")  # a minus after a name or a numeral


class Ring:
    """Base class: a ring acts as a factory and arithmetic engine for raw values.

    Every ring defines descriptor, zero, one, from_int, add, neg, mul,
    el_to_str and el_from_str; a ring without one of the optional operations
    below raises UnsupportedRing for it.
    """

    def __repr__(self):
        return self.descriptor()

    @cached_property
    def _key(self) -> str:
        """The descriptor, built once: no ring changes after construction."""
        return self.descriptor()

    def __eq__(self, other):
        return self is other or (isinstance(other, Ring) and self._key == other._key)

    def __hash__(self):
        return hash(self._key)

    # -- raw arithmetic ----------------------------------------------------
    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def pow(self, a, k: int):
        """a^k for k >= 0 by square-and-multiply from a, so one() is never a factor."""
        if not k:
            return self.one()
        result = None
        while True:
            if k & 1:
                result = a if result is None else self.mul(result, a)
            k >>= 1
            if not k:
                return result
            a = self.mul(a, a)

    def canonicalize(self, a):
        """Renormalize a raw value; a ring raises ValidationError for a non-value."""
        return a

    def exact_div_int(self, a, n: int):
        """Divide by the integer n, raising InexactDivision unless exact."""
        self._unsupported("integer division")

    def unit_inverse(self, a):
        """Return the inverse of a if a is a unit, else None."""
        self._unsupported("unit inverse")

    def nilpotent_index(self, a):
        """Return least k >= 1 with a^k = 0, or None if a is not nilpotent.

        a, a^2, ... are tested up to _nilpotency_bound(a), which a nilpotent
        a's index never exceeds.
        """
        bound, zero = self._nilpotency_bound(a), self.zero()
        power, k = a, 1
        while power != zero:
            if k >= bound:
                return None
            power, k = self.mul(power, a), k + 1
        return k

    def _nilpotency_bound(self, a) -> int:
        # a nilpotent a of index k gives the strict chain of additive groups
        # R > aR > ... > a^k R = 0, so 2^k <= |R|
        size = self.size()
        if size is None:
            raise UnsupportedRing(f"no nilpotency bound for {self.descriptor()}")
        return size.bit_length() - 1

    def lift(self):
        """(S, reduce): a ring S without additive torsion that maps onto this one.

        Raw values of this ring are raw values of S, and reduce maps a raw
        value of S to its canonical image here; it is a ring homomorphism.
        The Witt kernel computes over S, where the ghost map is injective.
        """
        self._unsupported("lift")

    # The optional hook of a Q-algebra with integral numerators, a ring of
    # fractions of a ring S without additive torsion: Q of Z, Q[x^+-1] of
    # Z[x^+-1], and Q[t]/(g) of Z[t]/(g) when the monic g has integer
    # coefficients.  A callable clear_denominators(*value_lists) ->
    # (S, D, scale, unscale), where D is a positive integer that clears the
    # denominators of all the values and, for k a multiple of D, scale(v, k)
    # is k*v as a raw value of S and unscale(z, k) is z/k as a raw value
    # here.  The Witt kernel then computes over S on Teichmuller multiples
    # [D]x; only its unit solve still computes here, in Fractions.  None on
    # every other ring, whose values are computed on as they are; an
    # attribute rather than a method answering None, so that asking costs
    # no call.
    clear_denominators = None

    def quotient_by(self, values):
        """(R/I, reduce) for the ideal I the values generate, in the shape of
        lift(): reduce maps a raw value here to its image in R/I.  A finite
        ring of at most ENUM_CAP elements answers with its table of cosets."""
        size = self.size()
        if size is None:
            self._unsupported("pi0")
        if size > ENUM_CAP:
            raise UnsupportedRing(
                f"pi0 lists the {size} elements of {self.descriptor()}, more than {ENUM_CAP}"
            )
        quotient = CosetRing(self, values)
        return quotient, quotient.canonicalize

    def divide(self, c, a):
        """The unique x with a*x = c, or None; by default only a unit a divides."""
        inv = self.unit_inverse(a)
        if inv is None:
            self._unsupported("linear solve")
        return self.mul(inv, c)

    # -- sets of elements --------------------------------------------------
    def size(self):
        return None  # None = infinite

    def elements(self):
        raise UnsupportedRing(f"{self.descriptor()} is not enumerable")

    def random(self, rng):
        self._unsupported("random")

    # -- convenience -------------------------------------------------------
    def raw(self, value):
        """The canonical raw value of value in this ring: the one coercion.

        An element of this ring gives its value and an element of another
        ring raises RingMismatch; an int goes through from_int, a str through
        el_from_str and anything else through canonicalize, which raises
        ValidationError for what is not a raw value of this ring.
        """
        if isinstance(value, RingElement):
            if value.ring != self:
                raise RingMismatch(f"{value} is not in {self.descriptor()}")
            return value.value
        if isinstance(value, int):  # a bool is stored as its int
            return self.from_int(value if type(value) is int else int(value))
        if isinstance(value, str):
            return self.el_from_str(value)
        return self.canonicalize(value)

    def _reject(self, value):
        raise ValidationError(f"{value!r} is not a value of {self.descriptor()}")

    def _unsupported(self, operation: str):
        raise UnsupportedRing(f"{operation} unsupported over {self.descriptor()}")

    def __call__(self, value) -> "RingElement":
        return RingElement(self, self.raw(value))

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

    def __add__(self, other):
        return RingElement(self.ring, self.ring.add(self.value, self.ring.raw(other)))

    __radd__ = __add__

    def __neg__(self):
        return RingElement(self.ring, self.ring.neg(self.value))

    def __sub__(self, other):
        return RingElement(self.ring, self.ring.sub(self.value, self.ring.raw(other)))

    def __rsub__(self, other):
        return RingElement(self.ring, self.ring.sub(self.ring.raw(other), self.value))

    def __mul__(self, other):
        return RingElement(self.ring, self.ring.mul(self.value, self.ring.raw(other)))

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int):
            raise RingError(f"an exponent must be an int, not {type(n).__name__}")
        if n < 0:
            raise RingError("negative powers only via unit inverses")
        return RingElement(self.ring, self.ring.pow(self.value, n))

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


class _NumberRing(Ring):
    """Z and Q: Python numbers and operators; reduced, and their own lifts."""

    def add(self, a, b):
        return a + b

    def neg(self, a):
        return -a

    def mul(self, a, b):
        return a * b

    def pow(self, a, k):
        return a**k

    def lift(self):
        return self, _same

    def _nilpotency_bound(self, a):
        return 1

    def divide(self, c, a):
        """The exact quotient c/a, or None; 0*x = 0 has every x as a solution."""
        if not a and not c:
            raise UnsupportedRing(f"every x in {self.descriptor()} solves 0*x = 0")
        try:
            return self.exact_div_int(c, a)
        except InexactDivision:
            return None

    def el_to_str(self, a):
        return str(a)


class IntegerRing(_NumberRing):
    def descriptor(self):
        return "integers"

    def zero(self):
        return 0

    def one(self):
        return 1

    def from_int(self, n):
        return n

    def canonicalize(self, a):
        if not isinstance(a, int):
            self._reject(a)
        return a if type(a) is int else int(a)

    def exact_div_int(self, a, n):
        if n == 0:
            raise InexactDivision("division by zero")
        q, r = divmod(a, n)
        if r:
            raise InexactDivision(f"{n} does not divide {a}")
        return q

    def unit_inverse(self, a):
        return a if a in (1, -1) else None

    def quotient_by(self, values):
        g = gcd(*values)
        if g == 1:
            return _zero_quotient()
        quotient = ZModRing(g) if g else self
        return quotient, quotient.from_int

    def random(self, rng):
        return rng.randint(-20, 20)

    def el_from_str(self, s):
        s = s.strip()
        if not _INT_RE.fullmatch(s):
            raise ParseError(f"bad integer literal {s!r}")
        return int(s)


class RationalRing(_NumberRing):
    def descriptor(self):
        return "rationals"

    def zero(self):
        return Fraction(0)

    def one(self):
        return Fraction(1)

    def from_int(self, n):
        return Fraction(n)

    def canonicalize(self, a):
        if isinstance(a, Fraction):
            return a
        if not isinstance(a, int):
            self._reject(a)
        return Fraction(a)

    def exact_div_int(self, a, n):
        if n == 0:
            raise InexactDivision("division by zero")
        return a / n

    def unit_inverse(self, a):
        return 1 / a if a != 0 else None

    def clear_denominators(self, *value_lists):
        """Z, the lcm of the denominators, k*v as an int and z/k as a Fraction."""
        d = lcm(*(v.denominator for values in value_lists for v in values))
        return INTEGERS, d, _times, Fraction

    def quotient_by(self, values):
        return _zero_quotient() if any(values) else (self, _same)

    def random(self, rng):
        return Fraction(rng.randint(-12, 12), rng.randint(1, 9))

    def el_from_str(self, s):
        s = s.strip()
        if not _FRAC_RE.fullmatch(s):
            raise ParseError(f"bad rational literal {s!r}")
        return Fraction(s)


def _times(v: Fraction, k: int) -> int:
    """k*v for a multiple k of v's denominator."""
    return v.numerator * (k // v.denominator)


def _times_terms(v, k: int) -> tuple:
    """k*v for a polynomial v over Q and a multiple k of its denominators."""
    return tuple([(e, _times(c, k)) for e, c in v])


def _divided_terms(z, k: int) -> tuple:
    """z/k for a polynomial z over Z, as a polynomial over Q."""
    return tuple([(e, Fraction(c, k)) for e, c in z])


def _clearing(S):
    """Ring.clear_denominators of a polynomial or quotient ring over Q whose
    values, coefficients times the lcm D of their denominators, are values of
    S over Z in the same term order."""

    def clear_denominators(*value_lists):
        d = lcm(*(c.denominator for values in value_lists for v in values for _, c in v))
        return S, d, _times_terms, _divided_terms

    return clear_denominators


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

    def pow(self, a, k):
        return pow(a, k, self.n)

    def canonicalize(self, a):
        if not isinstance(a, int):
            self._reject(a)
        return a % self.n

    def exact_div_int(self, a, k):
        inv = inverse_mod(k, self.n)
        if inv is None:
            raise InexactDivision(f"{k} is not invertible mod {self.n}")
        return (a * inv) % self.n

    def unit_inverse(self, a):
        return inverse_mod(a, self.n)

    def lift(self):
        return INTEGERS, self.from_int

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
        if not _INT_RE.fullmatch(s):
            raise ParseError(f"bad residue literal {s!r}")
        return int(s) % self.n


# ---------------------------------------------------------------------------
# dense univariate polynomials over a base ring: coefficient lists, lowest
# degree first, with no trailing zero (the zero polynomial is [])


def _dense(base, a):
    """Dense form of a canonical univariate raw value (terms sorted by degree)."""
    out = [base.zero()] * (a[-1][0][0] + 1) if a else []
    for (e,), c in a:
        out[e] = c
    return out


def _sparse(base, v):
    zero = base.zero()
    return tuple(((i,), c) for i, c in enumerate(v) if c != zero)


def _trim(base, v):
    zero = base.zero()
    while v and v[-1] == zero:
        v.pop()
    return v


def _monic_divmod(base, a, g):
    """(q, r) with a = q*g + r and deg r < deg g, for a monic g."""
    zero, sub, mul = base.zero(), base.sub, base.mul
    d = len(g) - 1
    low = [(i, x) for i, x in enumerate(g[:d]) if x != zero]
    r = list(a)
    q = [zero] * max(len(r) - d, 0)
    for k in range(len(q) - 1, -1, -1):
        c = r.pop()
        if c != zero:
            q[k] = c
            for i, x in low:
                r[k + i] = sub(r[k + i], mul(c, x))
    return _trim(base, q), _trim(base, r)


def _gcd_cofactor(base, a, b):
    """Extended Euclid over a field: the monic gcd g of a and b, and s with
    s*b = g modulo a.  a must be monic."""
    zero = base.zero()
    # invariant: s_i * b = r_i modulo a
    r0, s0, r1, s1 = a, [], b, [base.one()]
    while r1:
        inv = base.unit_inverse(r1[-1])
        r1 = [base.mul(c, inv) for c in r1]
        s1 = [base.mul(c, inv) for c in s1]
        q, r = _monic_divmod(base, r0, r1)
        s = s0 + [zero] * (len(q) + len(s1) - 1 - len(s0))
        for i, x in enumerate(q):
            for j, y in enumerate(s1):
                s[i + j] = base.sub(s[i + j], base.mul(x, y))
        r0, s0, r1, s1 = r1, s1, r, _trim(base, s)
    return r0, s0


def _zmod_inverse(ring, a, n):
    """Inverse of a in a polynomial or quotient ring over Z/n, or None.

    a is inverted over Z/p for each prime p | n, lifted to Z/p^r by the
    Newton step g <- g(2 - a g), which doubles the precision, and the pieces
    are glued coefficient by coefficient by CRT.
    """
    coeffs, mod = {}, 1
    for p, r in factorize(n).items():
        ring_m = ring._with_modulus(p)
        g = ring_m.unit_inverse(ring_m.canonicalize(a))
        if g is None:
            return None
        m = p
        while m < p**r:
            m = min(m * m, p**r)
            ring_m = ring._with_modulus(m)
            g = ring_m.mul(g, ring_m.sub(ring_m.from_int(2), ring_m.mul(ring_m.canonicalize(a), g)))
        g = dict(g)
        for e in coeffs.keys() | g.keys():
            coeffs[e] = crt_pair(coeffs.get(e, 0), mod, g.get(e, 0), p**r)
        mod *= p**r
    inv = ring.canonicalize(tuple(coeffs.items()))
    return inv if ring.mul(a, inv) == ring.one() else None


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
            if not _NAME_RE.fullmatch(v):
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
        if isinstance(base, RationalRing):
            self.clear_denominators = _clearing(PolyRing(INTEGERS, variables, inverted))

    def descriptor(self):
        s = f"poly({self.base.descriptor()}; {','.join(self.variables)}"
        if self.inverted:
            s += f"; inv {','.join(v for v in self.variables if v in self.inverted)}"
        return s + ")"

    def _check_exps(self, exps):
        exps = tuple(exps)
        for e, inv in zip(exps, self._inv_mask):
            if e < 0 and not inv:
                raise ValidationError("negative exponent on a non-inverted variable")
        return exps

    def canonicalize(self, a):
        try:
            terms = [(self._check_exps(e), self.base.canonicalize(c)) for e, c in a]
        except (TypeError, ValueError):
            self._reject(a)
        return self._collect(terms)

    def _collect(self, terms):
        """The canonical sum of terms (exponent tuple, canonical coefficient)."""
        acc = {}
        add = self.base.add
        for e, c in terms:
            acc[e] = add(acc[e], c) if e in acc else c
        zero = self.base.zero()
        items = [t for t in acc.items() if t[1] != zero]
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
        exps = self._check_exps(exps)
        c = self.base.one() if coeff is None else self.base.canonicalize(coeff)
        if c == self.base.zero():
            return ()
        return ((exps, c),)

    def variable(self, name):
        i = self.variables.index(name)
        exps = tuple(1 if j == i else 0 for j in range(len(self.variables)))
        return self.monomial(exps)

    def add(self, a, b):
        return self._collect(a + b)

    def neg(self, a):
        return tuple((exps, self.base.neg(c)) for exps, c in a)

    def mul(self, a, b):
        bmul = self.base.mul
        return self._collect(
            [(tuple(map(_add, e1, e2)), bmul(c1, c2)) for e1, c1 in a for e2, c2 in b]
        )

    def exact_div_int(self, a, n):
        return tuple((exps, self.base.exact_div_int(c, n)) for exps, c in a)

    def lift(self):
        """(Z/N)[x^+-1] lifts to Z[x^+-1]; over Z or Q the ring is its own lift."""
        if isinstance(self.base, ZModRing):
            # reduce gets canonical values of Z[x^+-1]: term order holds, only coefficients change
            n = self.base.n
            return PolyRing(INTEGERS, self.variables, self.inverted), lambda a: tuple(
                [(e, c % n) for e, c in a if c % n]
            )
        return self, _same

    def _with_modulus(self, m):
        return PolyRing(ZModRing(m), self.variables, self.inverted)

    # units of R[x^±]: over a domain base a unit monomial in the inverted
    # variables; over Z/N with N not prime decided prime by prime and lifted
    def unit_inverse(self, a):
        if isinstance(self.base, ZModRing) and not is_prime(self.base.n):
            return _zmod_inverse(self, a, self.base.n)
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

    def _nilpotency_bound(self, a):
        # a polynomial is nilpotent iff every coefficient is, and if each
        # coefficient has index k_i its index is at most sum(k_i - 1) + 1, by
        # pigeonhole on monomial products
        total = 1
        for _, c in a:
            k = self.base.nilpotent_index(c)
            if k is None:
                return 0
            total += k - 1
        return total

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
        if _DIFFERENCE_RE.search(s):
            sum_form = _DIFFERENCE_RE.sub(r"\1+-", s)
            raise ParseError(f"a polynomial is a sum of terms: {sum_form!r}, not {s!r}")
        terms = s.split("+")
        if "" in terms:
            raise ParseError(f"bad polynomial {s!r}")
        return self._collect([self._parse_term(term) for term in terms])

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
            if "0" <= factor[0] <= "9":  # a coefficient, which the base ring reads
                coeff = self.base.mul(coeff, self.base.el_from_str(factor))
                continue
            if "^" in factor:
                name, _, e = factor.partition("^")
                if not _INT_RE.fullmatch(e):
                    raise ParseError(f"bad exponent in {factor!r}")
                e = int(e)
            else:
                name, e = factor, 1
            if name not in self.variables:
                raise ParseError(f"unknown variable {name!r}")
            exps[self.variables.index(name)] += e
        if sign < 0:
            coeff = self.base.neg(coeff)
        return self._check_exps(exps), coeff

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
        self._g = _dense(poly.base, relation)  # the relation, dense
        if isinstance(poly.base, RationalRing) and all(c.denominator == 1 for _, c in relation):
            # Q[t]/(g) is a ring of fractions of Z[t]/(g), g read over Z
            over_z = QuotientRing(PolyRing(INTEGERS, poly.variables), _times_terms(relation, 1))
            self.clear_denominators = _clearing(over_z)

    def descriptor(self):
        return f"quot({self.poly.descriptor()}; {self.poly.el_to_str(self.relation)})"

    def reduce(self, a):
        """Remainder of a canonical polynomial value on division by the relation."""
        if not a or a[-1][0][0] < self.degree:
            return a
        base = self.poly.base
        return _sparse(base, _monic_divmod(base, _dense(base, a), self._g)[1])

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
        S, reduce = self.poly.lift()
        if S is self.poly:
            return self, _same
        # a canonical value of Z[t]/(g) has degree below deg g, and keeps it mod N
        return QuotientRing(S, self.relation), reduce

    def _with_modulus(self, m):
        return QuotientRing(self.poly._with_modulus(m), self.relation)

    def unit_inverse(self, a):
        base = self.poly.base
        if isinstance(base, ZModRing) and not is_prime(base.n):
            return _zmod_inverse(self, a, base.n)
        if isinstance(base, IntegerRing):
            # a is a unit over Z iff its rational inverse has integer coefficients
            qinv = self._over_q.unit_inverse(self._over_q.raw(a))
            if qinv is None or any(c.denominator != 1 for _, c in qinv):
                return None
            return self.canonicalize(tuple((e, int(c)) for e, c in qinv))
        # over a field a is a unit iff gcd(g, a) = 1, and then s = a^-1
        g, s = _gcd_cofactor(base, self._g, _dense(base, a))
        if len(g) != 1:
            return None
        inv = self.reduce(_sparse(base, s))
        return inv if self.mul(a, inv) == self.one() else None

    @cached_property
    def _over_q(self):  # Q[t]/(g), where a unit inverse over Z is found
        return QuotientRing(PolyRing(RATIONALS, self.poly.variables), self.relation)

    def quotient_by(self, values):
        """Q[t]/(gcd(g, values)) over Q; other bases as for every ring."""
        base = self.poly.base
        if not isinstance(base, RationalRing):
            return super().quotient_by(values)
        g = self._g
        for v in values:
            g, _ = _gcd_cofactor(base, g, _dense(base, v))
        if len(g) == 1:
            return _zero_quotient()
        quotient = QuotientRing(self.poly, _sparse(base, g))
        return quotient, quotient.reduce

    def divide(self, c, a):
        """The unique x with a*x = c, or None.

        Over Q a non-unit a leaves a*x = c without a solution when c is
        outside (a), which quotient_by decides; otherwise the solutions are a
        coset of the annihilator of a, which is infinite, and the solve is
        refused.
        """
        inv = self.unit_inverse(a)
        if inv is not None:
            return self.mul(inv, c)
        if isinstance(self.poly.base, RationalRing):
            quotient, reduce = self.quotient_by([a])
            if reduce(c) != quotient.zero():
                return None
        raise UnsupportedRing(f"linear solve unsupported over {self.descriptor()}")

    def _nilpotency_bound(self, a):
        # for nilpotent a the ideals a^k R shrink strictly until they are 0;
        # R has length degree * v_p(N) <= degree * (N.bit_length() - 1) at
        # each p | N, and Z[t]/(g) embeds in Q[t]/(g), of length degree
        base = self.poly.base
        if isinstance(base, ZModRing):
            return self.degree * (base.n.bit_length() - 1)
        return self.degree

    def size(self):
        if self.degree == 0:
            return 1  # the zero ring
        s = self.poly.base.size()
        if s is None:
            return None
        return s**self.degree

    def elements(self):
        base = self.poly.base
        if base.size() is None:
            raise UnsupportedRing("infinite quotient ring")
        if self.degree == 0:
            yield ()
            return
        for coeffs in iter_product(list(base.elements()), repeat=self.degree):
            yield self.canonicalize(tuple(((i,), c) for i, c in enumerate(coeffs)))

    def random(self, rng):
        if self.degree == 0:
            return ()
        coeffs = [(i, self.poly.base.random(rng)) for i in range(self.degree)]
        return self.canonicalize(tuple(((i,), c) for i, c in coeffs))

    def variable(self, name):
        return self.reduce(self.poly.variable(name))

    def el_to_str(self, a):
        return self.poly.el_to_str(a)

    def el_from_str(self, s):
        # t^e by repeated squaring: a literal's exponent is unbounded, and one
        # division would hold a dense slot for every degree below it
        t = self.variable(self.poly.variables[0])
        out = self.zero()
        for (e,), c in self.poly.el_from_str(s):
            out = self.add(out, self.mul(self.pow(t, e), self.reduce(self.poly.constant(c))))
        return out


class CosetRing(Ring):
    """R/I for a finite ring R and the ideal I some values generate.

    A value is the representative of its coset: the first member in
    R.elements() order.  canonicalize is the reduction map R -> R/I.
    """

    def __init__(self, base: Ring, values):
        self.base = base
        self.values = tuple(values)
        elements = list(base.elements())
        first, *rest = self.values or (base.zero(),)
        ideal = {base.mul(r, first) for r in elements}  # g_1 R is already a group
        for g in rest:
            for y in {base.mul(r, g) for r in elements}:
                # I + Zy is the union of the cosets ky + I, k below the order of y mod I
                cosets, ky = [], y
                while ky not in ideal:
                    cosets.extend(base.add(ky, x) for x in ideal)
                    ky = base.add(ky, y)
                ideal.update(cosets)
        self._rep = {}  # every element of R -> the representative of its coset
        self._classes = []
        for r in elements:
            if r not in self._rep:
                self._classes.append(r)
                self._rep.update((base.add(r, x), r) for x in ideal)

    def descriptor(self):
        gens = ", ".join(self.base.el_to_str(v) for v in self.values)
        return f"{self.base.descriptor()}/({gens})"

    def canonicalize(self, a):
        return self._rep[self.base.canonicalize(a)]

    def zero(self):
        return self._rep[self.base.zero()]

    def one(self):
        return self._rep[self.base.one()]

    def from_int(self, n):
        return self._rep[self.base.from_int(n)]

    def add(self, a, b):
        return self._rep[self.base.add(a, b)]

    def neg(self, a):
        return self._rep[self.base.neg(a)]

    def mul(self, a, b):
        return self._rep[self.base.mul(a, b)]

    def size(self):
        return len(self._classes)

    def elements(self):
        return iter(self._classes)

    def random(self, rng):
        return self._rep[self.base.random(rng)]

    def el_to_str(self, a):
        return self.base.el_to_str(a)

    def el_from_str(self, s):
        return self._rep[self.base.el_from_str(s)]


def _zero_quotient():
    """R/R, one fixed zero ring whatever R is, and the map onto it."""
    p = PolyRing(RATIONALS, ("t",))
    return QuotientRing(p, p.one()), lambda a: ()


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
        if not _INT_RE.fullmatch(body):
            raise ParseError(f"bad modulus {body!r}")
        return ZModRing(int(body))
    if s.startswith("poly(") and s.endswith(")"):
        sections = _split_top(s[len("poly("):-1], ";")
        if len(sections) not in (2, 3):
            raise ParseError(f"poly descriptor needs 2 or 3 sections: {s!r}")
        base = make_ring(sections[0])
        variables = split_items(sections[1], error=ParseError)
        inverted = []
        if len(sections) == 3:
            inv = sections[2].strip()
            if not inv.startswith("inv"):
                raise ParseError(f"third poly section must start with 'inv': {s!r}")
            inverted = split_items(inv[3:], error=ParseError)
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
