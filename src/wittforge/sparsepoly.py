"""Sparse integer polynomials in a fixed variable list.

A polynomial stores a dict from exponent tuples to nonzero int
coefficients.  Exponents are nonnegative.  Products and powers run on packed
keys: each exponent tuple becomes one int, read in a mixed radix whose place
values come from the operands' per-variable maximum exponents (a product's
exponent is at most the sum of its factors' maxima, a k-th power's at most k
times the maximum), so adding keys multiplies monomials with no carry between
variables.  A product runs the larger operand in the outer loop and walks a
prebuilt item list of the smaller one in the inner loop.  A k-th power is one
chain: a^2 by half-pair squaring (pairs i <= j only, cross terms doubled),
then a^(j+1) = a^j * a.  When the input to a power is invariant under
swapping the two halves of an even variable list (x <-> y in the sum and
product families), each a^j * a step multiplies only a's canonical and fixed
terms and adds the mirror image of the canonical part; the symmetry is read
off the packed input, never assumed.  Division by an integer is
exact-or-raise, never rounded.  This is the engine behind the universal Witt
polynomials.
"""

from __future__ import annotations

from math import prod
from operator import mul

from .rings import InexactDivision


def _pmul(a: dict, b: dict, out: dict | None = None) -> dict:
    """Product of packed a and b, added into out (a new dict by default).

    The larger operand is the outer loop; the inner loop walks a list of the
    smaller one's items.
    """
    if len(a) < len(b):
        a, b = b, a
    if out is None:
        out = {}
    get = out.get
    small = list(b.items())
    for k1, c1 in a.items():
        for k2, c2 in small:
            k = k1 + k2
            s = get(k, 0) + c1 * c2
            if s:
                out[k] = s
            else:
                del out[k]
    return out


def _psquare(a: dict) -> dict:
    """a * a over the pairs i <= j only, with the cross terms doubled."""
    items = list(a.items())
    out: dict = {}
    get = out.get
    for i, (k1, c1) in enumerate(items):
        k = k1 + k1
        s = get(k, 0) + c1 * c1
        if s:
            out[k] = s
        else:
            del out[k]
        c1 += c1
        for k2, c2 in items[i + 1 :]:
            k = k1 + k2
            s = get(k, 0) + c1 * c2
            if s:
                out[k] = s
            else:
                del out[k]
    return out


def _swap(key: int, place: int) -> int:
    """Exchange the two blocks of a packed key whose second block has this place value."""
    hi, lo = divmod(key, place)
    return hi + lo * place


def _is_swap_invariant(a: dict, place: int) -> bool:
    return all(a.get(_swap(k, place)) == c for k, c in a.items())


def _pmul_mirror(b: dict, canonical: dict, fixed: dict, place: int) -> dict:
    """b * a for swap-invariant b and a = canonical + fixed + swap(canonical).

    b * swap(canonical) is the mirror image of b * canonical, so only the
    canonical and fixed terms of a are multiplied.
    """
    out = _pmul(b, canonical)
    get = out.get
    for k, c in list(out.items()):
        hi, lo = divmod(k, place)
        k = hi + lo * place
        s = get(k, 0) + c
        if s:
            out[k] = s
        else:
            del out[k]
    return _pmul(b, fixed, out)


def _ppow(a: dict, k: int, place: int = 0) -> dict:
    """a**k as one chain: a^2 by half-pair squaring, then a^(j+1) = a^j * a.

    A nonzero place is the place value of the second of two equal blocks of
    the radices; if a is invariant under swapping them, the steps go through
    _pmul_mirror.
    """
    if k < 2:
        return a if k else {0: 1}
    result = _psquare(a)
    if k > 2 and place and _is_swap_invariant(a, place):
        canonical, fixed = {}, {}
        for key, c in a.items():
            mirror = _swap(key, place)
            if key < mirror:
                canonical[key] = c
            elif key == mirror:
                fixed[key] = c
        for _ in range(k - 2):
            result = _pmul_mirror(result, canonical, fixed, place)
    else:
        for _ in range(k - 2):
            result = _pmul(result, a)
    return result


def _maxima(p: "IntPoly") -> list:
    if not p.terms:
        return [0] * p.nvars
    return [max(column) for column in zip(*p.terms)]


def _pack(p: "IntPoly", radices) -> dict:
    places = [prod(radices[:i]) for i in range(len(radices))]
    return {sum(map(mul, e, places)): c for e, c in p.terms.items()}


def _unpack(packed: dict, radices, nvars: int) -> "IntPoly":
    terms = {}
    for key, c in packed.items():
        exps = []
        for r in radices:
            key, e = divmod(key, r)
            exps.append(e)
        terms[tuple(exps)] = c
    p = IntPoly(nvars)
    p.terms = terms
    return p


class IntPoly:
    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: dict | None = None):
        self.nvars = nvars
        self.terms = {}
        if terms:
            for exps, c in terms.items():
                if c:
                    self.terms[exps] = self.terms.get(exps, 0) + c
            self.terms = {e: c for e, c in self.terms.items() if c}

    @classmethod
    def const(cls, nvars, c):
        if c == 0:
            return cls(nvars)
        return cls(nvars, {(0,) * nvars: c})

    @classmethod
    def var(cls, nvars, i, power=1, coeff=1):
        exps = tuple(power if j == i else 0 for j in range(nvars))
        return cls(nvars, {exps: coeff})

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return isinstance(other, IntPoly) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __add__(self, other):
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = out.get(e, 0) + c
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        p = IntPoly(self.nvars)
        p.terms = out
        return p

    def __neg__(self):
        p = IntPoly(self.nvars)
        p.terms = {e: -c for e, c in self.terms.items()}
        return p

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            if other == 0:
                return IntPoly(self.nvars)
            p = IntPoly(self.nvars)
            p.terms = {e: c * other for e, c in self.terms.items()}
            return p
        radices = [a + b + 1 for a, b in zip(_maxima(self), _maxima(other))]
        return _unpack(_pmul(_pack(self, radices), _pack(other, radices)), radices, self.nvars)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        return IntPoly.power_sum(self.nvars, [(1, self, n)])

    @staticmethod
    def power_sum(nvars: int, summands: list) -> "IntPoly":
        """Sum of c * p**k over the (c, p, k) in summands, with one unpacking."""
        radices = [1] * nvars
        for _, p, k in summands:
            if k < 0:
                raise ValueError("negative power")
            radices = [max(r, k * m + 1) for r, m in zip(radices, _maxima(p))]
        # with equal halves of the radices, swapping the halves of a packed
        # key is the x <-> y swap
        half = nvars // 2
        place = 0
        if nvars and not nvars % 2 and radices[:half] == radices[half:]:
            place = prod(radices[:half])
        out: dict = {}
        get = out.get
        for c, p, k in summands:
            for key, v in _ppow(_pack(p, radices), k, place).items():
                s = get(key, 0) + c * v
                if s:
                    out[key] = s
                else:
                    out.pop(key, None)
        return _unpack(out, radices, nvars)

    def exact_div(self, n: int) -> "IntPoly":
        out = {}
        for e, c in self.terms.items():
            q, r = divmod(c, n)
            if r:
                raise InexactDivision(f"coefficient {c} not divisible by {n}")
            out[e] = q
        p = IntPoly(self.nvars)
        p.terms = out
        return p

    def frobenius_substitute(self, p: int) -> "IntPoly":
        """Substitute every variable v by v^p."""
        q = IntPoly(self.nvars)
        q.terms = {tuple(x * p for x in e): c for e, c in self.terms.items()}
        return q

    def evaluate(self, ring, values):
        """Evaluate in a Ring, given raw values for the variables.

        Each power values[i]^e comes from ring.pow once and is cached under
        (i, e) for the other terms.
        """
        powers: dict = {}
        total = ring.zero()
        for exps, c in self.terms.items():
            term = ring.from_int(c)
            for i, e in enumerate(exps):
                if e:
                    v = powers.get((i, e))
                    if v is None:
                        v = powers[i, e] = ring.pow(values[i], e)
                    term = ring.mul(term, v)
            total = ring.add(total, term)
        return total

    def substitute(self, polys: list["IntPoly"]) -> "IntPoly":
        """Compose: plug IntPolys (in the target variable count) in for variables."""
        nv = polys[0].nvars if polys else self.nvars
        total = IntPoly(nv)
        powers: dict = {}
        for exps, coeff in self.terms.items():
            term = IntPoly.const(nv, coeff)
            for i, e in enumerate(exps):
                if e:
                    if (i, e) not in powers:
                        powers[i, e] = polys[i] ** e
                    term = term * powers[i, e]
            total = total + term
        return total

    def num_terms(self):
        return len(self.terms)

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for exps, c in sorted(self.terms.items(), key=lambda t: (sum(t[0]), t[0])):
            mono = "*".join(
                f"v{i}^{e}" if e != 1 else f"v{i}" for i, e in enumerate(exps) if e
            )
            bits.append(f"{c}*{mono}" if mono else str(c))
        return "+".join(bits)
