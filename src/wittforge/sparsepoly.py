"""Sparse integer polynomials in a fixed variable list, on packed keys.

A polynomial stores one dict from a packed key to a nonzero int coefficient.
The key holds the monomial's exponents, which are nonnegative, as
little-endian fields of `width` bytes, variable 0 in the lowest field:
`key.to_bytes(width * nvars, "little")` is the monomial's exponent bytes, the
layout of the universal families' cache files.  The width is 1, 2, 4 or 8
bytes (doubling on past 8 only for exponents of 2^64 and more), and each
polynomial also keeps `top`, an upper bound on its exponents.  Adding keys
multiplies monomials with no carry between fields as long as every result
exponent fits, so a product, whose exponents are at most the sum of its
factors' tops, a k-th power (k times the top) and the substitution v -> v^p
(p times the top, done as key * p) first check that bound; only when it
does not fit the operands' width are they repacked into the narrowest width
that holds it.  Arithmetic never narrows a width, and polynomials of
different widths still compare and hash equal when their terms are equal.

A product runs the larger operand in the outer loop and walks a prebuilt
item list of the smaller one in the inner loop.  A k-th power is one chain:
a^2 by half-pair squaring (pairs i <= j only, cross terms doubled), then
a^(j+1) = a^j * a.  In an even variable list, swapping the two halves of a
key (x <-> y in the sum and product families) is one divmod by the place
value 256**(width * nvars // 2); when the input to a power is invariant under
that swap, each a^j * a step multiplies only a's canonical and fixed terms
and adds the mirror image of the canonical part.  The symmetry is read off
the input, never assumed.  Division by an integer is exact-or-raise, never
rounded.

`terms` is a read-only view that decodes the keys into exponent tuples, for
tests and cold callers; `evaluate`, on the hot path of the prismatic point
searches, reads each key's exponent bytes itself.  This is the engine behind
the universal Witt polynomials.
"""

from __future__ import annotations

from collections.abc import ItemsView, Mapping
from itertools import chain, repeat

from .rings import InexactDivision


def _width_for(top: int) -> int:
    """The narrowest field width in bytes (1, 2, 4, 8, ...) that holds exponents up to top."""
    width = 1
    while top >> (8 * width):
        width *= 2
    return width


def _decode(key: int, width: int, nvars: int) -> tuple:
    raw = key.to_bytes(width * nvars, "little")
    if width == 1:
        return tuple(raw)
    return tuple(int.from_bytes(raw[i : i + width], "little") for i in range(0, len(raw), width))


def _encode(exps, width: int) -> int:
    return int.from_bytes(b"".join(e.to_bytes(width, "little") for e in exps), "little")


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
    """Exchange the two halves of a packed key whose upper half has this place value."""
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

    A nonzero place is the place value of the upper half of the keys; if a
    is invariant under swapping the halves, the steps go through
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


class _Terms(Mapping):
    """Read-only view of a polynomial's terms: exponent tuple -> coefficient."""

    __slots__ = ("_poly",)

    def __init__(self, poly: "IntPoly"):
        self._poly = poly

    def __len__(self):
        return len(self._poly.packed)

    def __iter__(self):
        p = self._poly
        return map(_decode, p.packed, repeat(p.width), repeat(p.nvars))

    def __getitem__(self, exps):
        p = self._poly
        try:
            if len(exps) == p.nvars:
                return p.packed[_encode(exps, p.width)]
        except OverflowError:  # a negative exponent, or one past the width
            pass
        raise KeyError(exps)

    def items(self):
        return _TermItems(self)

    def values(self):
        return self._poly.packed.values()

    def __repr__(self):
        return repr(dict(self.items()))


class _TermItems(ItemsView):
    def __iter__(self):
        return zip(self._mapping, self._mapping.values())


class IntPoly:
    __slots__ = ("nvars", "width", "top", "packed")

    def __init__(self, nvars: int, terms: dict | None = None):
        """From a dict of exponent tuples to int coefficients; zeros are dropped."""
        terms = {e: c for e, c in terms.items() if c} if terms else {}
        self.nvars = nvars
        self.top = max(chain.from_iterable(terms), default=0)
        self.width = _width_for(self.top)
        self.packed = {_encode(e, self.width): c for e, c in terms.items()}

    @classmethod
    def from_packed(cls, nvars: int, width: int, top: int, packed: dict) -> "IntPoly":
        """Wrap a dict of nonzero coefficients on keys of this width, with every
        exponent at most top < 256**width; the dict is not copied."""
        p = object.__new__(cls)
        p.nvars, p.width, p.top, p.packed = nvars, width, top, packed
        return p

    @classmethod
    def const(cls, nvars, c):
        return cls.from_packed(nvars, 1, 0, {0: c} if c else {})

    @classmethod
    def var(cls, nvars, i, power=1, coeff=1):
        width = _width_for(power)
        packed = {power << (8 * width * i): coeff} if coeff else {}
        return cls.from_packed(nvars, width, power, packed)

    @property
    def terms(self) -> Mapping:
        return _Terms(self)

    def _at(self, width: int) -> dict:
        """The packed terms on keys of a width at least this polynomial's."""
        if width == self.width:
            return self.packed
        return {
            _encode(_decode(k, self.width, self.nvars), width): c for k, c in self.packed.items()
        }

    def __bool__(self):
        return bool(self.packed)

    def __eq__(self, other):
        if not isinstance(other, IntPoly) or self.nvars != other.nvars:
            return False
        width = max(self.width, other.width)
        return self._at(width) == other._at(width)

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __add__(self, other):
        width = max(self.width, other.width)
        out = dict(self._at(width))
        get = out.get
        for k, c in other._at(width).items():
            s = get(k, 0) + c
            if s:
                out[k] = s
            else:
                del out[k]
        return IntPoly.from_packed(self.nvars, width, max(self.top, other.top), out)

    def __neg__(self):
        return IntPoly.from_packed(
            self.nvars, self.width, self.top, {k: -c for k, c in self.packed.items()}
        )

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            packed = {k: c * other for k, c in self.packed.items()} if other else {}
            return IntPoly.from_packed(self.nvars, self.width, self.top, packed)
        top = self.top + other.top
        width = max(self.width, other.width, _width_for(top))
        return IntPoly.from_packed(self.nvars, width, top, _pmul(self._at(width), other._at(width)))

    __rmul__ = __mul__

    def __pow__(self, n: int):
        return IntPoly.power_sum(self.nvars, [(1, self, n)])

    @staticmethod
    def power_sum(nvars: int, summands: list) -> "IntPoly":
        """Sum of c * p**k over the (c, p, k) in summands, on one width."""
        top, width = 0, 1
        for _, p, k in summands:
            if k < 0:
                raise ValueError("negative power")
            top = max(top, k * p.top)
            width = max(width, p.width)
        width = max(width, _width_for(top))
        place = 256 ** (width * (nvars // 2)) if nvars and not nvars % 2 else 0
        out: dict = {}
        get = out.get
        for c, p, k in summands:
            for key, v in _ppow(p._at(width), k, place).items():
                s = get(key, 0) + c * v
                if s:
                    out[key] = s
                else:
                    out.pop(key, None)
        return IntPoly.from_packed(nvars, width, top, out)

    def exact_div(self, n: int) -> "IntPoly":
        out = {}
        for k, c in self.packed.items():
            q, r = divmod(c, n)
            if r:
                raise InexactDivision(f"coefficient {c} not divisible by {n}")
            out[k] = q
        return IntPoly.from_packed(self.nvars, self.width, self.top, out)

    def frobenius_substitute(self, p: int) -> "IntPoly":
        """Substitute every variable v by v^p."""
        top = self.top * p
        width = max(self.width, _width_for(top))
        return IntPoly.from_packed(
            self.nvars, width, top, {k * p: c for k, c in self._at(width).items()}
        )

    def evaluate(self, ring, values):
        """Evaluate in a Ring, given raw values for the variables.

        Each power values[i]^e comes from ring.pow once and is cached under
        (i, e) for the other terms.
        """
        powers: dict = {}
        total = ring.zero()
        width, nvars = self.width, self.nvars
        for key, c in self.packed.items():
            exps = key.to_bytes(nvars, "little") if width == 1 else _decode(key, width, nvars)
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
        return len(self.packed)

    def __repr__(self):
        if not self.packed:
            return "0"
        bits = []
        for exps, c in sorted(self.terms.items(), key=lambda t: (sum(t[0]), t[0])):
            mono = "*".join(
                f"v{i}^{e}" if e != 1 else f"v{i}" for i, e in enumerate(exps) if e
            )
            bits.append(f"{c}*{mono}" if mono else str(c))
        return "+".join(bits)
