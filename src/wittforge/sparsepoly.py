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
a^(j+1) = a^j * a.  Division by an integer is exact-or-raise, never rounded.

`power_sum`, the sum of c * p^k over its summands, runs the powers with
k >= 2 on strips.  A strip dict maps a sparse key to one Python int: the
sparse key is a packed key with the field of one dense variable u emptied,
and the int is sum(c_e * 2^(B*e)) over u's exponents e, B bits a slot.
Adding sparse keys multiplies the rest of the monomials and multiplying the
ints convolves the strips in C, so the same product and square loops run on
strips.  The strips are unpacked once, after the last power; the summands
with k < 2 are added to the unpacked terms.

Gradings make the strips dense.  In a polynomial homogeneous for a weight
vector w, fixing every exponent but u's also fixes u's, so every strip would
hold one slot.  Each grading therefore names a variable v of weight 1 (and
weight 0 in the other gradings), and the sparse key's field v holds
e_v + w_u * e_u, the weighted degree less that of the fields the sparse key
keeps.  On packed keys this is key -> key - e_u * step, where step is the
packed monomial u / prod v^(w_u): the change is additive, so sums of sparse
keys still multiply monomials, and invertible, since slot e of the strip on
sparse key s is the monomial s + e * step.  A grading holds for any input;
it changes how dense the strips are, never a result.  u is read off the
data: the variable, other than a graded v, that leaves the fewest sparse
keys on the largest base.  A slot costs its B bits whether it holds a term
or not, so when the bases' strips would hold fewer terms than empty slots
no variable is dense, and every strip is one slot.

Slot width.  Let M = sum(|c| * |p|_1^k) over the powered summands, |p|_1
the sum of the absolute values of p's coefficients.  Every value the power
chain or the accumulation holds at a monomial, final or partial, is at most
M in magnitude: a partial sum of the step a^j * a adds products of a
coefficient of a^j and one of a, so it is at most
|a^j|_1 * |a|_1 <= |a|_1^(j+1) <= |a|_1^k (as |a|_1 >= 1); the same holds for
the square with its cross terms doubled, and the accumulation adds c times
such values, one summand after another.  B is bit_length(M) + 1, rounded up
to 8, 16, 32 or 64 bits or to a multiple of 8, so every slot value d has
|d| <= M < 2^(B-1).  Then an int s = sum(d_e * 2^(B*e)) is zero only if
every d_e is: with e' its last nonzero slot, the slots below it sum to at
most (2^(B-1) - 1) * (2^(B*e') - 1) / (2^B - 1) < 2^(B*e') <= |d_e'| * 2^(B*e'),
so `if s:` tests all slots of a strip at once.  Adding H, 2^(B-1) in every
slot, puts each slot in [1, 2^B) with no borrow between slots, so
(s + H) ^ H holds every d_e in B-bit two's complement, and the unpacking
reads them in one pass.  The + 1 is the sign bit: with B = bit_length(M), a
coefficient of M would spill into the next slot.

`terms` is a read-only view that decodes the keys into exponent tuples, for
tests and cold callers; `evaluate`, on the hot path of the prismatic point
searches, reads each key's exponent bytes itself, calls from_int only for a
coefficient other than 1 and -1 and zero() only for the zero polynomial, and
for canonical values equals the sum of from_int(c) times the powers.  This is
the engine behind the universal Witt polynomials.
"""

from __future__ import annotations

import struct
import sys
from array import array
from collections.abc import ItemsView, Mapping
from functools import lru_cache, reduce
from itertools import chain, repeat
from operator import add, itemgetter, mul, or_, sub, xor

from .rings import InexactDivision

# array typecodes by item size in bytes
_UNSIGNED = {array(code).itemsize: code for code in "QLIHB"}
_SIGNED = {array(code).itemsize: code for code in "qlihb"}


def _width_for(top: int) -> int:
    """The narrowest field width in bytes (1, 2, 4, 8, ...) that holds exponents up to top."""
    width = 1
    while top >> (8 * width):
        width *= 2
    return width


def _decode(key: int, width: int, nvars: int) -> tuple:
    return tuple(_fields(key.to_bytes(width * nvars, "little"), width))


def _fields(raw: bytes, width: int, signed: bool = False):
    """The little-endian fields of `width` bytes in raw, decoded in one pass
    when an array type has that width."""
    codes = _SIGNED if signed else _UNSIGNED
    if width not in codes:
        return [int.from_bytes(raw[i : i + width], "little", signed=signed)
                for i in range(0, len(raw), width)]
    fields = array(codes[width], raw)
    if sys.byteorder != "little":
        fields.byteswap()
    return fields


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


def _ppow(a: dict, k: int) -> dict:
    """a**k for k >= 2 as one chain: a^2 by half-pair squaring, then
    a^(j+1) = a^j * a."""
    result = _psquare(a)
    for _ in range(k - 2):
        result = _pmul(result, a)
    return result


@lru_cache(maxsize=None)
def _graded_variables(nvars: int, gradings: tuple) -> tuple:
    """(v, w) for each grading: v its first variable of weight 1 that every
    other grading weighs 0, and w its weights with a 0 appended for field
    nvars, above every variable: the layout with no dense variable strips
    along that field."""
    graded = []
    for j, w in enumerate(gradings):
        if len(w) != nvars or min(w, default=0) < 0:
            raise ValueError("a grading is one non-negative weight per variable")
        others = gradings[:j] + gradings[j + 1 :]
        v = next((i for i, wi in enumerate(w) if wi == 1 and not any(g[i] for g in others)), None)
        if v is None:
            raise ValueError("a grading needs a variable of weight 1 that the others weigh 0")
        graded.append((v, (*w, 0)))
    return tuple(graded)


class _Strips:
    """The strip layout of one power_sum (see the module docstring).

    `bases` holds the strip dict of each summand's base, in order, on keys
    of `width` bytes a field, `bits` bits a slot; no strip of the powers is
    longer than `length` slots.  `unpack` turns a strip dict of this layout
    back into packed terms on the same keys.
    """

    __slots__ = ("width", "bits", "step", "length", "bases")

    def __init__(self, nvars: int, width: int, gradings, summands: list):
        graded = _graded_variables(nvars, tuple(map(tuple, gradings)))
        bases = [p for _, p, _ in summands]
        exps = [_fields(p.key_bytes(), p.width) for p in bases]

        def step_of(u, width):
            """The packed monomial u / prod of v^(weight of u), over the gradings
            whose v is not u."""
            return (1 << 8 * width * u) - sum(w[u] << 8 * width * v for v, w in graded if v != u)

        def strip_ends(s, u):
            """The largest slot of each strip of base s along u, by sparse key."""
            p, col = bases[s], exps[s][u::nvars]
            return dict(sorted(zip(map(sub, p.packed, map(mul, col, repeat(step_of(u, p.width)))),
                                   col)))

        # u: the variable, other than a graded one, whose strips leave the
        # fewest sparse keys on the largest base
        big = max(range(len(bases)), key=lambda s: len(bases[s].packed))
        p = bases[big]
        support = _fields(reduce(or_, p.packed, 0).to_bytes(p.width * nvars, "little"), p.width)
        vs = [v for v, _ in graded]
        ends = {u: strip_ends(big, u) for u, e in enumerate(support) if e and u not in vs}
        u = min(ends, key=lambda u: len(ends[u]), default=nvars)
        # Each slot of a strip costs its bits whether it holds a term or not:
        # if the bases' strips would hold fewer terms than empty slots, no
        # variable is dense.
        if u < nvars:
            room = 0
            for s in range(len(bases)):
                e = ends[u] if s == big else strip_ends(s, u)
                room += len(e) + sum(e.values())
            if room > 2 * sum(len(p.packed) for p in bases):
                u = nvars
        # a sparse key's field v holds e_v + w_u * e_u: at most k times the
        # base's largest such sum
        top = 0
        for (_, _, k), e in zip(summands, exps):
            for v, w in graded:
                if w[u] and v != u:
                    top = max(top, k * max(map(add, e[v::nvars],
                                               map(mul, e[u::nvars], repeat(w[u])))))
        self.width = width = max(width, _width_for(top))
        self.step = step = step_of(u, width)
        # the narrowest slot of 8, 16, 32, 64, 72, 80, ... bits with
        # bound < 2^(bits - 1) (see the module docstring)
        bound = sum(abs(c) * sum(map(abs, p.packed.values())) ** k for c, p, k in summands)
        bits = 8
        while bound >> bits - 1:
            bits += bits if bits < 64 else 8
        self.bits = bits
        shift, mask = 8 * width * u, (1 << 8 * width) - 1
        self.bases, self.length = [], 1
        for _, p, k in summands:
            terms = p._at(width)
            slots = [key >> shift & mask for key in terms]
            strips: dict = {}
            get = strips.get
            for key, c, e in zip(terms, terms.values(), slots):
                key -= e * step
                strips[key] = get(key, 0) + (c << bits * e)
            self.bases.append(strips)
            self.length = max(self.length, k * max(slots) + 1)

    def unpack(self, strips: dict) -> dict:
        """The terms of a strip dict of this layout: slot e of the strip on
        sparse key s is the monomial s + e * step."""
        if self.length == 1:  # every strip is its slot 0: a coefficient on its key
            return strips
        bits, step, n = self.bits, self.step, self.length
        nbytes = bits // 8
        # half holds 2^(bits-1) in each of the n slots, so (s + half) ^ half
        # holds each slot of s in two's complement and the slots past s's
        # last nonzero one as zero bytes; those are cut, and each strip's
        # bytes padded back to whole slots
        half = int.from_bytes((bytes(nbytes - 1) + b"\x80") * n, "little")
        slots = map(xor, map(add, strips.values(), repeat(half)), repeat(half))
        cut = [x.to_bytes(n * nbytes, "little").rstrip(b"\0") for x in slots]
        lengths = [-(-len(b) // nbytes) for b in cut]
        raw = b"".join(map(bytes.ljust, cut, map(mul, lengths, repeat(nbytes)), repeat(b"\0")))
        del cut
        digits = _fields(raw, nbytes, signed=True)
        keys = chain.from_iterable(map(range, strips, map(add, strips, map(mul, lengths,
                                                                           repeat(step))),
                                       repeat(step)))
        return dict(filter(itemgetter(1), zip(keys, digits)))


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
    def from_key_bytes(cls, nvars: int, width: int, raw: bytes, coeffs: list) -> "IntPoly":
        """From the keys' bytes joined in term order, width * nvars bytes a
        term, and the coefficients in the same order, all of them nonzero;
        a key that repeats keeps its last coefficient.  The top is the OR of
        the exponents, which has the bit length of the largest."""
        size = width * nvars
        keys = map(int.from_bytes, map(itemgetter(0), struct.iter_unpack(f"{size}s", raw)),
                   repeat("little"))
        packed = dict(zip(keys, coeffs))
        top = max(_fields(reduce(or_, packed, 0).to_bytes(size, "little"), width), default=0)
        return cls.from_packed(nvars, width, top, packed)

    def key_bytes(self, keys=None) -> bytes:
        """The bytes of the keys (by default this polynomial's, in term order)
        joined, width * nvars bytes a key."""
        size = self.width * self.nvars
        return b"".join(map(int.to_bytes, self.packed if keys is None else keys,
                            repeat(size), repeat("little")))

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
    def power_sum(nvars: int, summands: list, gradings=()) -> "IntPoly":
        """Sum of c * p**k over the (c, p, k) in summands.

        Each grading is a weight per variable; the gradings change only how
        densely the powers are packed into strips (see the module
        docstring), never the result.
        """
        top, width = 0, 1
        for _, p, k in summands:
            if k < 0:
                raise ValueError("negative power")
            top = max(top, k * p.top)
            width = max(width, p.width)
        width = max(width, _width_for(top))
        # out += c * p^k is the product of p^k and the constant c into out
        out: dict = {}
        powered = [(c, p, k) for c, p, k in summands if c and p and k > 1]
        if powered:
            layout = _Strips(nvars, width, gradings, powered)
            for (c, _, k), base in zip(powered, layout.bases):
                _pmul(_ppow(base, k), {0: c}, out)
            out = layout.unpack(out)
            width = layout.width
        for c, p, k in summands:
            if c and k < 2:
                _pmul(p._at(width) if k else {0: 1}, {0: c}, out)
        return IntPoly.from_packed(nvars, width, top, out)

    def exact_div_int(self, n: int) -> "IntPoly":
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
        (i, e) for the other terms.  A term is its powers' product, times
        ring.from_int(c) unless c is 1 or -1 (-1 negates it); a constant term
        is from_int(c).  The sum starts from the first term, so zero() is made
        only for the zero polynomial.  For canonical values the result equals
        the sum, from zero(), of from_int(c) times each power.
        """
        powers: dict = {}
        total = None
        width, nvars = self.width, self.nvars
        for key, c in self.packed.items():
            exps = key.to_bytes(nvars, "little") if width == 1 else _decode(key, width, nvars)
            term = None
            for i, e in enumerate(exps):
                if e:
                    v = powers.get((i, e))
                    if v is None:
                        v = powers[i, e] = ring.pow(values[i], e)
                    term = v if term is None else ring.mul(term, v)
            if term is None:
                term = ring.from_int(c)
            elif c == -1:
                term = ring.neg(term)
            elif c != 1:
                term = ring.mul(ring.from_int(c), term)
            total = term if total is None else ring.add(total, term)
        return ring.zero() if total is None else total

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
