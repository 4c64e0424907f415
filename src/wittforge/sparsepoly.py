"""Sparse integer polynomials in a fixed variable list.

The representation is a dict from exponent tuples to nonzero int
coefficients.  This is the engine behind the universal Witt polynomials;
division by an integer is exact-or-raise, never rounded.
"""

from __future__ import annotations

from .rings import InexactDivision


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
    def zero(cls, nvars):
        return cls(nvars)

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
        out: dict = {}
        if len(self.terms) > len(other.terms):
            big, small = self.terms, other.terms
        else:
            big, small = other.terms, self.terms
        for e1, c1 in small.items():
            for e2, c2 in big.items():
                e = tuple(x + y for x, y in zip(e1, e2))
                s = out.get(e, 0) + c1 * c2
                if s:
                    out[e] = s
                else:
                    del out[e]
        p = IntPoly(self.nvars)
        p.terms = out
        return p

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power")
        result = IntPoly.const(self.nvars, 1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

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

        Power maps are cached per variable so repeated exponents are cheap.
        """
        powers = [dict() for _ in range(self.nvars)]

        def vp(i, e):
            cache = powers[i]
            if e in cache:
                return cache[e]
            if e == 0:
                r = ring.one()
            elif e == 1:
                r = values[i]
            else:
                half = vp(i, e // 2)
                r = ring.mul(half, half)
                if e & 1:
                    r = ring.mul(r, values[i])
            cache[e] = r
            return r

        total = ring.zero()
        for exps, c in self.terms.items():
            term = ring.from_int(c)
            for i, e in enumerate(exps):
                if e:
                    term = ring.mul(term, vp(i, e))
            total = ring.add(total, term)
        return total

    def substitute(self, polys: list["IntPoly"]) -> "IntPoly":
        """Compose: plug IntPolys (in the target variable count) in for variables."""
        nv = polys[0].nvars if polys else self.nvars
        total = IntPoly(nv)
        cache: list[dict] = [dict() for _ in range(self.nvars)]

        def vp(i, e):
            c = cache[i]
            if e in c:
                return c[e]
            if e == 0:
                r = IntPoly.const(nv, 1)
            elif e == 1:
                r = polys[i]
            else:
                half = vp(i, e // 2)
                r = half * half
                if e & 1:
                    r = r * polys[i]
            c[e] = r
            return r

        for exps, coeff in self.terms.items():
            term = IntPoly.const(nv, coeff)
            for i, e in enumerate(exps):
                if e:
                    term = term * vp(i, e)
            total = total + term
        return total

    def num_terms(self):
        return len(self.terms)

    def to_json(self, names):
        out = []
        for exps, c in sorted(self.terms.items()):
            mono = {names[i]: e for i, e in enumerate(exps) if e}
            out.append([mono, c])
        return out

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
