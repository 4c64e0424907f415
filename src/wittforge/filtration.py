"""Filtered modules, the Rees dictionary, Day convolution, I-adic graded pieces.

Desk-scale model: a filtered module is a decreasing family of subspaces of a
fixed finite-dimensional Q-vector space, constant below some lo, and either
zero or constant above some hi.  Its Rees module is the graded module with
Fil^i placed in degree -i and t acting by the inclusion Fil^i -> Fil^{i-1},
which raises the grading degree by one; this normalization is pinned by
requiring that the filtered line with Fil^i full exactly for i <= 1 go to
the free module on one generator in degree -1.

The linear algebra over Q eliminates without fractions.  rref scales each
row by the lcm of its denominators to an integer row, eliminates on integer
rows (row_i <- a*row_i - b*pivot_row with a/b the reduced ratio of the
pivot to row_i's entry, then divided by its content, the gcd of its
entries), and divides each pivot row by its pivot into Fractions only at the
end.  The reduced row echelon form is unique, so the bases, and with them
subspace equality and hashing, are those of plain Gauss-Jordan over Q.
Subspace.reduce does the same with the basis rows' integer multiples.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import combinations_with_replacement
from math import gcd, lcm, prod

from .numutil import WittforgeError, binomial
from .sparsepoly import IntPoly


class FiltrationError(WittforgeError):
    pass


class TorsionError(FiltrationError):
    pass


# ---------------------------------------------------------------------------
# exact linear algebra over Q


def _primitive(row):
    """The integer row divided by the gcd of its entries (its content)."""
    g = gcd(*row)
    return row if g < 2 else [x // g for x in row]


def _integer_row(row):
    """A row of ints or Fractions times the lcm of its denominators, made primitive."""
    d = lcm(*(x.denominator for x in row))
    return _primitive([x.numerator * (d // x.denominator) for x in row])


def rref(rows):
    """Reduced row echelon form; returns (rows, pivot columns).

    The rows are eliminated as integer rows, each kept primitive, and each
    pivot row is divided by its pivot only at the end.
    """
    rows = [_integer_row(r) for r in rows]
    pivots = []
    r = 0
    ncols = len(rows[0]) if rows else 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        prow = rows[r]
        p = prow[c]
        for i in range(len(rows)):
            f = rows[i][c]
            if i != r and f:
                g = gcd(p, f)
                a, b = p // g, f // g
                rows[i] = _primitive([a * x - b * y for x, y in zip(rows[i], prow)])
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return [tuple(Fraction(x, row[c]) for x in row) for row, c in zip(rows, pivots)], pivots


def matrix_rank(rows):
    return len(rref(rows)[0])


@dataclass(frozen=True)
class Subspace:
    """A subspace of Q^n held as a reduced row echelon basis."""

    ambient: int
    basis: tuple = ()

    @classmethod
    def span(cls, ambient, rows):
        rows = [r for r in rows if any(x != 0 for x in r)]
        if not rows:
            return cls(ambient, ())
        reduced, _ = rref(rows)
        return cls(ambient, tuple(reduced))

    @classmethod
    def full(cls, ambient):
        unit = [[Fraction(int(i == j)) for j in range(ambient)] for i in range(ambient)]
        return cls(ambient, tuple(tuple(r) for r in unit))

    @classmethod
    def zero(cls, ambient):
        return cls(ambient, ())

    def dim(self):
        return len(self.basis)

    def pivots(self):
        """The pivot column of each basis row (its first nonzero entry)."""
        return [next(j for j, x in enumerate(row) if x != 0) for row in self.basis]

    @cached_property
    def _integer_rows(self):
        """(m, [(c, R)]): each basis row is R / R[c], R an integer row with its
        pivot in column c, and m is the lcm of the pivots R[c]."""
        rows = [(c, _integer_row(row)) for row, c in zip(self.basis, self.pivots())]
        return lcm(*(R[c] for c, R in rows)), rows

    def _residual(self, v):
        """(s, r): the residual of v against the span is r / s, r an integer row.

        With s = m times the lcm of v's denominators, s*v is an integer row
        and every multiplier s*v[c] / R[c] of a basis row is an integer.
        """
        if len(v) != self.ambient:
            raise FiltrationError(
                f"vector of length {len(v)} in a subspace of Q^{self.ambient}"
            )
        m, rows = self._integer_rows
        s = m * lcm(*(x.denominator for x in v))
        r = [x.numerator * (s // x.denominator) for x in v]
        for c, R in rows:
            f = r[c] // R[c]
            if f:
                r = [a - f * b for a, b in zip(r, R)]
        return s, r

    def reduce(self, v):
        """(coordinates of v on the basis, residual of v against the span).

        v is the coordinates' combination of the basis rows plus the
        residual, which is zero exactly when v lies in the subspace.  The
        basis rows vanish in each other's pivot columns, so the coordinates
        are v's entries there.
        """
        s, r = self._residual(v)
        return [Fraction(v[c]) for c, _ in self._integer_rows[1]], [Fraction(x, s) for x in r]

    def contains_vector(self, v):
        return not any(self._residual(v)[1])

    def contains(self, other: "Subspace"):
        return all(self.contains_vector(r) for r in other.basis)

    def __eq__(self, other):
        return (
            isinstance(other, Subspace)
            and self.ambient == other.ambient
            and self.basis == other.basis
        )

    def __hash__(self):
        return hash((self.ambient, self.basis))


def kron(v, w):
    return tuple(a * b for a in v for b in w)


# ---------------------------------------------------------------------------
# filtered modules


@dataclass(frozen=True)
class FilteredModule:
    """Decreasing filtration of Q^ambient by subspaces.

    piece(i) = pieces[lo] for i < lo, pieces[i] on [lo, hi], and above hi
    either the zero subspace or pieces[hi] again, by the tail flag.
    """

    ambient: int
    lo: int
    hi: int
    pieces: dict = field(compare=False)
    tail: str = "zero"  # or "constant"

    def __post_init__(self):
        if self.tail not in ("zero", "constant"):
            raise FiltrationError(f"bad tail flag {self.tail!r}")
        if self.lo > self.hi:
            raise FiltrationError("lo must be <= hi")
        for i in range(self.lo, self.hi + 1):
            if i not in self.pieces:
                raise FiltrationError(f"missing piece {i}")
            if self.pieces[i].ambient != self.ambient:
                raise FiltrationError(
                    f"piece {i} lies in Q^{self.pieces[i].ambient}, not Q^{self.ambient}"
                )
        for i in range(self.lo, self.hi):
            if not self.pieces[i].contains(self.pieces[i + 1]):
                raise FiltrationError(f"filtration not decreasing at {i}")

    def piece(self, i: int) -> Subspace:
        if i < self.lo:
            return self.pieces[self.lo]
        if i > self.hi:
            return Subspace.zero(self.ambient) if self.tail == "zero" else self.pieces[self.hi]
        return self.pieces[i]

    def tail_space(self) -> Subspace:
        return self.piece(self.hi + 1)

    def __eq__(self, other):
        if not isinstance(other, FilteredModule) or self.ambient != other.ambient:
            return False
        lo = min(self.lo, other.lo) - 1
        hi = max(self.hi, other.hi) + 1
        return all(self.piece(i) == other.piece(i) for i in range(lo, hi + 1)) and (
            self.tail_space() == other.tail_space()
        )

    def __hash__(self):
        # only what __eq__ compares: one module has many (lo, hi, tail) spellings
        return hash((self.ambient, self.tail_space()))


def filtered_line(n: int = 0) -> FilteredModule:
    """The filtered line with Fil^i = Q exactly for i <= n (n = 0: the unit)."""
    full = Subspace.full(1)
    return FilteredModule(1, n, n + 1, {n: full, n + 1: Subspace.zero(1)})


def unit_filtration() -> FilteredModule:
    return filtered_line(0)


def step_filtration(subspaces, start: int = 0) -> FilteredModule:
    """Filtration stepping down through the given subspace chain from degree start."""
    if not subspaces:
        raise FiltrationError("need at least one subspace")
    ambient = subspaces[0].ambient
    pieces = {start + k: s for k, s in enumerate(subspaces)}
    hi = start + len(subspaces) - 1
    if subspaces[-1].dim() != 0:
        pieces[hi + 1] = Subspace.zero(ambient)
        hi += 1
    return FilteredModule(ambient, start, hi, pieces)


def shift_filtration(M: FilteredModule, n: int) -> FilteredModule:
    """M{n}: i -> M(i - n); shifts Rees degrees by +n."""
    pieces = {i + n: M.pieces[i] for i in M.pieces}
    return FilteredModule(M.ambient, M.lo + n, M.hi + n, pieces, M.tail)


def day_tensor(M: FilteredModule, N: FilteredModule) -> FilteredModule:
    """Fil^i(M (x) N) = sum_{j+k=i} Fil^j M (x) Fil^k N inside the Kronecker product."""
    ambient = M.ambient * N.ambient
    lo = M.lo + N.lo
    hi = M.hi + N.hi + 1
    pieces = {}
    for i in range(lo, hi + 1):
        rows = []
        for j in range(M.lo, max(M.hi, i - N.lo) + 1):
            # the integer multiples of the basis rows span the same pieces
            nk = N.piece(i - j)._integer_rows[1]
            for _, v in M.piece(j)._integer_rows[1]:
                for _, w in nk:
                    rows.append(kron(v, w))
        pieces[i] = Subspace.span(ambient, rows)
    tail = "zero" if pieces[hi].dim() == 0 else "constant"
    if tail == "zero":
        while hi > lo and pieces[hi - 1].dim() == 0:
            del pieces[hi]
            hi -= 1
    return FilteredModule(ambient, lo, hi, pieces, tail)


def complete_filtration(M: FilteredModule):
    """Completion and completeness verdict.

    At desk scale completeness is the vanishing of the stable tail; the
    completion quotients every piece by it.
    """
    T = M.tail_space()
    complete = T.dim() == 0
    if complete:
        return M, {"complete": True, "intersection_dim": 0}
    # coordinates on the quotient: drop the pivot columns of T
    pivots = T.pivots()
    keep = [c for c in range(M.ambient) if c not in pivots]

    def project(v):
        residual = T.reduce(v)[1]
        return tuple(residual[c] for c in keep)

    pieces = {}
    for i in range(M.lo, M.hi + 1):
        pieces[i] = Subspace.span(len(keep), [project(v) for v in M.pieces[i].basis])
    completed = FilteredModule(len(keep), M.lo, M.hi, pieces, "zero")
    return completed, {"complete": False, "intersection_dim": T.dim()}


# ---------------------------------------------------------------------------
# Rees modules


@dataclass(frozen=True)
class ReesModule:
    """Graded module over Q[t] with deg t = +1; t acts by inclusions.

    pieces[d] for lo_deg <= d <= hi_deg; below lo_deg the pieces are zero (or
    constant, mirroring incomplete filtrations); above hi_deg the module is
    free: every piece equals pieces[hi_deg] with t acting as the identity.
    An explicit t_override (degree -> matrix rows in ambient coordinates)
    models modules with t-torsion for the negative tests.
    """

    ambient: int
    lo_deg: int
    hi_deg: int
    pieces: dict = field(compare=False)
    below: str = "zero"
    t_override: dict | None = field(default=None, compare=False)

    def __post_init__(self):
        if self.below not in ("zero", "constant"):
            raise FiltrationError(f"bad below flag {self.below!r}")

    def piece(self, d: int) -> Subspace:
        if d > self.hi_deg:
            return self.pieces[self.hi_deg]
        if d < self.lo_deg:
            return (
                Subspace.zero(self.ambient) if self.below == "zero" else self.pieces[self.lo_deg]
            )
        return self.pieces[d]

    def t_map(self, d: int):
        """Images of the degree-d basis vectors in degree d+1 (ambient coords)."""
        if self.t_override and d in self.t_override:
            return self.t_override[d]
        return [list(v) for v in self.piece(d).basis]

    def t_injective(self, d: int) -> bool:
        imgs = self.t_map(d)
        src = self.piece(d)
        if not imgs:
            return True
        if len(imgs) != src.dim():
            return False
        if matrix_rank(imgs) != src.dim():
            return False
        return all(self.piece(d + 1).contains_vector(v) for v in imgs)

    def __eq__(self, other):
        if not isinstance(other, ReesModule) or self.ambient != other.ambient:
            return False
        lo = min(self.lo_deg, other.lo_deg) - 1
        hi = max(self.hi_deg, other.hi_deg) + 1
        return all(self.piece(d) == other.piece(d) for d in range(lo, hi + 1))

    def __hash__(self):
        # only what __eq__ compares: the free top piece, not the degree bounds
        return hash((self.ambient, self.pieces[self.hi_deg]))

    def to_json(self):
        out = {"pieces": {}, "t_maps": {}}
        for d in range(self.lo_deg, self.hi_deg + 1):
            out["pieces"][str(d)] = {"rank": self.piece(d).dim(), "relations": []}
            out["t_maps"][str(d)] = [
                [str(x) for x in _coords_in_basis(v, self.piece(d + 1))]
                for v in self.t_map(d)
            ]
        return out


def _coords_in_basis(v, space: Subspace):
    coords, residual = space.reduce(v)
    if any(residual):
        raise FiltrationError("vector not in the target piece")
    return coords


def rees_of_filtered(M: FilteredModule) -> ReesModule:
    """Fil^i in degree -i, t the inclusion Fil^i -> Fil^{i-1}."""
    pieces = {-i: M.pieces[i] for i in range(M.lo, M.hi + 1)}
    below = "zero" if M.tail == "zero" else "constant"
    return ReesModule(M.ambient, -M.hi, -M.lo, pieces, below)


def filtered_of_rees(G: ReesModule) -> FilteredModule:
    """Inverse of rees_of_filtered on t-torsion-free, degreewise f.g. input."""
    for d in range(G.lo_deg - 1, G.hi_deg + 1):
        if not G.t_injective(d):
            raise TorsionError(f"t-torsion in degree {d}")
        if not G.piece(d + 1).contains(G.piece(d)):
            raise TorsionError(f"t does not embed degree {d} into degree {d + 1}")
    pieces = {-d: G.piece(d) for d in range(G.lo_deg, G.hi_deg + 1)}
    tail = "zero" if G.below == "zero" else "constant"
    return FilteredModule(G.ambient, -G.hi_deg, -G.lo_deg, pieces, tail)


# ---------------------------------------------------------------------------
# I-adic filtration of A (x) A for monomial algebras, and its graded pieces


@dataclass(frozen=True)
class GradedPiece:
    degree: int
    rank: int
    generators: tuple
    relations: tuple = ()


def iadic_gr(variables, generators: str, top_degree: int):
    """gr^i of the I-adic filtration on A (x) A.

    A is the (Laurent) polynomial algebra on the given variables and I is its
    diagonal ideal, generated by the differences u_j = x_j - y_j.  The
    substitution y_j = x_j - u_j identifies A (x) A with A[u_1..u_g], under
    which I = (u); hence gr^i is free over A on the degree-i monomials in the
    u_j, of rank C(g + i - 1, i) = rank Sym^i of the rank-g Kahler module.
    """
    if generators == "zero":
        pieces = [GradedPiece(0, 1, ("1",))]
        pieces += [GradedPiece(i, 0, ()) for i in range(1, top_degree + 1)]
        return pieces
    if generators != "diagonal":
        raise FiltrationError("supported ideals: 'diagonal' or 'zero'")
    g = len(variables)
    out = []
    for i in range(top_degree + 1):
        gens = []
        for combo in combinations_with_replacement(range(g), i):
            label = "*".join(f"d{variables[j]}" for j in combo) or "1"
            gens.append(label)
        out.append(GradedPiece(i, binomial(g + i - 1, i), tuple(gens)))
    return out


def iadic_gr_crosscheck(g: int, top_degree: int, total_degree_cap: int) -> bool:
    """Verify the gr ranks by honest linear algebra in the (x, y) coordinates.

    Expands products of i diagonal generators against monomials, row reduces
    in the monomial basis of Q[x, y] truncated at the degree cap, and compares
    the graded dimension count with the free-module prediction.
    """
    D = total_degree_cap
    monos = _monomials(2 * g, D)
    index = {m: k for k, m in enumerate(monos)}
    one = IntPoly.const(2 * g, 1)
    diag = [IntPoly.var(2 * g, j) - IntPoly.var(2 * g, g + j) for j in range(g)]

    def power_dim(i):
        if i > D:
            return 0
        rows = []
        for alpha in (m for m in _monomials(g, i) if sum(m) == i):
            # prod_j (x_j - y_j)^alpha_j expanded into Q[x, y]
            base = prod((u**a for u, a in zip(diag, alpha)), start=one)
            for rest in _monomials(2 * g, D - i):
                vec = [0] * len(monos)
                for exps, c in base.terms.items():
                    e = tuple(a + b for a, b in zip(exps, rest))
                    vec[index[e]] += c
                rows.append(vec)
        return matrix_rank(rows)

    dims = [power_dim(i) for i in range(top_degree + 2)]
    for i in range(top_degree + 1):
        observed = dims[i] - dims[i + 1]
        if observed != _predicted_gr_dim(g, i, D):
            return False
    return True


def _predicted_gr_dim(g, i, D):
    # free module on C(g+i-1, i) generators in degree i over A (x) A / I = A,
    # whose degree <= D part has dimension C(g + D - i, g) in g variables
    if i > D:
        return 0
    return binomial(g + i - 1, i) * binomial(g + (D - i), g)


def _monomials(nvars, max_total):
    out = []

    def rec(prefix, remaining, slots):
        if slots == 0:
            out.append(tuple(prefix))
            return
        for e in range(remaining + 1):
            rec(prefix + [e], remaining - e, slots - 1)

    rec([], max_total, nvars)
    return out


def iadic_filtered_module(g: int, top_degree: int, total_degree_cap: int) -> FilteredModule:
    """The I-adic filtration of A (x) A truncated in u-degree and total degree.

    Uses the (x, u) coordinates, where the pieces are monomial subspaces.
    """
    D = total_degree_cap
    monos = _monomials(2 * g, D)
    ambient = len(monos)
    pieces = {}
    for i in range(top_degree + 1):
        rows = []
        for k, m in enumerate(monos):
            if sum(m[g:]) >= i:
                v = [0] * ambient
                v[k] = 1
                rows.append(v)
        pieces[i] = Subspace.span(ambient, rows)
    pieces[top_degree + 1] = Subspace.zero(ambient)
    return FilteredModule(ambient, 0, top_degree + 1, pieces, "zero")
