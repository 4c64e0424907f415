"""Hodge-filtered de Rham cohomology of monomial smooth affine Q-algebras.

The algebras are Q[x_1^+-, .., x_a^+-, y_1, .., y_b]: their de Rham complexes
split into finite slices indexed by characters in Z^a x N^b, because the
differential preserves the character when dx_i is given the character of x_i.
Every slice with a nonzero character is exact (contract against a coordinate
whose character entry is nonzero; the scalar is invertible in Q), so the
cohomology is the exterior algebra on the logarithmic torus classes and all
computations are finite and exact.

Each slice's cohomology comes from ranks alone: dim H^j = dim Omega^j -
rank d_j - rank d_{j-1}.  The Hodge filtration is the one induced by the
stupid truncations sigma^{>=i}: H^j is spanned by closed j-forms, which lie
in sigma^{>=i} exactly when i <= j, so Fil^i H^j = H^j for i <= j and 0
otherwise.  It is packaged through the Rees dictionary with Fil^i in degree
-i.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations, product as iter_product

from .filtration import (
    FilteredModule,
    Subspace,
    matrix_rank,
    rees_of_filtered,
)
from .numutil import WittforgeError


class DeRhamError(WittforgeError):
    pass


# the most basis forms a character box may hold: 10,000 take a few seconds,
# and each more generator multiplies the count by 3 or more
MAX_FORMS = 10_000


@dataclass(frozen=True)
class MonomialAlgebra:
    torus_rank: int
    affine_rank: int

    def __post_init__(self):
        if self.torus_rank < 0 or self.affine_rank < 0:
            raise DeRhamError("ranks must be nonnegative")

    def dim(self):
        return self.torus_rank + self.affine_rank

    def __repr__(self):
        return f"Q[{self.torus_rank} torus, {self.affine_rank} affine]"


@dataclass
class ComplexSlice:
    """One character slice of the de Rham complex, with explicit differentials."""

    algebra: MonomialAlgebra
    character: tuple  # (torus exponents, affine exponents)
    bases: list  # per form degree k: list of (S, T) index pairs
    d_mats: list  # per k: matrix rows x cols = dim Omega^{k+1} x dim Omega^k

    def dims(self):
        return [len(b) for b in self.bases]

    def verify_d_squared(self):
        n = self.algebra.dim()
        for k in range(n - 1):
            m2, m1 = self.d_mats[k + 1], self.d_mats[k]
            for r in range(len(self.bases[k + 2])):
                for c in range(len(self.bases[k])):
                    acc = 0
                    for mid in range(len(self.bases[k + 1])):
                        acc += m2[r][mid] * m1[mid][c]
                    if acc != 0:
                        return False
        return True

    @cached_property
    def d_ranks(self):
        """rank d_k for every k, each differential row-reduced once."""
        return [matrix_rank(m) for m in self.d_mats]

    def cohomology_dim(self, j):
        """dim H^j = dim Omega^j - rank d_j - rank d_{j-1} (d_j: Omega^j -> Omega^{j+1})."""
        n = self.algebra.dim()
        if j < 0 or j > n:
            return 0
        rank_out = self.d_ranks[j] if j < n else 0
        rank_in = self.d_ranks[j - 1] if j >= 1 else 0
        return len(self.bases[j]) - rank_out - rank_in


def _slice_for(A: MonomialAlgebra, character) -> ComplexSlice:
    a, b = A.torus_rank, A.affine_rank
    c_torus, c_aff = character
    support = [j for j in range(b) if c_aff[j] >= 1]
    n = a + b
    bases = []
    for k in range(n + 1):
        basis = []
        for s_size in range(min(k, a) + 1):
            t_size = k - s_size
            if t_size > len(support):
                continue
            for S in combinations(range(a), s_size):
                for T in combinations(support, t_size):
                    basis.append((S, T))
        bases.append(basis)
    d_mats = []
    for k in range(n):
        src, tgt = bases[k], bases[k + 1]
        pos = {st: r for r, st in enumerate(tgt)}
        mat = [[0] * len(src) for _ in range(len(tgt))]
        for cidx, (S, T) in enumerate(src):
            for i in range(a):
                if i in S:
                    continue
                coeff = c_torus[i]  # exponent of x_i in the slice monomial
                if coeff == 0:
                    continue
                sign = (-1) ** sum(1 for s in S if s < i)
                key = (tuple(sorted(S + (i,))), T)
                mat[pos[key]][cidx] += sign * coeff
            for j in support:
                if j in T:
                    continue
                coeff = c_aff[j]
                sign = (-1) ** (len(S) + sum(1 for t in T if t < j))
                key = (S, tuple(sorted(T + (j,))))
                mat[pos[key]][cidx] += sign * coeff
        d_mats.append(mat)
    return ComplexSlice(A, character, bases, d_mats)


def build_complex(A: MonomialAlgebra, torus_bound: int = 1, affine_bound: int = 1):
    """All character slices in the box |torus| <= torus_bound, 0 <= affine <= affine_bound.

    A torus coordinate has 2 * torus_bound + 1 characters of two forms each
    (1 and dlog x); an affine one has character 0 with the form 1 and
    affine_bound others with two (1 and dy).  A box holding more than
    MAX_FORMS forms in all is refused before any slice is built.
    """
    # a factor is 1 or at least 2, so capping each rank at MAX_FORMS keeps
    # the verdict and spares a power with a huge exponent
    forms = (2 * (2 * torus_bound + 1)) ** min(A.torus_rank, MAX_FORMS)
    forms *= (1 + 2 * affine_bound) ** min(A.affine_rank, MAX_FORMS)
    if forms > MAX_FORMS:
        raise DeRhamError(f"the character box of {A} holds more than {MAX_FORMS} basis forms")
    torus_range = range(-torus_bound, torus_bound + 1)
    affine_range = range(affine_bound + 1)
    slices = []
    for c_torus in iter_product(torus_range, repeat=A.torus_rank):
        for c_aff in iter_product(affine_range, repeat=A.affine_rank):
            slices.append(_slice_for(A, (c_torus, c_aff)))
    return slices


@dataclass
class HodgeFilteredCohomology:
    algebra: MonomialAlgebra
    h: dict  # j -> dim H^j
    fil: dict  # (i, j) -> dim Fil^i H^j
    filtered: dict = field(default_factory=dict)  # j -> FilteredModule

    def to_json(self):
        n = self.algebra.dim()
        fil = {
            str(j): {str(i): self.fil[(i, j)] for i in range(0, n + 2)}
            for j in range(n + 1)
        }
        return {
            "a": self.algebra.torus_rank,
            "b": self.algebra.affine_rank,
            "H": {str(j): self.h[j] for j in range(n + 1)},
            "Fil": fil,
            "rees": {str(j): rees_of_filtered(self.filtered[j]).to_json() for j in range(n + 1)},
        }


def hodge_cohomology(A: MonomialAlgebra, torus_bound: int = 1, affine_bound: int = 1):
    """Assemble H^* and the Hodge filtration from the character slices.

    Slices with nonzero character are exact (checked within the box; outside
    it the Koszul contraction argument applies verbatim), so the totals come
    from the zero character.
    """
    slices = build_complex(A, torus_bound, affine_bound)
    n = A.dim()
    h = {j: 0 for j in range(n + 1)}
    for sl in slices:
        zero_char = all(c == 0 for c in sl.character[0]) and all(
            c == 0 for c in sl.character[1]
        )
        for j in range(n + 1):
            dimh = sl.cohomology_dim(j)
            if not zero_char and dimh != 0:
                raise DeRhamError(f"nonzero character slice {sl.character} not exact")
            h[j] += dimh
    # H^j is spanned by closed j-forms, which lie in the stupid truncation
    # sigma^{>=i} exactly when i <= j: so Fil^i H^j = H^j for i <= j, else 0.
    fil = {(i, j): h[j] if i <= j else 0 for j in range(n + 1) for i in range(0, n + 2)}
    filtered = {}
    for j in range(n + 1):
        pieces = {
            i: Subspace.full(h[j]) if i <= j else Subspace.zero(h[j]) for i in range(0, n + 2)
        }
        filtered[j] = FilteredModule(h[j], 0, n + 1, pieces, "zero")
    return HodgeFilteredCohomology(A, h, fil, filtered)

