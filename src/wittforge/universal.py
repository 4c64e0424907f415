"""Universal Witt polynomials: generation, caching, integrality checking.

For an index set E the addition, multiplication, negation and Frobenius maps
of W_E are given by families of integer polynomials obtained by inverting the
ghost map symbolically:

    s_n = (g_n(x) + g_n(y) - sum_{d|n, d<n} d * s_d^(n/d)) / n

and likewise with g_n(x)*g_n(y) for products, -g_n(x) for negation, and
g_{kd}(x) for the Frobenius F_k.  Every division must be exact over the
integers; an inexact division aborts generation (it would mean the ghost
polynomials are wrong).

Very large levels are not expanded term by term.  Instead the step is
certified: writing G_n for the ghost-side target, the division at level n is
exact if and only if

    G_n = phi_p(G_{n/p})  mod p^{v_p(n)}   for every prime p | n,

where phi_p substitutes v -> v^p in every variable.  (If x = y mod p then
x^{p^t} = y^{p^t} mod p^{t+1}; applying this to the inductively integral
lower levels turns the defect modulo p^{v_p(n)} into G_n - phi_p(G_{n/p}).)
The congruence involves only the sparse ghost polynomials, so the check is
exact and cheap even when the quotient polynomial would have millions of
terms.
"""

from __future__ import annotations

import json
import os
import random
import tempfile
from contextlib import suppress
from dataclasses import dataclass, field

from .indexset import IndexSet
from .numutil import WittforgeError, divisors, factorize, integer
from .rings import INTEGERS, InexactDivision
from .sparsepoly import IntPoly

CACHE_ENV = "WITTFORGE_CACHE_DIR"
DEFAULT_TERM_CAP = 150_000
SYMBOLIC_VERIFY_CAP = 4_000
# version of the disk cache layout; a file of any other version is a miss
CACHE_FORMAT = 2


class GenerationError(WittforgeError):
    pass


class NotMaterialized(GenerationError):
    """A polynomial exists and is certified integral but was not expanded."""


# ---------------------------------------------------------------------------
# ghost polynomials


def ghost_poly(E: IndexSet, n: int, block: int, nblocks: int) -> IntPoly:
    """g_n = sum_{d|n} d * v_d^(n/d) in block `block` of the variable list."""
    k = len(E)
    nvars = k * nblocks
    poly = IntPoly(nvars)
    for d in divisors(n):
        if d in E:
            poly = poly + IntPoly.var(nvars, block * k + E.position(d), power=n // d, coeff=d)
    return poly


def _ghost_target(E: IndexSet, op: str, n: int) -> IntPoly:
    """Ghost-side target polynomial for one level of a family."""
    if op == "sum":
        return ghost_poly(E, n, 0, 2) + ghost_poly(E, n, 1, 2)
    if op == "product":
        return ghost_poly(E, n, 0, 2) * ghost_poly(E, n, 1, 2)
    if op == "negation":
        return -ghost_poly(E, n, 0, 1)
    return ghost_poly(E, _frobenius_index(op) * n, 0, 1)


def _frobenius_index(op: str):
    """k of "frobenius:k", None for sum, product and negation; any other op
    raises, so that a family has one name ("frobenius: 2" is refused)."""
    if op in ("sum", "product", "negation"):
        return None
    try:
        k = integer(op.removeprefix("frobenius:"))
    except ValueError:
        k = None
    if k is None or op != f"frobenius:{k}":
        raise GenerationError(f"unknown operation {op!r}")
    return k


def _family_levels(E: IndexSet, op: str) -> list[int]:
    k = _frobenius_index(op)
    if k is not None:
        if k not in E:
            raise GenerationError(f"{k} is not in the index set {E}")
        return list(E.restrict(k))
    return list(E)


def _var_names(E: IndexSet, op: str) -> list[str]:
    if op in ("sum", "product"):
        return [f"x{d}" for d in E] + [f"y{d}" for d in E]
    return [f"x{d}" for d in E]


def _var_weights(E: IndexSet, op: str) -> list[int]:
    if op in ("sum", "product"):
        return list(E.elements) * 2
    return list(E.elements)


def _gradings(E: IndexSet, op: str) -> list[list[int]]:
    """Weight vectors under which every level of the family is homogeneous:
    one per block for products, which are homogeneous in x and in y apart."""
    if op == "product":
        zeros = [0] * len(E)
        return [list(E.elements) + zeros, zeros + list(E.elements)]
    return [_var_weights(E, op)]


def _slice_bound(weights, W) -> int:
    """Number of monomials of weighted degree exactly W (unbounded knapsack)."""
    cnt = [0] * (W + 1)
    cnt[0] = 1
    for w in weights:
        for t in range(w, W + 1):
            cnt[t] += cnt[t - w]
    return cnt[W]


def _level_bound(E: IndexSet, op: str, n: int) -> int:
    if op == "product":
        b = _slice_bound(list(E.elements), n)
        return b * b
    k = _frobenius_index(op)
    if k is not None:
        return _slice_bound(list(E.elements), k * n)
    return _slice_bound(_var_weights(E, op), n)


# ---------------------------------------------------------------------------
# entries


@dataclass
class UniversalEntry:
    index_set: IndexSet
    op: str
    names: list[str]
    levels: list[int]
    polys: dict = field(default_factory=dict)  # level -> IntPoly or None
    certified: list[int] = field(default_factory=list)

    def poly(self, n: int) -> IntPoly:
        p = self.polys[n]
        if p is None:
            raise NotMaterialized(
                f"{self.op} polynomial at level {n} for E={self.index_set} was "
                "certified integral but not expanded"
            )
        return p

    def to_json(self):
        return {
            "format": CACHE_FORMAT,
            "op": self.op,
            "index_set": list(self.index_set.elements),
            "variables": self.names,
            "polynomials": {
                str(n): (None if self.polys[n] is None else _level_to_json(self.polys[n]))
                for n in self.levels
            },
            "certified": list(self.certified),
        }


def _level_to_json(p: IntPoly) -> dict:
    """One level for the cache file: the exponent bytes of its keys at the
    narrowest width (1, 2, 4 or 8 bytes per exponent, little-endian) that
    holds its largest exponent, joined in increasing key order and
    hex-encoded, and its coefficients as an int list in the same order.  The
    bytes depend on the terms alone, not on the order they were made in."""
    if p.width > 1:
        p = IntPoly(p.nvars, p.terms)  # its top may be a loose bound
    keys = sorted(p.packed)
    return {"width": p.width, "exponents": p.key_bytes(keys).hex(),
            "coefficients": list(map(p.packed.__getitem__, keys))}


def _level_from_json(data, nvars: int) -> IntPoly:
    coeffs, width = data["coefficients"], data["width"]
    if width not in (1, 2, 4, 8):
        raise ValueError("exponent width is not 1, 2, 4 or 8 bytes")
    raw = bytes.fromhex(data["exponents"])
    if len(raw) != width * nvars * len(coeffs):
        raise ValueError("exponent length is not nvars times the number of terms")
    p = IntPoly.from_key_bytes(nvars, width, raw, coeffs)
    if len(p.packed) != len(coeffs) or 0 in coeffs or set(map(type, coeffs)) - {int}:
        raise ValueError("duplicate monomials, or coefficients that are zero or not integers")
    return p


def _entry_from_json(obj) -> UniversalEntry:
    """Rebuild an entry from its cache object; ValueError if the object does not fit."""
    if obj.get("format") != CACHE_FORMAT:
        raise ValueError("not a cache file of this format")
    E = IndexSet.explicit(obj["index_set"])
    op = obj["op"]
    names = _var_names(E, op)
    if obj["variables"] != names:
        raise ValueError("variables do not match the family")
    levels = _family_levels(E, op)
    polys = {}
    for n in levels:
        data = obj["polynomials"][str(n)]
        polys[n] = None if data is None else _level_from_json(data, len(names))
    certified = [n for n in levels if polys[n] is None]
    if obj["certified"] != certified:
        raise ValueError("certified levels do not match the unexpanded ones")
    return UniversalEntry(E, op, names, levels, polys, certified)


# ---------------------------------------------------------------------------
# generation


def _certify_step(E: IndexSet, op: str, n: int):
    """Exact divisibility certificate for one oversized level (see module doc)."""
    target_n = _ghost_target(E, op, n)
    for p, r in factorize(n).items():
        target_m = _ghost_target(E, op, n // p)
        diff = target_n - target_m.frobenius_substitute(p)
        modulus = p**r
        for c in diff.packed.values():
            if c % modulus:
                raise InexactDivision(
                    f"ghost congruence fails at level {n}, prime {p}: coefficient {c}"
                )


def _random_eval_check(op, n, target, polys, rng):
    """Spot-check the generated level n of polys against the ghost identity
    over Z, whose ghost side is target."""
    for _ in range(3):
        vals = [rng.randint(-6, 6) for _ in range(target.nvars)]
        lhs = 0
        for d in divisors(n):
            if d in polys:
                lhs += d * polys[d].evaluate(INTEGERS, vals) ** (n // d)
        rhs = target.evaluate(INTEGERS, vals)
        if lhs != rhs:
            raise GenerationError(f"ghost identity violated at level {n} of {op}")


def generate_universal_polynomials(
    E: IndexSet, op: str, term_cap: int = DEFAULT_TERM_CAP
) -> UniversalEntry:
    """Generate one family, materializing levels up to term_cap.

    Oversized levels get the congruence certificate instead of an expansion;
    both paths verify exactness, neither ever rounds.
    """
    rng = random.Random(20210 + len(E))
    names = _var_names(E, op)
    levels = _family_levels(E, op)
    nvars = len(names)
    gradings = _gradings(E, op)
    polys: dict = {}
    certified: list[int] = []

    for n in levels:
        lower = [d for d in divisors(n) if d != n and d in polys]
        if _level_bound(E, op, n) > term_cap or any(polys[d] is None for d in lower):
            _certify_step(E, op, n)
            polys[n] = None
            certified.append(n)
            continue
        target = _ghost_target(E, op, n)
        summands = [(1, target, 1)] + [(-d, polys[d], n // d) for d in lower]
        poly_n = IntPoly.power_sum(nvars, summands, gradings).exact_div(n)
        polys[n] = poly_n
        if poly_n.num_terms() <= SYMBOLIC_VERIFY_CAP:
            _random_eval_check(op, n, target, polys, rng)
    return UniversalEntry(E, op, names, levels, polys, certified)


# ---------------------------------------------------------------------------
# cache: in-memory, write-once per key, with an optional JSON directory


_MEM: dict = {}


def _cache_path(E: IndexSet, op: str):
    root = os.environ.get(CACHE_ENV)
    if not root:
        return None
    fname = f"{op.replace(':', '_')}__{'_'.join(str(n) for n in E)}.json"
    return os.path.join(root, fname)


def get_universal(E: IndexSet, op: str) -> UniversalEntry:
    """The family (E, op) at the default term cap, from memory, disk or generation.

    A cache file that is unreadable, of another format or inconsistent is a
    miss: the family is generated and the file rewritten.  The disk cache is
    only an optimisation, so a directory that cannot be written is skipped.
    """
    key = (E.key(), op)
    entry = _MEM.get(key)
    if entry is not None:
        return entry
    path = _cache_path(E, op)
    if path and os.path.exists(path):
        try:
            with open(path) as fh:
                obj = json.load(fh)
            if obj.get("op") == op and tuple(obj.get("index_set", ())) == E.key():
                entry = _entry_from_json(obj)
        except (OSError, ValueError, KeyError, TypeError, AttributeError):
            entry = None
    if entry is None:
        entry = generate_universal_polynomials(E, op)
        if path:
            _write_cache(path, entry)
    # two racing generators produce identical entries; first write wins
    return _MEM.setdefault(key, entry)


def _write_cache(path: str, entry: UniversalEntry):
    """Write through a temp file of its own in the cache dir, then rename."""
    root, name = os.path.split(path)
    tmp = None
    try:
        os.makedirs(root, exist_ok=True)
        fd, tmp = tempfile.mkstemp(prefix=name + ".", suffix=".tmp", dir=root)
        with os.fdopen(fd, "w") as fh:
            fh.write(json.dumps(entry.to_json()))
        os.replace(tmp, path)
        tmp = None
    except OSError:
        pass
    finally:
        if tmp is not None:
            with suppress(OSError):
                os.remove(tmp)


def clear_memory_cache():
    _MEM.clear()


def integrality_report(specs):
    """Regenerate families from scratch and report materialized/certified levels."""
    report = []
    for E in specs:
        for op in ("sum", "product", "negation"):
            entry = generate_universal_polynomials(E, op)
            report.append(
                {
                    "index_set": list(E.elements),
                    "op": op,
                    "materialized": [n for n in entry.levels if entry.polys[n] is not None],
                    "certified": list(entry.certified),
                }
            )
    return report
