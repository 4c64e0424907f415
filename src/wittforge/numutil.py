"""Small exact number-theory helpers used across the package."""

from __future__ import annotations

import math
import re


class WittforgeError(Exception):
    """The root of every error the library raises on purpose."""


# A numeral is 0, or an optional - and ASCII digits with no leading zero; a fraction
# is a numeral, /, and a positive numeral.  Every parser reads numbers by these.
NUMERAL = "(?:0|-?[1-9][0-9]*)"
FRACTION = f"{NUMERAL}(?:/[1-9][0-9]*)?"


def integer(text: str) -> int:
    """The integer a numeral spells, whitespace around it aside; ValueError otherwise."""
    if not re.fullmatch(NUMERAL, text.strip()):
        raise ValueError(f"not a numeral: {text!r}")
    return int(text)


def split_items(text: str, sep: str = ",", error=ValueError) -> tuple[str, ...]:
    """The stripped items of a separated list, a blank text being no items; an
    empty item, between separators or after a trailing one, raises error."""
    parts = tuple(x.strip() for x in text.split(sep)) if text.strip() else ()
    if "" in parts:
        raise error(f"empty item in {text!r}")
    return parts


def factorize(n: int) -> dict[int, int]:
    """Prime factorization by trial division. Intended for small n."""
    if n <= 0:
        raise ValueError("factorize expects a positive integer")
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def is_prime(n: int) -> bool:
    return n >= 2 and list(factorize(n)) == [n]


def divisors(n: int) -> list[int]:
    out = [1]
    for p, r in factorize(n).items():
        out = [d * p**i for d in out for i in range(r + 1)]
    return sorted(out)


def valuation(n: int, p: int) -> int:
    """p-adic valuation of a nonzero integer."""
    if n == 0:
        raise ValueError("valuation of zero is infinite")
    v = 0
    n = abs(n)
    while n % p == 0:
        n //= p
        v += 1
    return v


def inverse_mod(a: int, n: int) -> int | None:
    try:
        return pow(a, -1, n)
    except ValueError:
        return None


def crt_pair(a1: int, n1: int, a2: int, n2: int) -> int:
    """Solve x = a1 mod n1, x = a2 mod n2 for coprime moduli."""
    try:
        m1 = pow(n1, -1, n2)
    except ValueError:
        raise ValueError("crt_pair needs coprime moduli") from None
    return (a1 + (a2 - a1) * m1 % n2 * n1) % (n1 * n2)


def binomial(n: int, k: int) -> int:
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)
