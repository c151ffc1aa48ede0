"""Executable permutation-polynomial checks behind the trapdoor design.

Everything here works on element ints of a gf2n.Field.  The brute-force
checks double as exhaustive oracles for parameter validation and tests;
CentralMap is the hidden bijection the whole scheme is built around.
"""

from __future__ import annotations

import math

from .gf2n import Field

# enumeration guard: a 2^n occupancy table beyond this is not practical here
ENUMERATION_LIMIT = 24


def is_permutation_bruteforce(f, field: Field) -> bool:
    """True iff f: element int -> element int is injective on all of F(2^n)."""
    if field.n > ENUMERATION_LIMIT:
        raise ValueError(f"field too large to enumerate (n > {ENUMERATION_LIMIT})")
    seen = bytearray(field.order)
    for x in range(field.order):
        y = f(x)
        if seen[y]:
            return False
        seen[y] = 1
    return True


def frobenius_trinomial_is_permutation(k: int, n: int) -> bool:
    """Whether x^(2^k + 1) + x^(2^k) + x permutes F(2^n).

    Shifting the argument by one collapses the map to x^(2^k + 1) + 1, so
    it is a bijection exactly when 2^k + 1 is coprime to 2^n - 1.
    """
    if not 1 <= k < n:
        raise ValueError("need 1 <= k < n")
    return math.gcd((1 << k) + 1, (1 << n) - 1) == 1


def inner_term_never_zero(field: Field, alpha: int) -> bool:
    """Exhaustively check that x^(2^m) + x + alpha has no root.

    Holds whenever alpha has trace 1, because x^(2^m) + x always has trace
    zero while the trace of the whole expression is then 1.
    """
    if field.n > ENUMERATION_LIMIT:
        raise ValueError(f"field too large to enumerate (n > {ENUMERATION_LIMIT})")
    if not 0 <= alpha < field.order:
        raise ValueError("alpha out of range")
    return all(field.frobenius(x) ^ x ^ alpha for x in range(field.order))


class CentralMap:
    """The hidden permutation (x^(2^m) + x + a)^(2^m - 1) + x with Tr(a) = 1.

    The inner term never vanishes (trace argument above), and the map
    inverts with a single exponentiation because (2^m - 1)(2^m + 1) is
    congruent to 1 mod 2^n - 1 when n = 2m - 1.
    """

    __slots__ = ("field", "alpha")

    def __init__(self, field: Field, alpha: int):
        if not 0 <= alpha < field.order:
            raise ValueError("alpha out of range")
        if field.trace(alpha) != 1:
            raise ValueError("alpha must have trace 1")
        self.field = field
        self.alpha = alpha

    def evaluate(self, x: int) -> int:
        f = self.field
        inner = f.frobenius(x) ^ x ^ self.alpha
        return f.pow(inner, (1 << f.m) - 1) ^ x

    __call__ = evaluate

    def __repr__(self) -> str:
        return f"CentralMap(n={self.field.n})"
