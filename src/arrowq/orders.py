"""Linear orders (strict rankings) of alternatives 0..n-1.

A ranking is a tuple listing every alternative exactly once, most preferred
first.  Its lexicographic rank among all n! rankings is the canonical
ballot index used everywhere else in the package, both for truth tables and
for basis vectors.
"""

from __future__ import annotations

import math
import operator
from itertools import permutations
from typing import Sequence

from ._guards import check_guard

LinearOrder = tuple[int, ...]

MAX_ALTERNATIVES = 8


def validate_order(order: Sequence[int], alternatives: int | None = None) -> LinearOrder:
    """The order as a tuple of ints; raises unless its integer entries permute 0..n-1."""
    ranking = tuple(order)
    n = len(ranking) if alternatives is None else alternatives
    try:
        ranking = tuple(map(operator.index, ranking))
    except TypeError:  # a float, a string or another non-integer entry
        ranking = None
    if ranking is None or sorted(ranking) != list(range(n)):
        raise ValueError(f"{order!r} is not a ranking of alternatives 0..{n - 1}")
    return ranking


def enumerate_orders(n: int) -> tuple[LinearOrder, ...]:
    """All n! rankings in lexicographic order; the index is the rank."""
    if n < 1:
        raise ValueError(f"need at least one alternative, got n={n}")
    check_guard(n, MAX_ALTERNATIVES, "alternative count")
    return tuple(permutations(range(n)))


def order_rank(order: Sequence[int]) -> int:
    """Lexicographic rank of a ranking among all permutations of its length."""
    ranking = validate_order(order)
    n = len(ranking)
    rank = 0
    for i, a in enumerate(ranking):
        smaller_later = sum(1 for b in ranking[i + 1 :] if b < a)
        rank += smaller_later * math.factorial(n - 1 - i)
    return rank


def prefers(order: Sequence[int], a: int, b: int) -> bool:
    """True iff the ranking places alternative a above alternative b."""
    ranking = tuple(order)
    if a == b:
        raise ValueError(f"preference needs two distinct alternatives, got a=b={a}")
    if a not in ranking or b not in ranking:
        raise ValueError(f"alternatives ({a}, {b}) not both ranked in {ranking}")
    return ranking.index(a) < ranking.index(b)


def reverse_order(order: Sequence[int]) -> LinearOrder:
    return tuple(reversed(tuple(order)))


def alternative_pairs(n: int) -> list[tuple[int, int]]:
    """The C(n,2) unordered pairs (a, b) with a < b, in lexicographic order."""
    return [(a, b) for a in range(n) for b in range(a + 1, n)]
