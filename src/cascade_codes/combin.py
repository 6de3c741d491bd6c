# Subset enumeration, lexicographic ranking, and the ind counting function
# behind every sign exponent and column label

from __future__ import annotations

import math
from functools import lru_cache
from itertools import combinations
from typing import Iterable

# max of the empty set; any comparison x <= NEG_INF is False
NEG_INF = float("-inf")

Subset = tuple[int, ...]


def set_max(s: Iterable[int]) -> float | int:
    """Maximum of a set of integers, with max(empty) = NEG_INF."""
    s = tuple(s)
    return max(s) if s else NEG_INF


def binomial(ell: int, m: int) -> int:
    """Binomial coefficient C(ell, m), zero outside 0 <= m <= ell.

    C(ell, 0) is 1 for every ell, including negative ones, matching the
    empty-product convention; this is what makes the degenerate d = k
    parameter counts come out right.
    """
    if m < 0:
        return 0
    if m == 0:
        return 1
    if ell < m:
        return 0
    return math.comb(ell, m)


def subsets_lex(d: int, m: int) -> list[Subset]:
    """All m-subsets of [1..d] as sorted tuples, in lexicographic order.

    Args:
        d: Ambient set size; subsets are drawn from {1, ..., d}.
        m: Subset size.

    Returns:
        A list of C(d, m) strictly increasing tuples; m=0 yields [()].

    Raises:
        ValueError: If m is outside [0, d]; asking for oversized subsets is
            a caller bug, not an empty result.
    """
    if d < 0 or m < 0 or m > d:
        raise ValueError(f"invalid subset size m={m} for ambient [1..{d}]")
    return list(combinations(range(1, d + 1), m))


@lru_cache(maxsize=1 << 12)
def subset_rank(d: int, s: Subset) -> int:
    """Position of the sorted tuple ``s`` within subsets_lex(d, len(s)).

    Counts, for each member, the subsets that branch off below it with a
    smaller element at that position. Cached: the segment code asks for the
    same few ranks many times.
    """
    m = len(s)
    rank = 0
    prev = 0
    for i, elem in enumerate(s):
        for c in range(prev + 1, elem):
            rank += binomial(d - c, m - i - 1)
        prev = elem
    return rank


def ind_count(s: Iterable[int], x: int | float) -> int:
    """Number of elements of ``s`` not exceeding ``x`` (x need not be in s)."""
    return sum(1 for y in s if y <= x)
