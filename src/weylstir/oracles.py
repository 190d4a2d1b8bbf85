"""Exact object counts for small combinatorial triangles.

These exist to cross-check triangle entries against counts obtained by a
completely independent route: counting the objects themselves.  No count
touches the triangle recurrence; the guard caps ``n`` at 9.

Tags:

- ``SubsetPartitions``: partitions of an n-set into k nonempty blocks;
- ``CycleCounts``: permutations of n letters with k cycles;
- ``LahLists``: partitions of an n-set into k nonempty linearly ordered
  blocks (each block's orderings counted exactly);
- ``Descents``: permutations of {1..n} with k descents;
- ``SignedDescents``: signed permutations with k descents, where position 0
  carries a virtual 0 (the hyperoctahedral convention).

The first three share one walk over the set partitions of an n-set.  A
partition with blocks of sizes ``s_1..s_k`` counts once for
``SubsetPartitions``, ``prod (s_i - 1)!`` times for ``CycleCounts`` (a
permutation is its set of cycles, and a block of size s closes into a cycle
in (s - 1)! ways) and ``prod s_i!`` times for ``LahLists``.

The two descent tags share one word count: words are built letter by letter
after the virtual leading 0, over the states (letters used, last letter),
with each letter taken with every sign in ``signs`` (``(1,)`` for
``Descents``, ``(1, -1)`` for ``SignedDescents``).  For unsigned words the
leading 0 lies below every letter, so it adds no descent.  A state keeps
its counts by descent number as the digits of one int, ``width`` bits
each, with ``width`` the bit length of ``2^n n!``; a descent shifts the int
by ``width`` bits.  No digit can carry, because no count, nor any sum of
counts, exceeds the ``2^n n!`` signed words.
"""

from __future__ import annotations

from functools import lru_cache
from math import factorial
from typing import Dict, List, Tuple

COMBINATORIAL_TAGS = (
    "SubsetPartitions",
    "CycleCounts",
    "LahLists",
    "Descents",
    "SignedDescents",
)

_MAX_N = 9

__all__ = ["COMBINATORIAL_TAGS", "combinatorial_oracle"]


@lru_cache(maxsize=None)
def _partition_dists(n: int) -> Tuple[Tuple[int, ...], Tuple[int, ...], Tuple[int, ...]]:
    """(set partitions, permutations by cycles, ordered-list partitions),
    each by number of blocks."""
    subset = [0] * (n + 1)
    cycle = [0] * (n + 1)
    lah = [0] * (n + 1)
    sizes: List[int] = []

    def place(i: int) -> None:
        if i == n:
            k = len(sizes)
            subset[k] += 1
            cycles = orderings = 1
            for s in sizes:
                cycles *= factorial(s - 1)
                orderings *= factorial(s)
            cycle[k] += cycles
            lah[k] += orderings
            return
        for b in range(len(sizes)):
            sizes[b] += 1
            place(i + 1)
            sizes[b] -= 1
        sizes.append(1)
        place(i + 1)
        sizes.pop()

    place(0)
    return tuple(subset), tuple(cycle), tuple(lah)


@lru_cache(maxsize=None)
def _descent_dist(n: int, signs: Tuple[int, ...]) -> Tuple[int, ...]:
    # no digit can carry: no count exceeds the 2**n * n! signed words
    width = (2 ** n * factorial(n)).bit_length()
    # words[(used, last)]: words on the letter set ``used`` (a bit mask)
    # ending in ``last``, by descents, as base-2**width digits
    words: Dict[Tuple[int, int], int] = {(0, 0): 1}
    letters = [(1 << v, s * v) for v in range(1, n + 1) for s in signs]
    for _ in range(n):
        longer: Dict[Tuple[int, int], int] = {}
        for (used, last), counts in words.items():
            descended = counts << width
            for bit, letter in letters:
                if used & bit:
                    continue
                key = (used | bit, letter)
                longer[key] = longer.get(key, 0) + (descended if last > letter else counts)
        words = longer
    total = sum(words.values())
    mask = (1 << width) - 1
    return tuple(total >> (width * k) & mask for k in range(n + 1))


_DISPATCH = {
    "SubsetPartitions": lambda n: _partition_dists(n)[0],
    "CycleCounts": lambda n: _partition_dists(n)[1],
    "LahLists": lambda n: _partition_dists(n)[2],
    "Descents": lambda n: _descent_dist(n, (1,)),
    "SignedDescents": lambda n: _descent_dist(n, (1, -1)),
}


def combinatorial_oracle(tag: str, n: int, k: int) -> int:
    """Exact count for the given tag at (n, k); guard: ``n <= 9``."""
    if tag not in _DISPATCH:
        raise ValueError(f"unknown oracle tag {tag!r}; expected one of {COMBINATORIAL_TAGS}")
    if n < 0 or n > _MAX_N:
        raise ValueError(f"oracle enumeration is capped at n <= {_MAX_N}, got {n}")
    if k < 0:
        return 0
    dist = _DISPATCH[tag](n)
    return dist[k] if k < len(dist) else 0
