"""Brute-force enumeration oracles for small combinatorial triangles.

These exist to cross-check triangle entries against counts obtained by a
completely independent route: direct enumeration of the counted objects.
They are intentionally naive (and therefore trustworthy); the guard caps
``n`` at 9.

Tags:

- ``SubsetPartitions``: partitions of an n-set into k nonempty blocks;
- ``CycleCounts``: permutations of n letters with k cycles;
- ``LahLists``: partitions of an n-set into k nonempty linearly ordered
  blocks (each block's orderings counted exactly);
- ``Descents``: permutations of {1..n} with k descents;
- ``SignedDescents``: signed permutations with k descents, where position 0
  carries a virtual 0 (the hyperoctahedral convention).

The signed count does not walk the ``2^n n!`` signed words one by one: it
counts them exactly, letter by letter, over the states (letters used, last
signed letter, descents so far).  Like the others it never touches the
triangle recurrence.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import permutations
from math import factorial
from typing import Dict, Tuple

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
def _partition_dists(n: int) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    """(set-partition counts by #blocks, ordered-list-partition counts)."""
    subset = [0] * (n + 1)
    lah = [0] * (n + 1)
    if n == 0:
        subset[0] = 1
        lah[0] = 1
        return tuple(subset), tuple(lah)

    sizes = []

    def place(i: int) -> None:
        if i == n:
            k = len(sizes)
            subset[k] += 1
            orderings = 1
            for s in sizes:
                orderings *= factorial(s)
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
    return tuple(subset), tuple(lah)


@lru_cache(maxsize=None)
def _cycle_dist(n: int) -> Tuple[int, ...]:
    counts = [0] * (n + 1)
    if n == 0:
        counts[0] = 1
        return tuple(counts)
    for perm in permutations(range(n)):
        seen = [False] * n
        cycles = 0
        for start in range(n):
            if seen[start]:
                continue
            cycles += 1
            j = start
            while not seen[j]:
                seen[j] = True
                j = perm[j]
        counts[cycles] += 1
    return tuple(counts)


@lru_cache(maxsize=None)
def _descent_dist(n: int) -> Tuple[int, ...]:
    counts = [0] * (n + 1)
    if n == 0:
        counts[0] = 1
        return tuple(counts)
    for perm in permutations(range(1, n + 1)):
        des = sum(1 for i in range(n - 1) if perm[i] > perm[i + 1])
        counts[des] += 1
    return tuple(counts)


@lru_cache(maxsize=None)
def _signed_descent_dist(n: int) -> Tuple[int, ...]:
    # words[(used, last, descents)]: signed words on the letter set ``used``
    # (a bit mask) ending in ``last``, after the virtual leading 0
    words: Dict[Tuple[int, int, int], int] = {(0, 0, 0): 1}
    for _ in range(n):
        longer: Dict[Tuple[int, int, int], int] = {}
        for (used, last, des), count in words.items():
            for v in range(1, n + 1):
                if used >> v & 1:
                    continue
                for w in (v, -v):
                    key = (used | 1 << v, w, des + (last > w))
                    longer[key] = longer.get(key, 0) + count
        words = longer
    counts = [0] * (n + 1)
    for (_, _, des), count in words.items():
        counts[des] += count
    return tuple(counts)


_DISPATCH = {
    "SubsetPartitions": lambda n: _partition_dists(n)[0],
    "LahLists": lambda n: _partition_dists(n)[1],
    "CycleCounts": _cycle_dist,
    "Descents": _descent_dist,
    "SignedDescents": _signed_descent_dist,
}


def combinatorial_oracle(tag: str, n: int, k: int) -> int:
    """Exhaustive count for the given tag at (n, k); guard: ``n <= 9``."""
    if tag not in _DISPATCH:
        raise ValueError(f"unknown oracle tag {tag!r}; expected one of {COMBINATORIAL_TAGS}")
    if n < 0 or n > _MAX_N:
        raise ValueError(f"oracle enumeration is capped at n <= {_MAX_N}, got {n}")
    if k < 0:
        return 0
    dist = _DISPATCH[tag](n)
    return dist[k] if k < len(dist) else 0
