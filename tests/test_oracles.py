"""Exact combinatorial counts versus literal walks and the triangles."""

from itertools import permutations, product

import pytest

from weylstir.oracles import COMBINATORIAL_TAGS, combinatorial_oracle
from weylstir.triangles import build_recurrence


def test_tag_catalog():
    assert COMBINATORIAL_TAGS == (
        "SubsetPartitions",
        "CycleCounts",
        "LahLists",
        "Descents",
        "SignedDescents",
    )


def test_small_hand_counts():
    # partitions of {1,2,3} into 2 blocks: 12|3, 13|2, 23|1
    assert combinatorial_oracle("SubsetPartitions", 3, 2) == 3
    # permutations of 4 symbols with 2 cycles: unsigned c(4,2) = 11
    assert combinatorial_oracle("CycleCounts", 4, 2) == 11
    # ordered set partitions of 3 into 2 lists: 6
    assert combinatorial_oracle("LahLists", 3, 2) == 6
    # permutations of 123 with one descent: 132, 213, 231, 312
    assert combinatorial_oracle("Descents", 3, 1) == 4
    # signed permutations of {1,2} with one descent (virtual leading zero)
    assert combinatorial_oracle("SignedDescents", 2, 1) == 6


def test_row_totals():
    # all signed permutations of n symbols: 2^n n!
    assert sum(combinatorial_oracle("SignedDescents", 4, k) for k in range(5)) == 384
    assert sum(combinatorial_oracle("Descents", 5, k) for k in range(6)) == 120


_PAIRINGS = [
    ("SubsetPartitions", "S", 0, 1, 0),
    ("CycleCounts", "S", -1, 0, 0),
    ("LahLists", "S", -1, 1, 0),
    ("Descents", "E", 0, 1, 1),
    ("SignedDescents", "E", 0, 2, 1),
]


@pytest.mark.parametrize("tag,kind,a,b,r", _PAIRINGS)
def test_enumeration_matches_triangle(tag, kind, a, b, r):
    tri = build_recurrence(kind, a, b, r, 7)
    for n in range(8):
        for k in range(n + 1):
            assert combinatorial_oracle(tag, n, k) == tri.entry(n, k), (tag, n, k)


def test_signed_descent_count_matches_a_walk_of_every_signed_word():
    for n in range(7):
        counts = [0] * (n + 1)
        for perm in permutations(range(1, n + 1)):
            for signs in product((1, -1), repeat=n):
                word = (0,) + tuple(s * v for s, v in zip(signs, perm))
                counts[sum(word[i] > word[i + 1] for i in range(n))] += 1
        assert [combinatorial_oracle("SignedDescents", n, k) for k in range(n + 1)] == counts


def _cycle_count(perm):
    seen = [False] * len(perm)
    cycles = 0
    for start in range(len(perm)):
        if not seen[start]:
            cycles += 1
            j = start
            while not seen[j]:
                seen[j] = True
                j = perm[j]
    return cycles


def test_cycle_and_descent_counts_match_a_walk_of_every_permutation():
    for n in range(8):
        cycles = [0] * (n + 1)
        descents = [0] * (n + 1)
        for perm in permutations(range(n)):
            cycles[_cycle_count(perm)] += 1
            descents[sum(perm[i] > perm[i + 1] for i in range(n - 1))] += 1
        assert [combinatorial_oracle("CycleCounts", n, k) for k in range(n + 1)] == cycles
        assert [combinatorial_oracle("Descents", n, k) for k in range(n + 1)] == descents


@pytest.mark.parametrize("tag,row", [
    ("SubsetPartitions", [0, 1, 255, 3025, 7770, 6951, 2646, 462, 36, 1]),
    ("CycleCounts", [0, 40320, 109584, 118124, 67284, 22449, 4536, 546, 36, 1]),
    ("LahLists", [0, 362880, 1451520, 1693440, 846720, 211680, 28224, 2016, 72, 1]),
    ("Descents", [1, 502, 14608, 88234, 156190, 88234, 14608, 502, 1, 0]),
    ("SignedDescents", [1, 19673, 1756340, 21707972, 69413294, 69413294, 21707972,
                        1756340, 19673, 1]),
])
def test_rows_at_the_guard_are_pinned(tag, row):
    assert [combinatorial_oracle(tag, 9, k) for k in range(10)] == row


def test_out_of_range_k_is_zero():
    assert combinatorial_oracle("Descents", 4, -1) == 0
    assert combinatorial_oracle("Descents", 4, 9) == 0


def test_n_guard():
    with pytest.raises(ValueError):
        combinatorial_oracle("SubsetPartitions", 10, 2)
    with pytest.raises(ValueError):
        combinatorial_oracle("NoSuchTag", 3, 1)
