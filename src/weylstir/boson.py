"""Normal ordering of creation/annihilation strings by exhaustive rewriting.

A boson string is a word over ``'+'`` (creation) and ``'-'`` (annihilation),
written in operator order.  The single rewrite rule ``a a† -> a† a + 1``
("-+" -> "+-" plus a deletion) has a unique fixed point: a sum of normally
ordered monomials ``a†^p a^q`` with natural coefficients.

The implementation folds the string left to right, maintaining the normal
form of the processed prefix; appending a creation letter applies the rule
``a^q a† = a† a^q + q a^{q-1}`` (itself the q-fold closure of the rewrite),
appending an annihilation letter is free.  This reaches the same fixed point
as rewriting the full string, one letter at a time.

Normal forms are memoized per prefix in a bounded ``lru_cache``
(``_normal_order``, the 1 024 most recent strings and prefixes): a string
missing from it is the normal form of its prefix without the last letter,
itself looked up there, with that one letter folded on.  A catalog run
spells the same strings, and strings sharing long prefixes, at every ``n``
and in every cell, so each letter of a prefix is folded once while the
prefix stays cached.  Past ``MAX_STRING_LENGTH`` letters the fold goes on
in a loop, so the memo's recursion depth stays bounded whatever the length.
Each entry also holds the form packed into one int, the coefficient of
``a†^(q + delta) a^q`` as digit ``q`` in base ``2^DIGIT_BITS``, with ``delta``
and the coefficient sum, a digit bound: the verifier sums these ints and
takes the oracle's dicts past a bound of ``2^(DIGIT_BITS - 1)`` or across
two ``delta`` (:func:`packed_normal_order`).
:func:`normal_order_oracle` returns a fresh dict on every call, so a caller
may change what it gets.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, Tuple

# the longest string normal-ordered: the oracle's guard, and the length up
# to which the verifier's string channel runs
MAX_STRING_LENGTH = 20
DIGIT_BITS = 64  # the digit width of a packed normal form

__all__ = ["DIGIT_BITS", "MAX_STRING_LENGTH", "normal_order_oracle", "packed_normal_order"]

NormalForm = Dict[Tuple[int, int], int]


def normal_order_oracle(string: str, max_len: int = MAX_STRING_LENGTH) -> NormalForm:
    """Normally order a '+'/'-' string.

    Returns a fresh ``{(p, q): coefficient}`` meaning ``sum c a†^p a^q``;
    the coefficients are positive integers.  Strings longer than ``max_len``
    (default ``MAX_STRING_LENGTH``) are rejected to keep the state space
    bounded.
    """
    if len(string) > max_len:
        raise ValueError(
            f"string of length {len(string)} exceeds the guard ({max_len})"
        )
    coeffs, top, (_, delta, _) = _normal_order(string)
    return {(q + delta, q): c for q, c in zip(range(top, top - len(coeffs), -1), coeffs)}


def packed_normal_order(string: str) -> Tuple[int, int, int]:
    """``(packed, delta, bound)`` of a string's normal form, as the memo
    holds it: ``delta`` is the number of '+' less the number of '-'."""
    return _normal_order(string)[2]


@lru_cache(maxsize=1 << 10)
def _normal_order(string: str) -> Tuple[Tuple[int, ...], int, Tuple[int, int, int]]:
    """The normal form of ``string``, memoized per prefix: its coefficients
    by falling ``q`` from ``top`` without a gap, ``top``, and the packed
    form.  It is the form of ``string[:-1]``, looked up here, with the last
    letter folded on, in a loop past ``MAX_STRING_LENGTH`` letters."""
    if not string:
        return (1,), 0, (1, 0, 1)
    cut = min(len(string) - 1, MAX_STRING_LENGTH)
    coeffs, top, (_, delta, _) = _normal_order(string[:cut])
    for ch in string[cut:]:
        if ch == "-":
            top += 1
            delta -= 1
        elif ch == "+":
            # a†^p a^q a† = a†^(p+1) a^q + q a†^p a^(q-1): the second term
            # adds to the next coefficient down, or is a new last one
            new, carry = [], 0
            for i, c in enumerate(coeffs):
                new.append(c + carry)
                carry = c * (top - i)
            if carry:
                new.append(carry)
            coeffs = tuple(new)
            delta += 1
        else:
            raise ValueError(f"invalid letter {ch!r}; expected '+' or '-'")
    packed = 0
    for c in coeffs:
        packed = (packed << DIGIT_BITS) + c
    return coeffs, top, (packed << (DIGIT_BITS * (top + 1 - len(coeffs))), delta, sum(coeffs))
