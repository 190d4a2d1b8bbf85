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
:func:`normal_order_oracle` returns a fresh copy on every call, so a caller
may change what it gets.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, Tuple

# the longest string normal-ordered: the oracle's guard, and the length up
# to which the verifier's string channel runs
MAX_STRING_LENGTH = 20

__all__ = ["MAX_STRING_LENGTH", "normal_order_oracle"]

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
    return dict(_normal_order(string))


@lru_cache(maxsize=1 << 10)
def _normal_order(string: str) -> Tuple[Tuple[Tuple[int, int], int], ...]:
    """The items of the normal form of ``string``, memoized per prefix, as a
    tuple so that no caller can change the cached form: the form of
    ``string[:-1]``, looked up here, with the last letter folded on; a
    string longer than ``MAX_STRING_LENGTH`` folds its tail onto its first
    ``MAX_STRING_LENGTH`` letters in a loop."""
    if not string:
        return (((0, 0), 1),)
    cut = min(len(string) - 1, MAX_STRING_LENGTH)
    state = _normal_order(string[:cut])
    for ch in string[cut:]:
        if ch == "-":
            state = tuple([((p, q + 1), c) for (p, q), c in state])
        elif ch == "+":
            # a†^p a^q a† = a†^(p+1) a^q + q a†^p a^(q-1).  The items share
            # p - q and run by falling q without a gap, so the second term
            # is the first one of the next item, or a new last item
            new = []
            carry = 0
            for (p, q), c in state:
                new.append(((p + 1, q), c + carry))
                carry = c * q
            if carry:
                new.append(((p, q - 1), carry))
            state = tuple(new)
        else:
            raise ValueError(f"invalid letter {ch!r}; expected '+' or '-'")
    return state
