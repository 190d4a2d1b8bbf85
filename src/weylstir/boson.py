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

Normal forms are memoized per string in a bounded ``lru_cache``
(``_normal_order``, the 512 most recent strings): a catalog run spells the
same strings at every ``n`` and in every cell.  :func:`normal_order_oracle`
returns a fresh copy on every call, so a caller may change what it gets.
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


@lru_cache(maxsize=1 << 9)
def _normal_order(string: str) -> Tuple[Tuple[Tuple[int, int], int], ...]:
    """The items of the normal form of ``string``, memoized, as a tuple so
    that no caller can change the cached form."""
    state: NormalForm = {(0, 0): 1}
    for ch in string:
        if ch == "-":
            state = {(p, q + 1): c for (p, q), c in state.items()}
        elif ch == "+":
            new: NormalForm = {}
            for (p, q), c in state.items():
                key = (p + 1, q)
                new[key] = new.get(key, 0) + c
                if q:
                    key = (p, q - 1)
                    new[key] = new.get(key, 0) + c * q
            state = new
        else:
            raise ValueError(f"invalid letter {ch!r}; expected '+' or '-'")
    return tuple(state.items())
