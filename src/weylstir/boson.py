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
"""

from __future__ import annotations

from typing import Dict, Tuple

# the longest string normal-ordered: the oracle's guard, and the length up
# to which the verifier's string channel runs
MAX_STRING_LENGTH = 20

__all__ = ["MAX_STRING_LENGTH", "normal_order_oracle"]

NormalForm = Dict[Tuple[int, int], int]


def normal_order_oracle(string: str, max_len: int = MAX_STRING_LENGTH) -> NormalForm:
    """Normally order a '+'/'-' string.

    Returns ``{(p, q): coefficient}`` meaning ``sum c a†^p a^q``; the
    coefficients are positive integers.  Strings longer than ``max_len``
    (default ``MAX_STRING_LENGTH``) are rejected to keep the state space
    bounded.
    """
    if len(string) > max_len:
        raise ValueError(
            f"string of length {len(string)} exceeds the guard ({max_len})"
        )
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
    return state
