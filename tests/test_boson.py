"""Independent string-rewriting normal-ordering oracle."""

from collections import Counter
from functools import lru_cache
from itertools import product
from math import comb, factorial

import pytest

from weylstir.boson import MAX_STRING_LENGTH, _normal_order, normal_order_oracle


def test_empty_and_single_letters():
    assert normal_order_oracle("") == {(0, 0): 1}
    assert normal_order_oracle("+") == {(1, 0): 1}
    assert normal_order_oracle("-") == {(0, 1): 1}


def test_canonical_commutator():
    # a a† = a† a + 1
    assert normal_order_oracle("-+") == {(1, 1): 1, (0, 0): 1}
    # a† a stays put
    assert normal_order_oracle("+-") == {(1, 1): 1}


def test_number_operator_square():
    # (a† a)^2 = a†^2 a^2 + a† a
    assert normal_order_oracle("+-+-") == {(2, 2): 1, (1, 1): 1}


def _anti_normal(m, p):
    """a^m a†^p = sum_l l! C(m,l) C(p,l) a†^(p-l) a^(m-l)."""
    return {
        (p - ell, m - ell): factorial(ell) * comb(m, ell) * comb(p, ell)
        for ell in range(min(m, p) + 1)
    }


def test_anti_normal_monomial_formula():
    """The closed form, checked by rewriting for all m, p <= 6."""
    for m in range(7):
        for p in range(7):
            assert normal_order_oracle("-" * m + "+" * p) == _anti_normal(m, p)


@lru_cache(maxsize=None)
def _rewritten(string):
    """The reference: rewrite the leftmost "-+" to "+-" plus the string
    with that pair deleted, until no "-+" is left; a normally ordered
    string "+"^p "-"^q is the monomial (p, q)."""
    i = string.find("-+")
    if i < 0:
        return Counter({(string.count("+"), string.count("-")): 1})
    return _rewritten(string[:i] + "+-" + string[i + 2:]) + _rewritten(string[:i] + string[i + 2:])


_UP_TO_10 = ["".join(letters) for n in range(11) for letters in product("+-", repeat=n)]


@pytest.mark.parametrize("order", ["cold", "warm", "longest first"])
def test_the_prefix_memo_agrees_with_exhaustive_rewriting(order):
    """Every string of at most 10 letters, with the memo emptied first,
    with it filled by a first pass, and with the longer strings asked for
    before their prefixes."""
    strings = sorted(_UP_TO_10, key=len, reverse=True) if order == "longest first" else _UP_TO_10
    _normal_order.cache_clear()
    if order == "warm":
        for string in strings:
            normal_order_oracle(string)
    for string in strings:
        assert normal_order_oracle(string) == dict(_rewritten(string)), string


def test_a_long_string_folds_without_deep_recursion():
    """Past the guard, a string longer than the recursion limit normal-orders
    from a cold memo, and its prefixes from a warm one."""
    _normal_order.cache_clear()
    string = "-" * 1500 + "+" * 3
    assert normal_order_oracle(string, max_len=len(string)) == _anti_normal(1500, 3)
    for m in (1499, 1500):
        assert normal_order_oracle("-" * m + "++", max_len=m + 2) == _anti_normal(m, 2)


def test_weights_count_histories():
    # (a a†)^2: three rewriting histories merge exactly
    assert normal_order_oracle("-+-+") == {(2, 2): 1, (1, 1): 3, (0, 0): 1}


def test_length_guard():
    with pytest.raises(ValueError):
        normal_order_oracle("+" * (MAX_STRING_LENGTH + 1))
    # honoring an explicit larger cap is allowed
    assert normal_order_oracle("+" * 30, max_len=30) == {(30, 0): 1}


def test_alphabet_guard():
    with pytest.raises(ValueError):
        normal_order_oracle("+a-")


def test_each_call_returns_a_fresh_normal_form():
    first = normal_order_oracle("-+-+")
    first[(0, 0)] = 99
    first[(5, 5)] = 1
    assert normal_order_oracle("-+-+") == {(2, 2): 1, (1, 1): 3, (0, 0): 1}
