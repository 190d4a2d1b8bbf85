"""Independent string-rewriting normal-ordering oracle."""

from math import comb, factorial

import pytest

from weylstir.boson import MAX_STRING_LENGTH, normal_order_oracle


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


def test_anti_normal_monomial_formula():
    """a^m a†^p = sum_l l! C(m,l) C(p,l) a†^(p-l) a^(m-l), checked by
    rewriting for all m, p <= 6."""
    for m in range(7):
        for p in range(7):
            got = normal_order_oracle("-" * m + "+" * p)
            expect = {}
            for ell in range(min(m, p) + 1):
                c = factorial(ell) * comb(m, ell) * comb(p, ell)
                expect[(p - ell, m - ell)] = c
            assert got == expect


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
