"""Arithmetic kernel tests: rationals, binomials, strided powers, the
desingularized Gauss sum."""

import re
from fractions import Fraction as F
from math import factorial

import pytest

from weylstir import kernels
from weylstir.kernels import (
    as_rational,
    binomial,
    binomial_general,
    falling,
    rising,
    scale_params,
    strided_falling,
    strided_rising,
    hyp2f1_hat,
)
from weylstir.poly import ParamPoly


def test_as_rational_accepts_exact_forms():
    assert as_rational(3) == F(3)
    assert as_rational("7/2") == F(7, 2)
    assert as_rational("-7/2") == F(-7, 2)
    assert as_rational(F(1, 3)) == F(1, 3)
    assert as_rational("  4 ") == F(4)


def test_as_rational_rejects_inexact_forms():
    with pytest.raises(TypeError):
        as_rational(0.5)
    with pytest.raises(ValueError):
        as_rational("0.5")
    with pytest.raises(ValueError):
        as_rational("1e3")


@pytest.mark.parametrize("text, value", [
    ("3/4", F(3, 4)),
    ("-3/4", F(-3, 4)),
    ("  4 ", F(4)),
    ("+3", F(3)),
    ("1_000", F(1000)),
    ("\u0663", F(3)),  # ARABIC-INDIC DIGIT THREE
])
def test_as_rational_accepts_the_strings_fraction_accepts(text, value):
    got = as_rational(text)
    assert type(got) is F and got == value


@pytest.mark.parametrize("text, error, message", [
    ("0.5", ValueError, "not an exact rational literal: '0.5'"),
    ("1e3", ValueError, "not an exact rational literal: '1e3'"),
    ("1/-2", ValueError, "Invalid literal for Fraction: '1/-2'"),
    ("1/ 2", ValueError, "Invalid literal for Fraction: '1/ 2'"),
    ("--3", ValueError, "Invalid literal for Fraction: '--3'"),
    ("", ValueError, "Invalid literal for Fraction: ''"),
    ("1/0", ZeroDivisionError, "Fraction(1, 0)"),
    ("\u00b2", ValueError, "Invalid literal for Fraction: '\u00b2'"),  # SUPERSCRIPT TWO
])
def test_as_rational_rejects_strings_with_the_same_errors(text, error, message):
    with pytest.raises(error) as info:
        as_rational(text)
    assert str(info.value) == message


def test_scale_params_clears_denominators():
    assert scale_params("1/2", 3, "-2/3") == (6, (3, 18, -4))
    assert scale_params(F(0), -5) == (1, (0, -5))
    assert scale_params(F(3, 4)) == (4, (3,))
    with pytest.raises(TypeError):
        scale_params(0.5)
    # ints and Fractions are used as they are, every other value as
    # as_rational reads it: strings parsed, bools as 1 and 0, floats refused
    assert scale_params(7, F(-5, 6), "1/4", True, False) == (12, (84, -10, 3, 12, 0))
    for value, error in ((0.5, TypeError), ("0.5", ValueError), ("1/0", ZeroDivisionError)):
        with pytest.raises(error) as expected:
            as_rational(value)
        with pytest.raises(error, match=f"^{re.escape(str(expected.value))}$"):
            scale_params(3, value)


def _forget_the_last_call(monkeypatch):
    monkeypatch.setattr(kernels, "_LAST_SCALED", ((object(),), None))


def test_scale_params_keeps_the_result_for_the_same_objects(monkeypatch):
    _forget_the_last_call(monkeypatch)
    half, third = F(1, 2), F(-1, 3)
    first = scale_params(half, third)
    assert first == (6, (3, -2))
    assert scale_params(half, third) is first
    # a prefix or an extension of the last arguments is another call
    assert scale_params(half) == (2, (1,))
    assert scale_params(half, third, half) == (6, (3, -2, 3))
    assert scale_params(half, third) == first


def test_scale_params_compares_by_identity_not_by_value(monkeypatch):
    _forget_the_last_call(monkeypatch)
    # a float equal to the last Fraction is still refused
    assert scale_params(F(1, 2)) == (2, (1,))
    with pytest.raises(TypeError):
        scale_params(0.5)
    one = 1
    assert scale_params(F(1, 2), one) == (2, (1, 2))
    with pytest.raises(TypeError):
        scale_params(0.5, one)
    # a string equal in value to the last Fraction is parsed afresh
    half = F(1, 2)
    scale_params(half)
    parsed = []
    monkeypatch.setattr(kernels, "as_rational", lambda v: parsed.append(v) or as_rational(v))
    assert scale_params("1/2") == (2, (1,))
    assert parsed == ["1/2"]
    # True after 1 is its own call, and scales to the int 1
    of_one = scale_params(1)
    scaled = scale_params(True)
    assert scaled == (1, (1,)) and scaled is not of_one and type(scaled[1][0]) is int


def test_scale_params_of_nothing_is_one_even_first(monkeypatch):
    _forget_the_last_call(monkeypatch)
    assert scale_params() == (1, ())
    scale_params(F(3, 4))
    assert scale_params() == (1, ())
    assert scale_params() == (1, ())


def test_binomial_small_table():
    assert [binomial(4, k) for k in range(6)] == [1, 4, 6, 4, 1, 0]
    assert binomial(0, 0) == 1
    assert binomial(3, -1) == 0


def test_binomial_negative_upper_argument():
    # C(n, k) = n(n-1)...(n-k+1)/k! extends to negative n
    assert binomial(-1, 3) == -1
    assert binomial(-2, 2) == 3
    assert binomial(-3, 1) == -3
    for n in range(-6, 0):
        for k in range(6):
            assert binomial(n, k) == falling(F(n), k) / factorial(k)


def test_binomial_general_matches_integer_binomial():
    for n in range(8):
        for k in range(8):
            assert binomial_general(F(n), k) == binomial(n, k)
    assert binomial_general(F(1, 2), 2) == F(-1, 8)
    assert binomial_general(F(-3, 2), 1) == F(-3, 2)


def test_strided_powers():
    # (r)^(falling 3, alpha) = r (r - alpha) (r - 2 alpha)
    assert strided_falling(F(5), 3, F(2)) == 5 * 3 * 1
    assert strided_falling(F(5), 0, F(2)) == 1
    assert strided_rising(F(1), 4, F(1)) == 24
    # stride zero degenerates to plain powers
    assert strided_falling(F(3), 4, F(0)) == 81
    # rising/falling with unit stride agree with the classical factorials
    assert falling(F(6), 3) == 120
    assert rising(F(2), 3) == 24
    assert strided_rising(F(2), 3, F(1)) == rising(F(2), 3)


def test_strided_duality():
    # (r)^(rising m, alpha) = (-1)^m (-r)^(falling m, alpha)
    for r in (F(3), F(-1, 2), F(0)):
        for a in (F(1), F(-2), F(1, 3)):
            for m in range(6):
                assert strided_rising(r, m, a) == (-1) ** m * strided_falling(-r, m, a)


def test_hyp2f1_hat_known_value():
    assert hyp2f1_hat(1, -1, -3, 2) == -1


def test_hyp2f1_hat_at_z_equals_one_is_chu_vandermonde():
    """At z = 1 the desingularized sum collapses to a rising factorial,
    including at the c values where the classical 2F1 form is undefined."""
    for N in range(6):
        for b in (F(-1), F(2), F(1, 2), F(-7, 2)):
            for c in (F(0), F(-1), F(-3), F(5, 2), F(-N)):
                assert hyp2f1_hat(N, b, c, 1) == rising(c - b, N)


def test_hyp2f1_hat_factors_through_classical_series():
    """Whenever (c)_k never vanishes, the sum equals (c)_N * 2F1(-N, b; c; z)."""
    for N in range(5):
        for b in (F(1), F(-2), F(3, 2)):
            for c in (F(1, 3), F(5, 2), F(7)):
                for z in (F(0), F(2), F(-1, 2)):
                    classical = sum(
                        rising(F(-N), k) * rising(b, k) * z**k
                        / (rising(c, k) * factorial(k))
                        for k in range(N + 1)
                    )
                    assert hyp2f1_hat(N, b, c, z) == rising(c, N) * classical


def test_hyp2f1_hat_stride_scales_b():
    """With stride q, b is read as b / q and the sum comes back times q^N."""
    for N in range(6):
        for q in (1, 2, 3, 7):
            for B in (-5, 0, 4, 9):
                for c, z in ((F(-3), 2), (F(1, 2), F(-1, 3))):
                    assert hyp2f1_hat(N, B, c, z, q) == q**N * hyp2f1_hat(N, F(B, q), c, z)


def test_hyp2f1_hat_at_z_zero():
    for N in range(5):
        assert hyp2f1_hat(N, F(7), F(1, 2), 0) == rising(F(1, 2), N)


def test_hyp2f1_hat_equals_its_defining_sum():
    """The one-pass evaluation against the sum term by term, at integer and
    rational b and c (nonpositive c included), strides 1..3 and a few z."""

    def direct(N, b, c, z, stride):
        return sum(
            (-1) ** k * binomial(N, k) * strided_rising(b, k, stride)
            * stride ** (N - k) * rising(c + k, N - k) * z**k
            for k in range(N + 1)
        )

    for N in range(11):
        for stride in (1, 2, 3):
            for b in (-4, 0, 3, F(5, 2), F(-7, 3)):
                for c in (-N, -2, 0, 5, F(1, 2), F(-9, 4)):
                    for z in (-1, 2, F(1, 3)):
                        assert hyp2f1_hat(N, b, c, z, stride) == direct(N, b, c, z, stride)
    b = ParamPoly.r() * 2 - ParamPoly.beta()
    for N in range(6):
        assert hyp2f1_hat(N, b, -3, 2, 2) == direct(N, b, -3, 2, 2)
