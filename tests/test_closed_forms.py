"""Closed-form families against the recurrence, plus the alternative
summation/product formulas for S(-1,2;r) and S(-2,1;0)."""

import hashlib
from fractions import Fraction as F
from math import factorial

import pytest

from weylstir import kernels
from weylstir.kernels import binomial, rising, strided_rising
from weylstir.triangles import (
    CLOSED_FORM_FAMILIES,
    build_recurrence,
    closed_form,
    closed_form_params,
)


def test_family_catalog_size():
    assert len(CLOSED_FORM_FAMILIES) == 16
    assert len(set(CLOSED_FORM_FAMILIES)) == 16


def test_diagonal_family_is_kronecker():
    for n in range(6):
        for k in range(n + 1):
            assert closed_form("S_8F_i", n, k) == (1 if n == k else 0)


def test_fixed_families_spot_rows():
    # the (1,2;0) family reproduces the involution-matching rows
    tri = build_recurrence("S", 1, 2, 0, 5)
    assert [closed_form("S_8F_iii", 5, k) for k in range(6)] == list(tri.row(5))
    # the (-2,-1;0) family gives the odd double factorials in column 1
    assert closed_form("S_8F_iv", 5, 1) == 105
    assert closed_form("S_8F_iv", 2, 1) == 1


def test_eulerian_binomial_families():
    for n in range(8):
        for k in range(n + 1):
            assert closed_form("E_iv", n, k) == factorial(n) * binomial(n + 1, 2 * k)
            assert closed_form("E_v", n, k) == factorial(n) * binomial(n + 1, 2 * k + 1)
    tri = build_recurrence("E", -1, 2, 2, 6)
    assert all(closed_form("E_v", 6, k) == tri.entry(6, k) for k in range(7))


def test_e_vi_requires_integer_r():
    """r = 0, 1/2 and -3 raise at every (n, k), inside the triangle or not,
    also when another family kept the same r object as its scaled pair."""
    for r in (0, F(1, 2), -3, F(-3), "1/2"):
        closed_form("E_i", 3, 1, r=r)  # leaves r as the kept pair
        for n, k in ((3, 1), (3, 0), (3, 3), (3, -1), (3, 4), (0, 5)):
            with pytest.raises(ValueError, match="integer r >= 1"):
                closed_form("E_vi", n, k, r=r)
        with pytest.raises(ValueError, match="integer r >= 1"):
            closed_form_params("E_vi", r=r)
    # valid values line up with the dedicated small-r families
    for n in range(7):
        for k in range(-1, n + 2):
            assert closed_form("E_vi", n, k, r=1) == closed_form("E_iv", n, k)
            assert closed_form("E_vi", n, k, r=2) == closed_form("E_v", n, k)


def test_every_family_against_recurrence():
    for family in CLOSED_FORM_FAMILIES:
        kind, a, b, rr = closed_form_params(family, r=F(2), beta=F(3)) \
            if family != "E_vi" else closed_form_params(family, r=2)
        tri = build_recurrence(kind, a, b, rr, 8)
        for n in range(9):
            for k in range(n + 1):
                got = closed_form(family, n, k, r=F(2), beta=F(3)) \
                    if family != "E_vi" else closed_form(family, n, k, r=2)
                assert got == tri.entry(n, k), (family, n, k)


def test_outside_triangle_is_zero():
    assert closed_form("S_8F_ii", 4, -1) == 0
    assert closed_form("E_i", 4, 5, r=1, beta=2) == 0


def test_error_paths_and_coercion():
    """Family first, then E_vi checks its r, then the triangle bounds, then
    r and beta are coerced (for every family)."""
    with pytest.raises(ValueError, match="unknown closed-form family"):
        closed_form("nope", 1, 5)
    with pytest.raises(TypeError):
        closed_form_params("nope", r=0.5)
    for r in (F(1, 2), 0):
        for n, k in ((3, 1), (3, 4)):
            with pytest.raises(ValueError, match="integer r >= 1"):
                closed_form("E_vi", n, k, r=r)
    for family in ("S_8F_i", "E_i", "E_vi"):
        with pytest.raises(TypeError):
            closed_form(family, 3, 1, r=0.5)
    for family in ("S_8F_i", "E_i"):
        assert closed_form(family, 3, 4, r=0.5) == 0
    with pytest.raises(TypeError):
        closed_form("E_vi", 3, 4, r=0.5)
    with pytest.raises(TypeError):
        closed_form("E_vi", 3, 1, r=3, beta=0.5)
    with pytest.raises(TypeError):
        closed_form_params("S_8F_i", r=0.5)
    with pytest.raises(ValueError, match="exact rational"):
        closed_form("S_8F_i", 3, 1, r="1.5")
    assert closed_form("E_i", 3, 1, r="1/2", beta="3") == F(-255, 8)
    assert closed_form("E_ii", 2, 2, r=3, beta=0) == 9


def _fresh_closed_form(monkeypatch, family, n, k, r, beta):
    """``closed_form`` with no scaled pair kept from an earlier call."""
    monkeypatch.setattr(kernels, "_LAST_SCALED", ((object(),), None))
    return closed_form(family, n, k, r=r, beta=beta)


def test_the_kept_scaled_pair_never_changes_a_value(monkeypatch):
    """Alternating pairs, pairs sharing one of their objects, and distinct
    objects of equal value all give what a call with nothing kept gives."""
    r1, b1, r2, b2 = F(5, 3), F(-3, 4), F(7, 2), F(2, 9)
    pairs = [(r1, b1), (r2, b2), (r1, b1), (r1, b2), (r2, b1), (r2, b2),
             (F(5, 3), F(-3, 4)), ("5/3", "-3/4"), (F(10, 6), b1), (3, 2), (3, 2)]
    for family in ("S_8F_iprime", "S_8F_iiprime", "S_8F_iiiprime", "S_4F_v", "E_i", "E_ii"):
        for n, k in ((4, 1), (5, 3), (6, 0)):
            fresh = [_fresh_closed_form(monkeypatch, family, n, k, r, b) for r, b in pairs]
            monkeypatch.setattr(kernels, "_LAST_SCALED", ((object(),), None))
            assert [closed_form(family, n, k, r=r, beta=b) for r, b in pairs] == fresh, family
    # the first two pairs give different values, so reusing one for the other shows
    assert len({_fresh_closed_form(monkeypatch, "E_i", 5, 2, r, b) for r, b in pairs[:2]}) == 2


def test_every_closed_form_value_is_pinned():
    """27 375 values: E_vi at r = 1..5, every other family on a grid of r and
    beta with mixed signs and denominators, n <= 9 and k from -1 to n + 1."""
    grid = [(r, b) for r in (F(-3, 2), F(-1), F(0), F(1, 3), F(2), F(5, 4))
            for b in (F(-2), F(-1, 2), F(1), F(3, 2))]
    lines = [
        f"{family} {r} {b} {n} {k} {closed_form(family, n, k, r=r, beta=b)}"
        for family in CLOSED_FORM_FAMILIES
        for r, b in ([(F(r), F(1)) for r in range(1, 6)] if family == "E_vi" else grid)
        for n in range(10)
        for k in range(-1, n + 2)
    ]
    assert len(lines) == 27375
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "1d9d5df5dce85b7304468b6fc344ea74809dd280cd0c45ebf7e05ed9d4ec8aa8"


# ---------------------------------------------------------------------------
# alternative summations for the Hermite-related triangles
# ---------------------------------------------------------------------------


def _s_minus1_2(r_int, n, k):
    return build_recurrence("S", -1, 2, r_int, n).entry(n, k)


def test_alternating_sum_for_s_minus1_2_1():
    """S_{n,k}(-1,2;1) = 2^-k sum_j (-1)^(k-j) (2j+1)^(rising n) / (j!(k-j)!)."""
    for n in range(11):
        for k in range(n + 1):
            total = sum(
                (-1) ** (k - j) * F(rising(F(2 * j + 1), n), factorial(j) * factorial(k - j))
                for j in range(k + 1)
            )
            assert F(1, 2**k) * total == _s_minus1_2(1, n, k)


def test_product_sum_for_s_minus1_2_1():
    """The Lah-times-Bessel product sum for S_{n,k}(-1,2;1)."""
    for n in range(11):
        for k in range(n + 1):
            total = sum(
                F(1, 2 ** (j - k)) * F(binomial(k, j - k), factorial(j) * factorial(n - j))
                for j in range(k, n + 1)
            )
            assert F(factorial(n) ** 2, factorial(k)) * total == _s_minus1_2(1, n, k)


def test_product_sum_for_s_minus1_2_r():
    """Same product sum with a positive-integer shift r."""
    for r in (1, 2, 3):
        tri = build_recurrence("S", -1, 2, r, 10)
        for n in range(11):
            for k in range(n + 1):
                total = sum(
                    F(1, 2 ** (j - k))
                    * F(binomial(k, j - k), factorial(j + r - 1) * factorial(n - j))
                    for j in range(k, n + 1)
                )
                expected = F(factorial(n) * factorial(n + r - 1), factorial(k)) * total
                assert expected == tri.entry(n, k)


def test_alternating_sum_for_s_minus2_1_0():
    """S_{n,k}(-2,1;0) = sum_j (-1)^(k-j) (j)^(rising n, stride 2)/(j!(k-j)!)."""
    tri = build_recurrence("S", -2, 1, 0, 10)
    for n in range(11):
        for k in range(n + 1):
            total = sum(
                (-1) ** (k - j) * strided_rising(F(j), n, F(2)) / (factorial(j) * factorial(k - j))
                for j in range(k + 1)
            )
            assert total == tri.entry(n, k)


def test_product_sum_for_s_minus2_1_0():
    """S_{n,k}(-2,1;0) = (k)^(rising n-k) sum_j 2^-(n-j) (n)^(rising n-j)/(n-j)! C(j,k)."""
    tri = build_recurrence("S", -2, 1, 0, 10)
    for n in range(11):
        for k in range(n + 1):
            total = sum(
                F(1, 2 ** (n - j)) * F(rising(F(n), n - j), factorial(n - j)) * binomial(j, k)
                for j in range(k, n + 1)
            )
            assert rising(F(k), n - k) * total == tri.entry(n, k)
