"""Exact double EGF extraction versus the recurrence."""

from fractions import Fraction as F

import pytest

from weylstir import egf
from weylstir.egf import egf_coefficients
from weylstir.triangles import build_recurrence

TRIPLES = [
    (F(1), F(1), F(0)),
    (F(-1), F(1), F(0)),
    (F(-1), F(2), F(1)),
    (F(0), F(1), F(1)),
    (F(0), F(3, 2), F(-1, 2)),
    (F(1, 2), F(2), F(-1)),
    (F(2), F(-1), F(3)),
    (F(-2), F(1, 2), F(1, 3)),
]


@pytest.mark.parametrize("kind", ["Shat", "E"])
def test_egf_matches_recurrence(kind):
    for a, b, r in TRIPLES:
        rec = build_recurrence(kind, a, b, r, 8)
        C = egf_coefficients(kind, a, b, r, 8, 8)
        for n in range(9):
            for k in range(9):
                expect = rec.entry(n, k) if k <= n else F(0)
                assert C[n][k] == expect, (kind, str(a), str(b), str(r), n, k)


# 24 triples: alpha = 0 at four of them, beta < 0 at eight
WIDE_TRIPLES = [
    (F(a), F(b), F(r)) for a, b, r in [
        (0, 1, 0), (0, -2, 3), ("0", "3/2", "-1/2"), (0, "-1/3", "5/4"),
        (1, -1, 0), (-1, -2, 1), ("1/2", "-3/2", "2/3"), ("-2/3", "-1", "-1/5"),
        ("3/4", "-5/6", "7/3"), (-3, "-1/2", 0), ("5/7", "-4/3", "-9/11"), (2, -3, -2),
        (1, 1, 0), (-1, 1, 0), (-1, 2, 1), ("1/3", "2/5", "3/7"),
        ("-5/2", "7/4", "-3/8"), (3, 2, "1/2"), ("-1/6", "1/6", "5/6"), (4, "9/7", -3),
        ("2/9", 5, "-4/9"), (-4, "3/8", 1), ("7/5", "11/10", "-13/15"), ("-9/4", 3, "17/6"),
    ]
]


@pytest.mark.parametrize("kind", ["Shat", "E"])
def test_egf_matches_recurrence_to_twelve_rows_with_zeros_above_the_diagonal(kind):
    """Two more columns than rows, so the columns past the diagonal run to
    k = n + 2; those entries come out of the series and are 0."""
    for a, b, r in WIDE_TRIPLES:
        rec = build_recurrence(kind, a, b, r, 12)
        C = egf_coefficients(kind, a, b, r, 14, 12)
        assert len(C) == 13 and all(len(row) == 15 for row in C)
        for n in range(13):
            for k in range(15):
                expect = rec.entry(n, k) if k <= n else 0
                assert C[n][k] == expect, (kind, str(a), str(b), str(r), n, k)


def test_the_entries_above_the_diagonal_come_from_the_series(monkeypatch):
    """Doubling both binomial-power series (a series G with G(0) = 2 is no
    binomial power) leaves nonzero entries past the diagonal: they are
    computed, not assumed."""
    power = egf._binomial_power
    monkeypatch.setattr(egf, "_binomial_power", lambda c, a, deg: [2 * v for v in power(c, a, deg)])
    for kind in ("Shat", "E"):
        C = egf_coefficients(kind, F(1, 2), F(-3, 2), F(2, 3), 6, 4)
        assert any(C[n][k] for n in range(5) for k in range(n + 1, 7))


def test_zero_alpha_branch_is_the_exponential_limit():
    """At alpha = 0 both binomial powers are their exponential limits."""
    for kind in ("Shat", "E"):
        rec = build_recurrence(kind, 0, F(2), F(3), 7)
        C = egf_coefficients(kind, 0, F(2), F(3), 7, 7)
        assert all(C[n][k] == rec.entry(n, k) for n in range(8) for k in range(n + 1))


def test_beta_zero_is_rejected():
    with pytest.raises(ValueError):
        egf_coefficients("Shat", 1, 0, 1, 4, 4)
    with pytest.raises(ValueError):
        egf_coefficients("E", 1, 0, 1, 4, 4)


def test_unknown_kind_is_rejected():
    with pytest.raises(ValueError):
        egf_coefficients("S", 1, 1, 0, 4, 4)
