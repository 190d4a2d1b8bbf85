"""Exact double EGF extraction versus the recurrence."""

from fractions import Fraction as F

import pytest

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
