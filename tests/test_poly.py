"""Tests for the three-variable integer polynomial ring."""

import random
from fractions import Fraction as F

from weylstir.poly import ALPHA, BETA, R, ParamPoly


def test_constructors_and_str():
    assert str(ParamPoly.constant(0)) == "0"
    assert str(ParamPoly.constant(-3)) == "-3"
    assert str(ALPHA) == "alpha"
    assert str(ALPHA * ALPHA * BETA - ParamPoly.constant(3) * R) == "alpha^2*beta - 3*r"


def test_arithmetic_basics():
    p = ALPHA + BETA
    q = ALPHA - BETA
    assert p * q == ALPHA * ALPHA - BETA * BETA
    assert (p + q) == ParamPoly.constant(2) * ALPHA
    assert p**0 == ParamPoly.constant(1)
    assert p**3 == p * p * p
    assert ALPHA * 0 == ParamPoly.constant(0)
    assert (ALPHA - ALPHA).is_zero()


def test_int_coercion():
    assert 2 * ALPHA + ALPHA == 3 * ALPHA
    assert ALPHA + 1 == ALPHA + ParamPoly.constant(1)
    assert 1 - BETA == ParamPoly.constant(1) - BETA


def _random_poly(rng, size=4):
    p = ParamPoly.constant(0)
    for _ in range(size):
        term = ParamPoly.constant(rng.randint(-5, 5))
        for _ in range(rng.randint(0, 2)):
            term = term * rng.choice((ALPHA, BETA, R))
        p = p + term
    return p


def test_evaluation_is_a_ring_homomorphism():
    """100 random pairs: evaluation commutes with +, -, * and powers."""
    rng = random.Random(20240817)
    points = [(F(2), F(-1), F(1, 2)), (F(0), F(3), F(-2)), (F(1, 3), F(1, 3), F(5))]
    for _ in range(100):
        p = _random_poly(rng)
        q = _random_poly(rng)
        for a, b, r in points:
            pv, qv = p.evaluate(a, b, r), q.evaluate(a, b, r)
            assert (p + q).evaluate(a, b, r) == pv + qv
            assert (p - q).evaluate(a, b, r) == pv - qv
            assert (p * q).evaluate(a, b, r) == pv * qv
            assert (p**2).evaluate(a, b, r) == pv * pv


def test_equality_and_hash():
    p = ALPHA * BETA + R
    q = R + BETA * ALPHA
    assert p == q
    assert hash(p) == hash(q)
    assert p != ALPHA * BETA


def test_a_constant_hashes_as_the_int_it_equals():
    assert ParamPoly.constant(3) == 3 and 3 in {ParamPoly.constant(3)}
    assert ParamPoly() == 0 and 0 in {ParamPoly()}
    assert {ParamPoly.constant(-2): "c"}[-2] == "c"


def test_total_degrees():
    p = ALPHA * ALPHA * BETA + R
    assert p.total_degrees() == {3, 1}
