"""Word/operator expression engine: action, grading, adjoints, rendering."""

from fractions import Fraction as F

import pytest

from weylstir.operators import (
    Certificate,
    MixedExcessError,
    OperatorExpr,
    Word,
    WordPower,
    XPower,
)


def _expr(*factors):
    return OperatorExpr.single(1, *factors)


def test_word_basics():
    w = Word(F(3), F(0))
    assert w.excess == 2


def test_act_on_monomial_simple_word():
    # (x^3 D)^2 x^s = s (s + 2) x^(s + 4)
    e = _expr(WordPower(Word(F(3), F(0)), 2))
    for s in (F(0), F(1), F(5), F(-1, 2)):
        out = e.act_on_monomial(s)
        expect = s * (s + 2)
        if expect:
            assert out == {s + 4: expect}
        else:
            assert out == {}


def test_act_on_monomial_annihilates():
    # D x^0 = 0: the s = 0 probe kills the (0,0) word
    e = _expr(WordPower(Word(F(0), F(0)), 1))
    assert e.act_on_monomial(F(0)) == {}
    assert e.act_on_monomial(F(3)) == {F(2): F(3)}


def test_act_applies_rightmost_factor_first():
    # x^2 . D . x^s = s x^(s+1); reversed order D . x^2 . x^s = (s+2) x^(s+1)
    left = _expr(XPower(F(2)), WordPower(Word(F(0), F(0)), 1))
    right = _expr(WordPower(Word(F(0), F(0)), 1), XPower(F(2)))
    s = F(3)
    assert left.act_on_monomial(s) == {F(4): F(3)}
    assert right.act_on_monomial(s) == {F(4): F(5)}


def test_sum_of_terms_acts_linearly():
    e = OperatorExpr([(F(2), (XPower(F(1)),)), (F(-1), (XPower(F(1)),))])
    assert e.act_on_monomial(F(0)) == {F(1): F(1)}


def test_excess_grading():
    assert _expr(WordPower(Word(F(2), F(1)), 3)).certificate().excess == 6
    assert _expr(XPower(F(-2)), WordPower(Word(F(1), F(1)), 1)).certificate().excess == -1
    assert OperatorExpr([]).certificate().excess is None
    mixed = OperatorExpr([(1, (XPower(F(1)),)), (1, (XPower(F(2)),))])
    with pytest.raises(MixedExcessError):
        mixed.certificate()


def test_action_certificate_reads_the_excess_off_the_action():
    e = OperatorExpr([
        (F(2), (XPower(F(3, 2)), WordPower(Word(F(3, 2), F(0)), 2))),
        (F(-1), (WordPower(Word(F(1), F(1)), 1), XPower(F(3, 2)))),
    ])
    cert = e.certificate()
    excess, action = cert.excess, cert.action()
    assert excess == F(5, 2)
    assert set(action) == {excess}
    zero = OperatorExpr.zero().certificate()
    assert (zero.excess, zero.action()) == (None, {})
    mixed = OperatorExpr([(1, (XPower(F(1)),)), (1, (XPower(F(1, 3)),))])
    with pytest.raises(MixedExcessError, match="1 vs 1/3"):
        mixed.certificate()
    assert set(mixed.act_on_monomial(0)) == {F(1), F(1, 3)}


def test_adjoint_involution_and_sign():
    e = OperatorExpr(
        [(F(3), (XPower(F(2)), WordPower(Word(F(1), F(2)), 3))),
         (F(-1), (WordPower(Word(F(0), F(1)), 1),))]
    )
    assert e.adjoint().adjoint() == e
    # [(x^L D x^R)^m]^* = (-1)^m (x^R D x^L)^m
    single = _expr(WordPower(Word(F(3), F(1)), 3))
    adj = single.adjoint()
    assert adj.terms == ((F(-1), (WordPower(Word(F(1), F(3)), 3),)),)


def test_adjoint_reverses_factor_order():
    e = _expr(XPower(F(2)), WordPower(Word(F(1), F(0)), 1))
    adj = e.adjoint()
    ((coeff, factors),) = adj.terms
    assert coeff == -1
    assert isinstance(factors[0], WordPower)
    assert factors[0].word == Word(F(0), F(1))
    assert factors[1] == XPower(F(2))


def test_admissibility_and_string_length():
    good = _expr(XPower(F(2)), WordPower(Word(F(1), F(0)), 2))
    assert good.is_wc_admissible()
    assert good.boson_strings() == [(F(1), "++" + "+-" * 2)]
    bad_exp = _expr(XPower(F(-1)))
    assert not bad_exp.is_wc_admissible()
    bad_word = _expr(WordPower(Word(F(1, 2), F(1)), 1))
    assert not bad_word.is_wc_admissible()


def test_admissibility_is_read_off_the_exponents(monkeypatch):
    """Each pure power and each ``L``, ``R`` must be a natural number, a
    zero word power's included; nothing is spelled, so a power of 10^9
    letters answers at once."""

    def refuse(self, *args):
        raise AssertionError("is_wc_admissible spelled a string")

    monkeypatch.setattr(OperatorExpr, "boson_strings", refuse)
    assert _expr(XPower(F(10**9)), WordPower(Word(F(10**9), F(0)), 10**6)).is_wc_admissible()
    # per factor, although the product is x^2
    assert not _expr(XPower(F(1, 2)), XPower(F(3, 2))).is_wc_admissible()
    assert OperatorExpr.zero().is_wc_admissible()
    for bad in (_expr(XPower(F(-1))), _expr(XPower(F(1, 2))),
                _expr(XPower(F(1)), WordPower(Word(F(-1), F(2)), 0)),
                _expr(WordPower(Word(F(2), F(3, 2)), 1))):
        assert not bad.is_wc_admissible()


def test_boson_strings_is_none_unless_admissible():
    e = OperatorExpr([(F(3), (XPower(F(1)), WordPower(Word(F(0), F(2)), 2))),
                      (F(-1, 2), (WordPower(Word(F(1), F(0)), 0),))])
    assert e.boson_strings() == [(F(3), "+-++-++"), (F(-1, 2), "")]
    for bad in (_expr(XPower(F(-1))), _expr(XPower(F(1, 2))),
                _expr(XPower(F(1)), WordPower(Word(F(-1), F(2)), 0))):
        assert bad.boson_strings() is None


def test_boson_strings_spells_word_powers():
    e = _expr(XPower(F(1)), WordPower(Word(F(2), F(1)), 2))
    ((coeff, string),) = e.boson_strings()
    assert coeff == 1
    assert string == "+" + "++-+" * 2


def test_boson_strings_is_none_exactly_when_a_term_is_too_long():
    """With ``max_len`` a side is spelled only if every term has at most
    that many letters, counted from the exponents."""
    e = OperatorExpr([(F(1), (XPower(F(2)), WordPower(Word(F(1), F(2)), 3))),  # 2 + 4 * 3
                      (F(1, 2), (WordPower(Word(F(0), F(0)), 5),))])  # 5
    spelled = e.boson_strings()
    assert [len(string) for _, string in spelled] == [14, 5]
    for max_len in (14, 15, 100):
        assert e.boson_strings(max_len) == spelled
    for max_len in (0, 4, 5, 13):
        assert e.boson_strings(max_len) is None
    assert OperatorExpr.zero().boson_strings(0) == []
    # an inadmissible side stays None at any bound
    assert _expr(XPower(F(1, 2))).boson_strings(100) is None


def test_render_styles():
    e = _expr(XPower(F(2)), WordPower(Word(F(2), F(0)), 3))
    assert e.render("x") == "x^2 (x^2 D x^0)^3"
    assert e.render("adag") == "a†^2 (a†^2 a)^3"
    assert OperatorExpr([]).render() == "0"
    # a term of unit factors alone renders as its coefficient, in both styles
    unit = (XPower(F(0)), WordPower(Word(F(1), F(0)), 0))
    for c, text in ((F(-3), "-3"), (F(-3, 2), "-3/2"), (F(1), "1"), (F(-1), "-1")):
        const = OperatorExpr.single(c, *unit)
        assert const.render("x") == const.render("adag") == text
    sum_ = OperatorExpr([(F(-3, 2), unit), (F(1), (XPower(F(2)),)), (F(-1), ())])
    assert sum_.render("x") == "-3/2 + x^2 - 1"
    assert sum_.render("adag") == "-3/2 + a†^2 - 1"
    # a leading coefficient -1 is a bare sign, as a leading -2 is "-2 "
    for c, text in ((F(-1), "-x^2 - x^3"), (F(-2), "-2 x^2 - x^3")):
        neg = OperatorExpr([(c, (XPower(F(2)),)), (F(-1), (XPower(F(3)),))])
        assert neg.render("x") == text
    assert OperatorExpr.single(F(-1), XPower(F(1))).render("adag") == "-a†"


def test_scaled():
    e = _expr(XPower(F(1)))
    assert e.scaled(F(2)).act_on_monomial(F(1)) == {F(2): F(2)}
    assert e.scaled(0).terms == ()


def test_action_polynomials_simple_word():
    # (x^3 D)^2 x^s = s (s + 2) x^(s + 4)
    e = _expr(WordPower(Word(F(3), F(0)), 2))
    assert e.certificate().action() == {F(4): (F(0), F(2), F(1))}
    assert (e + e.scaled(-1)).certificate().action() == {}
    assert OperatorExpr.zero().certificate().action() == {}


def test_action_polynomials_mixed_denominators_and_degrees():
    """Terms of degree 2, 2, 1 and 0 share the shift -1/3.  Exponent and
    coefficient denominators all differ.  One more term of its own shift
    makes the expression mixed."""
    terms = [
        (F(3, 7), (WordPower(Word(F(1, 2), F(1, 3)), 2),)),
        (F(-5, 2), (XPower(F(1, 3)), WordPower(Word(F(2, 3), F(0)), 2))),
        (F(4, 9), (WordPower(Word(F(1, 2), F(1, 6)), 1),)),
        (F(5), (XPower(F(-1, 3)),)),
    ]
    odd = (F(2, 5), (WordPower(Word(F(3, 4), F(-1, 4)), 3), XPower(F(1, 5))))
    with pytest.raises(MixedExcessError, match="-1/3 vs -13/10"):
        OperatorExpr([*terms, odd]).certificate()
    e = OperatorExpr(terms)
    action = e.certificate().action()
    assert set(action) == {F(-1, 3)}
    for s in (F(0), F(1, 3), F(-1, 2), F(7, 2), F(-3), F(10, 3), F(11, 6)):
        pointwise = {}
        for shift, poly in action.items():
            value = sum(c * s**k for k, c in enumerate(poly))
            if value:
                pointwise[s + shift] = value
        assert pointwise == e.act_on_monomial(s)


def test_certificates_compare_in_integers():
    plain = _expr(XPower(F(1)))
    cert = plain.certificate()
    assert (cert.q, cert.shift, cert.denom, cert.poly) == (1, 1, 1, [1])
    # over one q with other denominators: compared by cross-multiplication
    thirds = OperatorExpr([(F(1, 3), (XPower(F(1)),)), (F(2, 3), (XPower(F(1)),))])
    assert thirds.certificate().denom == 3
    assert thirds.certificate() == cert
    assert OperatorExpr.single(F(2, 3), XPower(F(1))).certificate() != cert
    # over another q: x^(1/2) x^(1/2) acts like x
    halves = _expr(XPower(F(1, 2)), XPower(F(1, 2)))
    assert halves.q == 2 and halves.certificate() == cert
    assert halves.certificate().excess_matches(cert)
    assert not _expr(XPower(F(1, 2))).certificate().excess_matches(cert)
    # a word power: (x^(3/2) D)^2 x^s = s (s + 1/2) x^(s + 1)
    word = _expr(WordPower(Word(F(3, 2), F(0)), 2))
    cert = word.certificate()
    assert (cert.q, cert.shift, cert.excess, cert.degree, cert.denom, cert.poly) == (
        2, 2, F(1), 2, 4, [0, 1, 1]
    )
    assert cert.action() == {F(1): (F(0), F(1, 2), F(1))}
    # the same word power over q = 4: u^k reads 4^k s^k on one side, 2^k s^k
    # on the other
    assert OperatorExpr.over(4, [(1, ((6, 0, 2),))]).certificate() == cert
    assert OperatorExpr.over(4, [(F(3, 2), ((6, 0, 2),))]).certificate() != cert


def test_certificate_equality_on_one_q_and_across_q():
    """Same ``q`` and denominator, same ``q`` with another denominator, and
    another ``q``: equal, and a coefficient off by one in any place unequal,
    as their ``Fraction`` actions say."""
    # (x^(3/2) D)^2 x^s = s (s + 1/2) x^(s + 1): u = 2s, poly u + u^2 over 4
    cert = _expr(WordPower(Word(F(3, 2), F(0)), 2)).certificate()
    assert (cert.q, cert.denom, cert.poly) == (2, 4, [0, 1, 1])
    # the same action as thirds summed over the denominator 3 * 4, on one q
    thirds = OperatorExpr.over(2, [(F(1, 3), ((3, 0, 2),)), (F(2, 3), ((3, 0, 2),))])
    same_q = thirds.certificate()
    assert (same_q.q, same_q.denom, same_q.poly) == (2, 12, [0, 3, 3])
    # the same action over q = 4
    other_q = OperatorExpr.over(4, [(1, ((6, 0, 2),))]).certificate()
    assert (other_q.q, other_q.denom) == (4, 16)
    for twin in (cert, same_q, other_q):
        assert twin == cert and cert == twin
        for k in range(len(twin.poly)):
            poly = list(twin.poly)
            poly[k] += 1
            mutant = Certificate(twin.q, twin.shift, twin.denom, poly)
            assert mutant != cert and cert != mutant
            assert mutant.action() != cert.action()


def test_the_degree_is_read_off_the_packed_size():
    """A nonzero packed int whose top digit sits at ``t`` has
    ``W t <= bit_length < W t + W``, at the extreme digits too."""
    for poly, degree, packed in [
        ([], 0, 0), ([5], 0, 5), ([-1, 1], 1, 2**64 - 1), ([1, -1], 1, 1 - 2**64),
        ([0, 0, 0, 1], 3, 2**192), ([-1, 0, 0, 1], 3, 2**192 - 1),
    ]:
        cert = Certificate(1, 0, 1, poly)
        assert (cert.degree, cert.packed, cert.W, cert.poly) == (degree, packed, 64, poly)
    top = 2**63 - 1  # the largest digit of size below 2^63
    for poly in ([-top, 1], [top, -1], [top, top], [-top, -top], [top, 0, -top]):
        packed = sum(a << (64 * k) for k, a in enumerate(poly))
        cert = Certificate(1, 0, 1, packed, 64, top)
        assert (cert.degree, cert.poly) == (len(poly) - 1, poly)
    # a list with a digit of 2^62 or more packs at a wider W
    for poly in ([2**62, -(2**62)], [1, 2**100], [-(2**200)]):
        cert = Certificate(1, 0, 1, poly)
        assert cert.W > 64 and (cert.degree, cert.poly) == (len(poly) - 1, poly)


def test_integer_exponents_round_trip():
    e = OperatorExpr([(F(2), (XPower(F(1, 3)), WordPower(Word(F(-1, 2), F(2)), 3))),
                      (F(-1), (XPower(F(0)),))])
    assert e.q == 6
    assert OperatorExpr(e.terms) == e
    assert (e + e.adjoint()).q == 6
    assert (e + _expr(XPower(F(1, 4)))).q == 12
    assert (e + _expr(XPower(F(1, 4)))).terms == e.terms + ((F(1), (XPower(F(1, 4)),)),)
    assert OperatorExpr.over(6, [(2, (2, (-3, 12, 3))), (-1, (0,))]) == e
