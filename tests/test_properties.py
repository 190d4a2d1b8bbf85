"""Property tests: at random rational parameters every scheme, the EGFs and
the closed forms with a free parameter reproduce the recurrence, and at
random operator expressions the action certificate is the product of its
linear factors, summed.

The numeric schemes compute over the parameters scaled to integers, so
mixed denominators, zero and sign changes are what these tests vary.
Runs only when ``hypothesis`` is installed.
"""

import os
import subprocess
import sys
import textwrap
from fractions import Fraction as F
from math import lcm
from pathlib import Path
from unittest import mock

import pytest

# database=None keeps no example database, but Hypothesis also caches the
# constants it reads from local source files; keep that inside pytest's own
# cache directory instead of a new .hypothesis/ in the working directory
os.environ.setdefault(
    "HYPOTHESIS_STORAGE_DIRECTORY",
    str(Path(__file__).resolve().parent.parent / ".pytest_cache" / "hypothesis"),
)
hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from weylstir import boson  # noqa: E402
from weylstir.boson import _normal_form, same_normal_form  # noqa: E402
from weylstir.egf import egf_coefficients  # noqa: E402
from weylstir.operators import Certificate, MixedExcessError, OperatorExpr  # noqa: E402
from weylstir.triangles import (  # noqa: E402
    Triangle,
    build_recurrence,
    closed_form,
    closed_form_params,
    decompose_classical,
    entry_by_sum,
    identity_triangle,
    shift_r,
    triangle_by_decomposition,
    triangle_by_sum,
    triangle_by_transform,
    triangle_product,
)

rationals = st.builds(F, st.integers(-20, 20), st.integers(1, 12))
nonzero = rationals.filter(bool)
rows = st.integers(0, 8)
SETTINGS = settings(deadline=None, database=None, max_examples=150)

FREE_FAMILIES = (
    "S_8F_iprime", "S_8F_iiprime", "S_8F_iiiprime", "S_8F_ivprime",
    "S_4F_v", "S_4F_vi", "E_i", "E_ii", "E_vi",
)


@SETTINGS
@given(rationals, rationals, rationals, rows)
def test_schemes_agree_with_the_recurrence(a, b, r, n):
    s = build_recurrence("S", a, b, r, n)
    assert triangle_by_decomposition(a, b, r, n) == s
    assert decompose_classical(n, n // 2, a, b, r) == s.entry(n, n // 2)
    for kind in ("Shat", "E"):
        rec = build_recurrence(kind, a, b, r, n)
        assert triangle_by_sum(kind, a, b, r, n) == rec
        assert triangle_by_transform(kind, a, b, r, n) == rec
        assert entry_by_sum(kind, n, n // 2, a, b, r) == rec.entry(n, n // 2)


@SETTINGS
@given(rationals, rationals, rationals, rows)
def test_scheme_triangles_compare_in_integers(a, b, r, n):
    """Each scheme's integer triangle equals the recurrence's Fraction
    triangle, its JSON read-back and a plain Triangle of a scheme's own
    rows, in both operand orders."""
    pairs = [
        (build_recurrence("S", a, b, r, n), triangle_by_decomposition(a, b, r, n)),
        (identity_triangle(a, n),
         triangle_product(build_recurrence("S", a, b, r, n), build_recurrence("S", b, a, -r, n))),
    ]
    for kind in ("Shat", "E"):
        rec = build_recurrence(kind, a, b, r, n)
        pairs += [(rec, triangle_by_sum(kind, a, b, r, n)),
                  (rec, triangle_by_transform(kind, a, b, r, n))]
    for kind in ("S", "Shat"):
        base = build_recurrence(kind, a, b, 0, n)
        schemes = ("NewtonAlpha",) * bool(a) + ("NewtonBeta",) * bool(b)
        pairs += [(build_recurrence(kind, a, b, r, n), shift_r(base, r, s)) for s in schemes]
    for ref, got in pairs:
        plain = Triangle(ref.kind, ref.alpha, ref.beta, ref.r, got.rows)
        for other in (ref, Triangle.from_json(ref.to_json()), plain):
            assert got == other and other == got


@SETTINGS
@given(rationals, nonzero, rationals, rows)
def test_egfs_equal_the_recurrence(a, b, r, n):
    for kind in ("Shat", "E"):
        rec = build_recurrence(kind, a, b, r, n)
        coeffs = egf_coefficients(kind, a, b, r, n, n)
        assert all(
            coeffs[m][k] == (rec.entry(m, k) if k <= m else 0)
            for m in range(n + 1)
            for k in range(n + 1)
        )


@SETTINGS
@given(st.sampled_from(FREE_FAMILIES), rationals, rationals, rows)
def test_free_closed_forms_equal_the_recurrence(family, r, beta, n):
    if family == "E_vi":  # defined at integer r >= 1 only
        r = abs(r.numerator) + 1
    kind, a, b, rr = closed_form_params(family, r=r, beta=beta)
    rec = build_recurrence(kind, a, b, rr, n)
    for m in range(n + 1):
        for k in range(m + 1):
            assert closed_form(family, m, k, r=r, beta=beta) == rec.entry(m, k)


def _list_certificate(expr):
    """``(q, shift, denom, poly)`` of ``expr.certificate()``, the way it was
    computed before the walk became one integer per term: each term's
    ``prod (u + c)`` multiplied out as a coefficient list, factor by factor,
    and the lists summed coefficient by coefficient."""
    q = expr.q
    first, walked, top = None, [], 1
    for coeff, factors in expr._terms:
        shift, poly = 0, [1]
        for f in reversed(factors):
            if isinstance(f, int):
                shift += f
                continue
            L, R, m = f
            c = shift + R
            for _ in range(m):
                poly = [c * a + b for a, b in zip(poly + [0], [0] + poly)]
                c += L + R - q
            shift += m * (L + R - q)
        if first is None:
            first = shift
        elif shift != first:
            raise MixedExcessError(f"{first} vs {shift}")
        walked.append((coeff, poly))
        top = max(top, len(poly))
    d = lcm(*(coeff.denominator for coeff, _ in walked))
    acc = [0] * top
    for coeff, poly in walked:
        lift = coeff.numerator * (d // coeff.denominator) * q ** (top - len(poly))
        for k, a in enumerate(poly):
            acc[k] += lift * a
    while acc and not acc[-1]:
        acc.pop()
    return q, first, d * q ** (top - 1), acc


@st.composite
def expressions(draw):
    """``OperatorExpr.over`` at a random ``q``: up to four terms of up to
    four int and word factors of either sign, with int or Fraction
    coefficients; half of them have every term padded by a pure power to
    one shift, so that they have an action certificate."""
    q = draw(st.integers(1, 6))
    exps = st.integers(-3 * q, 3 * q)
    factor = st.one_of(exps, st.tuples(exps, exps, st.integers(0, 3)))
    coeff = st.one_of(st.integers(-9, 9), st.builds(F, st.integers(-9, 9), st.integers(1, 9)))
    terms = draw(st.lists(st.tuples(coeff, st.lists(factor, max_size=4)), max_size=4))
    if draw(st.booleans()):
        target = draw(exps)
        terms = [
            (c, [target - sum(f if isinstance(f, int) else f[2] * (f[0] + f[1] - q)
                              for f in factors), *factors])
            for c, factors in terms
        ]
    return OperatorExpr.over(q, [(c, tuple(factors)) for c, factors in terms])


# x^2 D - x D x = -x: the top coefficients cancel
_CANCELLING = OperatorExpr.over(1, [(1, ((2, 0, 1),)), (-1, ((1, 1, 1),))])
# (x^40 D)^12 x^s = prod_{j<12} (s + 39 j) x^(s + 468): coefficients past 2^63
_WIDE = OperatorExpr.over(1, [(1, ((40, 0, 12),))])


@SETTINGS
@given(expressions())
@example(OperatorExpr.zero())
@example(_CANCELLING.scaled(F(1, 3)))
@example(_CANCELLING + _CANCELLING.scaled(-1))
@example(OperatorExpr.over(2, [(1, (1,)), (F(1, 2), ((1, 1, 1),))]))  # mixed excess
@example(_WIDE)
def test_the_certificate_is_the_product_of_its_linear_factors(expr):
    """The certificate equals the coefficient-list reference field for
    field, also when its digits are read at a narrow width that forces the
    wider redo, and agrees with ``act_on_monomial`` at degree + 1 points."""
    try:
        want = _list_certificate(expr)
    except MixedExcessError:
        with pytest.raises(MixedExcessError):
            expr.certificate()
        return
    for cert in (expr.certificate(), expr._certificate(8)):
        assert (cert.q, cert.shift, cert.denom, cert.poly) == want
    action = cert.action()
    for j in range(cert.degree + 1):
        s = F(2 * j - 3, 5)
        pointwise = {}
        for shift, poly in action.items():
            value = sum(c * s**k for k, c in enumerate(poly))
            if value:
                pointwise[s + shift] = value
        assert pointwise == expr.act_on_monomial(s)


def test_the_special_certificates():
    """The zero action, a cancelled top coefficient and a coefficient too
    wide for 64-bit digits."""
    cert = OperatorExpr.zero().certificate()
    assert (cert.q, cert.shift, cert.denom, cert.poly) == (1, None, 1, [])
    cert = _CANCELLING.certificate()
    assert (cert.shift, cert.denom, cert.poly, cert.degree) == (1, 1, [-1], 0)
    assert (_CANCELLING + _CANCELLING.scaled(-1)).certificate().poly == []
    cert = _WIDE.certificate()
    assert max(abs(c) for c in cert.poly).bit_length() > 64
    assert (cert.q, cert.shift, cert.denom, cert.poly) == _list_certificate(_WIDE)


# coefficients small, past 2^63 (a wide W, and digits near the cross-multiplied
# bound) and over large denominators
_big = st.integers(-(2**70), 2**70)
_weights = st.one_of(
    st.integers(-9, 9), _big, st.builds(F, st.integers(-9, 9), st.integers(1, 9)),
    st.builds(F, _big, st.integers(1, 2**66)),
)


@st.composite
def certificate_pairs(draw):
    """A certificate of a random expression scaled by a random weight, and
    one of: the same action summed from thirds over another denominator,
    over twice the ``q``, repacked from its list (another ``W`` when it is
    wide), after one more pure power (another shift, the same polynomial),
    a twin off by one in one digit (packed at the same ``W``, or repacked
    from its list), or a certificate of another expression."""
    expr = draw(expressions())
    try:
        expr.certificate()
    except MixedExcessError:  # keep the first term, of one excess
        expr = OperatorExpr.over(expr.q, expr._terms[:1])
    expr = expr.scaled(draw(_weights.filter(bool)))
    a = expr.certificate()
    how = draw(st.sampled_from(
        ["thirds", "double q", "relisted", "shifted", "twin", "relisted twin", "other"]
    ))
    if how == "thirds":
        b = OperatorExpr.over(expr.q, [(c / 3, f) for c, f in expr._terms] * 3).certificate()
    elif how == "double q":
        b = OperatorExpr.over(2 * expr.q, [
            (c, tuple(2 * f if isinstance(f, int) else (2 * f[0], 2 * f[1], f[2]) for f in fs))
            for c, fs in expr._terms
        ]).certificate()
    elif how == "relisted":
        b = Certificate(a.q, a.shift, a.denom, a.poly)
    elif how == "shifted":
        k = draw(st.integers(1, 3))
        b = OperatorExpr.over(expr.q, [(c, (k, *f)) for c, f in expr._terms]).certificate()
    elif how == "other":
        other = draw(expressions())
        try:
            b = other.scaled(draw(_weights)).certificate()
        except MixedExcessError:
            b = a
    else:
        k = draw(st.integers(0, a.degree + 1))
        poly = a.poly + [0] * (k + 1 - len(a.poly))
        poly[k] += 1
        while poly and not poly[-1]:
            poly.pop()
        shift = 0 if a.shift is None else a.shift
        if how == "twin" and a.bound + 1 < 1 << (a.W - 1):
            b = Certificate(a.q, shift, a.denom, a.packed + (1 << (a.W * k)), a.W, a.bound + 1)
        else:
            b = Certificate(a.q, shift, a.denom, poly)
    return a, b


_WIDE_CERT = _WIDE.certificate()
_WIDE_TWIN = Certificate(_WIDE_CERT.q, _WIDE_CERT.shift, _WIDE_CERT.denom,
                         _WIDE_CERT.packed + (1 << _WIDE_CERT.W), _WIDE_CERT.W,
                         _WIDE_CERT.bound + 1)


@SETTINGS
@given(certificate_pairs())
@example((_WIDE_CERT, _WIDE.certificate()))  # packed at W > 64
@example((_WIDE_CERT, _WIDE_TWIN))
@example((Certificate(1, 0, 1, 5 + (7 << 100), 100, 7), Certificate(1, 0, 1, [5, 7])))  # W 100, 64
@example((OperatorExpr.over(1, [(F(1, 3), (1,))]).certificate(),  # denominators 3 and 2
          OperatorExpr.over(1, [(F(1, 2), (1,))]).certificate()))
@example((OperatorExpr.over(1, [(1, (1,))]).certificate(),  # x and x^2 act with one poly
          OperatorExpr.over(1, [(1, (2,))]).certificate()))
# 3 * 2^62 is -2^62 + 2^64: times the other denominator the digits overflow,
# and the packed ints agree although the actions differ
@example((Certificate(1, 0, 1, 2**62, 64, 2**62), Certificate(1, 0, 3, 2**64 - 2**62, 64, 2**62)))
def test_packed_certificates_compare_as_their_actions(pair):
    """``Certificate ==`` on the packed ints, or through its fallback,
    agrees with comparing the ``Fraction`` actions, both ways round."""
    a, b = pair
    assert (a == b) == (b == a) == (a.action() == b.action())


_small_weights = st.one_of(st.integers(-9, 9), st.builds(F, st.integers(-9, 9), st.integers(1, 9)))


@st.composite
def weighted_string_pairs(draw, hows=("reversed", "thirds", "twin", "prefixed", "carried", "other"),
                          weights=_weights):
    """Two sums of weighted strings of up to 8 letters: the right one the
    left reversed, the left in thirds (another denominator), the left with
    one more normally ordered monomial (one digit off), the left behind one
    more '+' (another ``delta``, the same packed int), the left times
    ``2^64`` against the left inside ``+`` and ``-`` (the same packed int,
    by a carry past a digit), or another sum.  Half the time every string
    is a permutation of one word, so that all share one ``delta``.  ``hows``
    and ``weights`` narrow the draw."""
    base = draw(st.text("+-", max_size=8))
    if draw(st.booleans()):
        word = st.permutations(base).map("".join)
    else:
        word = st.text("+-", max_size=8)
    left = draw(st.lists(st.tuples(weights, word), max_size=5))
    how = draw(st.sampled_from(hows))
    if how == "reversed":
        right = left[::-1]
    elif how == "thirds":
        right = [(F(c) / 3, s) for c, s in left] * 3
    elif how == "twin":
        delta = base.count("+") - base.count("-")
        q = draw(st.integers(max(0, -delta), max(0, -delta) + 4))
        right = left + [(1, "+" * (q + delta) + "-" * q)]
    elif how == "prefixed":
        right = [(c, "+" + s) for c, s in left]
    elif how == "carried":
        left, right = [(c, "+" + s + "-") for c, s in left], [(c * 2**64, s) for c, s in left]
    else:
        right = draw(st.lists(st.tuples(weights, word), max_size=5))
    return left, right


@SETTINGS
@given(weighted_string_pairs())
@example(([(1, "+")], [(1, "")]))  # packed 1 on both sides, at delta 1 and 0
@example(([(1, "+-")], [(2**64, "")]))  # packed 2^64 on both sides, at delta 0
def test_the_packed_string_sum_agrees_with_the_merged_normal_forms(pair):
    """``same_normal_form`` holds exactly when the merged normal forms of
    the difference cancel."""
    left, right = pair
    strings = left + [(-c, s) for c, s in right]
    assert same_normal_form(left, right) == (not _normal_form(strings))


@SETTINGS
@given(weighted_string_pairs(hows=("prefixed",), weights=_small_weights))
@example(([(1, "+")], [(1, "")]))  # packed 1 on both sides, at delta 1 and 0
def test_mixed_delta_is_decided_by_the_packed_sums(pair):
    """Strings of different ``delta`` share no monomial, so the packed sums
    per ``delta`` decide the left against the left behind one more '+'
    (packed alike, ``delta`` one up) without merging the oracle's dicts."""
    left, right = pair
    expected = not _normal_form(left + [(-c, s) for c, s in right])
    with mock.patch.object(boson, "_normal_form", side_effect=AssertionError("merged")):
        assert same_normal_form(left, right) == expected


def test_a_failing_property_test_is_reported_and_the_run_goes_on(tmp_path):
    """Hypothesis's failure report imports libcst, which raises a
    DeprecationWarning; the repo's ``filterwarnings = error`` must not turn
    it into an INTERNALERROR that ends the run before the next test."""
    (tmp_path / "test_child.py").write_text(textwrap.dedent("""
        from hypothesis import given, settings, strategies as st

        @settings(database=None)
        @given(st.integers())
        def test_fails(x):
            assert x < 5

        def test_passes():
            pass
    """))
    config = Path(__file__).resolve().parent.parent / "pyproject.toml"
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(config),
         "--rootdir", str(tmp_path), "test_child.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
        env={**os.environ, "HYPOTHESIS_STORAGE_DIRECTORY": str(tmp_path / "hypothesis")},
    )
    assert "INTERNALERROR" not in result.stdout + result.stderr
    assert "1 failed, 1 passed" in result.stdout
