"""Triangle construction schemes, serialization, transforms and shifts."""

import dataclasses
import hashlib
import json
import pickle
import random
import sys
import threading
from fractions import Fraction as F
from functools import lru_cache
from math import comb, factorial

import pytest

from weylstir import identities, kernels, triangles
from weylstir.egf import egf_coefficients
from weylstir.identities import (
    TEMPLATES,
    adjoint_pairing_check,
    hermite_identity_check,
    ttv_check,
    verify_identity,
)
from weylstir.kernels import binomial_general, hyp2f1_hat, strided_falling, strided_rising
from weylstir.operators import Word, WordPower
from weylstir.poly import ALPHA, BETA, R, ParamPoly
from weylstir.triangles import (
    Triangle,
    binomial_transform,
    build_recurrence,
    closed_form_params,
    conjecture_check,
    decompose_classical,
    entry_by_sum,
    identity_triangle,
    reflection_check,
    row_polynomial_euler,
    shat_from_s_row,
    shift_r,
    stirling_cycle,
    stirling_subset,
    symbolic_triangle,
    triangle_by_decomposition,
    triangle_by_sum,
    triangle_by_transform,
    triangle_product,
    vandermonde_ldu_check,
)

CLASSIC = [F(v) for v in (-2, -1, 0, 1, 2)] + [F(1, 2)]


def test_classical_subset_rows():
    tri = build_recurrence("S", 0, 1, 0, 5)
    assert tri.row(4) == [0, 1, 7, 6, 1]
    assert tri.row(5) == [0, 1, 15, 25, 10, 1]
    for n in range(6):
        for k in range(n + 1):
            assert tri.entry(n, k) == stirling_subset(n, k)


def test_classical_cycle_rows():
    tri = build_recurrence("S", -1, 0, 0, 5)
    assert tri.row(4) == [0, 6, 11, 6, 1]
    for n in range(6):
        for k in range(n + 1):
            assert tri.entry(n, k) == stirling_cycle(n, k)


_CLASSICAL_POINTS = {False: (0, 1, 0), True: (-1, 0, 0)}


def _private_integer_row_memo(monkeypatch):
    """Give the integer-row memo a cache of its own, empty."""
    memo = lru_cache(maxsize=1 << 10)(triangles._integer_row_memo.__wrapped__)
    monkeypatch.setattr(triangles, "_integer_row_memo", memo)
    return memo


def test_one_classical_table_per_kind_serves_shorter_requests(monkeypatch):
    """One table per kind, built at once or extended from its last row
    (N = 5, 20, 64) to the same tuple rows, matching the closed columns
    and diagonals."""
    memo = _private_integer_row_memo(monkeypatch)
    tall = {cycles: triangles._classical_rows(64, cycles) for cycles in (False, True)}
    for cycles, rows in tall.items():
        short = triangles._classical_rows(20, cycles)
        assert short == rows[:21] and len(short) == 21
        held = memo("S", *_CLASSICAL_POINTS[cycles])
        assert held[0] == rows  # the N = 64 table, not a second one
        assert all(type(row) is tuple for row in rows)
        held[0] = ()
        for N in (5, 20, 64):
            triangles._classical_rows(N, cycles)
        assert held[0] == rows
    sub, cyc = tall[False], tall[True]
    for n in range(1, 65):
        assert cyc[n][1] == factorial(n - 1)
        assert cyc[n][n - 1] == sub[n][n - 1] == comb(n, 2)
        assert n < 2 or sub[n][2] == 2 ** (n - 1) - 1
    assert stirling_subset(20, 7) == sub[20][7] and stirling_cycle(64, 1) == factorial(63)


def test_edge_invariants():
    for a in CLASSIC:
        for b in CLASSIC:
            for r in CLASSIC:
                s = build_recurrence("S", a, b, r, 6)
                sh = build_recurrence("Shat", a, b, r, 6)
                e = build_recurrence("E", a, b, r, 6)
                for n in range(7):
                    fall = strided_falling(r, n, a)
                    assert s.entry(n, 0) == fall
                    assert sh.entry(n, 0) == fall
                    assert e.entry(n, 0) == fall
                    assert s.entry(n, n) == 1
                    assert sh.entry(n, n) == b**n * _fact(n)
                    assert e.entry(n, n) == strided_rising(b - r, n, a)
                s.validate()
                sh.validate()
                e.validate()


def _fact(n):
    out = 1
    for i in range(2, n + 1):
        out *= i
    return out


def test_entry_indexing():
    tri = build_recurrence("S", 0, 1, 0, 4)
    assert tri.entry(3, -1) == 0
    assert tri.entry(3, 4) == 0
    with pytest.raises(IndexError):
        tri.entry(5, 0)


def test_shat_is_modified_s():
    # rational rows at beta zero, negative, non-integer and integer go
    # through the integer rescaling; the symbolic point checks it on
    # ParamPoly rows
    betas = (F(0), F(2), F(-3), F(-1, 2), F(5, 3))
    for a, b, r in [(F(1), b, F(3)) for b in betas] + [(ALPHA, BETA, R)]:
        s = build_recurrence("S", a, b, r, 8)
        sh = build_recurrence("Shat", a, b, r, 8)
        for n in range(9):
            row = s.row(n)
            got = shat_from_s_row(row, b)
            assert got == sh.row(n)
            assert got == [v * b**k * factorial(k) for k, v in enumerate(row)]
    # a row of ints, at a Fraction beta and at an int one
    row = [3, -1, 0, 7, 2]
    for b in (F(-2, 3), F(0), F(4), 5, -1):
        assert shat_from_s_row(row, b) == [v * b**k * factorial(k) for k, v in enumerate(row)]
    assert shat_from_s_row([], F(1, 2)) == []
    # a Fraction beta takes rational entries only: a ParamPoly row is refused
    with pytest.raises(AttributeError):
        shat_from_s_row([ParamPoly.constant(1), ALPHA], F(1, 2))


def test_sum_scheme_matches_recurrence():
    for kind in ("Shat", "E"):
        t1 = build_recurrence(kind, F(1, 2), F(2), F(-1), 9)
        t2 = triangle_by_sum(kind, F(1, 2), F(2), F(-1), 9)
        assert t1.rows == t2.rows


def test_single_entry_by_sum():
    assert entry_by_sum("Shat", 3, 2, 0, 1, 0) == 6  # 2! * S(3, 2)
    with pytest.raises(ValueError):
        entry_by_sum("Shat", 3, 5, 0, 1, 0)
    with pytest.raises(ValueError):
        entry_by_sum("S", 3, 2, 0, 1, 0)


def test_row_polynomial_euler_matches_recurrence():
    grid = (F(0), F(1), F(-2), F(1, 2), F(-3, 4), F(5, 3))
    for a in grid:
        for b, r in ((F(1), F(0)), (F(-2), F(1, 3)), (F(3, 2), F(-5, 6)), (F(2, 7), F(0))):
            e = build_recurrence("E", a, b, r, 6)
            for n in range(7):
                assert row_polynomial_euler(n, a, b, r) == e.row(n), (a, b, r, n)


def test_transform_scheme_matches_recurrence():
    for kind in ("Shat", "E"):
        t1 = build_recurrence(kind, F(-2), F(3), F(1, 2), 9)
        t2 = triangle_by_transform(kind, F(-2), F(3), F(1, 2), 9)
        assert t1.rows == t2.rows


_NEGATIVE_BOUNDS = [
    (ttv_check, (-1,)),
    (hermite_identity_check, (-1,)),
    (adjoint_pairing_check, ({"L": F(1), "R": F(0), "Lp": F(1), "Rp": F(1)}, -1)),
    (build_recurrence, ("S", 0, 1, 0, -1)),
    (triangle_by_sum, ("Shat", 0, 1, 0, -1)),
    (triangle_by_transform, ("E", 0, 1, 0, -1)),
    (triangle_by_decomposition, (0, 1, 0, -1)),
    (identity_triangle, (0, -1)),
    (egf_coefficients, ("Shat", 0, 1, 0, -1, -1)),
    (egf_coefficients, ("E", 0, 1, 0, 2, -1)),
    (egf_coefficients, ("E", 0, 1, 0, -1, 2)),
    (row_polynomial_euler, (-1, 0, 1, 1)),
    (vandermonde_ldu_check, (0, 1, 0, -1)),
    (reflection_check, (0, 1, 0, -1)),
    (binomial_general, (F(1, 2), -1)),
    (strided_falling, (1, -1, 0)),
    (hyp2f1_hat, (-1, 1, 1, 1)),
    (ALPHA.__pow__, (-1,)),
    (WordPower, (Word(1, 0), -1)),
]


@pytest.mark.parametrize("func, args", _NEGATIVE_BOUNDS,
                         ids=[func.__name__ for func, _ in _NEGATIVE_BOUNDS])
def test_a_negative_bound_is_a_value_error(func, args):
    """A negative size or degree is refused, never read as an empty check."""
    with pytest.raises(ValueError, match="natural"):
        func(*args)


def _s(alpha, beta, r, N=2):
    return build_recurrence("S", alpha, beta, r, N)


_BAD_ARGUMENTS = {
    "triangle-kind": (lambda: Triangle("X", 0, 1, 0, ((F(1),),)), "unknown triangle kind 'X'"),
    "row-length": (lambda: Triangle("S", 0, 1, 0, ((F(1),), (F(1),))),
                   "row 1 has 1 entries, expected 2"),
    "recurrence-kind": (lambda: build_recurrence("X", 0, 1, 0, 2), "unknown triangle kind 'X'"),
    "sum-kind": (lambda: triangle_by_sum("S", 0, 1, 0, 2), "supports kinds 'Shat' and 'E'"),
    "direction": (lambda: binomial_transform([1], "Sideways"), "unknown direction 'Sideways'"),
    "transform-kind": (lambda: triangle_by_transform("S", 0, 1, 0, 2),
                       "supports kinds 'Shat' and 'E'"),
    "product-kind": (lambda: triangle_product(build_recurrence("E", 0, 1, 0, 2), _s(1, 1, 0)),
                     "defined for S-kind triangles"),
    "product-symbolic": (lambda: triangle_product(symbolic_triangle("S", 2),
                                                  symbolic_triangle("S", 2)),
                         "defined for numeric triangles"),
    "product-size": (lambda: triangle_product(_s(0, 1, 0), _s(1, 1, 0, 3)), "matching size"),
    "decomposition-index": (lambda: decompose_classical(2, 3, 0, 1, 0),
                            r"\(n, k\) = \(2, 3\) outside"),
    "closed-form-family": (lambda: closed_form_params("S_nope"), "unknown closed-form family"),
    "shift-kind": (lambda: shift_r(build_recurrence("E", 1, 1, 0, 2), 1, "NewtonAlpha"),
                   "supports kinds 'S' and 'Shat'"),
    "shift-symbolic": (lambda: shift_r(symbolic_triangle("S", 2), 1, "NewtonAlpha"),
                       "defined for numeric triangles"),
    "shift-base-r": (lambda: shift_r(_s(1, 1, 1), 1, "NewtonAlpha"), "must sit at r = 0"),
    "shift-alpha": (lambda: shift_r(_s(0, 1, 0), 1, "NewtonAlpha"), "requires alpha != 0"),
    "shift-beta": (lambda: shift_r(_s(1, 0, 0), 1, "NewtonBeta"), "requires beta != 0"),
    "shift-scheme": (lambda: shift_r(_s(1, 1, 0), 1, "NewtonGamma"),
                     "unknown shift scheme 'NewtonGamma'"),
}


@pytest.mark.parametrize("call, message", _BAD_ARGUMENTS.values(), ids=_BAD_ARGUMENTS)
def test_a_bad_argument_is_a_value_error_that_names_it(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_classical_stirling_numbers_vanish_outside_the_triangle():
    for n, k in ((3, -1), (3, 4), (0, 1)):
        assert stirling_subset(n, k) == 0 and stirling_cycle(n, k) == 0


def test_equality_with_entries_that_are_not_rationals_compares_the_rows():
    """A triangle of float entries has no integer pairs, so ``==`` against
    one made from integers falls back to comparing the rows."""
    floats = Triangle("S", 0, 1, 0, ((1.0,), (0.0, 1.0), (0.0, 1.0, 1.0)))
    for left, right in ((triangle_by_decomposition(0, 1, 0, 2), floats),
                        (floats, triangle_by_decomposition(0, 1, 0, 2))):
        assert (left._ints or right._ints) is not None  # uncached, never read
        assert left == right
    wrong = Triangle("S", 0, 1, 0, ((1.0,), (0.0, 1.0), (0.0, 1.0, 2.0)))
    assert triangle_by_decomposition(0, 1, 0, 2) != wrong


def test_binomial_transform_round_trip():
    e = build_recurrence("E", F(-1), F(2), F(1), 8)
    sh = build_recurrence("Shat", F(-1), F(2), F(1), 8)
    for n in range(9):
        assert binomial_transform(e.row(n), "EToShat") == sh.row(n)
        assert binomial_transform(sh.row(n), "ShatToE") == e.row(n)


def test_binomial_transform_is_generic_over_the_scalar():
    """Symbolic and Fraction rows map to their dual kind and back; the
    length-1 row too, whose one entry comes out as the same scalar type."""
    e, sh = symbolic_triangle("E", 6), symbolic_triangle("Shat", 6)
    for n in range(7):
        assert binomial_transform(e.row(n), "EToShat") == sh.row(n)
        assert binomial_transform(sh.row(n), "ShatToE") == e.row(n)
    assert all(isinstance(v, ParamPoly) for v in binomial_transform(e.row(6), "EToShat"))
    point = (F(2, 3), F(-5, 4), F(1, 7))
    e, sh = build_recurrence("E", *point, 6), build_recurrence("Shat", *point, 6)
    for n in range(7):
        for got, want in ((binomial_transform(e.row(n), "EToShat"), sh.row(n)),
                          (binomial_transform(sh.row(n), "ShatToE"), e.row(n))):
            assert got == want and all(type(v) is F for v in got)
    for v in (ALPHA * BETA - R, F(-3, 5)):
        for direction in ("EToShat", "ShatToE"):
            out = binomial_transform([v], direction)
            assert out == [v] and type(out[0]) is type(v)


@pytest.mark.parametrize("kind", ["Shat", "E"])
def test_alternating_sum_is_the_literal_sum(kind):
    """Every entry of the explicit sum equals its per-term formula on random
    integer columns; for E the entry is also read past k = n, up to n + 5,
    as ``row_polynomial_euler`` reads it, where the weights C(n+1, k-x)
    start at x = k - n - 1."""
    rng = random.Random(kind)
    for n in range(9):
        top = n + 5 if kind == "E" else n
        table = [[rng.randint(-10**6, 10**6) for _ in range(top + 1)] for _ in range(n + 1)]
        for k in range(top + 1):
            literal = sum(
                (-1) ** (k - x) * (comb(k, x) if kind == "Shat" else comb(n + 1, k - x))
                * table[n][x]
                for x in range(k + 1)
            )
            assert triangles._alternating_sum(kind, n, k, table) == literal, (n, k)


def test_the_schemes_match_the_recurrence_at_tall_sizes():
    """One triple with q = 693 at the row counts of the benchmark's tall
    workload: sum at 30, transform at 26, decomposition at 20, every shift
    at 24."""
    a, b, r = F(17, 11), F(16, 9), F(-11, 7)
    for kind in ("Shat", "E"):
        assert triangle_by_sum(kind, a, b, r, 30) == build_recurrence(kind, a, b, r, 30)
        assert triangle_by_transform(kind, a, b, r, 26) == build_recurrence(kind, a, b, r, 26)
    assert triangle_by_decomposition(a, b, r, 20) == build_recurrence("S", a, b, r, 20)
    for kind in ("S", "Shat"):
        base, target = build_recurrence(kind, a, b, 0, 24), build_recurrence(kind, a, b, r, 24)
        for scheme in ("NewtonAlpha", "NewtonBeta"):
            assert shift_r(base, r, scheme) == target, (kind, scheme)


def test_every_shift_holds_for_all_nonzero_parameters_to_row_12():
    """Both sides of each shift are polynomials of total degree <= 12 in
    (alpha, beta, r) at rows <= 12, so agreeing on the order-12 principal
    lattice proves them equal (Chung and Yao, 1977).  The lattice is mapped
    by a -> (2a + 1)/3, which is never zero, so both Newton series apply at
    each of its 455 points."""
    lattice = [(F(2 * i + 1, 3), F(2 * j + 1, 3), F(2 * k + 1, 3))
               for i in range(13) for j in range(13 - i) for k in range(13 - i - j)]
    assert len(lattice) == 455
    for a, b, r in lattice:
        for kind in ("S", "Shat"):
            base, target = build_recurrence(kind, a, b, 0, 12), build_recurrence(kind, a, b, r, 12)
            for scheme in ("NewtonAlpha", "NewtonBeta"):
                assert shift_r(base, r, scheme) == target, (kind, scheme, a, b, r)


@pytest.mark.parametrize("kind", ["Shat", "E"])
def test_the_transform_reads_the_dual_recurrence_rows(kind, monkeypatch):
    """A transform alone, at a point no other test uses (q = 693) and at the
    row count of the benchmark's tall workload, equals the recurrence and
    computes no explicit sum: the dual rows come from the recurrence."""
    calls = []
    alternating_sum = triangles._alternating_sum

    def counting(kind, n, k, table):
        calls.append((kind, n, k))
        return alternating_sum(kind, n, k, table)

    monkeypatch.setattr(triangles, "_alternating_sum", counting)
    point = (F(-5, 11), F(13, 9), F(4, 7))
    assert triangle_by_transform(kind, *point, 26) == build_recurrence(kind, *point, 26)
    assert calls == []


def test_decomposition_single_entry_and_triangle():
    t1 = build_recurrence("S", F(3), F(-1, 2), F(2), 8)
    t2 = triangle_by_decomposition(F(3), F(-1, 2), F(2), 8)
    assert t1.rows == t2.rows
    assert decompose_classical(6, 2, F(3), F(-1, 2), F(2)) == t1.entry(6, 2)
    # zero parameters exercise the 0^0 = 1 convention
    assert triangle_by_decomposition(0, 0, 0, 5).rows == build_recurrence("S", 0, 0, 0, 5).rows


def test_decomposition_single_entries_at_the_row_cap():
    """Every entry of row 64 at a triple with q = 693, one at a time,
    equals the recurrence's."""
    a, b, r = F(17, 11), F(16, 9), F(-11, 7)
    tri = build_recurrence("S", a, b, r, 64)
    for k in range(65):
        assert decompose_classical(64, k, a, b, r) == tri.entry(64, k), k


def test_defining_balance_shat():
    """(beta x + r)^(falling n, alpha) = sum_k Shat_{n,k} C(x, k),
    as polynomials in x (checked at non-integer rationals)."""
    a, b, r = F(-1), F(2), F(3, 2)
    sh = build_recurrence("Shat", a, b, r, 8)
    for x in (F(0), F(3), F(1, 2), F(-5, 3), F(7)):
        for n in range(9):
            lhs = strided_falling(b * x + r, n, a)
            rhs = sum(sh.entry(n, k) * binomial_general(x, k) for k in range(n + 1))
            assert lhs == rhs


def test_defining_balance_eulerian():
    """(beta x + r)^(falling n, alpha) = sum_k E_{n,k} C(x + n - k, n)."""
    a, b, r = F(1, 2), F(-2), F(1)
    e = build_recurrence("E", a, b, r, 8)
    for x in (F(0), F(2), F(-1, 2), F(10, 3)):
        for n in range(9):
            lhs = strided_falling(b * x + r, n, a)
            rhs = sum(
                e.entry(n, k) * binomial_general(x + n - k, n) for k in range(n + 1)
            )
            assert lhs == rhs


def test_eulerian_row_sums():
    # row n sums to n! beta^n, for any alpha and r
    for a, b, r in ((F(0), F(1), F(1)), (F(-1), F(2), F(0)), (F(1, 2), F(-3), F(5))):
        e = build_recurrence("E", a, b, r, 8)
        for n in range(9):
            assert sum(e.row(n)) == _fact(n) * b**n


def test_symbolic_triangle_entries_and_homogeneity():
    sym = symbolic_triangle("S", 4)
    assert sym.entry(1, 0) == R
    assert sym.entry(1, 1) == ParamPoly.constant(1)
    # == would also pass for an int entry: every entry, the apex included,
    # is a ParamPoly in each kind
    for tri in (sym, symbolic_triangle("Shat", 2), symbolic_triangle("E", 2)):
        assert {type(v) for row in tri.rows for v in row} == {ParamPoly}
    assert sym.entry(2, 1) == -ALPHA + BETA + 2 * R
    # every monomial alpha^i beta^j r^l in S_{n,k} has i + j + l = n - k
    for n in range(5):
        for k in range(n + 1):
            degs = sym.entry(n, k).total_degrees()
            assert degs <= {n - k}
    # evaluation agrees with the numeric recurrence
    num = build_recurrence("S", F(2), F(-1), F(1, 2), 4)
    for n in range(5):
        for k in range(n + 1):
            assert sym.entry(n, k).evaluate(F(2), F(-1), F(1, 2)) == num.entry(n, k)


def test_symbolic_triangle_all_kinds():
    for kind in ("S", "Shat", "E"):
        sym = symbolic_triangle(kind, 3)
        num = build_recurrence(kind, F(-2), F(3), F(1), 3)
        for n in range(4):
            for k in range(n + 1):
                assert sym.entry(n, k).evaluate(F(-2), F(3), F(1)) == num.entry(n, k)


# the variables, and a point of wide linear forms whose coefficients need
# digits well past 64 bits at N = 14
_FORM_POINTS = {"variables": (ALPHA, BETA, R),
                "wide": (37 * ALPHA - 5 * BETA, 11 * BETA + 3 * R, -13 * R)}


@pytest.mark.parametrize("kind", ["S", "Shat", "E"])
@pytest.mark.parametrize("point", list(_FORM_POINTS), ids=list(_FORM_POINTS))
def test_the_packed_recurrence_is_the_generic_one(kind, point):
    """The packed symbolic recurrence gives the rows of the generic scalar
    recurrence over ParamPoly at every N <= 14, and every coefficient lies
    strictly inside the balanced digit range of its packing."""
    params = _FORM_POINTS[point]
    want = triangles._recurrence_rows(kind, *params, 14, start=[ParamPoly.constant(1)])
    widths = set()
    for N in range(15):
        tri = build_recurrence(kind, *params, N)
        W = tri._ints[1]  # the digit width of the packed entries
        widths.add(W)
        assert W % 8 == 0 and len(tri._ints[0]) == N + 1
        assert [list(row) for row in tri.rows] == want[: N + 1]
        half = 1 << (W - 1)
        assert all(-half < c < half for row in want[: N + 1] for v in row
                   for c in v._terms.values())
    assert point == "variables" or max(widths) > 96


@pytest.mark.parametrize("params, name", [
    ((ALPHA + 1, BETA, R), "alpha"),
    ((ALPHA, ALPHA * BETA, R), "beta"),
    ((ALPHA, 1, R), "beta"),
], ids=["affine", "quadratic", "constant"])
def test_a_symbolic_parameter_must_be_a_linear_form(params, name):
    for kind in ("S", "Shat", "E"):
        with pytest.raises(ValueError, match=f"symbolic parameter {name} must be a linear form"):
            build_recurrence(kind, *params, 3)


_SYMBOLIC_EXPORT_DIGESTS = {
    ("S", "text"): "64c9353fc2e8c5f297544679739cf4eaf576b5294354e8480080ec0246c5bc80",
    ("S", "csv"): "d086e8c1928925d725bee6aea7d0b5b80d0fdee1bb7044704d5d74306803746e",
    ("S", "latex"): "f70cc056b0a9c916d72ba134d0336c084e3e1687cda4be41b468bd9eaa31506b",
    ("Shat", "text"): "f50bac2d0b6475feaf9baf2093c94c12102bc951ad80ccb031439e739869a711",
    ("Shat", "csv"): "ba9e1c675c1ca0f4438d1e87e2e197f8a865b3f573253c37681a7b7c37796f8f",
    ("Shat", "latex"): "cdbcc7e0747db314116a4a5f2557400fa682d8fdbbf720c548e5823f6dbd7d28",
    ("E", "text"): "532112d20cd04a5e6ea4112e4ff46b979f6bd310488ee5a6d80e727e6c9e9bc2",
    ("E", "csv"): "c8cacd9f0ff2fc4f1284389213a40f59342006c1a34d2d1b8fc84521c0f22d14",
    ("E", "latex"): "144fbb71ec28d76899b0f26ac3c6907ddc6f9f2e9c74cad461063b0f404dbb6e",
}


@pytest.mark.parametrize("kind, fmt", list(_SYMBOLIC_EXPORT_DIGESTS),
                         ids=[f"{kind}-{fmt}" for kind, fmt in _SYMBOLIC_EXPORT_DIGESTS])
def test_symbolic_exports_are_pinned(kind, fmt):
    """The n = 12 symbolic text, CSV and LaTeX exports hash to the digests
    of the ParamPoly-built triangles they replaced."""
    text = getattr(symbolic_triangle(kind, 12), f"to_{fmt}")()
    assert hashlib.sha256(text.encode()).hexdigest() == _SYMBOLIC_EXPORT_DIGESTS[kind, fmt]


def test_writing_a_symbolic_triangle_builds_no_param_poly():
    """A symbolic triangle writes its exports from the packed entries; its
    ParamPoly rows are built on the first rows read, and the texts after it
    are the same."""
    tri = symbolic_triangle("E", 12)
    written = {fmt: getattr(tri, f"to_{fmt}")() for fmt in ("json", "text", "csv", "latex")}
    texts = tri._text_rows()
    assert "rows" not in vars(tri) and tri._ints is not None
    rows = tri.rows
    assert tri._ints is None and {type(v) for row in rows for v in row} == {ParamPoly}
    assert tri._text_rows() == texts
    assert {fmt: getattr(tri, f"to_{fmt}")() for fmt in written} == written


def test_product_rule_and_inverse():
    left = build_recurrence("S", F(1, 2), F(2), F(1), 8)
    right = build_recurrence("S", F(2), F(-1), F(1, 2), 8)
    prod = triangle_product(left, right)
    direct = build_recurrence("S", F(1, 2), F(-1), F(3, 2), 8)
    assert prod.rows == direct.rows
    inv = build_recurrence("S", F(2), F(1, 2), F(-1), 8)
    assert triangle_product(left, inv).rows == identity_triangle(F(1, 2), 8).rows
    # mismatched inner parameter is rejected
    with pytest.raises(ValueError):
        triangle_product(left, build_recurrence("S", F(3), F(1), F(0), 8))


def test_ldu_and_reflection():
    assert vandermonde_ldu_check(F(-2), F(1), F(3), 8)
    assert vandermonde_ldu_check(F(1, 2), F(2), F(-1), 8)
    assert reflection_check(F(1, 2), F(2), F(-1), 8)
    assert reflection_check(F(0), F(1), F(1), 8)


@pytest.mark.parametrize("module, check, args", [
    (triangles, vandermonde_ldu_check, (F(1, 2), F(2), F(-1), 8)),
    (triangles, reflection_check, (F(1, 2), F(2), F(-1), 8)),
    (identities, hermite_identity_check, (8,)),
], ids=["ldu", "reflection", "hermite"])
def test_a_row_check_fails_on_one_wrong_recurrence_entry(monkeypatch, module, check, args):
    """Each boolean row check returns False when the first rows it reads
    from the integer recurrence have entry (5, 2) off by one."""
    assert check(*args)
    real = triangles._recurrence_rows
    calls = []

    def one_entry_off(*call):
        rows = real(*call)
        if not calls:
            rows[5][2] += 1
        calls.append(call)
        return rows

    monkeypatch.setattr(module, "_recurrence_rows", one_entry_off)
    assert not check(*args)
    assert calls


def test_shift_r_newton_series():
    base = build_recurrence("S", F(1, 2), F(2), F(0), 7)
    target = build_recurrence("S", F(1, 2), F(2), F(3, 2), 7)
    assert shift_r(base, F(3, 2), "NewtonAlpha").rows == target.rows
    assert shift_r(base, F(3, 2), "NewtonBeta").rows == target.rows
    baseh = build_recurrence("Shat", F(1, 2), F(2), F(0), 7)
    targeth = build_recurrence("Shat", F(1, 2), F(2), F(3, 2), 7)
    assert shift_r(baseh, F(3, 2), "NewtonAlpha").rows == targeth.rows
    assert shift_r(baseh, F(3, 2), "NewtonBeta").rows == targeth.rows


def test_shift_r_subset_to_r_stirling():
    """Shifting the subset triangle by r = 1 gives the row-shifted subset
    numbers S(n+1, k+1), a classical difference identity."""
    base = build_recurrence("S", 0, 1, 0, 7)
    shifted = shift_r(base, F(1), "NewtonBeta")
    for n in range(8):
        for k in range(n + 1):
            assert shifted.entry(n, k) == stirling_subset(n + 1, k + 1)


def test_shift_r_modified_bookkeeping():
    """For the modified triangle at (-1, 2), the unit shift relates to the
    shifted triangle through Shat_{n+1,k+1}/(2(k+1))."""
    base = build_recurrence("Shat", -1, 2, 0, 8)
    big = build_recurrence("Shat", -1, 2, 1, 8)
    # r-shift identity specialized to beta = 2: entries divide exactly
    shifted = shift_r(base, F(1), "NewtonBeta")
    assert shifted.rows == big.rows


def test_json_round_trip():
    tri = build_recurrence("E", F(-1), F(2), F(2), 5)
    again = Triangle.from_json(tri.to_json())
    assert again == tri
    assert again.rows == tri.rows


def test_json_rejects_garbage():
    with pytest.raises(ValueError):
        Triangle.from_json("not json at all {")
    with pytest.raises(ValueError):
        Triangle.from_json('{"kind": "S"}')


def _tampered_json(edit) -> str:
    payload = json.loads(build_recurrence("S", F(1, 2), 2, 3, 3).to_json())
    edit(payload)
    return json.dumps(payload)


@pytest.mark.parametrize("edit, message", [
    (lambda p: p["rows"][2].__setitem__(1, 0.5), "row 2, column 1: floats are not accepted"),
    (lambda p: p["rows"][3].__setitem__(2, None), "row 3, column 2: "),
    (lambda p: p["rows"].__setitem__(1, "1"), "row 1 is not a list"),
    (lambda p: p["rows"][3].__setitem__(0, "1/0"), "row 3, column 0: Fraction(1, 0)"),
    (lambda p: p.__setitem__("beta", None), "'beta': "),
    (lambda p: p.__setitem__("rows", 7), "'rows' is not a list"),
    (lambda p: p.__setitem__("rows", []), "'rows' is empty"),
    (lambda p: p["rows"][2].__setitem__(0, True), "row 2, column 0: booleans are not accepted"),
    (lambda p: p.__setitem__("r", False), "'r': booleans are not accepted"),
], ids=["float", "null", "row-not-a-list", "zero-denominator", "null-parameter", "rows-not-a-list",
        "no-rows", "true-entry", "false-parameter"])
def test_json_rejects_malformed_payloads_with_value_error(edit, message):
    with pytest.raises(ValueError, match="^triangle JSON ") as info:
        Triangle.from_json(_tampered_json(edit))
    assert message in str(info.value)


def test_a_triangle_needs_row_zero():
    with pytest.raises(ValueError, match="row 0"):
        Triangle("S", F(1), F(1), F(0), ())


@pytest.mark.parametrize("n, k, text", [
    (2, 1, "2/4"), (2, 1, "5/10"), (3, 2, "03"), (3, 0, "-0"), (4, 4, "1/5"),
])
def test_json_reads_entries_not_written_by_to_json_exactly(n, k, text):
    """Entries off the written form (not in lowest terms, padded, off the
    ``q^degree`` lattice) read as their exact values and export canonically."""
    tri = build_recurrence("E", F(1, 2), 1, 0, 4)  # q = 2; (2, 1) is 1/2 at degree 2
    payload = json.loads(tri.to_json())
    payload["rows"][n][k] = text
    read = Triangle.from_json(json.dumps(payload))
    rows = [list(row) for row in tri.rows]
    rows[n][k] = F(text)
    expected = Triangle("E", tri.alpha, tri.beta, tri.r, tuple(map(tuple, rows)))
    assert read.entry(n, k) == F(text)
    assert read == expected and expected == read
    assert read.to_json() == expected.to_json()
    assert read.rows == expected.rows
    assert (read == tri) == (F(text) == tri.rows[n][k])


@pytest.mark.parametrize("kind", ["S", "Shat", "E"])
def test_json_reads_a_tall_export_back(kind, capsys):
    from weylstir.cli import main

    assert main(["triangle", "--kind", kind, "--alpha=17/11", "--beta=16/9", "--r=-11/7",
                 "--n", "64", "--format", "json"]) == 0
    out = capsys.readouterr().out
    read = Triangle.from_json(out)
    built = build_recurrence(kind, F(17, 11), F(16, 9), F(-11, 7), 64)
    assert read == built and built == read and not read != built
    assert read.to_json() == out.strip()
    assert "rows" not in vars(read)  # it wrote the text it read
    assert read.entry(64, 30) == built.entry(64, 30)
    assert read.rows == built.rows


def test_a_read_triangle_behaves_as_the_built_one():
    params = (F(2, 3), F(-1, 2), F(5, 6))
    built = build_recurrence("Shat", *params, 5)
    symbolic = symbolic_triangle("Shat", 5)
    # triangles holding the rows they were given (tuples or lists), a read
    # triangle, two held as unreduced integers over q^degree, and symbolic ones
    listed = Triangle("Shat", *params, [list(row) for row in built.rows])
    cases = [(made, built) for made in (
        build_recurrence("Shat", *params, 5), Triangle("Shat", *params, built.rows), listed,
        Triangle.from_json(built.to_json()), triangle_by_sum("Shat", *params, 5),
        triangle_by_transform("Shat", *params, 5),
    )] + [(made, symbolic) for made in (
        symbolic_triangle("Shat", 5),
        Triangle("Shat", ALPHA, BETA, R, [list(row) for row in symbolic.rows]),
    )]
    # two triangles of one (kind, q, N) share their denominator rows
    assert cases[4][0]._ints[1] is cases[5][0]._ints[1]
    for read, same in cases:
        assert hash(read) == hash(same) and repr(read) == repr(same)
        assert read.N == 5 and read.entry(5, 6) == 0 and read.entry(2, -1) == 0
        assert read.entry(4, 2) == same.entry(4, 2)
        with pytest.raises(IndexError):
            read.entry(6, 0)
        for n in (-1, 6):
            with pytest.raises(IndexError):
                read.row(n)
        for name in ("rows", "kind", "other"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(read, name, None)
        assert pickle.loads(pickle.dumps(read)) == same
        moved = dataclasses.replace(read, r=F(1))
        assert type(moved) is Triangle
        assert moved == Triangle("Shat", same.alpha, same.beta, F(1), same.rows)
        assert read.to_csv() == same.to_csv() and read.to_latex() == same.to_latex()
        assert read.to_text() == same.to_text() and read.to_json() == same.to_json()
        assert read != (built if read.is_symbolic else symbolic)
        assert read != build_recurrence("Shat", 0, 1, 0, 5)


@pytest.mark.parametrize("make", [
    lambda t: Triangle.from_json(t.to_json()),
    lambda t: triangle_by_sum("E", t.alpha, t.beta, t.r, t.N),
], ids=["read", "sum"])
def test_a_pair_triangle_pickles_without_its_built_rows(make):
    """A triangle held as integer pairs pickles them alone before its rows
    are read, and the rows alone after, and either way comes back equal,
    with the same rows and hash."""
    tri = make(build_recurrence("E", F(17, 11), F(16, 9), F(-11, 7), 24))
    assert tri._ints is not None
    before = pickle.dumps(tri)
    rows = tri.rows
    after = pickle.dumps(tri)
    assert pickle.loads(before)._ints is not None and pickle.loads(after)._ints is None
    for data in (before, after):
        back = pickle.loads(data)
        assert back == tri and back.rows == rows and hash(back) == hash(tri)
        for fmt in ("json", "text", "csv", "latex"):
            assert getattr(back, f"to_{fmt}")() == getattr(tri, f"to_{fmt}")()


def test_a_read_triangle_pickles_its_pairs_without_the_texts():
    """The texts a read triangle keeps are ``str`` of its entries, so the
    pickle carries the integer pairs alone and the triangle writes the same
    bytes after a round trip."""
    text = build_recurrence("E", F(17, 11), F(16, 9), F(-11, 7), 64).to_json()
    read = Triangle.from_json(text)
    data = pickle.dumps(read)
    assert len(data) <= 290_000
    back = pickle.loads(data)
    assert back._texts is None and back == read
    assert back.to_json() == text


@pytest.mark.parametrize("make", [
    lambda: build_recurrence("S", F(9, 7), F(-13, 9), F(17, 11), 12),
    lambda: Triangle("E", F(1, 2), 1, 0, build_recurrence("E", F(1, 2), 1, 0, 6).rows),
    lambda: triangle_by_sum("Shat", F(-10, 9), F(15, 11), F(13, 7), 12),
    lambda: Triangle.from_json(build_recurrence("E", F(14, 11), F(-8, 7), F(11, 9), 12).to_json()),
    lambda: symbolic_triangle("Shat", 6),
], ids=["recurrence", "given-rows", "sum", "read", "symbolic"])
def test_to_json_writes_the_bytes_of_json_dumps(make):
    tri = make()
    payload = {"kind": tri.kind, "alpha": str(tri.alpha), "beta": str(tri.beta), "r": str(tri.r),
               "rows": [[str(v) for v in row] for row in tri.rows]}
    assert tri.to_json() == json.dumps(payload)


def test_a_scheme_triangle_compares_without_building_rows():
    params = (F(-3, 4), F(5, 6), F(7, 3))
    got = triangle_by_sum("E", *params, 6)
    assert got == build_recurrence("E", *params, 6)
    assert got == triangle_by_transform("E", *params, 6)
    assert got == Triangle.from_json(build_recurrence("E", *params, 6).to_json())
    assert "rows" not in vars(got)
    # the integer matrix algebra and shifts read scheme triangles unbuilt too
    left = triangle_by_decomposition(*params, 6)
    right = triangle_by_decomposition(params[1], params[0], -params[2], 6)
    assert triangle_product(left, right) == identity_triangle(params[0], 6)
    base = triangle_by_sum("Shat", params[0], params[1], 0, 6)
    shifted = shift_r(base, params[2], "NewtonBeta")
    assert shifted == build_recurrence("Shat", *params, 6)
    assert all("rows" not in vars(t) for t in (left, right, base, shifted))
    assert got.rows is got.rows  # built once, on first read


@pytest.mark.parametrize("kind, scheme", [
    ("S", lambda a, b, r, n: triangle_by_decomposition(a, b, r, n)),
    ("Shat", lambda a, b, r, n: triangle_by_sum("Shat", a, b, r, n)),
    ("E", lambda a, b, r, n: triangle_by_transform("E", a, b, r, n)),
], ids=["decomposition", "sum", "transform"])
@pytest.mark.parametrize("n, k", [(0, 0), (4, 0), (4, 2), (5, 5)])
def test_one_numerator_off_by_one_is_unequal(kind, scheme, n, k):
    params = (F(2, 3), F(-1, 2), F(5, 6))
    good = scheme(*params, 5)
    good_nums, good_dens = good._ints
    nums = [list(row) for row in good_nums]
    nums[n][k] += 1  # same q, so the same denominator rows
    bad = Triangle._of(kind, *params, nums, good_dens)
    rec = build_recurrence(kind, *params, 5)
    for other in (good, rec, Triangle.from_json(rec.to_json()), Triangle(kind, *params, rec.rows)):
        assert bad != other and other != bad
        assert not bad == other and not other == bad
    assert bad.entry(n, k) == rec.entry(n, k) + F(1, good_dens[n][k])


def test_a_shift_that_does_not_divide_stays_unequal():
    """A base entry off the integer lattice makes the NewtonBeta sum for
    Shat leave a remainder; the shift keeps it rather than truncating."""
    good = build_recurrence("Shat", 1, 2, 0, 4)
    rows = [list(row) for row in good.rows]
    rows[2][1] += F(1, 2)
    bad = Triangle("Shat", good.alpha, good.beta, good.r, tuple(map(tuple, rows)))
    shifted = shift_r(bad, 0, "NewtonBeta")
    assert shifted != good and good != shifted
    assert shifted.entry(2, 1) == good.entry(2, 1) + F(1, 2)


@pytest.mark.parametrize("text", ["5", "null"])
def test_json_rejects_a_payload_that_is_not_an_object(text):
    with pytest.raises(ValueError, match="must be an object"):
        Triangle.from_json(text)


def test_csv_and_latex_and_text():
    tri = build_recurrence("S", 0, 1, 0, 2)
    assert tri.to_csv().splitlines() == ["1", "0,1", "0,1,1"]
    assert "\\\\" in tri.to_latex()
    assert tri.to_text().splitlines()[2] == "0, 1, 1"
    # rational entries: LaTeX writes \frac{p}{q} with the sign outside,
    # text and CSV keep p/q
    tri = build_recurrence("S", F(1, 2), 3, F(-1, 3), 2)
    assert tri.to_latex().splitlines()[2:4] == [
        r"-\frac{1}{3} & 1 \\", r"\frac{5}{18} & \frac{11}{6} & 1 \\"]
    assert tri.to_csv().splitlines()[2] == "5/18,11/6,1"
    assert tri.to_text().splitlines()[1] == "-1/3, 1"


def test_conjecture_checker_reports_both_conventions():
    rep = conjecture_check(n_max=6, r_min=-2, r_max=4)
    assert rep.total == 7 * 28
    # the stated summation range matches the recurrence everywhere...
    assert not rep.mismatches_stated
    # ...while truncating j to naturals loses the r >= 3 cells
    assert rep.mismatches_truncated
    assert all(c.r >= 3 for c in rep.convention_sensitive)
    # the (-1, 2; r) rows are integer rows, and so are both sums
    assert {type(getattr(c, name)) for c in rep.cells
            for name in ("recurrence", "sum_stated", "sum_truncated")} == {int}



# ---------------------------------------------------------------------------
# the build_recurrence cache: one triangle per parameter point
# ---------------------------------------------------------------------------


_real_recurrence_rows = triangles._recurrence_rows


def _private_cache(monkeypatch, maxsize=4096):
    """Give build_recurrence a cache of its own, and record the row range
    of every integer recurrence run as ``(first new row, last row)``."""
    cache = lru_cache(maxsize=maxsize)(triangles._recurrence_rows_cached.__wrapped__)
    monkeypatch.setattr(triangles, "_recurrence_rows_cached", cache)
    runs = []

    def recording(kind, a, b, r, N, start=None):
        runs.append((1 if start is None else len(start), N))
        return _real_recurrence_rows(kind, a, b, r, N, start)

    monkeypatch.setattr(triangles, "_recurrence_rows", recording)
    return cache, runs


def _fresh(kind, a, b, r, N, monkeypatch):
    with monkeypatch.context() as m:
        _private_cache(m)
        return build_recurrence(kind, a, b, r, N)


@pytest.mark.parametrize("kind", ["S", "Shat", "E"])
def test_a_shorter_request_is_a_prefix_of_the_cached_triangle(kind, monkeypatch):
    point = (F(-3, 7), F(5, 9), F(13, 11))
    cache, runs = _private_cache(monkeypatch)
    build_recurrence(kind, *point, 20)
    before, seen = cache.cache_info(), len(runs)
    short = build_recurrence(kind, *point, 7)
    assert cache.cache_info().hits == before.hits + 1
    assert cache.cache_info().misses == before.misses
    assert len(runs) == seen  # no row computed
    assert short == _fresh(kind, *point, 7, monkeypatch)
    assert type(short.rows) is tuple and all(type(row) is tuple for row in short.rows)


@pytest.mark.parametrize("kind", ["S", "Shat", "E"])
def test_a_taller_request_extends_the_cached_triangle_in_integers(kind, monkeypatch):
    point = (F(9, 7), F(-13, 9), F(17, 11))
    cache, runs = _private_cache(monkeypatch)
    build_recurrence(kind, *point, 6)
    runs.clear()
    tall = build_recurrence(kind, *point, 15)
    assert runs == [(7, 15)]  # rows 7..15 only
    assert tall == _fresh(kind, *point, 15, monkeypatch)
    assert type(tall.rows) is tuple and all(type(row) is tuple for row in tall.rows)
    assert build_recurrence(kind, *point, 6).rows == tall.rows[:7]
    assert cache.cache_info().currsize == 1


def test_the_catalog_and_the_classical_tables_share_the_integer_row_memo(monkeypatch):
    """katriel.norm reads row n of S at (0, 1; 0), the subset table, so
    after verifying it to n = 6 the subset numbers of row 6 build no row."""
    _private_integer_row_memo(monkeypatch)
    assert verify_identity(TEMPLATES["katriel.norm"], n_max=6).ok
    runs = []
    recurrence = triangles._recurrence_rows

    def recording(*args, **kwargs):
        runs.append(args)
        return recurrence(*args, **kwargs)

    monkeypatch.setattr(triangles, "_recurrence_rows", recording)
    assert [stirling_subset(6, k) for k in range(7)] == [0, 1, 31, 90, 65, 15, 1]
    assert runs == []


def test_the_integer_row_checks_leave_the_recurrence_cache_alone(monkeypatch):
    """The LDU, reflection and Hermite checks compare integer recurrence
    rows at the scaled point, and the classical tables grow by the integer
    recurrence, so none of them fills or reads the cache behind
    build_recurrence."""
    cache, _ = _private_cache(monkeypatch)
    _private_integer_row_memo(monkeypatch)
    point = (F(-3, 7), F(5, 9), F(13, 11))
    assert vandermonde_ldu_check(*point, 8)
    assert reflection_check(*point, 8)
    assert hermite_identity_check(8)
    assert triangle_by_decomposition(*point, 10).N == 10
    assert decompose_classical(12, 5, *point) != 0
    assert stirling_subset(14, 3) == 788970 and stirling_cycle(16, 2) == 4339163001600
    info = cache.cache_info()
    assert (info.hits, info.misses, info.currsize) == (0, 0, 0)


def test_a_small_cache_evicts_whole_parameter_points(monkeypatch):
    cache, runs = _private_cache(monkeypatch, maxsize=2)
    points = [(F(1, 2), F(2), F(k)) for k in range(3)]
    for N in (4, 9):
        for p in points[:2]:
            build_recurrence("S", *p, N)
    assert cache.cache_info().currsize == 2  # one entry per point, any N
    build_recurrence("S", *points[2], 3)  # evicts points[0], the least recent
    runs.clear()
    again = build_recurrence("S", *points[0], 5)
    assert runs == [(1, 5)]  # rebuilt from row 0, not from row 9
    assert cache.cache_info().currsize == 2
    assert again == _fresh("S", *points[0], 5, monkeypatch)
    runs.clear()
    build_recurrence("S", *points[2], 2)
    assert runs == []


class _CountingFraction(F):
    """``Fraction``, counting the instances built through this name."""

    built = 0

    def __new__(cls, *args, **kwargs):
        _CountingFraction.built += 1
        return F(*args, **kwargs)


def _count_fractions(monkeypatch):
    _CountingFraction.built = 0
    monkeypatch.setattr(triangles, "Fraction", _CountingFraction)
    return _CountingFraction


def test_the_integer_cross_checks_build_no_fraction(monkeypatch):
    """Recurrence triangles stay integer rows through every ``==`` against
    the other schemes, as product operands and targets and as shift bases;
    only reading ``rows`` builds ``Fraction``s."""
    _private_cache(monkeypatch)
    counter = _count_fractions(monkeypatch)
    a, b, r, gamma, r2 = F(-3, 4), F(5, 6), F(7, 3), F(2, 3), F(-1, 2)
    n = 8
    rec = {kind: build_recurrence(kind, a, b, r, n) for kind in triangles.KINDS}
    assert triangle_by_sum("Shat", a, b, r, n) == rec["Shat"]
    assert triangle_by_sum("E", a, b, r, n) == rec["E"]
    assert triangle_by_transform("Shat", a, b, r, n) == rec["Shat"]
    assert triangle_by_transform("E", a, b, r, n) == rec["E"]
    assert triangle_by_decomposition(a, b, r, n) == rec["S"]
    assert triangle_product(rec["S"], build_recurrence("S", b, a, -r, n)) == identity_triangle(a, n)
    assert (triangle_product(rec["S"], build_recurrence("S", b, gamma, r2, n))
            == build_recurrence("S", a, gamma, r + r2, n))
    for kind in ("S", "Shat"):
        base = build_recurrence(kind, a, b, 0, n)
        for scheme in ("NewtonAlpha", "NewtonBeta"):
            assert shift_r(base, r, scheme) == rec[kind]
    assert counter.built == 0
    rec["E"].rows
    assert counter.built == (n + 1) * (n + 2) // 2


def test_a_repeated_request_returns_the_cached_triangle(monkeypatch):
    _private_cache(monkeypatch)
    point = (F(2, 5), F(-7, 3), F(1, 4))
    for kind in triangles.KINDS:
        tri = build_recurrence(kind, *point, 9)
        assert build_recurrence(kind, *point, 9) is tri
        tri.rows
        assert build_recurrence(kind, *point, 9) is tri


def test_the_first_rows_read_converts_the_tall_triangle_once(monkeypatch):
    """The first read turns the cached triangle's integer rows into
    ``Fraction`` rows, which it keeps in place of the integers and every
    later prefix of that point shares; a taller request after it builds the
    integer rows again from row 0."""
    _, runs = _private_cache(monkeypatch)
    counter = _count_fractions(monkeypatch)
    point = (F(-3, 7), F(5, 9), F(13, 11))
    short = build_recurrence("E", *point, 6)
    tall = build_recurrence("E", *point, 12)
    assert short._ints is not None and tall._ints is not None
    rows = tall.rows
    assert counter.built == 13 * 14 // 2
    assert tall._ints is None and vars(tall)["rows"] is rows
    assert build_recurrence("E", *point, 12) is tall
    assert all(got is want for got, want in zip(build_recurrence("E", *point, 4).rows, rows))
    assert counter.built == 13 * 14 // 2  # no row converted twice
    assert short.rows == rows[:7]
    runs.clear()
    taller = build_recurrence("E", *point, 15)
    assert runs == [(1, 15)]
    assert taller == _fresh("E", *point, 15, monkeypatch)


def test_threads_reading_a_shared_triangle_first_get_its_rows(monkeypatch):
    """Threads that read ``rows`` of one unread cached triangle at once each
    get its rows, and the triangle keeps them in place of its integers; a
    read that finds the integers gone returns the stored rows."""
    cache, _ = _private_cache(monkeypatch)
    point = (F(-5, 7), F(4, 9), F(3, 11))
    want = _fresh("E", *point, 24, monkeypatch).rows

    def read(tri, barrier, got):
        try:
            barrier.wait(timeout=60)
            got.append(tri.rows)
        except Exception as exc:  # reported by the main thread
            got.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            cache.cache_clear()
            tri = build_recurrence("E", *point, 24)
            barrier, got = threading.Barrier(6), []
            threads = [threading.Thread(target=read, args=(tri, barrier, got)) for _ in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
            assert got == [want] * 6
            assert tri._ints is None and tri.rows == want
    finally:
        sys.setswitchinterval(interval)
    # a thread that found no rows stored, just before another stored them
    assert vars(Triangle)["rows"].__get__(tri) is tri.rows


def test_threads_sharing_the_cache_and_the_kept_pair_read_right_values(monkeypatch):
    """Threads that extend, convert and read one cache entry, evaluate
    closed forms at alternating pairs, and scale argument tuples of
    alternating lengths, each get the values a lone caller gets: every
    state is replaced whole."""
    _private_cache(monkeypatch)
    point = (F(-5, 7), F(4, 9), F(3, 11))
    want = {n: _fresh("Shat", *point, n, monkeypatch).rows for n in range(4, 16)}
    pairs = [(F(2, 3), F(-5, 4)), (F(7, 5), F(3, 2))]
    forms = {pair: [triangles.closed_form("E_i", 6, k, *pair) for k in range(7)] for pair in pairs}
    calls = [(), (F(2, 3),), pairs[0], (*point, F(1, 6))]
    scaled = {args: kernels.scale_params(*args) for args in calls}
    errors = []

    def work(seed):
        try:
            rng = random.Random(seed)
            for _ in range(60):
                n = rng.randrange(4, 16)
                tri = build_recurrence("Shat", *point, n)
                if rng.random() < 0.5 and tri.rows != want[n]:
                    errors.append(("rows", n))
                elif tri != Triangle("Shat", *point, want[n]):
                    errors.append(("==", n))
                pair = pairs[rng.randrange(2)]
                if [triangles.closed_form("E_i", 6, k, *pair) for k in range(7)] != forms[pair]:
                    errors.append(("closed_form", pair))
                args = calls[rng.randrange(len(calls))]
                if kernels.scale_params(*args) != scaled[args]:
                    errors.append(("scale_params", args))
                if rng.random() < 0.2:
                    triangles._recurrence_rows_cached.cache_clear()
        except Exception as exc:  # a thread's failure is reported by the main thread
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(seed,)) for seed in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
