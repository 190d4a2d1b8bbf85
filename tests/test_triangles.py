"""Triangle construction schemes, serialization, transforms and shifts."""

import dataclasses
import json
import pickle
from fractions import Fraction as F
from functools import lru_cache

import pytest

from weylstir import triangles
from weylstir.egf import egf_coefficients
from weylstir.identities import adjoint_pairing_check, hermite_identity_check, ttv_check
from weylstir.kernels import binomial_general, strided_falling, strided_rising
from weylstir.poly import ALPHA, BETA, R, ParamPoly
from weylstir.triangles import (
    Triangle,
    binomial_transform,
    build_recurrence,
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
    for b in (F(0), F(2), F(-1, 2)):
        s = build_recurrence("S", F(1), b, F(3), 8)
        sh = build_recurrence("Shat", F(1), b, F(3), 8)
        for n in range(9):
            assert shat_from_s_row(s.row(n), b) == sh.row(n)


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
]


@pytest.mark.parametrize("func, args", _NEGATIVE_BOUNDS,
                         ids=[func.__name__ for func, _ in _NEGATIVE_BOUNDS])
def test_a_negative_bound_is_a_value_error(func, args):
    """A negative size or degree is refused, never read as an empty check."""
    with pytest.raises(ValueError, match="natural"):
        func(*args)


def test_binomial_transform_round_trip():
    e = build_recurrence("E", F(-1), F(2), F(1), 8)
    sh = build_recurrence("Shat", F(-1), F(2), F(1), 8)
    for n in range(9):
        assert binomial_transform(e.row(n), "EToShat") == sh.row(n)
        assert binomial_transform(sh.row(n), "ShatToE") == e.row(n)


def test_decomposition_single_entry_and_triangle():
    t1 = build_recurrence("S", F(3), F(-1, 2), F(2), 8)
    t2 = triangle_by_decomposition(F(3), F(-1, 2), F(2), 8)
    assert t1.rows == t2.rows
    assert decompose_classical(6, 2, F(3), F(-1, 2), F(2)) == t1.entry(6, 2)
    # zero parameters exercise the 0^0 = 1 convention
    assert triangle_by_decomposition(0, 0, 0, 5).rows == build_recurrence("S", 0, 0, 0, 5).rows


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
    assert read.entry(64, 30) == built.entry(64, 30)
    assert read.rows == built.rows


def test_a_read_triangle_behaves_as_the_built_one():
    built = build_recurrence("Shat", F(2, 3), F(-1, 2), F(5, 6), 5)
    read = Triangle.from_json(built.to_json())
    assert hash(read) == hash(built) and repr(read) == repr(built)
    assert read.N == 5 and read.entry(5, 6) == 0 and read.entry(2, -1) == 0
    with pytest.raises(IndexError):
        read.entry(6, 0)
    for name in ("rows", "kind", "other"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(read, name, None)
    assert pickle.loads(pickle.dumps(read)) == built
    moved = dataclasses.replace(read, r=F(1))
    assert moved == Triangle("Shat", F(2, 3), F(-1, 2), F(1), built.rows)
    assert read.to_csv() == built.to_csv() and read.to_latex() == built.to_latex()
    assert read.to_text() == built.to_text()
    assert read != symbolic_triangle("Shat", 5) and read != build_recurrence("Shat", 0, 1, 0, 5)


@pytest.mark.parametrize("text", ["5", "null"])
def test_json_rejects_a_payload_that_is_not_an_object(text):
    with pytest.raises(ValueError, match="must be an object"):
        Triangle.from_json(text)


def test_csv_and_latex_and_text():
    tri = build_recurrence("S", 0, 1, 0, 2)
    assert tri.to_csv().splitlines() == ["1", "0,1", "0,1,1"]
    assert "\\\\" in tri.to_latex()
    assert tri.to_text().splitlines()[2] == "0, 1, 1"


def test_conjecture_checker_reports_both_conventions():
    rep = conjecture_check(n_max=6, r_min=-2, r_max=4)
    assert rep.total == 7 * 28
    # the stated summation range matches the recurrence everywhere...
    assert not rep.mismatches_stated
    # ...while truncating j to naturals loses the r >= 3 cells
    assert rep.mismatches_truncated
    assert all(c.r >= 3 for c in rep.convention_sensitive)


# ---------------------------------------------------------------------------
# the build_recurrence cache: one triangle per parameter point
# ---------------------------------------------------------------------------


_integer_rows = triangles._recurrence_rows


def _private_cache(monkeypatch, maxsize=4096):
    """Give build_recurrence a cache of its own, and record the row range
    of every integer recurrence run as ``(first new row, last row)``."""
    cache = lru_cache(maxsize=maxsize)(triangles._recurrence_rows_cached.__wrapped__)
    monkeypatch.setattr(triangles, "_recurrence_rows_cached", cache)
    runs = []

    def recording(kind, a, b, r, N, one, start=None):
        runs.append((1 if start is None else len(start), N))
        return _integer_rows(kind, a, b, r, N, one, start)

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


def test_the_integer_row_checks_leave_the_recurrence_cache_alone(monkeypatch):
    """The LDU, reflection and Hermite checks compare integer recurrence
    rows at the scaled point, so they neither fill nor read the cache behind
    build_recurrence."""
    cache, _ = _private_cache(monkeypatch)
    point = (F(-3, 7), F(5, 9), F(13, 11))
    assert vandermonde_ldu_check(*point, 8)
    assert reflection_check(*point, 8)
    assert hermite_identity_check(8)
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
