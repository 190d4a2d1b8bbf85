"""Acceptance sweep: the nine top-level correctness criteria.

One test per criterion; each prints a single ``[PASS]``/``[FAIL]`` line and
asserts exact equality (never a tolerance).  The criteria:

  1. cross-scheme triangle equality on a 7^3 parameter grid and, for all
     parameters, on the order-12 principal lattice, n <= 12;
  2. all sixteen closed-form families match the recurrence, n <= 12;
  3. matrix algebra: product rule, inverse pair, LDU, reflection (N <= 10);
  4. truncated EGFs reproduce triangle entries (n, k <= 10, 8 triples);
  5. the full 42-template operator identity catalog on its declared grids,
     including the independent string-rewriting channel;
  6. prefactor exponent tables stay admissible on every grid cell;
  7. both Hermite expansion identities, n <= 12;
  8. the conjecture report completes, its stated range matches the
     recurrence (for every integer r at n <= 12), and neighboring closed
     forms agree for r in {0..3};
  9. embedded fixture rows regenerate and enumeration oracles agree, n <= 8.
"""

import itertools
from fractions import Fraction as F

from weylstir.egf import egf_coefficients
from weylstir.fixtures import check_all
from weylstir.identities import (
    TEMPLATES,
    TEMPLATE_ORDER,
    hermite_identity_check,
    verify_identity,
    wc_admissibility_check,
)
from weylstir.oracles import combinatorial_oracle
from weylstir.triangles import (
    CLOSED_FORM_FAMILIES,
    binomial_transform,
    build_recurrence,
    closed_form,
    closed_form_params,
    conjecture_check,
    identity_triangle,
    reflection_check,
    shat_from_s_row,
    triangle_by_decomposition,
    triangle_by_sum,
    triangle_by_transform,
    triangle_product,
    vandermonde_ldu_check,
)

GRID7 = (F(-2), F(-1), F(0), F(1, 2), F(1), F(2), F(3))


def _report(num: int, ok: bool, text: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {text}")


# the order-12 principal lattice in (alpha, beta, r), mapped by a -> (a - 3)/2:
# a polynomial of total degree <= 12 that vanishes on it is zero (Chung and
# Yao, 1977), and every scheme's entry at rows <= 12 is one
LATTICE12 = [(F(i - 3, 2), F(j - 3, 2), F(k - 3, 2))
             for i in range(13) for j in range(13 - i) for k in range(13 - i - j)]


def _scheme_mismatches(points):
    bad = []
    for a, b, r in points:
        rec_s = build_recurrence("S", a, b, r, 12)
        rec_shat = build_recurrence("Shat", a, b, r, 12)
        rec_e = build_recurrence("E", a, b, r, 12)
        if triangle_by_sum("Shat", a, b, r, 12) != rec_shat:
            bad.append(("sum/Shat", a, b, r))
        if triangle_by_sum("E", a, b, r, 12) != rec_e:
            bad.append(("sum/E", a, b, r))
        if triangle_by_transform("Shat", a, b, r, 12) != rec_shat:
            bad.append(("transform/Shat", a, b, r))
        if triangle_by_transform("E", a, b, r, 12) != rec_e:
            bad.append(("transform/E", a, b, r))
        if triangle_by_decomposition(a, b, r, 12) != rec_s:
            bad.append(("decomposition/S", a, b, r))
        for n in range(13):
            if shat_from_s_row(rec_s.row(n), b) != rec_shat.row(n):
                bad.append(("rescale/Shat", a, b, r, n))
                break
    return bad


def test_criterion_1_cross_scheme_triangle_equality():
    bad = _scheme_mismatches(itertools.product(GRID7, repeat=3))
    bad += _scheme_mismatches(LATTICE12)
    ok = not bad
    _report(1, ok, f"recurrence, summation, transform, and decomposition "
                   f"schemes agree (343 triples, n <= 12; {len(LATTICE12)} "
                   f"lattice triples: for all parameters, n <= 12)")
    assert len(LATTICE12) == 455
    assert ok, f"{len(bad)} scheme mismatches, first: {bad[:3]}"


# which families expose a free r, and which also expose a free stride beta
_FREE_R = {"S_8F_iprime", "S_8F_iiprime", "S_8F_iiiprime", "S_8F_ivprime",
           "S_4F_v", "S_4F_vi", "E_i", "E_ii", "E_vi"}
_FREE_BETA = {"S_8F_iprime", "S_8F_iiprime", "E_i", "E_ii"}
_R_GRID = (F(-3), F(-2), F(-1), F(0), F(1), F(2), F(3), F(1, 2), F(-5, 2))
_BETA_GRID = (F(-2), F(-1), F(1, 2), F(1), F(3))


def test_criterion_2_closed_form_conformance():
    bad = []
    combos = 0
    for family in CLOSED_FORM_FAMILIES:
        rs = _R_GRID if family in _FREE_R else (F(0),)
        betas = _BETA_GRID if family in _FREE_BETA else (F(1),)
        for r, b in itertools.product(rs, betas):
            try:
                kind, aa, bb, rr = closed_form_params(family, r=r, beta=b)
            except ValueError:
                continue  # family undefined at this r (integer r >= 1 only)
            combos += 1
            rec = build_recurrence(kind, aa, bb, rr, 12)
            for n in range(13):
                for k in range(n + 1):
                    if closed_form(family, n, k, r=r, beta=b) != rec.entry(n, k):
                        bad.append((family, str(r), str(b), n, k))
    ok = not bad
    _report(2, ok, f"all 16 closed-form families match the recurrence "
                   f"({combos} parameter combinations, n <= 12)")
    assert ok, f"{len(bad)} closed-form mismatches, first: {bad[:3]}"


def test_criterion_3_matrix_algebra():
    bad = []
    checks = 0
    # inverse pair on the full grid, product rule for all (alpha, beta, gamma)
    # at two (r1, r2) choices
    for a, b, r in itertools.product(GRID7, repeat=3):
        checks += 1
        left = build_recurrence("S", a, b, r, 10)
        right = build_recurrence("S", b, a, -r, 10)
        if triangle_product(left, right) != identity_triangle(a, 10):
            bad.append(("inverse", a, b, r))
    for a, b, g in itertools.product(GRID7, repeat=3):
        for r1, r2 in ((F(1, 2), F(-2)), (F(3), F(1))):
            checks += 1
            prod = triangle_product(
                build_recurrence("S", a, b, r1, 10),
                build_recurrence("S", b, g, r2, 10),
            )
            if prod != build_recurrence("S", a, g, r1 + r2, 10):
                bad.append(("product", a, b, g, r1, r2))
    for a, b, r in itertools.product(GRID7, repeat=3):
        checks += 2
        if not vandermonde_ldu_check(a, b, r, 10):
            bad.append(("ldu", a, b, r))
        if not reflection_check(a, b, r, 10):
            bad.append(("reflection", a, b, r))
    ok = not bad
    _report(3, ok, f"product, inverse, LDU, and reflection hold on N <= 10 "
                   f"sections ({checks} checks)")
    assert ok, f"{len(bad)} matrix-algebra failures, first: {bad[:3]}"


_EGF_TRIPLES = [
    (F(1), F(1), F(0)),
    (F(-1), F(1), F(0)),
    (F(-1), F(2), F(1)),
    (F(0), F(1), F(1)),
    (F(0), F(3, 2), F(-1, 2)),
    (F(1, 2), F(2), F(-1)),
    (F(2), F(-1), F(3)),
    (F(-2), F(1, 2), F(1, 3)),
]


def test_criterion_4_egf_conformance():
    bad = []
    for kind in ("Shat", "E"):
        for a, b, r in _EGF_TRIPLES:
            rec = build_recurrence(kind, a, b, r, 10)
            C = egf_coefficients(kind, a, b, r, 10, 10)
            for n in range(11):
                for k in range(11):
                    expect = rec.entry(n, k) if k <= n else F(0)
                    if C[n][k] != expect:
                        bad.append((kind, str(a), str(b), str(r), n, k))
    ok = not bad
    _report(4, ok, f"EGF expansions reproduce both triangle kinds "
                   f"({len(_EGF_TRIPLES)} triples, n, k <= 10)")
    assert ok, f"{len(bad)} EGF mismatches, first: {bad[:3]}"


def test_criterion_5_operator_identity_catalog():
    failing = []
    cells = instances = action = degree = strings = 0
    for tid in TEMPLATE_ORDER:
        report = verify_identity(TEMPLATES[tid])
        cells += report.cells
        instances += report.instances
        action += report.action_probes
        degree = max(degree, report.action_degree)
        strings += report.string_probes
        if not report.ok:
            failing.append((tid, report.failures[:2]))
    ok = not failing
    _report(5, ok, f"all {len(TEMPLATE_ORDER)} identity templates pass "
                   f"({cells} cells, {instances} instances, {action} action "
                   f"certificates up to degree {degree}, {strings} string probes)")
    assert ok, f"templates with counterexamples: {failing}"
    # a faster verifier must certify exactly as much
    assert (cells, instances, action, degree, strings) == (3426, 24223, 24223, 6, 9741)


# per template: cells that are admissible, where decrementing E_L breaks
# admissibility, where decrementing E_R breaks it (of 256; a prefactor the
# form lacks counts as not breaking)
_ADMISSIBILITY_COUNTS = {
    "powerful.main1a": (256, 255, 0),
    "powerful.main1b": (256, 256, 256),
    "powerful.main2a": (256, 256, 256),
    "powerful.main2b": (256, 0, 255),
    "powerful2.2main1a": (256, 225, 235),
    "powerful2.2main1b": (256, 225, 235),
    "powerful2.2main2a": (256, 235, 225),
    "powerful2.2main2b": (256, 235, 225),
}
# the cells whose report has no decrement flag, as the form lacks that
# prefactor: kind S variant a has no E_R, variant d no E_L
_LACKING_COUNTS = {("powerful.main1a", "ER"): 256, ("powerful.main2b", "EL"): 256}


def test_criterion_6_prefactor_admissibility():
    bad = []
    checks = 0
    counts = {}
    lacking = {}
    for tid in _ADMISSIBILITY_COUNTS:
        flags = [0, 0, 0]
        for L, R, Lp, Rp in itertools.product(range(4), repeat=4):
            cell = {"L": F(L), "R": F(R), "Lp": F(Lp), "Rp": F(Rp)}
            rep = wc_admissibility_check(tid, cell)
            checks += 1
            if not rep.admissible:
                bad.append((tid, L, R, Lp, Rp))
            for i, flag in enumerate(
                (rep.admissible, rep.EL_decrement_breaks, rep.ER_decrement_breaks)
            ):
                flags[i] += bool(flag)
            for side in ("EL", "ER"):
                if getattr(rep, f"{side}_decrement_breaks") is None:
                    lacking[tid, side] = lacking.get((tid, side), 0) + 1
        counts[tid] = tuple(flags)
    ok = not bad
    _report(6, ok, f"prefactor exponent tables admissible on every cell "
                   f"({checks} checks over 8 templates)")
    assert ok, f"inadmissible cells: {bad[:5]}"
    # which prefactor is sharp is part of each form: kind S variant a has
    # no right prefactor to decrement, variant d no left one
    assert counts == _ADMISSIBILITY_COUNTS
    assert lacking == _LACKING_COUNTS


def test_criterion_7_hermite_identities():
    ok = hermite_identity_check(12)
    _report(7, ok, "both Hermite expansion identities hold exactly, n <= 12")
    assert ok


def test_criterion_8_conjecture_report():
    report = conjecture_check(n_max=10, r_min=-4, r_max=6)
    complete = report.total == 726
    stated_clean = not report.mismatches_stated

    # the neighboring closed forms: transform their Eulerian rows and compare
    transform_bad = []
    neighbors = {0: "E_iii", 1: "E_iv", 2: "E_v", 3: "E_vi"}
    for r, family in neighbors.items():
        shat = build_recurrence("Shat", -1, 2, r, 10)
        for n in range(11):
            erow = [closed_form(family, n, k, r=r) for k in range(n + 1)]
            if binomial_transform(erow, "EToShat") != list(shat.row(n)):
                transform_bad.append((family, r, n))
    # r = 0..25 holds 13 values of p per parity of r = 2p + zeta, one more
    # than the degree in p (conjecture_check gives the argument)
    every_r = conjecture_check(n_max=12, r_min=0, r_max=25)
    ok = (complete and stated_clean and not transform_bad
          and every_r.total == 2366 and not every_r.mismatches_stated)
    _report(8, ok, f"conjecture report complete ({report.total} cells; "
                   f"{len(report.mismatches_stated)} stated-range mismatches; "
                   f"closed-form neighbors consistent for r in 0..3); stated "
                   f"range for every integer r, n <= 12 ({every_r.total} cells; "
                   f"{len(every_r.mismatches_stated)} mismatches)")
    assert complete, f"expected 726 cells, saw {report.total}"
    assert stated_clean, f"stated-range mismatches: {report.mismatches_stated[:3]}"
    assert every_r.total == 2366, f"expected 2366 cells, saw {every_r.total}"
    assert not every_r.mismatches_stated, f"every-r mismatches: {every_r.mismatches_stated[:3]}"
    assert not transform_bad, f"neighbor transform failures: {transform_bad[:3]}"


_ENUMERATION_PAIRINGS = [
    ("SubsetPartitions", "S", 0, 1, 0),
    ("CycleCounts", "S", -1, 0, 0),
    ("LahLists", "S", -1, 1, 0),
    ("Descents", "E", 0, 1, 1),
    ("SignedDescents", "E", 0, 2, 1),
]


def test_criterion_9_fixtures_and_enumeration():
    fixtures_ok, diffs = check_all()
    bad = []
    for tag, kind, a, b, r in _ENUMERATION_PAIRINGS:
        tri = build_recurrence(kind, a, b, r, 8)
        for n in range(9):
            for k in range(n + 1):
                if combinatorial_oracle(tag, n, k) != tri.entry(n, k):
                    bad.append((tag, n, k))
    ok = fixtures_ok and not bad
    _report(9, ok, "all 7 embedded fixtures regenerate; 5 enumeration "
                   "oracles agree with the triangles, n <= 8")
    assert fixtures_ok, f"fixture diffs: {diffs[:5]}"
    assert not bad, f"enumeration mismatches: {bad[:5]}"
