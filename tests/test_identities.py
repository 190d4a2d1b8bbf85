"""Identity catalog completeness and the verification engine itself."""

import dataclasses
import hashlib
import tracemalloc
from fractions import Fraction as F
from functools import lru_cache

import pytest

from weylstir import identities, kernels, triangles
from weylstir.identities import (
    N_DEFAULT,
    TEMPLATES,
    TEMPLATE_ORDER,
    IdentityTemplate,
    TemplateInstance,
    VacuousRunError,
    adjoint_pairing_check,
    hermite_identity_check,
    normal_form,
    templates_matching,
    ttv_check,
    verify_identity,
    wc_admissibility_check,
)
from weylstir.boson import MAX_STRING_LENGTH, _normal_order
from weylstir.operators import OperatorExpr, Word, WordPower, XPower
from weylstir.triangles import _recurrence_rows_cached

# frozen catalog: insertion must preserve this list exactly
EXPECTED_IDS = (
    "major.1a", "major.1b", "major.2a", "major.2b", "major.lemma",
    "otherpair.a", "otherpair.b",
    "ttv", "difflr",
    "katriel.norm", "katriel.anti",
    "katrielplus.norm", "katrielplus.anti",
    "normord", "cor1", "special_corollary",
    "firstmain.2a", "firstmain.2b", "firstmain.2c", "firstmain.2d",
    "powerful.main1a", "powerful.main1b", "powerful.main2a", "powerful.main2b",
    "proposition", "sampleappl", "viewedas", "companion",
    "lah_triple", "s211_triple",
    "euleriank.1", "euleriank.2",
    "secondmain.2a", "secondmain.2b", "secondmain.2c", "secondmain.2d",
    "powerful2.2main1a", "powerful2.2main1b", "powerful2.2main2a", "powerful2.2main2b",
    "sampleeulerian", "last",
)


def test_catalog_is_in_bijection_with_frozen_list():
    assert TEMPLATE_ORDER == EXPECTED_IDS
    assert len(TEMPLATES) == 42
    assert set(TEMPLATES) == set(EXPECTED_IDS)


def test_prefix_matching():
    assert [t.id for t in templates_matching("katriel")] == [
        "katriel.norm", "katriel.anti", "katrielplus.norm", "katrielplus.anti",
    ]
    assert [t.id for t in templates_matching("katriel.")] == [
        "katriel.norm", "katriel.anti",
    ]
    assert [t.id for t in templates_matching("ttv")] == ["ttv"]
    assert templates_matching("zzz") == []


def test_every_grid_is_deterministic_and_nonempty():
    """Each call gives equal, fresh cells: changing one call's grid leaves
    the next call's grid unchanged."""
    for tid in TEMPLATE_ORDER:
        g1 = TEMPLATES[tid].grid()
        g2 = TEMPLATES[tid].grid()
        assert g1 == g2
        assert g1
        for cell in g1:
            assert set(cell) == set(TEMPLATES[tid].params)
        kept = [dict(cell) for cell in g2]
        for cell in g1:
            cell.update((name, value + 1) for name, value in cell.items())
            cell["extra"] = F(0)
        g1.append({})
        assert TEMPLATES[tid].grid() == kept


def test_integral_coefficients_are_ints():
    """Builders write every integral coefficient, of the expansion row and
    of each term, as an ``int``: over the first grid cells of every
    template at n <= 4."""
    checked, fractions = 0, []
    for tid in TEMPLATE_ORDER:
        template = TEMPLATES[tid]
        for cell in template.grid()[:8]:
            for n in template.run_powers([cell], 4):
                for inst in template.build(cell, n):
                    terms = (c for side in (inst.lhs, inst.rhs) for c, _ in side.terms)
                    for c in [*(inst.row or ()), *terms]:
                        if c.denominator == 1:
                            checked += 1
                            if type(c) is not int:
                                fractions.append((tid, n, c))
    assert checked > 5000
    assert fractions == []


def test_verify_identity_counts_probes():
    rep = verify_identity(TEMPLATES["katriel.norm"], n_max=5)
    assert rep.ok
    assert rep.instances == 6
    assert rep.action_probes == 6  # one symbolic certificate per instance
    assert rep.action_degree == 5
    assert rep.string_probes == 6  # fully admissible and short


def test_action_certificate_catches_a_term_the_old_probes_missed():
    """x^10 D^10 sends x^s to s (s-1) ... (s-9) x^s, which vanishes at
    s = 0..9; the action channel alone must still reject it at n = 10."""
    base = TEMPLATES["katriel.norm"]

    def bogus(p, n):
        (inst,) = base.build(p, n)
        extra = OperatorExpr.single(1, XPower(F(10)), WordPower(Word(F(0), F(0)), 10))
        return [TemplateInstance(inst.lhs, inst.rhs + extra)]

    template = IdentityTemplate(
        id="katriel.bogus", domain="WC", params=(), build=bogus, grid=lambda: [{}],
        n_min=10,
    )
    rep = verify_identity(template, n_max=10)
    assert not rep.ok
    assert rep.failures == [
        "katriel.bogus() n=10: action differs",
        "katriel.bogus() n=10: normal forms differ",
    ]
    assert rep.action_degree == 10


# the probe exponents of the former sampled action channel
_WC_S = tuple(F(i) for i in range(9))
_WTC_S = (F(0), F(1, 3), F(1), F(2), F(7, 2), F(-1, 2), F(5), F(-3), F(10, 3))


def _evaluate(action, s):
    out = {}
    for shift, poly in action.items():
        value = sum(c * s**k for k, c in enumerate(poly))
        if value:
            out[s + shift] = value
    return out


@pytest.mark.parametrize("tid", EXPECTED_IDS)
def test_action_polynomials_match_pointwise_action(tid):
    template = TEMPLATES[tid]
    n = 4 if template.uses_n else N_DEFAULT
    probes = _WC_S if template.domain == "WC" else _WTC_S
    for inst in template.build(template.grid()[0], n):
        for side in (inst.lhs, inst.rhs):
            action = side.certificate().action()
            assert all(poly and poly[-1] for poly in action.values())
            for s in probes:
                assert _evaluate(action, s) == side.act_on_monomial(s)


def test_verify_spots_a_false_identity():
    broken = IdentityTemplate(
        id="broken",
        domain="WC",
        params=(),
        build=lambda p, n: [
            __import__("weylstir.identities", fromlist=["TemplateInstance"]).TemplateInstance(
                OperatorExpr.single(1, XPower(F(0))),
                OperatorExpr.single(2, XPower(F(0))),
            )
        ],
        grid=lambda: [{}],
        uses_n=False,
    )
    rep = verify_identity(broken)
    assert not rep.ok
    assert any("action differs" in f for f in rep.failures)


def test_string_channel_runs_for_admissible_cells():
    rep = verify_identity(TEMPLATES["otherpair.a"], n_max=1)
    assert rep.ok
    assert rep.string_probes > 0


def test_normal_form_agrees_with_direct_action():
    # x (x D)^2 as strings vs the combinatorial expansion
    e = OperatorExpr.single(1, XPower(F(1)), WordPower(Word(F(1), F(0)), 2))
    nf = normal_form(e)
    # x (xD)^2 = x (x^2 D^2 + x D) -> keys (3,2) and (2,1)
    assert nf == {(3, 2): 1, (2, 1): 1}
    with pytest.raises(ValueError):
        normal_form(OperatorExpr.single(1, XPower(F(-1))))


def test_normal_form_is_refused_before_anything_is_spelled():
    """Admissibility and length are read off the exponents: a 10^7-letter
    power, alone or before a non-natural one, is refused without its string
    being spelled, each with its own message."""
    long = XPower(F(10**7))
    for expr, message in [
        (OperatorExpr.single(1, long), r"exceeds the guard \(20\)"),
        (OperatorExpr.single(1, long, XPower(F(-1, 2))), "non-natural exponents"),
    ]:
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=message):
                normal_form(expr)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


def test_ttv():
    assert ttv_check(6)


def test_hermite_identities():
    assert hermite_identity_check(12)
    with pytest.raises(ValueError):
        hermite_identity_check(13)


def test_adjoint_pairing():
    assert adjoint_pairing_check(
        {"L": F(2), "R": F(1, 2), "Lp": F(-1), "Rp": F(1)}, n_max=3
    )
    assert adjoint_pairing_check(
        {"L": F(0), "R": F(3), "Lp": F(1), "Rp": F(1)}, n_max=3
    )


def test_adjoint_pairing_fails_without_the_adjoint_sign(monkeypatch):
    """With an adjoint that leaves out the sign (-1)^m of a word power, the
    pairing of firstmain.2a with firstmain.2d fails."""
    cell = {"L": F(2), "R": F(1, 2), "Lp": F(-1), "Rp": F(1)}
    assert adjoint_pairing_check(cell, n_max=3)

    def unsigned_adjoint(self):
        return OperatorExpr.over(self.q, [
            (coeff, tuple(f if f.__class__ is int else (f[1], f[0], f[2]) for f in factors[::-1]))
            for coeff, factors in self._terms
        ])

    monkeypatch.setattr(OperatorExpr, "adjoint", unsigned_adjoint)
    assert not adjoint_pairing_check(cell, n_max=3)


def test_reexpansion_sides_are_pinned():
    """The rendered sides and coefficients of the 16 word re-expansion
    templates on their grids at n <= 3 hash to a fixed digest."""
    lines = []
    for tid in TEMPLATE_ORDER:
        if not tid.startswith(("firstmain.", "secondmain.", "powerful.", "powerful2.")):
            continue
        for cell in TEMPLATES[tid].grid():
            for n in range(4):
                for inst in TEMPLATES[tid].build(cell, n):
                    lines.append(
                        f"{tid} {sorted(cell.items())} {n}: "
                        f"{inst.lhs.render()} = {inst.rhs.render()} {inst.coeffs}"
                    )
    assert len(lines) == 12288
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "5e09cbc8725c6139fcb6a3187b63918dd5e4dfdca981d52933c3861c2a9857bb"


def test_reexpansion_instances_keep_their_unit_factors():
    """Every factor of the formula stays, ``x^0`` too: on the grids of the
    16 word re-expansion templates at n <= 3, the left side is one term
    ``x^(xl n) w^n x^(xr n)`` and each right-side term has the five
    factors ``x^. x^. w'^m x^. x^.``.  A kind-E left side is scaled by
    ``n! beta^n``, so at the excess ``e' = 0`` it is zero and has no term."""
    sides = 0
    for tid in TEMPLATE_ORDER:
        if not tid.startswith(("firstmain.", "secondmain.", "powerful.", "powerful2.")):
            continue
        for cell in TEMPLATES[tid].grid():
            for n in range(4):
                (inst,) = TEMPLATES[tid].build(cell, n)
                zero = (n > 0 and tid.startswith(("secondmain.", "powerful2."))
                        and cell["Lp"] + cell["Rp"] == 1)
                assert [len(factors) for _, factors in inst.lhs.terms] == ([] if zero else [3])
                assert {len(factors) for _, factors in inst.rhs.terms} <= {5}
                sides += not zero
    assert sides == 11508


@pytest.mark.parametrize("side", ["a", "b"])
def test_the_conjugated_major_form_is_the_unshifted_direct_form_between_powers(side):
    """The conjugated right side of ``major.2a``/``2b`` is ``x^-r``, then
    the right side of ``major.1a``/``1b`` at the same ``alpha``, then
    ``x^r``; compared as rational terms, as the two may scale over
    different ``q``."""
    shifted, direct = TEMPLATES[f"major.2{side}"], TEMPLATES[f"major.1{side}"]
    for cell in shifted.grid():
        r = cell["r"]
        for n in range(4):
            conj = next(i for i in shifted.build(cell, n) if i.label == "conjugated")
            (plain,) = direct.build({"alpha": cell["alpha"]}, n)
            expected = tuple(
                (c, (XPower(-r), *factors, XPower(r))) for c, factors in plain.rhs.terms
            )
            assert conj.rhs.terms == expected


def test_admissibility_tables():
    cell = {"L": F(3), "R": F(0), "Lp": F(2), "Rp": F(0)}
    rep = wc_admissibility_check("powerful.main1a", cell)
    assert rep.admissible
    assert rep.EL == 2 and rep.ER == 0
    assert rep.EL_decrement_breaks  # E_L is sharp here
    assert rep.ER_decrement_breaks is None  # kind S variant a has no E_R
    rep2 = wc_admissibility_check("powerful2.2main1b", cell)
    assert rep2.admissible
    assert rep2.EL == 2 and rep2.ER == 1
    with pytest.raises(ValueError):
        wc_admissibility_check("ttv", cell)


def test_two_sided_prefactor_example():
    # excess-negative words force prefactors on both sides
    cell = {"L": F(0), "R": F(0), "Lp": F(1), "Rp": F(1)}
    rep = wc_admissibility_check("powerful.main1b", cell)
    assert rep.admissible
    assert rep.EL == 0 and rep.ER == 1


def test_builders_respect_n_min():
    assert TEMPLATES["sampleappl"].build({}, 0) == []
    assert TEMPLATES["sampleappl"].build({}, 1)


def test_instance_coefficients_expose_triangle_rows():
    (inst,) = TEMPLATES["cor1"].build({"L": F(1), "R": F(1)}, 2)
    assert inst.coeffs == (F(2), F(4), F(1))


def _one_instance_template(tid, lhs, rhs):
    return IdentityTemplate(
        id=tid, domain="WC", params=(), grid=lambda: [{}], uses_n=False,
        build=lambda p, n: [TemplateInstance(lhs, rhs)],
    )


def test_mixed_excess_fails_even_when_the_actions_agree():
    # x + x^2 - x^2 acts like x, but its terms have excess 1, 2 and 2
    mixed = OperatorExpr([(1, (XPower(F(1)),)), (1, (XPower(F(2)),)),
                          (-1, (XPower(F(2)),))])
    plain = OperatorExpr.single(1, XPower(F(1)))
    for s in (F(0), F(1, 2), F(3)):
        assert mixed.act_on_monomial(s) == plain.act_on_monomial(s)
    rep = verify_identity(_one_instance_template("mixed", mixed, plain))
    assert rep.failures == ["mixed() n=6: excess error: terms of mixed excess: 1 vs 2"]
    assert rep.action_probes == 0


def test_sides_of_different_excess_mismatch():
    lhs = OperatorExpr.single(1, XPower(F(1)))
    rhs = OperatorExpr.single(1, XPower(F(2)))
    rep = verify_identity(_one_instance_template("apart", lhs, rhs))
    assert rep.failures == ["apart() n=6: excess mismatch 1 vs 2"]


def test_engine_errors_are_not_counterexamples():
    class Faulty(OperatorExpr):
        def certificate(self):
            raise TypeError("engine fault")

    side = OperatorExpr.single(1, XPower(F(1)))
    faulty = Faulty([(1, (XPower(F(1)),))])
    with pytest.raises(TypeError, match="engine fault"):
        verify_identity(_one_instance_template("faulty", side, faulty))


def _spell(expr):
    """Reference spelling, factor by factor, of an admissible expression."""
    out = []
    for coeff, factors in expr.terms:
        text = ""
        for f in factors:
            if isinstance(f, XPower):
                text += "+" * int(f.exp)
            else:
                text += ("+" * int(f.word.L) + "-" + "+" * int(f.word.R)) * f.power
        out.append((coeff, text))
    return out


def test_one_walk_spelling_matches_the_admissibility_helpers():
    """Every side of every catalog instance at n <= 4: the walk spells it
    exactly when ``is_wc_admissible`` holds, as the reference speller does;
    the totals are those of the former separate helpers."""
    sides = admissible = letters = longest = 0
    for tid in TEMPLATE_ORDER:
        template = TEMPLATES[tid]
        n_values = range(template.n_min, 5) if template.uses_n else [N_DEFAULT]
        for cell in template.grid():
            for n in n_values:
                for inst in template.build(cell, n):
                    for side in (inst.lhs, inst.rhs):
                        sides += 1
                        strings = side.boson_strings()
                        if not side.is_wc_admissible():
                            assert strings is None
                            continue
                        admissible += 1
                        assert strings == _spell(side)
                        length = max((len(s) for _, s in strings), default=0)
                        letters += sum(len(s) for _, s in strings)
                        longest = max(longest, length)
    assert (sides, admissible, letters, longest) == (34646, 23698, 559620, 48)


def test_admissibility_agrees_with_spelling_without_spelling(monkeypatch):
    """On both sides of every catalog instance at n <= 3, over each full
    grid, ``is_wc_admissible`` spells nothing and answers as
    ``boson_strings() is not None`` does."""
    spell = OperatorExpr.boson_strings

    def refuse(self, *args):
        raise AssertionError("is_wc_admissible spelled a string")

    counts = [0, 0]
    for tid in TEMPLATE_ORDER:
        template = TEMPLATES[tid]
        n_values = range(template.n_min, 4) if template.uses_n else [N_DEFAULT]
        sides = [side for cell in template.grid() for n in n_values
                 for inst in template.build(cell, n) for side in (inst.lhs, inst.rhs)]
        with monkeypatch.context() as patch:
            patch.setattr(OperatorExpr, "boson_strings", refuse)
            admissible = [side.is_wc_admissible() for side in sides]
        assert admissible == [spell(side) is not None for side in sides], tid
        counts[0] += len(sides)
        counts[1] += sum(admissible)
    assert counts == [27746, 18986]


def test_each_template_certifies_its_pinned_action_degree():
    """The highest ``s``-degree each template's full grid certifies, read
    off the packed certificates: 1 for ``otherpair.*``, 6 elsewhere."""
    degrees = {tid: verify_identity(TEMPLATES[tid]).action_degree for tid in TEMPLATE_ORDER}
    assert degrees == {tid: 1 if tid.startswith("otherpair.") else 6 for tid in TEMPLATE_ORDER}
    assert sum(degrees.values()) == 242


def test_verify_report_times_each_channel():
    a = verify_identity(TEMPLATES["katriel.norm"], n_max=4)
    assert a.build_s > 0 and a.action_s > 0 and a.string_s > 0


def test_domain_errors_name_out_of_range_parameters():
    lah, difflr = TEMPLATES["lah_triple"], TEMPLATES["difflr"]
    assert lah.cases == 3
    assert all(lah.domain_error(cell) is None for cell in lah.grid())
    assert lah.domain_error({"case": F(3)}) == "case must be one of 0..2, got 3"
    assert lah.domain_error({"case": F(-1)}) is not None
    assert difflr.domain_error({"m": F(0)}) is None
    assert difflr.domain_error({"m": F(-1)}) == "m must be a natural number, got -1"
    cor1, powerful = TEMPLATES["cor1"], TEMPLATES["powerful.main1a"]
    assert cor1.domain_error({"L": F(-1), "R": F(1)}) == "L must be a natural number, got -1"
    assert cor1.domain_error({"L": F(1), "R": F(1, 2)}) == "R must be a natural number, got 1/2"
    cell = {"L": F(1), "R": F(0), "Lp": F(2), "Rp": F(-1)}
    assert powerful.domain_error(cell) == "Rp must be a natural number, got -1"
    rational = {"L": F(-1), "R": F(1, 2), "Lp": F(2), "Rp": F(-1)}
    assert TEMPLATES["firstmain.2a"].domain_error(rational) is None
    for template in TEMPLATES.values():
        assert all(template.domain_error(cell) is None for cell in template.grid())


def test_parameter_values_are_read_as_rationals():
    cor1 = TEMPLATES["cor1"]
    text = verify_identity(cor1, cells=[{"L": "1", "R": "0"}], n_max=2)
    exact = verify_identity(cor1, cells=[{"L": F(1), "R": F(0)}], n_max=2)
    assert text.ok and text.failures == []
    counts = ("cells", "instances", "action_probes", "action_degree", "string_probes")
    assert [getattr(text, c) for c in counts] == [getattr(exact, c) for c in counts]
    assert cor1.domain_error({"L": "-1", "R": 0}) == "L must be a natural number, got -1"
    for value in (1.0, "1.5", "1/0", None):
        with pytest.raises(ValueError) as exc:
            verify_identity(cor1, cells=[{"L": value, "R": 0}], n_max=2)
        assert str(exc.value) == f"template 'cor1': L must be a rational number, got {value!r}"
    with pytest.raises(ValueError, match="Lp must be a rational number, got 2.0"):
        wc_admissibility_check("powerful.main1a", {"L": F(3), "R": F(0), "Lp": 2.0, "Rp": F(0)})
    rep = wc_admissibility_check("powerful.main1a", {"L": "3", "R": 0, "Lp": "2", "Rp": "0"})
    assert (rep.admissible, rep.EL, rep.ER) == (True, 2, 0)


def test_range_cells_clip_case_to_the_case_table():
    assert TEMPLATES["lah_triple"].range_cells(-1, 5) == [{"case": F(i)} for i in range(3)]
    assert TEMPLATES["s211_triple"].range_cells(3, 5) == []
    assert TEMPLATES["ttv"].range_cells(0, 3) == [{}]
    cells = TEMPLATES["cor1"].range_cells(-1, 0)
    assert cells == [{"L": F(a), "R": F(b)} for a in (-1, 0) for b in (-1, 0)]


def test_range_cells_refuse_more_cells_than_their_bound():
    """4 096 cells at most: four words over 0..7, and not over 0..8.  The
    count is taken before any cell is built, so a range of 10^24 cells
    is refused at once."""
    template = TEMPLATES["firstmain.2a"]
    assert identities._RANGE_CELL_CAP == 4096
    cells = template.range_cells(0, 7)
    assert len(cells) == 4096 and cells[-1] == {name: F(7) for name in template.params}
    with pytest.raises(ValueError, match=r"^template 'firstmain.2a': the range 0..8 makes "
                                         r"6561 cells, more than the bound 4096$"):
        template.range_cells(0, 8)
    with pytest.raises(ValueError, match=f"makes {(10**6 + 1)**4} cells"):
        template.range_cells(0, 10**6)
    assert len(TEMPLATES["cor1"].range_cells(0, 63)) == 4096


def test_catalog_declarations_are_pinned():
    """Id, domain, parameters, power bounds, case table, description and
    grid of every template, in catalog order, hash to a fixed digest."""
    h = hashlib.sha256()
    for tid in TEMPLATE_ORDER:
        t = TEMPLATES[tid]
        cells = ";".join(",".join(f"{k}={v}" for k, v in cell.items()) for cell in t.grid())
        h.update(f"{t.id}|{t.domain}|{t.params}|{t.n_min}|{t.uses_n}|{t.cases}|"
                 f"{t.description}|{cells}\n".encode())
    assert len(TEMPLATE_ORDER) == 42
    assert h.hexdigest() == "b81a129a3a3a0c7fd3ec73cad82766f4c09ed0a567da9268593b6011262c3346"


def _certificate_lines():
    """One line per side of every catalog instance on the full grids at
    n <= 4: its excess, action and boson strings."""
    for tid in TEMPLATE_ORDER:
        template = TEMPLATES[tid]
        n_values = range(template.n_min, 5) if template.uses_n else [N_DEFAULT]
        for cell in template.grid():
            for n in n_values:
                for inst in template.build(cell, n):
                    for side in (inst.lhs, inst.rhs):
                        cert = side.certificate()
                        excess, action = cert.excess, cert.action()
                        polys = "; ".join(
                            f"{shift}: {' '.join(map(str, poly))}"
                            for shift, poly in sorted(action.items())
                        )
                        strings = side.boson_strings()
                        spelled = "-" if strings is None else " ".join(
                            f"{c}:{s}" for c, s in strings
                        )
                        yield f"{tid} {sorted(cell.items())} {n} {excess} {{{polys}}} [{spelled}]"


def test_catalog_building_leaves_the_recurrence_cache_alone():
    """The builders read their coefficient rows from the integer recurrence,
    so building every instance neither fills nor reads the cache behind
    build_recurrence, and cannot evict a triangle that a caller built."""
    before = _recurrence_rows_cached.cache_info()
    for tid in TEMPLATE_ORDER:
        template = TEMPLATES[tid]
        n_values = range(template.n_min, 3) if template.uses_n else [N_DEFAULT]
        for cell in template.grid():
            for n in n_values:
                template.build(cell, n)
    assert _recurrence_rows_cached.cache_info() == before


def test_a_cell_is_scaled_once_and_its_rows_built_once(monkeypatch):
    """Verifying one rational cell at n = 0..6 scales its words once and
    builds each of the 7 rows of its coefficient triangle once (a builder
    that starts every power afresh builds rows 0..n at each n, 28 rows)."""
    monkeypatch.setattr(kernels, "_LAST_SCALED", ((object(),), None))
    monkeypatch.setattr(triangles, "_integer_row_memo",
                        lru_cache(maxsize=1 << 10)(triangles._integer_row_memo.__wrapped__))
    scalings, rows = [], []
    real_lcm, recurrence = kernels.lcm, triangles._recurrence_rows

    def lcm(*args):
        scalings.append(args)
        return real_lcm(*args)

    def recurrence_rows(*args, start=None):
        out = recurrence(*args, start=start)
        rows.extend(out if start is None else out[1:])
        return out

    monkeypatch.setattr(kernels, "lcm", lcm)
    monkeypatch.setattr(triangles, "_recurrence_rows", recurrence_rows)
    cell = {"L": F(1, 2), "R": F(3, 2), "Lp": F(1), "Rp": F(-1, 2)}
    report = verify_identity(TEMPLATES["firstmain.2a"], [cell], n_max=6)
    assert report.ok and report.instances == 7
    assert len(scalings) == 1 and scalings[0] == (2, 2, 1, 2)
    assert [len(row) for row in rows] == [1, 2, 3, 4, 5, 6, 7]


def test_the_word_polynomial_acts_as_the_direct_product():
    """The LHS of major.* and katriel* is ``prod_{j<n} (w + r - j alpha)``
    in the word ``w = x D`` (``D x`` for the anti forms); on ``x^s`` it
    multiplies by the product of ``s + r - j alpha`` (``s + 1 + ...``),
    computed here factor by factor."""
    probes = (F(0), F(-7, 3), F(5, 2))
    checked = 0
    for tid in ("major.1a", "major.2a", "major.2b", "katriel.norm", "katriel.anti",
                "katrielplus.norm", "katrielplus.anti"):
        template = TEMPLATES[tid]
        shift = 1 if tid.endswith("anti") else 0
        for cell in template.grid():
            alpha, r = cell.get("alpha", F(0)), cell.get("r", F(0))
            for n in range(template.n_min, 9):
                lhs = template.build(cell, n)[0].lhs
                for s in probes:
                    value = F(1)
                    for j in range(n):
                        value *= s + shift + r - j * alpha
                    assert lhs.act_on_monomial(s) == ({s: value} if value else {}), (tid, cell, n)
                    checked += 1
    assert checked > 1000


def test_certificates_and_strings_are_pinned():
    """The action certificates and boson strings of both sides of every
    catalog instance at n <= 4 hash to the digest of the rational-exponent
    engine they replaced."""
    lines = list(_certificate_lines())
    assert len(lines) == 34646
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "86ea107e3e4872984687ec89464f7b9b6cd20501bcc1cc4fcbcd340d97db36c8"


def test_off_by_one_coefficient_fails_the_integer_comparison():
    """A rational re-expansion with its second RHS coefficient off by one.
    Both sides are over q = 2 but over different denominators, so the
    integer comparison cross-multiplies; it must report the action."""
    base = TEMPLATES["firstmain.2a"]
    cell = {"L": F(1, 2), "R": F(2), "Lp": F(-1), "Rp": F(1, 2)}

    def build(p, n):
        (inst,) = base.build(p, n)
        terms = [(c + (1 if i == 1 else 0), f) for i, (c, f) in enumerate(inst.rhs.terms)]
        return [TemplateInstance(inst.lhs, OperatorExpr(terms))]

    template = IdentityTemplate(
        id="offbyone", domain="WTC", params=base.params, build=build,
        grid=lambda: [cell], n_min=3,
    )
    (inst,) = template.build(cell, 3)
    left, right = inst.lhs.certificate(), inst.rhs.certificate()
    assert left.q == right.q == 2 and left.denom != right.denom
    rep = verify_identity(template, n_max=3)
    assert rep.failures == ["offbyone(L=1/2, R=2, Lp=-1, Rp=1/2) n=3: action differs"]


def test_a_report_labels_each_failure_and_lists_ten():
    """A failing labelled instance is named with its label, and the summary
    lists the first ten failures and counts the rest."""
    base = TEMPLATES["major.2a"]

    def build(p, n):
        conj, direct = base.build(p, n)
        return [TemplateInstance(conj.lhs, conj.rhs.scaled(2), label=conj.label), direct]

    template = IdentityTemplate(id="doubled", domain="WTC", params=base.params, build=build,
                                grid=base.grid)
    cells = [{"alpha": F(1, 2), "r": F(r)} for r in range(1, 13)]  # x^-r: no strings
    rep = verify_identity(template, cells, n_max=0)
    assert rep.instances == 24 and len(rep.failures) == 12
    assert rep.failures[0] == "doubled(alpha=1/2, r=1) n=0 [conjugated]: action differs"
    lines = rep.summary().splitlines()
    assert lines[0].startswith("doubled: FAIL (cells=12, instances=24,")
    assert lines[1:] == [f"  {failure}" for failure in rep.failures[:10]] + ["  ... and 2 more"]


_COR1_BAD = {"L": F(-1), "R": F(1)}
_POWERFUL_BAD = {"L": F(-1), "R": F(0), "Lp": F(2), "Rp": F(0)}


@pytest.mark.parametrize("run, error", [
    (lambda: verify_identity(TEMPLATES["katriel.norm"], n_max=-1),
     "n_max must be a natural number, got -1"),
    (lambda: verify_identity(TEMPLATES["katriel.norm"], cells=[]),
     "nothing to verify for katriel.norm (0 instances)"),
    (lambda: verify_identity(TEMPLATES["sampleappl"], n_max=0),
     "nothing to verify for sampleappl (0 instances)"),
    (lambda: verify_identity(TEMPLATES["cor1"], cells=[_COR1_BAD], n_max=3),
     "template 'cor1': L must be a natural number, got -1"),
    (lambda: wc_admissibility_check("powerful.main1a", _POWERFUL_BAD),
     "template 'powerful.main1a': L must be a natural number, got -1"),
    (lambda: verify_identity(IdentityTemplate(
        id="empty", domain="WC", params=(), build=lambda p, n: [], grid=lambda: [{}])),
     "nothing to verify for empty (0 instances)"),
    (lambda: verify_identity(TEMPLATES["cor1"], cells=[{"L": F(1)}], n_max=2),
     "template 'cor1': missing parameter R"),
    (lambda: verify_identity(TEMPLATES["cor1"], cells=[{**_COR1_CELL, "zz": F(3)}], n_max=2),
     "template 'cor1': unknown parameter zz"),
    (lambda: wc_admissibility_check("powerful.main1a", {"L": F(1), "R": F(1), "Lp": F(1)}),
     "template 'powerful.main1a': missing parameter Rp"),
    (lambda: adjoint_pairing_check({**_OFF_BY_ONE_CELL, "zz": F(0)}),
     "template 'firstmain.2a': unknown parameter zz"),
])
def test_no_pass_is_vacuous_or_out_of_domain(run, error):
    with pytest.raises(ValueError) as exc:
        run()
    assert str(exc.value) == error
    assert isinstance(exc.value, VacuousRunError) == error.startswith("nothing")


_OFF_BY_ONE_CELL = {"L": F(1, 2), "R": F(2), "Lp": F(-1), "Rp": F(1, 2)}
_COR1_CELL = {"L": F(1), "R": F(1)}


def _off_by_one():
    """firstmain.2a with its second RHS coefficient off by one."""
    base = TEMPLATES["firstmain.2a"]

    def build(p, n):
        (inst,) = base.build(p, n)
        terms = [(c + (1 if i == 1 else 0), f) for i, (c, f) in enumerate(inst.rhs.terms)]
        return [TemplateInstance(inst.lhs, OperatorExpr(terms))]

    return IdentityTemplate(id="offbyone", domain="WTC", params=base.params, build=build,
                            grid=lambda: [_OFF_BY_ONE_CELL], n_min=3)


def _dropped_term():
    """cor1 without the last term of its RHS: every string is one of cor1's."""
    base = TEMPLATES["cor1"]

    def build(p, n):
        (inst,) = base.build(p, n)
        return [TemplateInstance(inst.lhs, OperatorExpr(inst.rhs.terms[:-1]))]

    return IdentityTemplate(id="dropped", domain="WC", params=base.params, build=build,
                            grid=lambda: [_COR1_CELL], n_min=3)


def _untimed(report):
    return dataclasses.replace(report, build_s=0.0, action_s=0.0, string_s=0.0)


def test_a_warm_cache_cannot_mask_a_failure():
    """The string cache holds every string of the correct identities
    before their broken variants run; the variants still fail, and a cold
    run reports the same."""
    runs = [
        (TEMPLATES["firstmain.2a"], [_OFF_BY_ONE_CELL], 3),
        (TEMPLATES["cor1"], [_COR1_CELL], 3),
        (_off_by_one(), None, 3),
        (_dropped_term(), None, 3),
    ]
    warm = [verify_identity(*run) for run in runs]
    assert warm[0].ok and warm[1].ok
    assert warm[2].failures == ["offbyone(L=1/2, R=2, Lp=-1, Rp=1/2) n=3: action differs"]
    assert warm[3].failures == [
        "dropped(L=1, R=1) n=3: action differs",
        "dropped(L=1, R=1) n=3: normal forms differ",
    ]
    _normal_order.cache_clear()
    cold = [verify_identity(*run) for run in runs]
    assert [_untimed(r) for r in cold] == [_untimed(r) for r in warm]


def test_each_channel_cache_is_bounded_and_reused():
    template, cells = TEMPLATES["cor1"], [_COR1_CELL]
    verify_identity(template, cells)
    old = _normal_order.cache_info()
    verify_identity(template, cells)
    new = _normal_order.cache_info()
    assert new.hits > old.hits and new.misses == old.misses
    assert new.maxsize is not None and new.currsize <= new.maxsize


def test_cells_may_be_any_iterable():
    rep = verify_identity(TEMPLATES["cor1"], cells=iter([_COR1_CELL]), n_max=2)
    assert rep.ok and (rep.cells, rep.instances) == (1, 3)


def test_the_string_channel_never_spells_a_string_over_the_guard(monkeypatch):
    """``sampleeulerian`` has sides with terms longer than
    ``MAX_STRING_LENGTH`` letters at three of its seven powers: those sides
    are neither spelled nor normal-ordered, and the other four are probed."""
    spelled, ordered = [], []
    boson_strings, oracle = OperatorExpr.boson_strings, identities.same_normal_form

    def recording_boson_strings(self, *args):
        strings = boson_strings(self, *args)
        spelled.extend(string for _, string in strings or ())
        return strings

    def recording_oracle(lhs, rhs):
        ordered.extend(string for _, string in lhs + rhs)
        return oracle(lhs, rhs)

    monkeypatch.setattr(OperatorExpr, "boson_strings", recording_boson_strings)
    monkeypatch.setattr(identities, "same_normal_form", recording_oracle)
    rep = verify_identity(TEMPLATES["sampleeulerian"])
    assert rep.ok and (rep.instances, rep.string_probes) == (7, 4)
    assert ordered and set(ordered) <= set(spelled)
    assert max(map(len, spelled)) <= MAX_STRING_LENGTH


def test_string_channel_compares_across_denominators():
    """Halves summed over the denominator 2 against the whole over 1: equal
    normal forms; a third against a half: different ones."""
    half = F(1, 2)
    halves = OperatorExpr([(half, (XPower(F(1)), WordPower(Word(F(0), F(0)), 1)))] * 2)
    whole = OperatorExpr.single(1, XPower(F(1)), WordPower(Word(F(0), F(0)), 1))
    rep = verify_identity(_one_instance_template("halves", halves, whole))
    assert rep.ok and rep.string_probes == 1
    third = OperatorExpr.single(F(1, 3), XPower(F(1)), WordPower(Word(F(0), F(0)), 1))
    rep = verify_identity(_one_instance_template("third", third, whole.scaled(half)))
    assert rep.failures == ["third() n=6: action differs", "third() n=6: normal forms differ"]
