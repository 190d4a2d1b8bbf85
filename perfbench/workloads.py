"""Seeded inputs and exactly checked operations for the three workloads.

Every workload turns a seed into a list of :class:`Op` values.  Running an op
performs one unit of user-visible work through the public ``weylstir`` API
and checks its result exactly; it returns an :class:`Outcome`.  Library
functions are always looked up as module attributes at call time
(``tri.build_recurrence``), so the tracer's runtime wrappers see every call.

``catalog``
    a stratified seeded sample of cells from every template's declared grid,
    each cell verified by ``verify_identity`` at default ``n`` through both
    channels (monomial action and string rewriting);
``sweep``
    many distinct small-denominator triples at ``n <= 10``, each cross-checked
    across every triangle scheme, the matrix algebra, the EGFs and the closed
    forms, plus one op for the enumeration oracles and the fixtures;
``tall``
    a few large-denominator triples at ``n`` up to the 64 triangle cap,
    exported through the CLI, with seeded entries of the high rows recomputed
    by single-entry schemes, and cross-checked by the sum, transform,
    decomposition and shift schemes, plus symbolic exports.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd
from typing import Callable, Dict, List, Tuple

import weylstir.cli as cli
import weylstir.egf as egf
import weylstir.fixtures as fixtures
import weylstir.identities as ids
import weylstir.oracles as oracles
import weylstir.triangles as tri

# catalog: cells drawn from each template's grid (all of it when smaller)
CATALOG_CELLS_PER_TEMPLATE = 8

# sweep: triples per repetition, and the row bound cycled through 4..10.
# An op's cost depends on its values as much as on n, so the median op moves
# with the seed; 90 triples keep that within a few per cent
SWEEP_TRIPLES = 90
SWEEP_N = tuple(range(4, 11))
SWEEP_NUMERATORS = range(-4, 5)
SWEEP_DENOMINATORS = (1, 2, 3)
EGF_E_MAX = 8  # the E-kind EGF costs O(n^5); its degree stops here
ORACLE_N = 8  # criterion 9 range for the enumeration oracles

# tall: per-scheme row bounds, sized so that no one scheme dominates
TALL_TRIPLES = 4
TALL_DENOMINATORS = (7, 9, 11)
TALL_N = {
    "export": 64,
    "sum": 30,
    "transform": 26,
    "decomposition": 20,
    "shift": 24,
    "symbolic": 18,
}
# entries of each export recomputed without the recurrence: one of the last
# row, one of a seeded row in this range; columns from the middle half, where
# the single-entry schemes cost about the same
TALL_ENTRY_ROWS = (40, 56)

FREE_FAMILIES = (
    "S_8F_iprime", "S_8F_iiprime", "S_8F_iiiprime", "S_8F_ivprime",
    "S_4F_v", "S_4F_vi", "E_i", "E_ii", "E_vi",
)

ENUMERATION_PAIRINGS = (
    ("SubsetPartitions", "S", 0, 1, 0),
    ("CycleCounts", "S", -1, 0, 0),
    ("LahLists", "S", -1, 1, 0),
    ("Descents", "E", 0, 1, 1),
    ("SignedDescents", "E", 0, 2, 1),
)


@dataclass
class Outcome:
    """What one op certified.

    ``ok`` is the exact check; ``certified`` counts what was proved (cells,
    instances, probes or entries) so that a vacuous op can be told apart;
    ``counts`` are exact work counters; ``triangles`` are the numeric
    triangles the op certified, for the entry-size counters.
    """

    ok: bool
    certified: int
    counts: Dict[str, int] = field(default_factory=dict)
    triangles: Tuple = ()


@dataclass(frozen=True)
class Op:
    label: str
    run: Callable[[], Outcome]


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"weylstir-bench:{workload}:{seed}")


# ---------------------------------------------------------------------------
# catalog
# ---------------------------------------------------------------------------


def catalog_inputs(seed: int) -> List[Tuple[str, Dict[str, Fraction]]]:
    rng = _rng("catalog", seed)
    picks = []
    for tid in ids.TEMPLATE_ORDER:
        grid = ids.TEMPLATES[tid].grid()
        for cell in rng.sample(grid, min(CATALOG_CELLS_PER_TEMPLATE, len(grid))):
            picks.append((tid, cell))
    return picks


def verify_cell(template, cell) -> Outcome:
    report = ids.verify_identity(template, cells=[cell])
    probes = report.action_probes + report.string_probes
    return Outcome(
        ok=report.ok,
        certified=min(report.cells, report.instances, probes),
        counts={
            "identities.cells": report.cells,
            "identities.instances": report.instances,
            "identities.action_probes": report.action_probes,
            "identities.string_probes": report.string_probes,
        },
    )


def catalog_ops(seed: int) -> List[Op]:
    return [
        Op(f"{tid}{_cell_label(cell)}",
           lambda tid=tid, cell=cell: verify_cell(ids.TEMPLATES[tid], cell))
        for tid, cell in catalog_inputs(seed)
    ]


def _cell_label(cell) -> str:
    return "(" + ",".join(f"{k}={v}" for k, v in cell.items()) + ")"


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SweepCase:
    alpha: Fraction
    beta: Fraction
    r: Fraction
    gamma: Fraction  # third stride for the product rule
    r2: Fraction  # second shift for the product rule
    n: int


def _small_rational(rng: random.Random) -> Fraction:
    return Fraction(rng.choice(SWEEP_NUMERATORS), rng.choice(SWEEP_DENOMINATORS))


def sweep_inputs(seed: int) -> List[SweepCase]:
    rng = _rng("sweep", seed)
    seen = set()
    cases = []
    while len(cases) < SWEEP_TRIPLES:
        a, r = _small_rational(rng), _small_rational(rng)
        b = Fraction(0)
        while b == 0:  # the EGFs degenerate at beta = 0
            b = _small_rational(rng)
        if (a, b, r) in seen:
            continue
        seen.add((a, b, r))
        n = SWEEP_N[len(cases) % len(SWEEP_N)]
        cases.append(SweepCase(a, b, r, _small_rational(rng), _small_rational(rng), n))
    return cases


def _closed_form_checks(b, r, n: int) -> bool:
    """The families with a free r take the triple's r (and, where they have
    one, its stride); the fixed-parameter families do not depend on it."""
    for family in FREE_FAMILIES:
        try:
            kind, fa, fb, fr = tri.closed_form_params(family, r=r, beta=b)
        except ValueError:
            continue  # E_vi is defined for integer r >= 1 only
        rec = tri.build_recurrence(kind, fa, fb, fr, n)
        for m in range(n + 1):
            for k in range(m + 1):
                if tri.closed_form(family, m, k, r=r, beta=b) != rec.entry(m, k):
                    return False
    return True


def sweep_check(case: SweepCase) -> Outcome:
    a, b, r, n = case.alpha, case.beta, case.r, case.n
    rec = {kind: tri.build_recurrence(kind, a, b, r, n) for kind in tri.KINDS}
    checks = [
        tri.triangle_by_sum("Shat", a, b, r, n) == rec["Shat"],
        tri.triangle_by_sum("E", a, b, r, n) == rec["E"],
        tri.triangle_by_transform("Shat", a, b, r, n) == rec["Shat"],
        tri.triangle_by_transform("E", a, b, r, n) == rec["E"],
        tri.triangle_by_decomposition(a, b, r, n) == rec["S"],
        all(
            tri.shat_from_s_row(rec["S"].rows[m], b) == list(rec["Shat"].rows[m])
            for m in range(n + 1)
        ),
        tri.triangle_product(rec["S"], tri.build_recurrence("S", b, a, -r, n))
        == tri.identity_triangle(a, n),
        tri.triangle_product(rec["S"], tri.build_recurrence("S", b, case.gamma, case.r2, n))
        == tri.build_recurrence("S", a, case.gamma, r + case.r2, n),
        tri.vandermonde_ldu_check(a, b, r, n),
        tri.reflection_check(a, b, r, n),
    ]
    for kind, deg in (("Shat", n), ("E", min(n, EGF_E_MAX))):
        coeffs = egf.egf_coefficients(kind, a, b, r, deg, deg)
        checks.append(all(
            coeffs[m][k] == (rec[kind].rows[m][k] if k <= m else 0)
            for m in range(deg + 1)
            for k in range(deg + 1)
        ))
    checks.append(_closed_form_checks(b, r, n))
    cells = sum(len(row) for t in rec.values() for row in t.rows)
    return Outcome(ok=all(checks), certified=cells, triangles=tuple(rec.values()))


def enumeration_check() -> Outcome:
    fixtures_ok, diffs = fixtures.check_all()
    ok = fixtures_ok and not diffs
    entries = 0
    triangles = []
    for tag, kind, a, b, r in ENUMERATION_PAIRINGS:
        t = tri.build_recurrence(kind, a, b, r, ORACLE_N)
        triangles.append(t)
        for n in range(ORACLE_N + 1):
            for k in range(n + 1):
                entries += 1
                if oracles.combinatorial_oracle(tag, n, k) != t.rows[n][k]:
                    ok = False
    return Outcome(ok=ok, certified=entries, triangles=tuple(triangles))


def sweep_ops(seed: int) -> List[Op]:
    ops = [
        Op(f"triple(a={c.alpha},b={c.beta},r={c.r},n={c.n})",
           lambda c=c: sweep_check(c))
        for c in sweep_inputs(seed)
    ]
    ops.append(Op("fixtures+oracles", enumeration_check))
    return ops


# ---------------------------------------------------------------------------
# tall
# ---------------------------------------------------------------------------


def _tall_rational(rng: random.Random, q: int) -> Fraction:
    # numerators of size between q and 2q keep entry sizes alike across seeds
    p = rng.choice([p for p in range(q + 1, 2 * q) if gcd(p, q) == 1])
    return Fraction(rng.choice((-1, 1)) * p, q)


def _export_entries(rng: random.Random) -> Tuple[Tuple[int, int], ...]:
    last = TALL_N["export"]
    n = rng.randint(*TALL_ENTRY_ROWS)
    return tuple((m, rng.randint(m // 4, 3 * m // 4)) for m in (last, n))


def tall_inputs(seed: int):
    """Triples whose denominators are a seeded permutation of 7, 9, 11; one
    small integer point at which the symbolic exports are evaluated; and,
    per triple and kind, the export entries that are recomputed."""
    rng = _rng("tall", seed)
    triples = []
    for _ in range(TALL_TRIPLES):
        qs = list(TALL_DENOMINATORS)
        rng.shuffle(qs)
        triples.append(tuple(_tall_rational(rng, q) for q in qs))
    point = tuple(rng.choice([v for v in range(-3, 4) if v]) for _ in range(3))
    entries = [{kind: _export_entries(rng) for kind in tri.KINDS} for _ in triples]
    return triples, point, entries


def _cli_json(argv: List[str]) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"weylstir {' '.join(argv)} exited {code}")
    return buf.getvalue()


def independent_entry(kind: str, n: int, k: int, a, b, r):
    """One entry by a scheme that does not use the recurrence: the explicit
    sum for Shat and E, the classical decomposition for S."""
    if kind == "S":
        return tri.decompose_classical(n, k, a, b, r)
    return tri.entry_by_sum(kind, n, k, a, b, r)


def tall_export(kind: str, a, b, r, entries) -> Outcome:
    """The CLI export round-trips through JSON and equals the recurrence
    triangle (which the CLI also built, so the cache serves it here); the
    seeded high-row ``entries`` are checked against an independent scheme."""
    n = TALL_N["export"]
    text = _cli_json(["triangle", "--kind", kind, f"--alpha={a}", f"--beta={b}",
                      f"--r={r}", "--n", str(n), "--format", "json"])
    parsed = tri.Triangle.from_json(text)
    ref = tri.build_recurrence(kind, a, b, r, n)
    ok = (
        parsed == ref
        and json.loads(parsed.to_json()) == json.loads(text)
        and all(independent_entry(kind, m, k, a, b, r) == parsed.entry(m, k) for m, k in entries)
    )
    return _triangle_outcome(ok, ref)


def _triangle_outcome(ok: bool, ref) -> Outcome:
    return Outcome(ok=ok, certified=sum(len(row) for row in ref.rows), triangles=(ref,))


def tall_scheme(scheme: str, kind: str, a, b, r) -> Outcome:
    n = TALL_N[scheme]
    ref = tri.build_recurrence(kind, a, b, r, n)
    if scheme == "sum":
        got = tri.triangle_by_sum(kind, a, b, r, n)
    elif scheme == "transform":
        got = tri.triangle_by_transform(kind, a, b, r, n)
    else:
        got = tri.triangle_by_decomposition(a, b, r, n)
    return _triangle_outcome(got == ref, ref)


def tall_shift(kind: str, newton: str, a, b, r) -> Outcome:
    n = TALL_N["shift"]
    base = tri.build_recurrence(kind, a, b, 0, n)
    ref = tri.build_recurrence(kind, a, b, r, n)
    return _triangle_outcome(tri.shift_r(base, r, newton) == ref, ref)


def parse_param_poly(text: str) -> Dict[Tuple[int, int, int], int]:
    """Read back the text form of a ``ParamPoly`` (``-3*alpha^2*r + beta``)."""
    names = {"alpha": 0, "beta": 1, "r": 2}
    terms: Dict[Tuple[int, int, int], int] = {}
    if text == "0":
        return terms
    tokens = text.split(" ")
    signs = ["+"] + tokens[1::2]
    for sign, body in zip(signs, tokens[0::2]):
        coeff = -1 if sign == "-" else 1
        if body.startswith("-"):
            coeff, body = -coeff, body[1:]
        mono = [0, 0, 0]
        for factor in body.split("*"):
            if factor.isdigit():
                coeff *= int(factor)
            else:
                name, _, exp = factor.partition("^")
                mono[names[name]] += int(exp) if exp else 1
        terms[tuple(mono)] = coeff
    return terms


def _evaluate(terms, point) -> int:
    x, y, z = point
    return sum(c * x**i * y**j * z**k for (i, j, k), c in terms.items())


def tall_symbolic(kind: str, point) -> Outcome:
    n = TALL_N["symbolic"]
    text = _cli_json(["triangle", "--kind", kind, "--symbolic", "--n", str(n),
                      "--format", "json"])
    rows = json.loads(text)["rows"]
    ref = tri.build_recurrence(kind, *point, n)
    ok = len(rows) == n + 1 and all(
        _evaluate(parse_param_poly(entry), point) == ref.rows[m][k]
        for m, row in enumerate(rows)
        for k, entry in enumerate(row)
    )
    return _triangle_outcome(ok, ref)


def tall_ops(seed: int) -> List[Op]:
    triples, point, entries = tall_inputs(seed)
    ops = []
    for i, (a, b, r) in enumerate(triples):
        t = (a, b, r)
        for kind in tri.KINDS:
            ops.append(Op(f"t{i} export {kind}",
                          lambda kind=kind, t=t, e=entries[i][kind]: tall_export(kind, *t, e)))
        for scheme in ("sum", "transform"):
            for kind in ("Shat", "E"):
                ops.append(Op(f"t{i} {scheme} {kind}",
                              lambda s=scheme, kind=kind, t=t: tall_scheme(s, kind, *t)))
        ops.append(Op(f"t{i} decomposition S",
                      lambda t=t: tall_scheme("decomposition", "S", *t)))
        for kind in ("S", "Shat"):
            for newton in ("NewtonAlpha", "NewtonBeta"):
                ops.append(Op(f"t{i} shift {kind} {newton}",
                              lambda kind=kind, nw=newton, t=t: tall_shift(kind, nw, *t)))
    for kind in tri.KINDS:
        ops.append(Op(f"symbolic {kind}", lambda kind=kind: tall_symbolic(kind, point)))
    return ops


OPS = {"catalog": catalog_ops, "sweep": sweep_ops, "tall": tall_ops}


def describe_inputs(workload: str, seed: int) -> List[str]:
    """The generated inputs as text, for determinism checks."""
    if workload == "catalog":
        return [f"{tid}{_cell_label(cell)}" for tid, cell in catalog_inputs(seed)]
    if workload == "sweep":
        return [repr(c) for c in sweep_inputs(seed)]
    triples, point, entries = tall_inputs(seed)
    return [repr(t) for t in triples] + [repr(point)] + [repr(e) for e in entries]
