"""Catalog of operator ordering identities and their exact verification.

Each :class:`IdentityTemplate` knows how to construct both sides of a family
of operator identities as :class:`OperatorExpr` values, given rational word
parameters and a power ``n``.  A builder scales its parameter cell once to
integers over one denominator ``q`` (:func:`kernels.scale_params`) and
writes every exponent as an integer in units of ``1/q``.  Verification is
semantic and exact, through two independent channels:

1. *monomial action*: one integer walk per side (:meth:`OperatorExpr.certificate`)
   checks that its terms share one excess and packs its action on ``x^s``,
   a polynomial in ``s``, into one int; the two ints compare, cross-multiplied
   by the denominators, which certifies the identity at every ``s``, any degree;
2. *string rewriting*: whenever both sides live in the creation/annihilation
   dialect (all exponents natural) and every term is at most
   ``MAX_STRING_LENGTH`` letters long, counted from its exponents before
   anything is spelled, both sides are spelled as boson strings and the
   independent rewriting oracle finds one normal form for both
   (:func:`boson.same_normal_form`, summing packed normal forms per ``delta``).

Each int compare stands while a bound on its ``W``-bit digits stays below
``2^(W-1)`` and the action ints share one layout (``q`` and ``W``), else
the exact coefficients compare.  The string channel memoizes normal forms.
Builders write integral coefficients as ``int``;
:meth:`IdentityTemplate.run_powers` refuses a run outside the domain or one
that would certify nothing, so no PASS is vacuous.

The catalog is one table, ``_CATALOG``: a row per template, in catalog
order, gives its id, domain, parameters, builder and description, and
``_declare`` derives its grid from the domain.  The sixteen word
re-expansion templates (``firstmain``, ``secondmain`` and their all-natural
prefactored forms ``powerful``, ``powerful2``) are rows of
``_REEXPANSIONS``, built by ``_reexpansion`` with one factor rule for every
kind and variant and one prefactor table; every sum over a coefficient row
is built by ``_expansion``.  A special case shares the builder of its
general family: ``_b_reexpansion`` also builds ``normord`` (S, variant a, at
``(L, R, 0, 0)``), ``s211_triple`` (S, b, prefactored, at the words of its
case) and ``euleriank.1``/``2`` (E, a, at ``(1, 0, 0, 0)``/``(0, 1, 0, 0)``);
``major.1a``/``1b`` are the direct form of ``_b_major`` at ``r = 0``, and
``katriel.norm``/``anti`` are ``_b_katrielplus`` at ``alpha = 0``.

Coefficient rows come from the triangle module's memo of integer
recurrence rows (``triangles._integer_rows``), read at the integers of the
scaled cell; each entry is divided once, by ``q`` to the entry's degree in
the parameters (``triangles._degree_scales``), into the exact coefficient.
So does the polynomial ``prod_{j<n} (w + r - j alpha)`` in the word ``w``
on the left of ``major.*`` and ``katriel*``: row ``n`` of S at
``(alpha, 0; r)``.  That memo grows a triangle from its last row when a
taller power asks, and :func:`kernels.scale_params` returns its last result
for the same cell objects, so verifying a cell at every ``n`` scales its
values once and builds each row once.  A verification failure would
implicate either the triangles, the operator engine, or the identity
itself; their mutual agreement is the point.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from math import factorial, prod
from time import perf_counter
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from .boson import MAX_STRING_LENGTH, _normal_form, same_normal_form
from .kernels import _exact_quotient, as_rational, binomial, rising, scale_params
from .operators import MixedExcessError, OperatorExpr
from .triangles import _closed_form_ints, _degree_scales, _integer_rows, _recurrence_rows
from .triangles import build_recurrence  # noqa: F401  (perfbench looks it up here)

F = Fraction
Coefficient = Union[int, Fraction]  # an int wherever the value is integral

__all__ = [
    "IdentityTemplate",
    "N_DEFAULT",
    "TemplateInstance",
    "TEMPLATES",
    "TEMPLATE_ORDER",
    "templates_matching",
    "VacuousRunError",
    "VerifyReport",
    "verify_identity",
    "normal_form",
    "wc_admissibility_check",
    "AdmissibilityReport",
    "hermite_identity_check",
    "ttv_check",
    "adjoint_pairing_check",
]


# ---------------------------------------------------------------------------
# small construction helpers
# ---------------------------------------------------------------------------


def _one(q: int, *factors) -> OperatorExpr:
    return OperatorExpr.over(q, [(1, factors)])


def _row(kind: str, q: int, A: int, B: int, R: int, n: int) -> Sequence[Coefficient]:
    """Row ``n`` of the recurrence triangle ``kind`` at ``(A, B, R) / q``:
    the integer row at ``(A, B, R)`` (``triangles._integer_rows``), each
    entry divided by ``q`` to its degree (``triangles._degree_scales``), an
    int where that is integral."""
    row = _integer_rows(kind, A, B, R, n)[n]
    if q == 1:
        return row
    return list(map(_exact_quotient, row, _degree_scales(kind, [q**i for i in range(n + 1)], n)))


def _word_poly(q: int, word: Tuple[int, int], a: int, r: int, n: int) -> OperatorExpr:
    """``prod_{j<n} (w + (r - j a) / q)`` in powers of the word ``w = (L, R)``:
    row ``n`` of the S recurrence at ``(a, 0; r) / q``."""
    row = _row("S", q, a, 0, r, n)
    return OperatorExpr.over(q, [(c, ((*word, m),)) for m, c in enumerate(row)])


# ---------------------------------------------------------------------------
# template plumbing
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TemplateInstance:
    """Both sides of one identity; ``row`` holds the coefficients of an
    expansion over ``k`` as built (ints where integral)."""

    lhs: OperatorExpr
    rhs: OperatorExpr
    row: Optional[Tuple[Coefficient, ...]] = None
    label: str = ""

    @property
    def coeffs(self) -> Optional[Tuple[Fraction, ...]]:
        """The expansion coefficients as Fractions, None without a row."""
        return None if self.row is None else tuple(map(F, self.row))


Builder = Callable[[Dict[str, Fraction], int], List[TemplateInstance]]


class VacuousRunError(ValueError):
    """Raised for a verification run that would certify nothing."""


N_DEFAULT = 6  # the top power of a sweep, and the power of a template without n

_WORDS = ("L", "R", "Lp", "Rp")  # the word parameters of a template


@dataclass(frozen=True)
class IdentityTemplate:
    """A family of identities over a parameter domain.

    ``domain`` is "WC" (natural word parameters: both sides are
    creation/annihilation strings) or "WTC" (rational word parameters).
    :meth:`domain_error` rejects a cell that lacks one of ``params`` or has
    a parameter outside them, a value that ``as_rational`` refuses, a
    ``case`` outside the case table, an ``m`` that is not natural and, on a
    "WC" template, a word parameter ``L``, ``R``, ``Lp`` or ``Rp`` that is
    not natural.
    """

    id: str
    domain: str
    params: Tuple[str, ...]
    build: Builder
    grid: Callable[[], List[Dict[str, Fraction]]]
    uses_n: bool = True
    n_min: int = 0
    description: str = ""
    cases: int = 0  # rows of the template's case table (its "case" values)

    def domain_error(self, cell: Dict[str, Fraction]) -> Optional[str]:
        """Why ``cell`` lies outside the parameter domain, or None."""
        for name in self.params:
            if name not in cell:
                return f"missing parameter {name}"
        values = {}
        for name, value in cell.items():
            if name not in self.params:
                return f"unknown parameter {name}"
            try:
                values[name] = as_rational(value)
            except (TypeError, ValueError, ZeroDivisionError):
                return f"{name} must be a rational number, got {value!r}"
        case = values.get("case")
        if case is not None and (case.denominator != 1 or not 0 <= case < self.cases):
            return f"case must be one of 0..{self.cases - 1}, got {case}"
        natural = ("m", *_WORDS) if self.domain == "WC" else ("m",)
        for name in natural:
            value = values.get(name)
            if value is not None and (value.denominator != 1 or value < 0):
                return f"{name} must be a natural number, got {value}"
        return None

    def check_cell(self, cell: Dict[str, Fraction]) -> None:
        """Raise ValueError, naming the template, for a cell outside the
        domain (:meth:`domain_error`)."""
        problem = self.domain_error(cell)
        if problem is not None:
            raise ValueError(f"template {self.id!r}: {problem}")

    def run_powers(
        self, cells: Sequence[Dict[str, Fraction]], n_max: Optional[int] = None
    ) -> range:
        """The powers ``n`` a run over ``cells`` up to ``n_max`` builds at:
        ``n_min..n_max``, or ``N_DEFAULT`` alone for a template without ``n``
        (``n_max`` defaults to ``N_DEFAULT``).  Raises ValueError for a
        negative ``n_max`` or an out-of-domain cell (:meth:`check_cell`), and
        VacuousRunError for a run that would build nothing: no cells, or
        ``n_max`` below ``n_min``."""
        if n_max is not None and n_max < 0:
            raise ValueError(f"n_max must be a natural number, got {n_max}")
        for cell in cells:
            self.check_cell(cell)
        top = N_DEFAULT if n_max is None else n_max
        powers = range(self.n_min, top + 1) if self.uses_n else range(N_DEFAULT, N_DEFAULT + 1)
        if not cells or not powers:
            raise VacuousRunError(f"nothing to verify for {self.id} (0 instances)")
        return powers

    def range_cells(self, lo: int, hi: int) -> List[Dict[str, Fraction]]:
        """Every parameter over the integers ``lo..hi``, ``case`` clipped to
        the case table.  Raises ValueError, before building any, when that
        makes more than ``_RANGE_CELL_CAP`` (4 096) cells."""
        axes = [range(max(lo, 0), min(hi, self.cases - 1) + 1) if name == "case"
                else range(lo, hi + 1) for name in self.params]
        count = prod(map(len, axes))
        if count > _RANGE_CELL_CAP:
            raise ValueError(f"template {self.id!r}: the range {lo}..{hi} makes {count} "
                             f"cells, more than the bound {_RANGE_CELL_CAP}")
        return [dict(zip(self.params, map(F, combo))) for combo in product(*axes)]


_RANGE_CELL_CAP = 1 << 12  # the most cells range_cells builds for one template
_Q7 = (F(-2), F(-1), F(-1, 2), F(0), F(1, 2), F(1), F(2))
_Q3 = (F(-1), F(1, 2), F(2))
_NAT4 = (F(0), F(1), F(2), F(3))


def _grid(names: Sequence[str], axes) -> Callable[[], List[Dict[str, Fraction]]]:
    def make():
        return [dict(zip(names, combo)) for combo in product(*axes)]

    return make


def _grid_wtc4() -> List[Dict[str, Fraction]]:
    """The grid of four rational words: the cross product of a 3-value core
    plus a seeded sample of the full 7-value rational set, deduplicated, in
    deterministic order."""
    rng = random.Random(97531)
    sample = rng.sample(list(product(_Q7, repeat=4)), 48)
    cells = dict.fromkeys([*product(_Q3, repeat=4), *sample])
    return [dict(zip(_WORDS, combo)) for combo in cells]


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------


def _b_major(powers_right: bool, shifted: bool) -> Builder:
    """The strided diagonal split with its powers left (``major.2a``) or
    right (``2b``), in a direct form and a conjugated one: the direct form
    at ``r = 0`` between ``x^-r`` and ``x^r``.  ``major.1a``/``1b``
    (``shifted`` false) are the direct form alone at ``r = 0``."""

    def build(p, n):
        q, (a, r) = scale_params(p["alpha"], p["r"] if shifted else 0)
        lhs = _word_poly(q, (q, 0), a, r, n)

        def direct(s):  # the factors of the direct form at the shift s
            if powers_right:
                return (q - s, a + s, n), -n * a
            return n * a, (q - a - s, s, n)

        if not shifted:
            return [TemplateInstance(lhs, _one(q, *direct(0)))]
        return [
            TemplateInstance(lhs, _one(q, -r, *direct(0), r), label="conjugated"),
            TemplateInstance(lhs, _one(q, *direct(r)), label="direct"),
        ]

    return build


def _b_major_lemma(p, n):
    q, (L, R) = scale_params(p["L"], p["R"])
    lhs = _one(q, n * (q - L - R), (L, R, n))
    rhs = _one(q, (q - R, q - L, n), n * (L + R - q))
    return [TemplateInstance(lhs, rhs)]


def _b_otherpair(p, n):
    q, (L, R, mid) = scale_params(p["L"], p["R"], (p["L"] + p["R"]) / 2)
    lhs = OperatorExpr.over(q, [(1, ((L, R, 1),)), (1, ((R, L, 1),))])
    rhs = OperatorExpr.over(q, [(2, ((mid, mid, 1),))])
    return [TemplateInstance(lhs, rhs)]


def _b_ttv(p, n):
    lhs = _one(1, (1, 1, n))
    rhs = _one(1, n, (0, 0, n), n)
    return [TemplateInstance(lhs, rhs)]


def _b_difflr(p, n):
    m = int(p["m"])
    lhs = _one(1, (0, 0, m), n)
    terms = []
    for ell in range(min(m, n) + 1):
        c = factorial(ell) * binomial(m, ell) * binomial(n, ell)
        terms.append((c, (n - ell, (0, 0, m - ell))))
    return [TemplateInstance(lhs, OperatorExpr.over(1, terms))]


def _expansion(
    lhs: OperatorExpr, coeffs: Sequence[Coefficient], factors_of_k
) -> List[TemplateInstance]:
    """The one instance ``lhs = sum_k coeffs[k] * factors_of_k(k)``, with the
    terms of zero coefficients left out; the factors are in the units of
    ``lhs``."""
    terms = [(c, factors_of_k(k)) for k, c in enumerate(coeffs) if c]
    return [TemplateInstance(lhs, OperatorExpr.over(lhs.q, terms), row=tuple(coeffs))]


def _normal(q: int, *prefactors):
    """Term ``k`` of the usual normal RHS: prefactors... a†^k a^k."""
    return lambda k: (*prefactors, k * q, (0, 0, k))


def _b_katrielplus(anti: bool, strided: bool) -> Builder:
    """Normal ordering of the strided ``x D`` power (``katrielplus.norm``)
    or ``D x`` power (``anti``); ``katriel.norm``/``anti`` (``strided``
    false) are the case ``alpha = 0``."""

    def build(p, n):
        q, (a,) = scale_params(p["alpha"] if strided else 0)
        lhs = _word_poly(q, (0, q) if anti else (q, 0), a, 0, n)
        return _expansion(lhs, _row("S", q, a, q, q if anti else 0, n), _normal(q))

    return build


def _b_cor1(p, n):
    q, (L, R) = scale_params(p["L"], p["R"])
    e = L + R - q
    return _expansion(_one(q, (L, R, n)), _row("S", q, -e, q, R, n), _normal(q, e * n))


def _b_special_corollary(p, n):
    q, (L, R) = scale_params(p["L"], p["R"])
    lhs = OperatorExpr.over(q, [(1, combo) for combo in product(((L, R, 1), (R, L, 1)), repeat=n)])
    s = L + R
    row = _row("S", q, 2 * q - 2 * s, 2 * q, s, n)
    coeffs = [2**k * c for k, c in enumerate(row)]
    return _expansion(lhs, coeffs, _normal(q, (s - q) * n))


# Template id -> (kind, variant, prefactored, description) of the 16 word
# re-expansions, in catalog order within each kind; _CATALOG declares them.
# Kind S expands a power of the word w = x^L D x^R in powers of w' = x^L' D x^R'
# (generalized Stirling coefficients), kind E in twisted copies of w'^n
# (generalized Eulerian coefficients).  In variants a and b the excess
# prefactor of w^n stands left, in c and d right; in a and c the k-dependent
# twist of w' is counted on its left, in b and d on its right.  The
# prefactored forms (powerful, powerful2) multiply both sides by the
# x^(E_L n), x^(E_R n) of _PREFACTORS, which makes every exponent natural.
_REEXPANSIONS = {
    f"{family}{suffix}": (kind, v, prefactored,
                          f"{title}, variant {family.partition('.')[2]}{suffix}")
    for family, kind, prefactored, suffixes, title in (
        ("firstmain.2", "S", False, "abcd", "word power re-expansion"),
        ("powerful.main", "S", True, ("1a", "1b", "2a", "2b"), "prefactored word re-expansion"),
        ("secondmain.2", "E", False, "abcd", "Eulerian word re-expansion"),
        ("powerful2.2main", "E", True, ("1a", "1b", "2a", "2b"),
         "prefactored Eulerian re-expansion"),
    )
    for v, suffix in zip("abcd", suffixes)
}

# (kind, variant) -> (E_L, E_R) as functions of the excesses (e, e'), all
# in the units 1/q of the cell
_PREFACTORS = {
    ("S", "a"): lambda e, ep: (max(e, ep, 0), 0),
    ("S", "b"): lambda e, ep: (max(e, 0), max(ep, 0)),
    ("S", "c"): lambda e, ep: (max(ep, 0), max(e, 0)),
    ("S", "d"): lambda e, ep: (0, max(e, ep, 0)),
    **dict.fromkeys((("E", "a"), ("E", "b")), lambda e, ep: (max(e, ep, 0), max(ep, 0))),
    **dict.fromkeys((("E", "c"), ("E", "d")), lambda e, ep: (max(ep, 0), max(e, ep, 0))),
}
# the prefactor a form lacks: kind S variant a has no right one, d no left one
_LACKS = {("S", "a"): "ER", ("S", "d"): "EL"}


def _prefactors(kind: str, variant: str, q: int, words: Sequence[int]) -> Tuple[int, int]:
    L, R, Lp, Rp = words
    return _PREFACTORS[kind, variant](L + R - q, Lp + Rp - q)


def _reexpansion(
    kind: str, variant: str, q: int, words: Sequence[int], n: int, EL: int, ER: int
) -> List[TemplateInstance]:
    """Both sides of the re-expansion ``(kind, variant)`` at the word
    parameters ``words = (L, R, Lp, Rp)``, in units of ``1/q``, multiplied by
    the prefactors ``x^(EL n)`` (left) and ``x^(ER n)`` (right), in the same
    units, as given: ``(0, 0)`` for the bare form.  Every factor of the
    formula stays, unit factors ``x^0`` too, as in every other template;
    ``render`` hides them."""
    L, R, Lp, Rp = words
    e = L + R - q
    ep = Lp + Rp - q
    lhs_left, twist_left = variant in "ab", variant in "ac"
    # coefficient triangle (alpha, beta, r) of the variant, times q
    alpha = -e if lhs_left else e
    beta = -ep if twist_left else ep
    r = R - Rp + (0 if twist_left else ep) - (0 if lhs_left else e)
    coeffs = _row(kind, q, alpha, beta, r, n)
    S = kind == "S"
    scale = 1 if S else _exact_quotient(factorial(n) * beta**n, q**n)
    xl, xr = (EL - e, ER) if lhs_left else (EL, ER - e)
    lhs = OperatorExpr.over(q, [(scale, (xl * n, (L, R, n), xr * n))])
    dL, dR = EL - ep, ER - ep

    def factors(k):
        # x^(EL (n-i) + dL i) (x^Lp D x^Rp)^m x^(dR (n-j) + ER j) with m = k
        # for S and n for E, and the twist t counted on the left (t = k) or
        # the right (t = n - k) of w'; S twists only that side
        t = k if twist_left else n - k
        i = 0 if S and not twist_left else t
        j = n if S and twist_left else t
        word = (Lp, Rp, k if S else n)
        return (EL * (n - i), dL * i, word, dR * (n - j), ER * j)

    return _expansion(lhs, coeffs, factors)


def _cell_words(p) -> Tuple[Fraction, ...]:
    """The word parameters ``(L, R, Lp, Rp)`` of a cell."""
    return tuple(p[name] for name in _WORDS)


def _b_reexpansion(kind: str, variant: str, prefactored: bool, words=_cell_words) -> Builder:
    """The re-expansion ``(kind, variant)`` at the word parameters
    ``words(cell) = (L, R, Lp, Rp)`` (by default the cell's own), with the
    prefactors of ``_PREFACTORS`` when ``prefactored``."""

    def build(p, n):
        q, scaled = scale_params(*words(p))
        EL, ER = _prefactors(kind, variant, q, scaled) if prefactored else (0, 0)
        return _reexpansion(kind, variant, q, scaled, n, EL, ER)

    return build


def _b_proposition(p, n):
    coeffs = [_exact_quotient(*_closed_form_ints("S_4F_vi", n, k, 0, 1)) for k in range(n + 1)]
    return _expansion(_one(1, (3, 0, n)), coeffs, _normal(1, 2 * n))


def _b_sampleappl(p, n):
    if n == 0:
        return []
    coeffs = [
        _exact_quotient(k * binomial(n, k) * factorial(2 * n - k - 1), factorial(n) * 2 ** (n - k))
        for k in range(n + 1)
    ]
    return _expansion(_one(1, (3, 0, n)), coeffs, lambda k: (n, n - k, (2, 0, k)))


def _b_viewedas(p, n):
    coeffs = [
        _exact_quotient(factorial(n) * binomial(k, n - k), factorial(k) * (-2) ** (n - k))
        for k in range(n + 1)
    ]
    lhs = _one(1, n, (2, 0, n))
    return _expansion(lhs, coeffs, lambda k: (2 * (n - k), (3, 0, k)))


def _b_companion(p, n):
    coeffs = [
        _exact_quotient(factorial(2 * n - k), factorial(k) * factorial(n - k) * 2 ** (n - k))
        for k in range(n + 1)
    ]
    return _expansion(_one(1, (2, 1, n)), coeffs, lambda k: (n, n - k, (2, 0, k)))


_LAH_CASES = ((0, 2), (1, 1), (2, 0))


def _b_lah_triple(p, n):
    L, R = _LAH_CASES[int(p["case"])]
    coeffs = [binomial(n, k) * rising(k + R, n - k) for k in range(n + 1)]
    return _expansion(_one(1, (L, R, n)), coeffs, _normal(1, n))


# the words (L, R, Lp, Rp) of the s211_triple cases: excesses 2 and 1, so
# the prefactored variant b runs the S row at (-2, 1; 1)
_S211_CASES = ((1, 2, 0, 2), (2, 1, 1, 1), (3, 0, 2, 0))


def _b_sampleeulerian(p, n):
    lhs = OperatorExpr.over(1, [(2**n, (n, (2, 0, n), 2 * n))])
    coeffs = [binomial(n + 1, 2 * k + 1) for k in range(n + 1)]
    return _expansion(lhs, coeffs, lambda k: (2 * k, (3, 0, n), 2 * (n - k)))


def _b_last(p, n):
    lhs = _one(1, (1, 1, n), n)
    coeffs = [(-1) ** (n - k) * binomial(n + 1, k) for k in range(n + 1)]
    return _expansion(lhs, coeffs, lambda k: (n - k, (2, 0, n), k))


# ---------------------------------------------------------------------------
# the catalog
# ---------------------------------------------------------------------------


# One row per template, in catalog order: its id, domain, parameters, builder
# and description, then optionally the other IdentityTemplate fields it sets
# and "values", the value set of each parameter where the grid rule of
# _declare does not fit.
_CATALOG = (
    ("major.1a", "WTC", "alpha", _b_major(False, False),
     "strided diagonal power split, powers left"),
    ("major.1b", "WTC", "alpha", _b_major(True, False),
     "strided diagonal power split, powers right"),
    ("major.2a", "WTC", "alpha r", _b_major(False, True),
     "shifted strided diagonal split, powers left"),
    ("major.2b", "WTC", "alpha r", _b_major(True, True),
     "shifted strided diagonal split, powers right"),
    ("major.lemma", "WTC", "L R", _b_major_lemma, "word-power transposition lemma"),
    ("otherpair.a", "WC", "L R", _b_otherpair, "symmetrized word pair, natural exponents",
     {"uses_n": False, "values": range(5)}),
    ("otherpair.b", "WTC", "L R", _b_otherpair, "symmetrized word pair, rational exponents",
     {"uses_n": False}),
    ("ttv", "WC", "", _b_ttv, "triple product power identity"),
    ("difflr", "WC", "m", _b_difflr, "two-index normal ordering of D^m x^n",
     {"values": range(7)}),
    ("katriel.norm", "WC", "", _b_katrielplus(False, False), "normal ordering of (x D)^n"),
    ("katriel.anti", "WC", "", _b_katrielplus(True, False), "normal ordering of (D x)^n"),
    ("katrielplus.norm", "WTC", "alpha", _b_katrielplus(False, True),
     "normal ordering of the strided (x D) power"),
    ("katrielplus.anti", "WTC", "alpha", _b_katrielplus(True, True),
     "normal ordering of the strided (D x) power"),
    ("normord", "WTC", "L R", _b_reexpansion("S", "a", False, lambda p: (p["L"], p["R"], 0, 0)),
     "normal ordering of a general word power"),
    ("cor1", "WC", "L R", _b_cor1, "prefactored normal ordering, natural word"),
    ("special_corollary", "WC", "L R", _b_special_corollary,
     "normal ordering of the symmetrized word power"),
    *((tid, "WC" if pre else "WTC", "L R Lp Rp", _b_reexpansion(k, v, pre), about)
      for tid, (k, v, pre, about) in _REEXPANSIONS.items() if k == "S"),
    ("proposition", "WC", "", _b_proposition, "cubic word normal ordering via the Gauss sum"),
    ("sampleappl", "WC", "", _b_sampleappl, "cubic word through the quadratic word",
     {"n_min": 1}),
    ("viewedas", "WC", "", _b_viewedas, "quadratic word through the cubic word"),
    ("companion", "WC", "", _b_companion, "balanced cubic word through the quadratic word"),
    ("lah_triple", "WC", "case", _b_lah_triple, "excess-one triple with binomial coefficients",
     {"cases": len(_LAH_CASES)}),
    ("s211_triple", "WC", "case",
     _b_reexpansion("S", "b", True, lambda p: _S211_CASES[int(p["case"])]),
     "excess-two triple sharing one triangle", {"cases": len(_S211_CASES)}),
    ("euleriank.1", "WC", "", _b_reexpansion("E", "a", False, lambda p: (1, 0, 0, 0)),
     "Eulerian twisted ordering of (x D)^n"),
    ("euleriank.2", "WC", "", _b_reexpansion("E", "a", False, lambda p: (0, 1, 0, 0)),
     "Eulerian twisted ordering of (D x)^n"),
    *((tid, "WC" if pre else "WTC", "L R Lp Rp", _b_reexpansion(k, v, pre), about)
      for tid, (k, v, pre, about) in _REEXPANSIONS.items() if k == "E"),
    ("sampleeulerian", "WC", "", _b_sampleeulerian, "Eulerian twisted quadratic/cubic word pair"),
    ("last", "WC", "", _b_last, "balanced word with signed binomial twisting"),
)


def _declare(tid, domain, params, build, description, options=None) -> IdentityTemplate:
    """The template of one catalog row.  Its grid is the product over its
    parameters of ``options["values"]`` where given, else ``range(cases)``
    for ``case``, ``_NAT4`` for a natural word and ``_Q7`` for a rational
    parameter; four rational words take ``_grid_wtc4``."""
    options = dict(options or {})
    values = options.pop("values", None)
    names = tuple(params.split())

    def axis(name):
        if values is not None:
            return tuple(map(F, values))
        if name == "case":
            return tuple(map(F, range(options["cases"])))
        return _NAT4 if domain == "WC" and name in _WORDS else _Q7

    if names == _WORDS and domain == "WTC":
        grid = _grid_wtc4
    else:
        grid = _grid(names, [axis(name) for name in names])
    return IdentityTemplate(tid, domain, names, build, grid, description=description, **options)


TEMPLATES: Dict[str, IdentityTemplate] = {row[0]: _declare(*row) for row in _CATALOG}
TEMPLATE_ORDER: Tuple[str, ...] = tuple(TEMPLATES)


def templates_matching(prefix: str) -> List[IdentityTemplate]:
    """Templates whose id equals or starts with the given prefix."""
    if prefix in TEMPLATES:
        return [TEMPLATES[prefix]]
    return [TEMPLATES[tid] for tid in TEMPLATE_ORDER if tid.startswith(prefix)]


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------


def normal_form(expr: OperatorExpr) -> Dict[Tuple[int, int], Fraction]:
    """Normal form of a short admissible expression via the string oracle."""
    if not expr.is_wc_admissible():
        raise ValueError("expression has non-natural exponents")
    strings = expr.boson_strings(MAX_STRING_LENGTH)
    if strings is None:
        raise ValueError(f"a term's string exceeds the guard ({MAX_STRING_LENGTH})")
    return _normal_form(strings)


@dataclass
class VerifyReport:
    template_id: str
    cells: int = 0
    instances: int = 0
    action_probes: int = 0  # action certificates: one per compared instance
    action_degree: int = 0  # highest s-degree among the compared actions
    string_probes: int = 0
    failures: List[str] = field(default_factory=list)
    # wall seconds per channel: building the instances, the action
    # certificates (excess included) and the string channel
    build_s: float = 0.0
    action_s: float = 0.0
    string_s: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        status = "PASS" if self.ok else "FAIL"
        line = (
            f"{self.template_id}: {status} "
            f"(cells={self.cells}, instances={self.instances}, "
            f"action certificates={self.action_probes}, "
            f"action degree={self.action_degree}, "
            f"string probes={self.string_probes})"
        )
        if self.failures:
            line += "\n  " + "\n  ".join(self.failures[:10])
            if len(self.failures) > 10:
                line += f"\n  ... and {len(self.failures) - 10} more"
        return line


def _cell_label(cell: Dict[str, Fraction]) -> str:
    return "(" + ", ".join(f"{k}={v}" for k, v in cell.items()) + ")"


def verify_identity(
    template: IdentityTemplate,
    cells: Optional[Sequence[Dict[str, Fraction]]] = None,
    n_max: Optional[int] = None,
) -> VerifyReport:
    """Exactly verify a template over a parameter grid.

    Checks, per instance: uniform excess on both sides and equal symbolic
    monomial action (one integer certificate in ``s`` per side, read off one
    walk), and (for admissible sides short enough) equal normal forms under
    the independent string-rewriting oracle.  Sides with a term longer than
    ``MAX_STRING_LENGTH`` letters are left to the action channel, unspelled.
    Raises ValueError for a run outside the template's domain or one that
    would certify nothing (:meth:`IdentityTemplate.run_powers`).
    """
    cells = template.grid() if cells is None else list(cells)
    n_values = template.run_powers(cells, n_max)
    report = VerifyReport(template_id=template.id)

    def fail(cell, n, inst, problem: str) -> None:
        where = f"{template.id}{_cell_label(cell)} n={n}"
        if inst.label:
            where += f" [{inst.label}]"
        report.failures.append(f"{where}: {problem}")

    for cell in cells:
        report.cells += 1
        for n in n_values:
            t0 = perf_counter()
            instances = template.build(cell, n)
            report.build_s += perf_counter() - t0
            for inst in instances:
                report.instances += 1
                t0 = perf_counter()
                try:
                    left = inst.lhs.certificate()
                    right = inst.rhs.certificate()
                except MixedExcessError as exc:  # mixed excess is a real failure
                    fail(cell, n, inst, f"excess error: {exc}")
                    continue
                finally:
                    report.action_s += perf_counter() - t0
                if not left.excess_matches(right):
                    fail(cell, n, inst, f"excess mismatch {left.excess} vs {right.excess}")
                    continue
                report.action_probes += 1
                report.action_degree = max(report.action_degree, left.degree, right.degree)
                if left != right:
                    fail(cell, n, inst, "action differs")
                t0 = perf_counter()
                lstr = inst.lhs.boson_strings(MAX_STRING_LENGTH)
                rstr = inst.rhs.boson_strings(MAX_STRING_LENGTH) if lstr is not None else None
                if rstr is not None:
                    report.string_probes += 1
                    if not same_normal_form(lstr, rstr):
                        fail(cell, n, inst, "normal forms differ")
                report.string_s += perf_counter() - t0
    if not report.instances:
        raise VacuousRunError(f"nothing to verify for {template.id} (0 instances)")
    return report


# ---------------------------------------------------------------------------
# admissibility of the prefactor tables
# ---------------------------------------------------------------------------


_N_PROBE = (1, 2, 3)  # powers at which wc_admissibility_check builds both sides


@dataclass(frozen=True)
class AdmissibilityReport:
    template_id: str
    cell: Tuple[Tuple[str, Fraction], ...]
    EL: Fraction
    ER: Fraction
    admissible: bool
    # None for the prefactor the form lacks (_LACKS)
    EL_decrement_breaks: Optional[bool]
    ER_decrement_breaks: Optional[bool]


def wc_admissibility_check(template_id: str, cell: Dict[str, Fraction]) -> AdmissibilityReport:
    """Structurally check that the prefactor table yields natural exponents
    for a prefactored template at the given natural word parameters, and
    probe whether decrementing either prefactor exponent breaks it
    (sufficiency versus minimality; informational)."""
    kind, variant, prefactored, _ = _REEXPANSIONS.get(template_id, (None, None, False, ""))
    if not prefactored:
        raise ValueError(f"{template_id!r} has no prefactor table")
    TEMPLATES[template_id].check_cell(cell)
    q, words = scale_params(*_cell_words(cell))
    EL, ER = _prefactors(kind, variant, q, words)

    def admissible(EL_v, ER_v) -> bool:
        for n in _N_PROBE:
            (inst,) = _reexpansion(kind, variant, q, words, n, EL_v, ER_v)
            if not (inst.lhs.is_wc_admissible() and inst.rhs.is_wc_admissible()):
                return False
        return True

    ok = admissible(EL, ER)
    lacks = _LACKS.get((kind, variant))
    return AdmissibilityReport(
        template_id=template_id,
        cell=tuple(sorted(cell.items())),
        EL=F(EL, q),
        ER=F(ER, q),
        admissible=ok,
        EL_decrement_breaks=None if lacks == "EL" else not admissible(EL - q, ER),
        ER_decrement_breaks=None if lacks == "ER" else not admissible(EL, ER - q),
    )


# ---------------------------------------------------------------------------
# named checks
# ---------------------------------------------------------------------------


def ttv_check(n_max: int = 8) -> bool:
    """Exact check of the triple product power identity up to n_max."""
    return verify_identity(TEMPLATES["ttv"], n_max=n_max).ok


def _he_polynomials(top: int) -> List[List[int]]:
    """Probabilists' Hermite polynomials as integer coefficient lists."""
    polys = [[1], [0, 1]]
    for m in range(1, top):
        prev, cur = polys[m - 1], polys[m]
        nxt = [0] + cur  # z * He_m
        for i, c in enumerate(prev):  # minus m He_{m-1}
            nxt[i] -= m * c
        polys.append(nxt)
    return polys[: top + 1]


def hermite_identity_check(n_max: int = 12) -> bool:
    """Exactly verify the two Hermite expansion identities up to n_max:
    ``z^n He_n = sum_k S[n][k] He_2k`` with S at ``(-1, 2; 1)``, and
    ``He_2n = sum_k (-1)^(n-k) S[n][k] z^k He_k`` with S at ``(-2, 1; 1)``."""
    if n_max < 0:
        raise ValueError("n_max must be a natural number")
    if n_max > 12:
        raise ValueError("hermite_identity_check is capped at n_max = 12")
    he = _he_polynomials(2 * n_max + 1)
    # both triangles have integer parameters, so their rows are integers
    rows1 = _recurrence_rows("S", -1, 2, 1, n_max)
    rows2 = _recurrence_rows("S", -2, 1, 1, n_max)
    for n in range(n_max + 1):
        rhs1, rhs2 = [0] * (2 * n + 1), [0] * (2 * n + 1)  # the length of He_2n
        for k in range(n + 1):
            for i, v in enumerate(he[2 * k]):
                rhs1[i] += rows1[n][k] * v
            for i, v in enumerate(he[k]):
                rhs2[i + k] += (-1) ** (n - k) * rows2[n][k] * v
        if rhs1 != [0] * n + he[n] or rhs2 != he[2 * n]:
            return False
    return True


def adjoint_pairing_check(cell: Dict[str, Fraction], n_max: int = 4) -> bool:
    """The adjoint of both sides of the first re-expansion variant, at
    word parameters renamed by the swap L<->R, L'<->R', acts exactly like
    the fourth variant (up to the global sign (-1)^n).  Raises ValueError
    for a cell outside the domain of ``firstmain.2a``."""
    if n_max < 0:
        raise ValueError("n_max must be a natural number")
    TEMPLATES["firstmain.2a"].check_cell(cell)
    swapped = {"L": cell["R"], "R": cell["L"], "Lp": cell["Rp"], "Rp": cell["Lp"]}
    for n in range(n_max + 1):
        (inst_a,) = TEMPLATES["firstmain.2a"].build(cell, n)
        (inst_d,) = TEMPLATES["firstmain.2d"].build(swapped, n)
        sign = F((-1) ** n)
        pairs = (
            (inst_a.lhs.adjoint(), inst_d.lhs.scaled(sign)),
            (inst_a.rhs.adjoint(), inst_d.rhs.scaled(sign)),
        )
        for left, right in pairs:
            if left.certificate() != right.certificate():
                return False
    return True
