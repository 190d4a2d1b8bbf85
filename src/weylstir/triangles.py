"""Two-parameter Stirling and Eulerian triangles with exact entries.

Three triangle kinds are supported, all indexed by row ``n`` and column
``0 <= k <= n`` and depending on three parameters ``(alpha, beta, r)``:

``S``
    the connection coefficients between the strided falling-factorial bases
    ``(x)^{falling n, alpha}`` and ``(x - r)^{falling k, beta}``;
``Shat``
    the modified entries ``Shat[n][k] = beta^k k! S[n][k]``, i.e. the
    coefficients of ``(beta x + r)^{falling n, alpha}`` on the binomial basis
    ``C(x, k)``;
``E``
    the Eulerian companion, the coefficients on the shifted binomial basis
    ``C(x + n - k, n)``.

Several independent construction schemes are provided (triangular recurrence,
explicit alternating sums, binomial transforms between ``Shat`` and ``E``
rows, and a decomposition through the classical Stirling triangles) so they
can be cross-checked against each other exactly.  All arithmetic is exact.

Every entry is a polynomial with integer coefficients in ``(alpha, beta, r)``,
homogeneous of degree ``n - k`` for ``S`` and of degree ``n`` for ``Shat`` and
``E``.  The numeric schemes therefore scale the parameters to integers over
one common denominator ``q`` (:func:`weylstir.kernels.scale_params`), compute
in Python ``int``, and divide each entry by ``q^degree`` once at the end.
``Triangle`` entries are exact ``fractions.Fraction`` values, or ``ParamPoly``
in symbolic mode.
"""

from __future__ import annotations

import json
import re
from dataclasses import FrozenInstanceError, dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import repeat
from math import comb, factorial, gcd, lcm
from operator import mod
from typing import Any, Iterable, List, Sequence, Tuple, Union

from .kernels import (
    as_rational,
    binomial,
    hyp2f1_hat,
    rising,
    scale_params,
    strided_falling,
    strided_rising,
)
from .poly import ParamPoly

Scalar = Union[Fraction, ParamPoly]

KINDS = ("S", "Shat", "E")

__all__ = [
    "KINDS",
    "Triangle",
    "build_recurrence",
    "symbolic_triangle",
    "entry_by_sum",
    "triangle_by_sum",
    "binomial_transform",
    "triangle_by_transform",
    "triangle_product",
    "identity_triangle",
    "stirling_subset",
    "stirling_cycle",
    "decompose_classical",
    "triangle_by_decomposition",
    "CLOSED_FORM_FAMILIES",
    "closed_form",
    "closed_form_params",
    "row_polynomial_euler",
    "shift_r",
    "vandermonde_ldu_check",
    "reflection_check",
    "ConjectureCell",
    "ConjectureReport",
    "conjecture_check",
    "shat_from_s_row",
]


# ---------------------------------------------------------------------------
# the Triangle container
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Triangle:
    """A lower-triangular section with jagged rows ``rows[n][0..n]``.

    A triangle read by :meth:`from_json` whose entries are all written as
    ``to_json`` writes them, in lowest terms over a divisor of ``q^degree``,
    keeps them as integer numerator and denominator pairs and builds its
    ``Fraction`` rows only when ``rows`` is first read; ``==``, ``entry``
    and the exports use the pairs.  Lowest terms then costs no gcd of two
    entry-sized integers (see :meth:`from_json`)."""

    kind: str
    alpha: Scalar
    beta: Scalar
    r: Scalar
    rows: Tuple[Tuple[Scalar, ...], ...]

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown triangle kind {self.kind!r}")
        if not self.rows:
            raise ValueError("a triangle needs row 0")
        for n, row in enumerate(self.rows):
            if len(row) != n + 1:
                raise ValueError(f"row {n} has {len(row)} entries, expected {n + 1}")

    @property
    def N(self) -> int:
        return len(self.rows) - 1

    @property
    def is_symbolic(self) -> bool:
        return isinstance(self.alpha, ParamPoly)

    def entry(self, n: int, k: int) -> Scalar:
        """Entry at (n, k); zero outside ``0 <= k <= n <= N``."""
        if 0 <= k <= n <= self.N:
            return self.rows[n][k]
        if n > self.N:
            raise IndexError(f"row {n} not built (N = {self.N})")
        return ParamPoly() if self.is_symbolic else Fraction(0)

    def row(self, n: int) -> List[Scalar]:
        return list(self.rows[n])

    def validate(self) -> None:
        """Check the structural edge invariants; raises AssertionError."""
        assert self.rows[0][0] == 1, "apex must be 1"
        a, b, r = self.alpha, self.beta, self.r
        for n in range(self.N + 1):
            if self.kind == "S":
                assert self.rows[n][n] == 1
            elif self.kind == "Shat":
                assert self.rows[n][n] == b**n * factorial(n)
            else:
                assert self.rows[n][n] == strided_rising(b - r, n, a)
            assert self.rows[n][0] == strided_falling(r, n, a)

    # -- serialization --------------------------------------------------

    def _text_rows(self) -> List[List[str]]:
        return [[str(v) for v in row] for row in self.rows]

    def to_json(self) -> str:
        payload = {
            "kind": self.kind,
            "alpha": str(self.alpha),
            "beta": str(self.beta),
            "r": str(self.r),
            "rows": self._text_rows(),
        }
        return json.dumps(payload)

    @classmethod
    def from_json(cls, text: str) -> "Triangle":
        """Read a triangle written by :meth:`to_json`.

        Entries are read as ``as_rational`` reads them, and every malformed
        payload raises a ``ValueError`` that names the field.

        An entry of degree ``e`` (``n - k`` for S, ``n`` otherwise) is an
        integer over ``q^e``, ``q`` the common denominator of the parameters,
        so ``to_json`` writes it as ``"p"`` or ``"p/d"`` in lowest terms with
        ``d`` dividing ``q^e``.  Then every prime of ``d`` divides ``q``, and
        ``gcd(p, d) == 1`` exactly when ``gcd(p, gcd(d, q)) == 1``: lowest
        terms costs one remainder ``q^e % d`` and two gcds against the
        word-sized ``q``.  When every entry is written so and passes that
        check, the triangle keeps the integer pairs; when any entry does not
        (``"2/4"``, ``"03"``, an entry off the ``q^e`` lattice, a
        non-string), every entry becomes a ``Fraction`` at once.
        """
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValueError(f"invalid triangle JSON: {exc}") from exc
        if not isinstance(payload, dict):
            raise ValueError("triangle JSON must be an object")
        for key in ("kind", "alpha", "beta", "r", "rows"):
            if key not in payload:
                raise ValueError(f"triangle JSON missing key {key!r}")
        params = {key: _json_rational(payload[key], repr(key)) for key in ("alpha", "beta", "r")}
        kind, json_rows = payload["kind"], payload["rows"]
        if not isinstance(json_rows, list):
            raise ValueError("triangle JSON 'rows' is not a list")
        if kind in KINDS:
            if not json_rows:
                raise ValueError("triangle JSON 'rows' is empty")
            pairs = _lowest_terms_rows(kind, scale_params(*params.values())[0], json_rows)
            if pairs is not None:
                return _ReadTriangle._of(kind, *params.values(), *pairs)
        rows = []
        for n, row in enumerate(json_rows):
            if not isinstance(row, list):
                raise ValueError(f"triangle JSON row {n} is not a list")
            try:
                if any(type(v) is bool for v in row):
                    raise TypeError("booleans are not accepted")
                rows.append(tuple(map(as_rational, row)))
            except (TypeError, ValueError, ZeroDivisionError):
                for k, v in enumerate(row):  # find the entry, raise naming it
                    _json_rational(v, f"row {n}, column {k}")
                raise
        return cls(kind=kind, rows=tuple(rows), **params)

    def to_csv(self) -> str:
        return "\n".join(",".join(row) for row in self._text_rows())

    def to_latex(self) -> str:
        lines = [" & ".join(row) + r" \\" for row in self._text_rows()]
        cols = "r" * (self.N + 1)
        return "\n".join([rf"\begin{{array}}{{{cols}}}"] + lines + [r"\end{array}"])

    def to_text(self) -> str:
        return "\n".join(", ".join(row) for row in self._text_rows())


class _ReadTriangle(Triangle):
    """A triangle read by :meth:`Triangle.from_json` whose entries all passed
    :func:`_lowest_terms_rows`.  It holds integer rows ``_nums`` and
    ``_dens``, each ``(num, den)`` the pair its ``Fraction`` would hold, and
    builds ``rows`` on first read.  Triangles built by the schemes never take
    this class, so their ``entry``, ``N`` and ``==`` run no check for it.
    Calling the class, as ``dataclasses.replace`` does, builds a plain
    ``Triangle``."""

    def __new__(cls, *args, **kwargs):
        return Triangle(*args, **kwargs)

    @classmethod
    def _of(cls, kind, alpha, beta, r, nums, dens) -> "_ReadTriangle":
        self = object.__new__(cls)
        vars(self).update(kind=kind, alpha=alpha, beta=beta, r=r, _nums=nums, _dens=dens)
        return self

    @cached_property
    def rows(self) -> Tuple[Tuple[Fraction, ...], ...]:
        return tuple(tuple(map(Fraction, nums, dens)) for nums, dens in zip(self._nums, self._dens))

    @property
    def N(self) -> int:
        return len(self._nums) - 1

    def entry(self, n: int, k: int) -> Fraction:
        if 0 <= k <= n <= self.N:
            return Fraction(self._nums[n][k], self._dens[n][k])
        return super().entry(n, k)

    def __eq__(self, other):
        if not isinstance(other, Triangle):
            return NotImplemented
        if (self.kind, self.alpha, self.beta, self.r, self.N) != (
            other.kind, other.alpha, other.beta, other.r, other.N
        ):
            return False
        if isinstance(other, _ReadTriangle):
            return self._nums == other._nums and self._dens == other._dens
        try:  # a rational compares equal to a Fraction by its canonical pair
            return all(
                [v.numerator for v in row] == nums and [v.denominator for v in row] == dens
                for row, nums, dens in zip(other.rows, self._nums, self._dens)
            )
        except AttributeError:  # entries that are not rationals
            return self.rows == other.rows

    __hash__ = Triangle.__hash__

    def __repr__(self):
        return repr(Triangle(self.kind, self.alpha, self.beta, self.r, self.rows))

    def __reduce__(self):
        return Triangle, (self.kind, self.alpha, self.beta, self.r, self.rows)

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def _text_rows(self) -> List[List[str]]:
        return [
            [f"{p}/{d}" if d != 1 else str(p) for p, d in zip(nums, dens)]
            for nums, dens in zip(self._nums, self._dens)
        ]


# one entry as str(Fraction) writes it (no leading zeros, no "-0", no "/1"),
# and a row of them joined by commas
_ENTRY = r"(?:0|-?[1-9][0-9]*(?:/[1-9][0-9]+|/[2-9])?)"
_ROW_TEXT = re.compile(rf"{_ENTRY}(?:,{_ENTRY})*")


def _lowest_terms_rows(kind: str, q: int, rows: list):
    """JSON ``rows`` of ``kind`` as integer rows ``(nums, dens)``, or None
    unless row ``n`` is a list of ``n + 1`` strings, each the text
    ``str(Fraction(p, d))`` of an entry ``p/d`` in lowest terms whose ``d``
    divides ``q^e``, ``e`` its degree (:func:`_degree_scales`).
    :meth:`Triangle.from_json` gives the argument for the check."""
    nums, dens, qpow = [], [], []
    try:
        for n, row in enumerate(rows):
            qpow.append(q**n)  # one power per row read, so a bad row stops early
            if type(row) is not list or len(row) != n + 1:
                return None
            text = ",".join(row)
            # each entry adds one comma to the join, and more if it holds one
            if text.count(",") != n or _ROW_TEXT.fullmatch(text) is None:
                return None
            parts = [v.partition("/") for v in row]
            row_nums = [int(p) for p, _, _ in parts]
            row_dens = [int(d) if d else 1 for _, _, d in parts]
            # d divides q^e, so gcd(p, d) == 1 iff gcd(p, gcd(d, q)) == 1
            if any(map(mod, _degree_scales(kind, qpow, n), row_dens)) or max(
                map(gcd, row_nums, map(gcd, row_dens, repeat(q)))
            ) != 1:
                return None
            nums.append(row_nums)
            dens.append(row_dens)
    except (TypeError, ValueError):  # a non-string, or past the int digit limit
        return None
    return nums, dens


def _json_rational(value, field: str) -> Fraction:
    """``as_rational(value)`` for a triangle JSON field; every rejection is
    a ``ValueError`` that names the field.  JSON ``true``/``false`` are
    rejected, though ``as_rational`` reads them as 1 and 0."""
    try:
        if type(value) is bool:
            raise TypeError("booleans are not accepted")
        return as_rational(value)
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"triangle JSON {field}: {exc}") from exc


def _freeze(rows: Iterable[Iterable[Scalar]]) -> Tuple[Tuple[Scalar, ...], ...]:
    return tuple(tuple(row) for row in rows)


def _degree_scales(kind: str, qpow: Sequence[int], n: int) -> Sequence[int]:
    """``q^e`` for each entry ``k`` of row ``n`` of ``kind``, ``e`` the
    entry's degree: ``n - k`` for S, ``n`` for Shat and E.  ``qpow[i]`` is
    ``q^i`` for ``i <= n``, computed once per triangle."""
    return qpow[n::-1] if kind == "S" else [qpow[n]] * (n + 1)


def _unscale(kind: str, q: int, rows) -> Tuple[Tuple[Fraction, ...], ...]:
    """Integer rows of ``kind`` computed at the parameters scaled by ``q``,
    each entry divided back by ``q^degree``.  Row ``n`` is the row with
    ``n + 1`` entries, wherever it stands."""
    qpow = [q**d for d in range(max(map(len, rows), default=0))]
    return tuple(
        tuple(map(Fraction, row, _degree_scales(kind, qpow, len(row) - 1))) for row in rows
    )


def _scaled_rows(tri: "Triangle", q: int) -> List[List[Any]]:
    """The inverse of :func:`_unscale`: the entries of a numeric triangle
    times ``q^degree``, as ints whenever they are (always, for a triangle
    built by this module at parameters whose denominators divide ``q``)."""
    qpow = [q**d for d in range(tri.N + 1)]
    out = []
    for n, row in enumerate(tri.rows):
        scaled = []
        for v, scale in zip(row, _degree_scales(tri.kind, qpow, n)):
            num, den = v.numerator * scale, v.denominator
            scaled.append(num // den if num % den == 0 else Fraction(num, den))
        out.append(scaled)
    return out


def _scaled_triple(alpha, beta, r):
    """``(a, b, r)`` as rationals, their common denominator ``q`` and the
    integers ``q * (a, b, r)``."""
    a, b, rr = as_rational(alpha), as_rational(beta), as_rational(r)
    q, ints = scale_params(a, b, rr)
    return (a, b, rr), q, ints


# ---------------------------------------------------------------------------
# scheme 1: triangular recurrence
# ---------------------------------------------------------------------------


def _recurrence_rows(kind: str, a, b, r, N: int, one, start=None) -> List[List[Scalar]]:
    """Rows of the triangular recurrence up to row ``N``: from row 0
    (``[one]``), or from ``start`` (row ``len(start) - 1``) when it is given.
    The first row returned is row 0 or ``start``."""
    rows: List[List[Scalar]] = [[one] if start is None else start]
    for n in range(len(rows[0]) - 1, N):
        prev = [0, *rows[-1], 0]  # entry k of row n is prev[k + 1]
        row = []
        for k in range(n + 2):
            val = (b * k + r - a * n) * prev[k + 1]
            if kind == "S":
                val = val + prev[k]
            elif kind == "Shat":
                val = val + (b * k) * prev[k]
            else:  # E
                val = val + ((a + b) * n - b * (k - 1) + (b - r)) * prev[k]
            row.append(val)
        rows.append(row)
    return rows


class _CachedRecurrence:
    """Rows 0..built of one numeric recurrence triangle: the common
    denominator ``q`` and scaled integers of its parameters, its last integer
    row and its ``Fraction`` rows.  ``upto`` extends the integer recurrence
    from the last row when asked for more rows than it holds."""

    __slots__ = ("kind", "q", "ints", "state")

    def __init__(self, kind: str, a: Fraction, b: Fraction, r: Fraction):
        self.kind = kind
        self.q, self.ints = scale_params(a, b, r)
        # one attribute, replaced whole, so the two always belong together
        self.state = ([1], ((Fraction(1),),))

    def upto(self, N: int) -> Tuple[Tuple[Fraction, ...], ...]:
        last, rows = self.state
        if N >= len(rows):
            new = _recurrence_rows(self.kind, *self.ints, N, 1, start=last)[1:]
            rows = rows + _unscale(self.kind, self.q, new)
            self.state = (new[-1], rows)
        return rows[: N + 1]


def _check_rows(N: int) -> None:
    if N < 0:
        raise ValueError("N must be a natural number")


@lru_cache(maxsize=4096)
def _recurrence_rows_cached(kind: str, a: Fraction, b: Fraction, r: Fraction) -> _CachedRecurrence:
    return _CachedRecurrence(kind, a, b, r)


def build_recurrence(kind: str, alpha, beta, r, N: int) -> Triangle:
    """Build rows 0..N by the one-step triangular recurrence.

    Parameters may be rationals (ints, ``"p/q"`` strings, Fractions) or
    :class:`ParamPoly` values for the symbolic mode.

    Numeric triangles are cached by parameters alone: rows 0..N of a
    ``(kind, alpha, beta, r)`` triangle do not depend on ``N``, so the cache
    keeps at most one triangle per parameter point, the tallest asked for.
    A request for fewer rows is served as a prefix of it; a request for more
    continues the integer recurrence from its last row and turns only the
    new rows into ``Fraction``s.  The cache holds up to 4 096 parameter
    points, the least recently used leaving first.  Symbolic triangles are
    not cached.
    """
    if kind not in KINDS:
        raise ValueError(f"unknown triangle kind {kind!r}")
    _check_rows(N)
    if any(isinstance(p, ParamPoly) for p in (alpha, beta, r)):
        rows = _freeze(
            _recurrence_rows(kind, alpha, beta, r, N, ParamPoly.constant(1))
        )
        return Triangle(kind, alpha, beta, r, rows)
    a, b, rr = as_rational(alpha), as_rational(beta), as_rational(r)
    return Triangle(kind, a, b, rr, _recurrence_rows_cached(kind, a, b, rr).upto(N))


def symbolic_triangle(kind: str, N: int) -> Triangle:
    """Triangle with fully symbolic parameters; entries are ParamPoly."""
    return build_recurrence(kind, ParamPoly.alpha(), ParamPoly.beta(), ParamPoly.r(), N)


# ---------------------------------------------------------------------------
# scheme 2: explicit alternating sums over the falling-power table
# ---------------------------------------------------------------------------


def _falling_power_table(alpha, beta, r, X: int, N: int):
    """table[x][n] = (beta x + r)^{falling n, alpha} for 0<=x<=X, 0<=n<=N."""
    table = []
    for x in range(X + 1):
        base = beta * x + r
        row = [1]
        for n in range(N):
            row.append(row[-1] * (base - n * alpha))
        table.append(row)
    return table


def _alternating_sum(kind: str, n: int, k: int, table) -> int:
    """Entry (n, k) of ``Shat`` or ``E`` from the falling-power table:
    ``sum_x (-1)^(k-x) w(x) table[x][n]`` with ``w = C(k, x)`` for ``Shat``
    and ``w = C(n+1, k-x)`` for ``E``."""
    total = 0
    for x in range(k + 1):
        weight = comb(k, x) if kind == "Shat" else comb(n + 1, k - x)
        total += (-weight if (k - x) % 2 else weight) * table[x][n]
    return total


def _sum_rows(kind: str, A: int, B: int, R: int, N: int) -> List[List[int]]:
    """Integer rows 0..N by the explicit sums at the scaled parameters."""
    table = _falling_power_table(A, B, R, N, N)
    return [[_alternating_sum(kind, n, k, table) for k in range(n + 1)] for n in range(N + 1)]


def entry_by_sum(kind: str, n: int, k: int, alpha, beta, r) -> Fraction:
    """Single entry from the explicit alternating sum.

    ``kind`` must be ``"Shat"`` or ``"E"`` (the unmodified ``S`` entries
    follow from ``Shat`` by dividing out ``beta^k k!`` when ``beta != 0``).
    """
    if kind not in ("Shat", "E"):
        raise ValueError("entry_by_sum supports kinds 'Shat' and 'E'")
    if k < 0 or k > n:
        raise ValueError(f"index (n, k) = ({n}, {k}) outside 0 <= k <= n")
    _, q, (A, B, R) = _scaled_triple(alpha, beta, r)
    table = _falling_power_table(A, B, R, k, n)
    return Fraction(_alternating_sum(kind, n, k, table), q**n)


def triangle_by_sum(kind: str, alpha, beta, r, N: int) -> Triangle:
    """All rows 0..N from the explicit sums, sharing one falling-power table."""
    if kind not in ("Shat", "E"):
        raise ValueError("triangle_by_sum supports kinds 'Shat' and 'E'")
    _check_rows(N)
    params, q, ints = _scaled_triple(alpha, beta, r)
    return Triangle(kind, *params, _unscale(kind, q, _sum_rows(kind, *ints, N)))


def shat_from_s_row(row: Sequence[Scalar], beta) -> List[Scalar]:
    """Rescale an S row to the modified row: entry k times ``beta^k k!``."""
    return [row[k] * beta**k * factorial(k) for k in range(len(row))]


# ---------------------------------------------------------------------------
# scheme 3: binomial transforms between Shat and E rows
# ---------------------------------------------------------------------------


def binomial_transform(row: Sequence[Scalar], direction: str) -> List[Scalar]:
    """Transform a full row (length n+1) between the Shat and E conventions.

    ``direction`` is ``"EToShat"`` (plain binomial sum) or ``"ShatToE"``
    (the alternating inverse).  The two are mutually inverse.
    """
    if direction not in ("EToShat", "ShatToE"):
        raise ValueError(f"unknown direction {direction!r}")
    sign = -1 if direction == "ShatToE" else 1
    n = len(row) - 1
    out: List[Scalar] = []
    for k in range(n + 1):
        total, s = 0, sign**k  # s is sign^(k - j)
        for j in range(k + 1):
            total = total + s * comb(n - j, n - k) * row[j]
            s *= sign
        out.append(total)
    return out


def triangle_by_transform(kind: str, alpha, beta, r, N: int) -> Triangle:
    """Build ``Shat`` (or ``E``) rows by transforming the dual kind's rows,
    where the dual rows come from the explicit sum scheme."""
    if kind not in ("Shat", "E"):
        raise ValueError("triangle_by_transform supports kinds 'Shat' and 'E'")
    _check_rows(N)
    dual_kind = "E" if kind == "Shat" else "Shat"
    direction = "EToShat" if kind == "Shat" else "ShatToE"
    params, q, ints = _scaled_triple(alpha, beta, r)
    rows = [binomial_transform(row, direction) for row in _sum_rows(dual_kind, *ints, N)]
    return Triangle(kind, *params, _unscale(kind, q, rows))


# ---------------------------------------------------------------------------
# matrix algebra: products, identity, LDU, reflection
# ---------------------------------------------------------------------------


def triangle_product(left: Triangle, right: Triangle) -> Triangle:
    """Matrix product of two S-kind sections sharing the inner parameter.

    ``left`` carries ``(alpha, beta; r1)`` and ``right`` ``(beta, gamma; r2)``;
    the result carries ``(alpha, gamma; r1 + r2)``.
    """
    if left.kind != "S" or right.kind != "S":
        raise ValueError("triangle_product is defined for S-kind triangles")
    if left.is_symbolic or right.is_symbolic:
        raise ValueError("triangle_product is defined for numeric triangles")
    if left.beta != right.alpha:
        raise ValueError(
            f"inner parameters disagree: {left.beta} (left beta) vs "
            f"{right.alpha} (right alpha)"
        )
    if left.N != right.N:
        raise ValueError("triangle sections must have matching size")
    # entry (n, j) of left times q^(n-j) and (j, k) of right times q^(j-k)
    # make each term of the product entry (n, k) q^(n-k) times its value
    q, _ = scale_params(left.alpha, left.beta, left.r, right.beta, right.r)
    lrows, rrows = _scaled_rows(left, q), _scaled_rows(right, q)
    rows = [
        [sum(lrows[n][j] * rrows[j][k] for j in range(k, n + 1)) for k in range(n + 1)]
        for n in range(left.N + 1)
    ]
    return Triangle("S", left.alpha, right.beta, left.r + right.r, _unscale("S", q, rows))


def identity_triangle(alpha, N: int) -> Triangle:
    """The S-kind identity section, parameters ``(alpha, alpha; 0)``."""
    _check_rows(N)
    a = as_rational(alpha)
    rows = [
        [Fraction(1) if k == n else Fraction(0) for k in range(n + 1)]
        for n in range(N + 1)
    ]
    return Triangle("S", a, a, Fraction(0), _freeze(rows))


def vandermonde_ldu_check(alpha, beta, r, N: int) -> bool:
    """Check the factorization of the generalized Vandermonde square section
    ``V[n][x] = (beta x + r)^{falling n, alpha}`` as L * D * U with
    L the S triangle, D = diag(beta^k k!) and U the transposed Pascal matrix.
    """
    _check_rows(N)
    # at the parameters scaled by q both sides are q^n times their value
    _, (A, B, R) = scale_params(alpha, beta, r)
    rows = _recurrence_rows("S", A, B, R, N, 1)
    table = _falling_power_table(A, B, R, N, N)
    diag = [B**k * factorial(k) for k in range(N + 1)]
    for n in range(N + 1):
        for x in range(N + 1):
            rhs = sum(rows[n][k] * diag[k] * comb(x, k) for k in range(min(n, x) + 1))
            if table[x][n] != rhs:
                return False
    return True


def reflection_check(alpha, beta, r, N: int) -> bool:
    """Check the row-reversal symmetry of the Eulerian kind:
    E[n][n-k](alpha, beta; r) == E[n][k](-alpha, beta; beta - r)."""
    _check_rows(N)
    # the reflected point has the same common denominator q, and every E
    # entry of row n is q^n times its value at both points
    _, (A, B, R) = scale_params(alpha, beta, r)
    rows = _recurrence_rows("E", A, B, R, N, 1)
    reflected = _recurrence_rows("E", -A, B, B - R, N, 1)
    return all(row[::-1] == other for row, other in zip(rows, reflected))


# ---------------------------------------------------------------------------
# scheme 4: decomposition through the classical triangles
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _classical_rows(N: int, cycles: bool):
    """Rows 0..N of the classical subset (``cycles=False``) or unsigned cycle
    (``cycles=True``) Stirling triangle, by
    ``row[k] = prev[k-1] + w prev[k]`` with ``w = k`` or ``w = n``."""
    rows = [(1,)]
    for n in range(N):
        prev = rows[-1] + (0,)
        rows.append(tuple(
            (prev[k - 1] if k else 0) + (n if cycles else k) * prev[k] for k in range(n + 2)
        ))
    return tuple(rows)


def stirling_subset(n: int, k: int) -> int:
    """Classical subset-partition Stirling number (second kind)."""
    if k < 0 or k > n:
        return 0
    return _classical_rows(n, False)[n][k]


def stirling_cycle(n: int, k: int) -> int:
    """Classical unsigned cycle Stirling number (first kind)."""
    if k < 0 or k > n:
        return 0
    return _classical_rows(n, True)[n][k]


def _decomposition_entry(n: int, k: int, apow, bpow, rpow, cyc, sub) -> int:
    """The double sum of :func:`decompose_classical` from power tables
    ``apow[i] = (-alpha)^i``, ``bpow[i] = beta^i``, ``rpow[i] = r^i`` (so
    ``0^0 = 1``) and classical rows ``cyc``/``sub`` reaching row ``n``."""
    total = 0
    for j in range(k, n + 1):
        c = cyc[n][j]
        if not c:
            continue
        for p in range(k, j + 1):
            s = sub[p][k]
            if s:
                total += c * comb(j, p) * s * apow[n - j] * rpow[j - p] * bpow[p - k]
    return total


def _decomposition_tables(A: int, B: int, R: int, N: int):
    """The integer power tables and classical rows for rows up to ``N``."""
    return ([(-A) ** i for i in range(N + 1)], [B**i for i in range(N + 1)],
            [R**i for i in range(N + 1)], _classical_rows(N, True), _classical_rows(N, False))


def decompose_classical(n: int, k: int, alpha, beta, r) -> Fraction:
    """Single S entry through the classical cycle/subset triangles:

    ``sum_{j=k}^{n} sum_{p=k}^{j} (-alpha)^{n-j} c(n,j) r^{j-p} C(j,p)
    beta^{p-k} S(p,k)``

    with ``c``/``S`` the classical cycle/subset numbers.  Zero-to-the-zero
    powers count as 1, so every parameter (including 0) is legal.
    """
    if k < 0 or k > n:
        raise ValueError(f"index (n, k) = ({n}, {k}) outside 0 <= k <= n")
    _, q, (A, B, R) = _scaled_triple(alpha, beta, r)
    return Fraction(_decomposition_entry(n, k, *_decomposition_tables(A, B, R, n)), q ** (n - k))


def triangle_by_decomposition(alpha, beta, r, N: int) -> Triangle:
    """All S rows 0..N via the classical decomposition, with power caches."""
    _check_rows(N)
    params, q, (A, B, R) = _scaled_triple(alpha, beta, r)
    tables = _decomposition_tables(A, B, R, N)
    rows = [[_decomposition_entry(n, k, *tables) for k in range(n + 1)] for n in range(N + 1)]
    return Triangle("S", *params, _unscale("S", q, rows))


# ---------------------------------------------------------------------------
# closed-form families
# ---------------------------------------------------------------------------

# One table drives closed_form, closed_form_params and CLOSED_FORM_FAMILIES
# (its keys, in order).  A family maps to its (kind, alpha, beta, r), where
# "r", "b" and "-b" stand for the free r and beta, and to its entry as one
# integer numerator over one denominator: numerator(n, k, d, q, R, B) at
# (R, B) = q (r, beta) and d = n - k, denominator(n, d, q).


def _e_vi(n: int, k: int, d: int, q: int, R: int, B: int) -> int:
    """The (zeta, p) Eulerian family: r = 2 - zeta + 2 p with zeta in {0, 1}
    and p natural, i.e. an integer r >= 1."""
    if R % q or R < q:
        raise ValueError("the (zeta, p) Eulerian family needs an integer r >= 1")
    rint = R // q
    zeta = rint % 2
    p = (rint - 2 + zeta) // 2
    value = factorial(n) * comb(n + 1, 2 * k + 2 * p + 1 - zeta)
    corr = 0
    for ell in range(p):
        sign = -1 if ell % 2 else 1
        corr += sign * rising(2 - zeta + 2 * ell, n) * comb(n + 1, k + p - ell)
    return value + corr if (k + p) % 2 else value - corr


_F0, _F1, _F2 = Fraction(0), Fraction(1), Fraction(2)
_CLOSED_FORMS = {
    "S_8F_i": (
        ("S", _F1, _F1, _F0),
        lambda n, k, d, q, R, B: int(d == 0),
        lambda n, d, q: 1),
    "S_8F_ii": (
        ("S", -_F1, _F1, _F0),
        lambda n, k, d, q, R, B: comb(n, k) * rising(k, d),
        lambda n, d, q: 1),
    "S_8F_iii": (
        ("S", _F1, _F2, _F0),
        lambda n, k, d, q, R, B: comb(k, d) * factorial(n) // factorial(k),
        lambda n, d, q: 2**d),
    "S_8F_iv": (
        ("S", -_F2, -_F1, _F0),
        lambda n, k, d, q, R, B: rising(n, d) * rising(k, d) // factorial(d),
        lambda n, d, q: 2**d),
    "S_8F_iprime": (
        ("S", "b", "b", "r"),
        lambda n, k, d, q, R, B: comb(n, k) * strided_falling(R, d, B),
        lambda n, d, q: q**d),
    "S_8F_iiprime": (
        ("S", "-b", "b", "r"),
        lambda n, k, d, q, R, B: comb(n, k) * strided_rising(B * k + R, d, B),
        lambda n, d, q: q**d),
    "S_8F_iiiprime": (
        ("S", _F1, _F2, "r"),
        lambda n, k, d, q, R, B: comb(n, k) * hyp2f1_hat(d, -R, 2 * k - n + 1, 2, q),
        lambda n, d, q: (2 * q) ** d),
    "S_8F_ivprime": (
        ("S", -_F2, -_F1, "r"),
        lambda n, k, d, q, R, B: comb(n, k) * hyp2f1_hat(d, R - q, k - 2 * n, 2, q),
        lambda n, d, q: (-2 * q) ** d),
    "S_4F_v": (
        ("S", -_F1, _F2, "r"),
        lambda n, k, d, q, R, B:
            comb(n, k) * hyp2f1_hat(d, (1 - n) * q - R, 2 * k - n + 1, 2, q),
        lambda n, d, q: (2 * q) ** d),
    "S_4F_vi": (
        ("S", -_F2, _F1, "r"),
        lambda n, k, d, q, R, B:
            comb(n, k) * hyp2f1_hat(d, (1 - 2 * n) * q - R, k - 2 * n, 2, q),
        lambda n, d, q: (2 * q) ** d),
    "E_i": (
        ("E", "b", "b", "r"),
        lambda n, k, d, q, R, B:
            comb(n, k) * strided_falling(R, d, B) * strided_falling(B * n - R, k, B),
        lambda n, d, q: q**n),
    "E_ii": (
        ("E", "-b", "b", "r"),
        lambda n, k, d, q, R, B:
            comb(n, k) * strided_rising(B * k + R, d, B) * strided_falling(B - R, k, B),
        lambda n, d, q: q**n),
    "E_iii": (
        ("E", -_F1, _F2, _F0),
        lambda n, k, d, q, R, B: factorial(n) * comb(n + 1, 2 * k - 1) if k else int(n == 0),
        lambda n, d, q: 1),
    "E_iv": (
        ("E", -_F1, _F2, _F1),
        lambda n, k, d, q, R, B: factorial(n) * comb(n + 1, 2 * k),
        lambda n, d, q: 1),
    "E_v": (
        ("E", -_F1, _F2, _F2),
        lambda n, k, d, q, R, B: factorial(n) * comb(n + 1, 2 * k + 1),
        lambda n, d, q: 1),
    "E_vi": (
        ("E", -_F1, _F2, "r"),
        _e_vi,
        lambda n, d, q: 1),
}
CLOSED_FORM_FAMILIES = tuple(_CLOSED_FORMS)


def closed_form_params(family: str, r=0, beta=1):
    """The (kind, alpha, beta, r) tuple a family's closed form evaluates."""
    rr = as_rational(r)
    b = as_rational(beta)
    if family not in _CLOSED_FORMS:
        raise ValueError(f"unknown closed-form family {family!r}")
    if family == "E_vi" and (rr.denominator != 1 or rr < 1):
        raise ValueError("the (zeta, p) Eulerian family needs an integer r >= 1")
    free = {"r": rr, "b": b, "-b": -b}
    kind, *params = _CLOSED_FORMS[family][0]
    return (kind, *(free[p] if isinstance(p, str) else p for p in params))


def _scale_pair(r, beta) -> Tuple[int, int, int]:
    """``scale_params(r, beta)`` as ``(q, R, B)``, coercing only arguments
    that are not already ints or Fractions."""
    rn, rd = (r if type(r) in (int, Fraction) else as_rational(r)).as_integer_ratio()
    bn, bd = (beta if type(beta) in (int, Fraction) else as_rational(beta)).as_integer_ratio()
    q = lcm(rd, bd)
    return q, rn * (q // rd), bn * (q // bd)


def closed_form(family: str, n: int, k: int, r=0, beta=1) -> Fraction:
    """Evaluate one of the sixteen closed-form families exactly.

    ``r`` is honored by the primed/Eulerian families and ignored by the
    fixed-parameter ones; ``beta`` is honored only by the four families with
    a free stride (S_8F_iprime, S_8F_iiprime, E_i, E_ii).  The (zeta, p)
    Eulerian family ``E_vi`` requires an integer ``r >= 1``.

    Every family computes one integer numerator at ``(R, B) = q (r, beta)``
    in O(n) steps and divides it once, by ``q^d`` (``d = n - k``),
    ``(2q)^d``, ``(-2q)^d``, ``q^n``, ``2^d`` or 1.
    """
    spec = _CLOSED_FORMS.get(family)
    if spec is None:
        raise ValueError(f"unknown closed-form family {family!r}")
    if k < 0 or k > n:
        return Fraction(0)
    q, R, B = _scale_pair(r, beta)
    _, numerator, denominator = spec
    d = n - k
    return Fraction(numerator(n, k, d, q, R, B), denominator(n, d, q))


# ---------------------------------------------------------------------------
# Eulerian row polynomial via the geometric tail
# ---------------------------------------------------------------------------


_EULER_TAIL = 5  # coefficients past degree n that row_polynomial_euler checks


def row_polynomial_euler(n: int, alpha, beta, r) -> List[Fraction]:
    """Row ``n`` of the Eulerian kind, read off from

    ``(1 - t)^{n+1} * sum_{j >= 0} (beta j + r)^{falling n, alpha} t^j``.

    The product is a polynomial of degree ``n``; the coefficients of
    ``t^{n+1} .. t^{n+5}`` are computed and must vanish, otherwise an
    ArithmeticError is raised.  Coefficient ``m`` is the explicit sum that
    :func:`entry_by_sum` gives for ``E`` entry ``(n, m)``, read past ``m = n``.
    """
    if n < 0:
        raise ValueError("n must be a natural number")
    _, q, (A, B, R) = _scaled_triple(alpha, beta, r)
    top = n + _EULER_TAIL
    table = _falling_power_table(A, B, R, top, n)  # q^n times the values
    coeffs = [Fraction(_alternating_sum("E", n, m, table), q**n) for m in range(top + 1)]
    tail = coeffs[n + 1 :]
    if any(tail):
        raise ArithmeticError(
            f"geometric tail failed to cancel beyond degree {n}: {tail}"
        )
    return coeffs[: n + 1]


# ---------------------------------------------------------------------------
# Newton-series shifts in r
# ---------------------------------------------------------------------------


def shift_r(base: Triangle, target_r, scheme: str) -> Triangle:
    """Shift a numeric S or Shat triangle from ``r = 0`` to ``target_r``.

    ``scheme`` selects the finite Newton series used:

    - ``"NewtonAlpha"``: stride alpha (requires ``alpha != 0``), mixing
      entries down the rows;
    - ``"NewtonBeta"``: stride beta (requires ``beta != 0``), mixing entries
      along each row.
    """
    if base.kind not in ("S", "Shat"):
        raise ValueError("shift_r supports kinds 'S' and 'Shat'")
    if base.is_symbolic:
        raise ValueError("shift_r is defined for numeric triangles")
    if base.r != 0:
        raise ValueError("base triangle must sit at r = 0")
    rho = as_rational(target_r)
    a, b = base.alpha, base.beta
    q, (A, B, RHO) = scale_params(a, b, rho)
    if scheme == "NewtonAlpha":
        if a == 0:
            raise ValueError("NewtonAlpha requires alpha != 0")
        stride = A
    elif scheme == "NewtonBeta":
        if b == 0:
            raise ValueError("NewtonBeta requires beta != 0")
        stride = B
    else:
        raise ValueError(f"unknown shift scheme {scheme!r}")
    # at the parameters scaled by q, base entries and the falling powers of
    # rho (degree m) carry q^degree, so every Newton term of entry (n, k)
    # carries the entry's own q^degree
    fall = [strided_falling(RHO, m, stride) for m in range(base.N + 1)]
    base_rows = _scaled_rows(base, q)
    rows = []
    for n in range(base.N + 1):
        row = []
        for k in range(n + 1):
            d = n - k
            if scheme == "NewtonAlpha":
                total = sum(comb(n, m) * base_rows[n - m][k] * fall[m] for m in range(d + 1))
            elif base.kind == "S":
                total = sum(
                    comb(k + m, m) * base_rows[n][k + m] * fall[m] for m in range(d + 1)
                )
            else:
                # the Shat terms divide by B^m m!; sum them over B^d d!
                total = Fraction(
                    sum(base_rows[n][k + m] * fall[m] * B ** (d - m)
                        * (factorial(d) // factorial(m)) for m in range(d + 1)),
                    B**d * factorial(d),
                )
            row.append(total)
        rows.append(row)
    return Triangle(base.kind, a, b, rho, _unscale(base.kind, q, rows))


# ---------------------------------------------------------------------------
# the integer-r summation conjecture checker (reports, never asserts)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConjectureCell:
    n: int
    k: int
    r: int
    recurrence: Fraction
    sum_stated: Fraction
    sum_truncated: Fraction
    match_stated: bool
    match_truncated: bool

    @property
    def conventions_differ(self) -> bool:
        return self.sum_stated != self.sum_truncated


@dataclass
class ConjectureReport:
    n_max: int
    r_min: int
    r_max: int
    cells: List[ConjectureCell] = field(default_factory=list)

    @property
    def total(self) -> int:
        return len(self.cells)

    @property
    def mismatches_stated(self) -> List[ConjectureCell]:
        return [c for c in self.cells if not c.match_stated]

    @property
    def mismatches_truncated(self) -> List[ConjectureCell]:
        return [c for c in self.cells if not c.match_truncated]

    @property
    def convention_sensitive(self) -> List[ConjectureCell]:
        return [c for c in self.cells if c.conventions_differ]


def conjecture_check(n_max: int = 10, r_min: int = -4, r_max: int = 6) -> ConjectureReport:
    """Compare the conjectured binomial summation for the modified
    (-1, 2; r) triangle against the recurrence, for integer r.

    The stated summation range dips below ``j = 0`` once ``r >= 3``; since
    the intent there is ambiguous, both the stated range and its truncation
    to ``j >= 0`` are evaluated and reported.  This function never raises on
    a mismatch; it reports.
    """
    report = ConjectureReport(n_max=n_max, r_min=r_min, r_max=r_max)
    for r in range(r_min, r_max + 1):
        tri = build_recurrence("Shat", -1, 2, r, n_max)
        for n in range(n_max + 1):
            nfact = factorial(n)
            for k in range(n + 1):
                lo = (2 - r) // 2  # floor division, may be negative
                hi = (n + 2 - r) // 2
                total_stated = Fraction(0)
                total_trunc = Fraction(0)
                for j in range(lo, hi + 1):
                    term = binomial(n - j, n - k) * nfact * binomial(n + 1, 2 * j + r - 1)
                    total_stated += term
                    if j >= 0:
                        total_trunc += term
                rec = tri.rows[n][k]
                report.cells.append(
                    ConjectureCell(
                        n=n,
                        k=k,
                        r=r,
                        recurrence=rec,
                        sum_stated=total_stated,
                        sum_truncated=total_trunc,
                        match_stated=total_stated == rec,
                        match_truncated=total_trunc == rec,
                    )
                )
    return report
