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
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, lcm
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
    """A lower-triangular section with jagged rows ``rows[n][0..n]``."""

    kind: str
    alpha: Scalar
    beta: Scalar
    r: Scalar
    rows: Tuple[Tuple[Scalar, ...], ...]

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown triangle kind {self.kind!r}")
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

    def to_json(self) -> str:
        payload = {
            "kind": self.kind,
            "alpha": str(self.alpha),
            "beta": str(self.beta),
            "r": str(self.r),
            "rows": [[str(v) for v in row] for row in self.rows],
        }
        return json.dumps(payload)

    @classmethod
    def from_json(cls, text: str) -> "Triangle":
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
        if not isinstance(payload["rows"], list):
            raise ValueError("triangle JSON 'rows' is not a list")
        rows = []
        for n, row in enumerate(payload["rows"]):
            if not isinstance(row, list):
                raise ValueError(f"triangle JSON row {n} is not a list")
            try:
                rows.append(tuple(map(as_rational, row)))
            except (TypeError, ValueError, ZeroDivisionError):
                for k, v in enumerate(row):  # find the entry, raise naming it
                    _json_rational(v, f"row {n}, column {k}")
                raise
        return cls(kind=payload["kind"], rows=tuple(rows), **params)

    def to_csv(self) -> str:
        return "\n".join(",".join(str(v) for v in row) for row in self.rows)

    def to_latex(self) -> str:
        lines = [" & ".join(str(v) for v in row) + r" \\" for row in self.rows]
        cols = "r" * (self.N + 1)
        return "\n".join([rf"\begin{{array}}{{{cols}}}"] + lines + [r"\end{array}"])

    def to_text(self) -> str:
        return "\n".join(", ".join(str(v) for v in row) for row in self.rows)


def _json_rational(value, field: str) -> Fraction:
    """``as_rational(value)`` for a triangle JSON field; every rejection is
    a ``ValueError`` that names the field."""
    try:
        return as_rational(value)
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"triangle JSON {field}: {exc}") from exc


def _freeze(rows: Iterable[Iterable[Scalar]]) -> Tuple[Tuple[Scalar, ...], ...]:
    return tuple(tuple(row) for row in rows)


def _unscale(kind: str, q: int, rows) -> Tuple[Tuple[Fraction, ...], ...]:
    """Integer rows of ``kind`` computed at the parameters scaled by ``q``,
    divided back: entry (n, k) by ``q^(n-k)`` for S, by ``q^n`` otherwise.
    Row ``n`` is the row with ``n + 1`` entries, wherever it stands."""
    qpow = [q**d for d in range(max(map(len, rows), default=0))]
    out = []
    for row in rows:
        n = len(row) - 1
        if kind == "S":
            out.append(tuple(Fraction(v, qpow[n - k]) for k, v in enumerate(row)))
        else:
            out.append(tuple(Fraction(v, qpow[n]) for v in row))
    return tuple(out)


def _scaled_rows(tri: "Triangle", q: int) -> List[List[Any]]:
    """The inverse of :func:`_unscale`: the entries of a numeric triangle
    times ``q^degree``, as ints whenever they are (always, for a triangle
    built by this module at parameters whose denominators divide ``q``)."""
    out = []
    for n, row in enumerate(tri.rows):
        scaled = []
        for k, v in enumerate(row):
            num, den = v.numerator * q ** (n - k if tri.kind == "S" else n), v.denominator
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
    n = len(row) - 1
    out: List[Scalar] = []
    if direction == "EToShat":
        for k in range(n + 1):
            total = 0
            for j in range(k + 1):
                total = total + comb(n - j, n - k) * row[j]
            out.append(total)
    elif direction == "ShatToE":
        for k in range(n + 1):
            total = 0
            for j in range(k + 1):
                sign = -1 if (k - j) % 2 else 1
                total = total + (sign * comb(n - j, n - k)) * row[j]
            out.append(total)
    else:
        raise ValueError(f"unknown direction {direction!r}")
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
    # at the parameters scaled by q both sides are q^n times their value
    params, q, (A, B, R) = _scaled_triple(alpha, beta, r)
    rows = _scaled_rows(build_recurrence("S", *params, N), q)
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
    a, b, rr = as_rational(alpha), as_rational(beta), as_rational(r)
    t1 = build_recurrence("E", a, b, rr, N)
    t2 = build_recurrence("E", -a, b, b - rr, N)
    for n in range(N + 1):
        for k in range(n + 1):
            if t1.rows[n][n - k] != t2.rows[n][k]:
                return False
    return True


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


def row_polynomial_euler(n: int, alpha, beta, r, extra_order: int = 5) -> List[Fraction]:
    """Row ``n`` of the Eulerian kind, read off from

    ``(1 - t)^{n+1} * sum_{j >= 0} (beta j + r)^{falling n, alpha} t^j``.

    The product is a polynomial of degree ``n``; the coefficients of
    ``t^{n+1} .. t^{n+extra_order}`` are computed and must vanish, otherwise
    an ArithmeticError is raised.
    """
    if n < 0:
        raise ValueError("n must be a natural number")
    _, q, (A, B, R) = _scaled_triple(alpha, beta, r)
    top = n + extra_order
    table = _falling_power_table(A, B, R, top, n)  # q^n times the values
    coeffs = [
        sum(
            (-1) ** (m - j) * comb(n + 1, m - j) * table[j][n]
            for j in range(max(0, m - n - 1), m + 1)
        )
        for m in range(top + 1)
    ]
    coeffs = [Fraction(c, q**n) for c in coeffs]
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
