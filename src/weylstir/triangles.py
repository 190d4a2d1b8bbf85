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
Each entry of the sum, transform, shift and decomposition schemes is one dot
product of an integer weight row with a row or column of scaled integers; the
sum and transform weights are memoized (256 rows or matrices each), and the
decomposition is the product of its three factor matrices.  A transform
reads the dual kind's rows from the integer recurrence, and a ``Shat`` shift
along ``beta`` runs as the ``S`` shift between two diagonal scalings,
``Shat = S diag(beta^k k!)``.

Every entry is a polynomial with integer coefficients in ``(alpha, beta, r)``,
homogeneous of degree ``n - k`` for ``S`` and of degree ``n`` for ``Shat`` and
``E``.  The numeric schemes therefore scale the parameters to integers over
one common denominator ``q`` (:func:`weylstir.kernels.scale_params`) and
compute in Python ``int``.  Every triangle is one frozen :class:`Triangle`.
``Triangle(...)`` stores the rows it is given; symbolic entries are
``ParamPoly``.  Every numeric scheme, the recurrence included, and
:meth:`Triangle.from_json` keep integer numerators over integer
denominators instead, build the ``Fraction`` rows once, when ``rows`` is
first read, in place of the integers, and compare with ``==`` in
integers.  The ``q^degree`` denominator rows are memoized per
``(kind, q, N)`` and shared by every triangle made there, so two scheme
triangles compare their numerators alone.  The recurrence cache holds the
tallest triangle built at each parameter point and serves a shorter one as
its prefix.  Consumers that need only integer rows (the classical Stirling
tables and the identity catalog) read one memo of them instead,
:func:`_integer_rows`.  The symbolic recurrence runs at linear-form
parameters and packs each entry into one ``int``, its coefficients as
fixed-width digits (a Kronecker substitution, :func:`_packed_rows`): a
product by a factor of the recurrence is two shifts and three small
multiples, the exports are written from the digits, and the ``ParamPoly``
rows are built the same lazy way, only when ``rows`` is first read.
:meth:`Triangle.to_json` joins the entry texts directly, and a read
triangle writes back the text it read.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, compress, repeat
from math import comb, factorial, gcd
from operator import mod, mul
from struct import Struct
from typing import Any, List, Sequence, Tuple, Union

from .kernels import (
    _exact_quotient,
    as_rational,
    binomial,
    hyp2f1_hat,
    rising,
    scale_params,
    strided_falling,
    strided_rising,
)
from .poly import ParamPoly, monomial_text, terms_text

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


class _RowsFromPairs:
    """The ``rows`` of a :class:`Triangle` made from integer pairs
    (:meth:`Triangle._of`) or from packed symbolic entries (:func:`_packed_rows`),
    built on first read and stored on the instance in place of the
    integers, so the triangle holds one form at a time.  As a
    non-data descriptor it is shadowed by the stored rows, so later reads
    cost no call; class access raises AttributeError, so the dataclass
    field ``rows`` has no default."""

    def __get__(self, tri, owner=None):
        if tri is None:
            raise AttributeError("rows")
        ints = tri._ints
        if ints is None:  # another thread built the rows meanwhile
            return vars(tri)["rows"]
        if type(ints[1]) is int:  # packed symbolic entries, digits ints[1] bits wide
            rows = tuple(map(tuple, _unpacked(tri.kind, *ints, tuple, _param_poly)))
        else:
            rows = _fraction_rows(*ints)
        vars(tri).update(rows=rows, _ints=None)
        return rows


def _param_poly(terms) -> ParamPoly:
    """The ``ParamPoly`` of ``(coefficient, monomial)`` terms."""
    return ParamPoly({mono: coeff for coeff, mono in terms})


def _fraction_rows(nums, dens) -> Tuple[Tuple[Fraction, ...], ...]:
    """The rows ``nums / dens`` as ``Fraction`` rows."""
    return tuple(tuple(map(Fraction, num, den)) for num, den in zip(nums, dens))


@dataclass(frozen=True)
class Triangle:
    """A lower-triangular section with jagged rows ``rows[n][0..n]``.

    ``Triangle(...)`` stores the rows it is given: ``Fraction`` rows, or
    ``ParamPoly`` rows in symbolic mode.  A symbolic
    :func:`build_recurrence` holds each entry as one packed int instead
    (:func:`_packed_rows`), which it writes from the digits, compares as
    ints and unpacks to ``ParamPoly`` rows on the first read of ``rows``.
    The numeric schemes, and
    :meth:`from_json` when every entry is written as ``to_json`` writes it,
    make the triangle from integer pairs instead (:meth:`_of`): each entry
    a scheme's value times ``q^degree`` over ``q^degree``, or a read entry
    in lowest terms.  Until ``rows`` is first read, ``==``, ``entry`` and
    ``N`` use the integers, so a cross-check costs no gcd of two
    entry-sized integers (see :meth:`from_json`); that read builds the
    ``Fraction`` rows once and keeps them in place of the integers.  A read
    triangle also keeps the entry texts it read and writes them back;
    ``to_json`` joins the entry texts directly."""

    kind: str
    alpha: Scalar
    beta: Scalar
    r: Scalar
    rows: Tuple[Tuple[Scalar, ...], ...] = _RowsFromPairs()
    # set by _of: entry (n, k) is _ints[0][n][k] / _ints[1][n][k], one
    # attribute so that the two always belong together, until the first
    # rows read; written as _texts[n][k] when from_json kept the text it read.
    # A symbolic triangle holds (packed rows, digit width) there instead
    _ints = _texts = None

    def __post_init__(self):
        if type(self.rows) is not tuple or any(type(row) is not tuple for row in self.rows):
            object.__setattr__(self, "rows", tuple(map(tuple, self.rows)))  # hashable
        if self.kind not in KINDS:
            raise ValueError(f"unknown triangle kind {self.kind!r}")
        if not self.rows:
            raise ValueError("a triangle needs row 0")
        for n, row in enumerate(self.rows):
            if len(row) != n + 1:
                raise ValueError(f"row {n} has {len(row)} entries, expected {n + 1}")

    @classmethod
    def _of(cls, kind, alpha, beta, r, nums, dens, texts=None) -> "Triangle":
        """The triangle whose entry ``(n, k)`` is ``nums[n][k] / dens[n][k]``,
        written as ``texts[n][k]`` when ``texts`` is given."""
        tri = object.__new__(cls)
        vars(tri).update(kind=kind, alpha=alpha, beta=beta, r=r, _ints=(nums, dens), _texts=texts)
        return tri

    @classmethod
    def _scaled(cls, kind: str, params, q: int, rows) -> "Triangle":
        """The triangle whose rows 0..N, computed at ``params`` scaled by
        ``q``, are ``rows``: each entry is its value times ``q^degree``,
        over the shared rows :func:`_denominator_rows` gives."""
        dens = _denominator_rows(kind, q, len(rows) - 1)
        return cls._of(kind, *map(as_rational, params), rows, dens)

    @property
    def N(self) -> int:
        ints = self._ints
        return len(self.rows if ints is None else ints[0]) - 1

    @property
    def is_symbolic(self) -> bool:
        return isinstance(self.alpha, ParamPoly)

    def entry(self, n: int, k: int) -> Scalar:
        """Entry at (n, k); zero outside ``0 <= k <= n <= N``."""
        ints = self._ints
        if ints is None:
            rows = self.rows
            if 0 <= k <= n < len(rows):
                return rows[n][k]
        elif 0 <= k <= n < len(ints[0]):
            try:
                return Fraction(ints[0][n][k], ints[1][n][k])
            except TypeError:  # a packed symbolic entry: its digit width has no rows
                return self.rows[n][k]
        if n > self.N:
            raise IndexError(f"row {n} not built (N = {self.N})")
        return ParamPoly() if self.is_symbolic else Fraction(0)

    def row(self, n: int) -> List[Scalar]:
        """Row ``n``; raises IndexError outside ``0 <= n <= N``."""
        if not 0 <= n <= self.N:
            raise IndexError(f"row {n} outside 0..{self.N}")
        return list(self.rows[n])

    def _pairs(self) -> Tuple[Sequence[List[int]], Sequence[List[int]]]:
        """The rows as numerator rows and denominator rows."""
        ints = self._ints
        if ints is not None:
            return ints
        return ([[v.numerator for v in row] for row in self.rows],
                [[v.denominator for v in row] for row in self.rows])

    def __getstate__(self):
        """The pickled fields, without the texts :meth:`from_json` read
        (``str`` of each entry writes the same text, which it proved)."""
        return {key: v for key, v in vars(self).items() if key != "_texts"}

    def __eq__(self, other):
        if not isinstance(other, Triangle):
            return NotImplemented
        if (self.kind, self.alpha, self.beta, self.r, self.N) != (
            other.kind, other.alpha, other.beta, other.r, other.N
        ):
            return False
        if self._ints is not None or other._ints is not None:
            try:
                return all(map(_rows_equal, *self._pairs(), *other._pairs()))
            except (AttributeError, TypeError):  # entries that are not rationals
                ints, other_ints = self._ints, other._ints
                if ints is not None and other_ints is not None:
                    # both packed symbolic: equal parameters and N give one digit width
                    return ints == other_ints
        return self.rows == other.rows

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
        """The entry texts row by row: those :meth:`from_json` read, if it
        kept them, those of packed symbolic entries written from their
        digits, else ``str`` of each entry."""
        if self._texts is not None:
            return self._texts
        ints = self._ints
        if ints is not None and type(ints[1]) is int:
            return _unpacked(self.kind, *ints, monomial_text, terms_text)
        return [[str(v) for v in row] for row in self.rows]

    def to_json(self) -> str:
        """The bytes ``json.dumps`` writes for the kind, the parameters and
        the entry texts, with the rows joined directly: no entry text needs
        escaping."""
        head = {"kind": self.kind, "alpha": str(self.alpha), "beta": str(self.beta),
                "r": str(self.r)}
        rows = '"], ["'.join(map('", "'.join, self._text_rows()))
        return f'{json.dumps(head)[:-1]}, "rows": [["{rows}"]]}}'

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
        check, the triangle keeps the integer pairs and the texts, which
        :meth:`to_json` writes back; when any entry does not (``"2/4"``,
        ``"03"``, an entry off the ``q^e`` lattice, a non-string), every
        entry becomes a ``Fraction`` at once.
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
                return cls._of(kind, *params.values(), *pairs, json_rows)
        rows = []
        for n, row in enumerate(json_rows):
            if not isinstance(row, list):
                raise ValueError(f"triangle JSON row {n} is not a list")
            rows.append(tuple(
                _json_rational(v, f"row {n}, column {k}") for k, v in enumerate(row)
            ))
        return cls(kind=kind, rows=tuple(rows), **params)

    def to_csv(self) -> str:
        return "\n".join(",".join(row) for row in self._text_rows())

    def to_latex(self) -> str:
        """The rows as a LaTeX ``array``: a rational entry as ``\\frac{p}{q}``
        with its sign outside, the parameters as ``\\alpha`` and ``\\beta``,
        products as spaces and every exponent braced (``r^{10}``)."""
        lines = [" & ".join(row) + r" \\" for row in self._text_rows()]
        cols = "r" * (self.N + 1)
        body = "\n".join(lines)
        body = _LATEX_FRACTION.sub(r"\\frac{\1}{\2}", body)
        body = body.replace("*", " ").replace("alpha", r"\alpha").replace("beta", r"\beta")
        body = re.sub(r"\^(\d+)", r"^{\1}", body)  # LaTeX reads r^10 as r^1 0
        return "\n".join([rf"\begin{{array}}{{{cols}}}", body, r"\end{array}"])

    def to_text(self) -> str:
        return "\n".join(", ".join(row) for row in self._text_rows())


# an unsigned p/q in an entry text; a minus sign stays outside the \frac
_LATEX_FRACTION = re.compile(r"(\d+)/(\d+)")


def _rows_equal(nums, dens, other_nums, other_dens) -> bool:
    """Whether the rows ``nums / dens`` and ``other_nums / other_dens`` are
    equal: by the numerators when the denominators agree, else by
    cross-multiplying."""
    if dens == other_dens:
        return nums == other_nums
    return list(map(mul, nums, other_dens)) == list(map(mul, other_nums, dens))


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


def _degree_scales(kind: str, qpow: Sequence[int], n: int) -> Sequence[int]:
    """``q^e`` for each entry ``k`` of row ``n`` of ``kind``, ``e`` the
    entry's degree: ``n - k`` for S, ``n`` for Shat and E.  ``qpow[i]`` is
    ``q^i`` for ``i <= n``, computed once per triangle."""
    return qpow[n::-1] if kind == "S" else [qpow[n]] * (n + 1)


@lru_cache(maxsize=256)
def _denominator_rows(kind: str, q: int, N: int) -> Tuple[List[int], ...]:
    """Rows 0..N of ``q^degree`` (:func:`_degree_scales`), shared by every
    triangle of ``(kind, q, N)`` so that two of them compare their
    numerators alone.  The rows are lists, as :meth:`Triangle.from_json`
    and :meth:`Triangle._pairs` give them, so they compare equal to those;
    no caller changes them."""
    qpow = [q**d for d in range(N + 1)]
    return tuple(_degree_scales(kind, qpow, n) for n in range(N + 1))


def _scaled_rows(tri: "Triangle", q: int) -> List[List[Any]]:
    """The entries of a numeric triangle times ``q^degree``, as ints
    whenever they are (always, for a triangle built by this module at
    parameters whose denominators divide ``q``).  An entry whose
    denominator divides ``q^degree`` builds no Fraction."""
    return [
        [num * (scale // den) if scale % den == 0 else _exact_quotient(num * scale, den)
         for num, den, scale in zip(nums, dens, scales)]
        for nums, dens, scales in zip(*tri._pairs(), _denominator_rows(tri.kind, q, tri.N))
    ]


def _lower_product(rows, cols) -> List[List[Any]]:
    """The product of two lower-triangular matrices, the left one given by
    its rows and the right one by its columns from the diagonal down
    (``cols[k][i]`` is entry ``(k + i, k)``): each entry is a dot product."""
    return [[sum(map(mul, row[k:], cols[k])) for k in range(len(row))] for row in rows]


def _columns(rows) -> List[List[Any]]:
    """The columns of a lower-triangular matrix from the diagonal down."""
    return [[row[k] for row in rows[k:]] for k in range(len(rows))]


# ---------------------------------------------------------------------------
# scheme 1: triangular recurrence
# ---------------------------------------------------------------------------


def _recurrence_rows(kind: str, a, b, r, N: int, start=None) -> List[List[Scalar]]:
    """Rows of the triangular recurrence up to row ``N``, from row 0
    (``[1]``) or from ``start`` (row ``len(start) - 1``), which is the first
    row returned.  Generic over the scalars of ``a``, ``b``, ``r`` and
    ``start``."""
    rows: List[List[Scalar]] = [[1] if start is None else start]
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


def _linear_form(name: str, value) -> List[int]:
    """The coefficients of ``alpha``, ``beta`` and ``r`` in the symbolic
    parameter ``name``; ValueError unless it is a ``ParamPoly`` linear form."""
    if not isinstance(value, ParamPoly) or value.total_degrees() - {1}:
        raise ValueError(f"symbolic parameter {name} must be a linear form in alpha, beta "
                         f"and r, got {value}")
    return [value.coefficient(unit) for unit in ((1, 0, 0), (0, 1, 0), (0, 0, 1))]


def _form_rows(kind: str, a, b, r, N: int, times) -> List[list]:
    """Rows 0..N of :func:`_recurrence_rows` at parameters given by their
    coefficients of ``(alpha, beta, r)``: each factor is then a linear form,
    given the same way, and ``times(u, v)`` multiplies the entry ``v`` by
    the form ``u``."""
    rows = [[1]]
    for n in range(N):
        prev = [0, *rows[-1], 0]  # entry k of row n is prev[k + 1]
        row = []
        for k in range(n + 2):
            val = times([y * k + z - x * n for x, y, z in zip(a, b, r)], prev[k + 1])
            if kind == "S":
                val += prev[k]
            elif kind == "Shat":
                val += times([y * k for y in b], prev[k])
            else:  # E
                val += times([(x + y) * n - y * (k - 1) + (y - z) for x, y, z in zip(a, b, r)],
                             prev[k])
            row.append(val)
        rows.append(row)
    return rows


def _packed_rows(kind: str, a, b, r, N: int) -> Tuple[List[List[int]], int]:
    """Rows 0..N of ``kind`` at the linear forms ``a``, ``b``, ``r``, each
    entry packed into one int, and the digit width ``W``.

    An entry of degree ``d`` (:func:`_degree_scales`) is a form of degree
    ``d``; its coefficient of ``alpha^i beta^j r^(d-i-j)`` is the balanced
    base-``2^W`` digit at position ``i (N + 1) + j``, so the int is the form
    at ``alpha = 2^((N+1) W)``, ``beta = 2^W``, ``r = 1`` (a Kronecker
    substitution), and ``j <= d <= N`` keeps the positions apart.  The
    recurrence on absolute coefficient sums bounds every coefficient, which
    fixes ``W``, rounded up to whole bytes, before the first packed row; a
    product by a form is then two shifts and three small multiples."""
    bounds = _form_rows(kind, a, b, r, N, lambda u, v: sum(map(abs, u)) * v)
    W = -(-(max(map(max, bounds)).bit_length() + 1) // 8) * 8
    shift = (N + 1) * W

    def times(u, v):
        return u[0] * (v << shift) + u[1] * (v << W) + u[2] * v

    return _form_rows(kind, a, b, r, N, times), W


def _unpacked(kind: str, packed, W: int, key, make) -> List[list]:
    """Each entry of :func:`_packed_rows` as ``make`` of its nonzero terms,
    each a coefficient and ``key`` of its monomial, in ``ParamPoly.__str__``'s
    order, which is the order of the positions.  The entry plus ``2^(W-1)``
    in every digit has its digits in ``(0, 2^W)``, each in ``W / 8`` bytes:
    one ``to_bytes`` per entry, and a ``Struct`` per degree that cuts out
    the monomials' digits and skips the unused positions."""
    width, stride, half = W // 8, len(packed), 1 << (W - 1)
    zero = half.to_bytes(width, "little")  # a zero coefficient
    layouts = []
    for d in range(stride):
        read = Struct("".join(f"{width}s" * (d - i + 1) + f"{width * (stride - d + i - 1)}x"
                              for i in range(d)) + f"{width}s").unpack
        keys = [key((i, j, d - i - j)) for i in range(d + 1) for j in range(d - i + 1)]
        pad = zero * (d * stride + 1)  # every digit up to alpha^d's
        layouts.append((int.from_bytes(pad, "little"), len(pad), read, keys))
    out = []
    for n, row in enumerate(packed):
        line = []
        for k, value in enumerate(row):
            offset, size, read, keys = layouts[n - k if kind == "S" else n]
            found = read((value + offset).to_bytes(size, "little"))
            line.append(make([(int.from_bytes(digit, "little") - half, mono) for digit, mono
                              in compress(zip(found, keys), map(zero.__ne__, found))]))
        out.append(line)
    return out


def _check_rows(N: int) -> None:
    if N < 0:
        raise ValueError("N must be a natural number")


@lru_cache(maxsize=4096)
def _recurrence_rows_cached(kind: str, a: Fraction, b: Fraction, r: Fraction) -> List[Triangle]:
    """A one-item list holding the tallest numeric recurrence triangle built
    at the point, row 0 at first; :func:`build_recurrence` replaces the
    item whole."""
    return [Triangle._of(kind, a, b, r, [[1]], [[1]])]


def build_recurrence(kind: str, alpha, beta, r, N: int) -> Triangle:
    """Build rows 0..N by the one-step triangular recurrence.

    Parameters may be rationals (ints, ``"p/q"`` strings, Fractions) or,
    for the symbolic mode, three :class:`ParamPoly` linear forms in
    ``(alpha, beta, r)`` (:func:`symbolic_triangle` passes the variables
    themselves); a symbolic call with any other parameter raises
    ``ValueError`` naming it.

    Numeric triangles are cached by parameters alone: rows 0..N of a
    ``(kind, alpha, beta, r)`` triangle do not depend on ``N``, so the cache
    keeps one triangle per parameter point, the tallest asked for, and
    returns that very triangle when asked for it again.  A request for
    fewer rows is served as a prefix of it; a request for more continues
    the integer recurrence from its last row, or from row 0 once the cached
    triangle's ``rows`` were read.  The cache holds up to 4 096 parameter
    points, the least recently used leaving first.

    A numeric triangle is made from integer pairs: the entries at the
    parameters scaled to integers over their common denominator ``q``, each
    over its ``q^degree``.  Comparing it, multiplying it or shifting it
    builds no ``Fraction``; the first read of its ``rows`` (or of its text,
    JSON, CSV or LaTeX) builds them, and a prefix of a read triangle shares
    its ``Fraction`` rows.

    A symbolic triangle runs the recurrence with each entry packed into one
    int, its coefficients as digits (:func:`_packed_rows`).  Its text, JSON,
    CSV and LaTeX are written from the digits; the ``ParamPoly`` rows are
    built on the first read of ``rows``, as a numeric triangle builds its
    ``Fraction`` rows.  Symbolic triangles are not cached.
    """
    if kind not in KINDS:
        raise ValueError(f"unknown triangle kind {kind!r}")
    _check_rows(N)
    if any(isinstance(p, ParamPoly) for p in (alpha, beta, r)):
        forms = map(_linear_form, ("alpha", "beta", "r"), (alpha, beta, r))
        return Triangle._of(kind, alpha, beta, r, *_packed_rows(kind, *forms, N))
    a, b, rr = as_rational(alpha), as_rational(beta), as_rational(r)
    held = _recurrence_rows_cached(kind, a, b, rr)
    tall = held[0]
    ints = tall._ints  # read once: a rows read in another thread swaps it for rows
    built = len(tall.rows if ints is None else ints[0]) - 1
    if N == built:
        return tall
    if N < built:
        if ints is None:
            return Triangle(kind, a, b, rr, tall.rows[: N + 1])
        return Triangle._of(kind, a, b, rr, ints[0][: N + 1], ints[1][: N + 1])
    nums = ints[0] if ints else [[1]]  # after a rows read, from row 0
    q, scaled = scale_params(a, b, rr)
    nums = nums + _recurrence_rows(kind, *scaled, N, start=nums[-1])[1:]
    held[0] = tall = Triangle._scaled(kind, (a, b, rr), q, nums)
    return tall


@lru_cache(maxsize=1 << 10)
def _integer_row_memo(kind: str, A: int, B: int, R: int) -> List[Tuple[Tuple[int, ...], ...]]:
    """A one-item list holding the integer rows of the recurrence triangle
    ``kind`` at the integers ``(A, B, R)`` built so far; :func:`_integer_rows`
    replaces the item whole."""
    return [()]


def _integer_rows(kind: str, A: int, B: int, R: int, N: int) -> Tuple[Tuple[int, ...], ...]:
    """Rows 0..N of the integer recurrence ``kind`` at ``(A, B, R)``, memoized
    by those four (the 1 024 most recent): a taller request extends the
    rows from their last one, and a shorter one is served as their prefix.
    Kept apart from the :func:`build_recurrence` cache, so no integer
    consumer evicts a triangle a caller built."""
    memo = _integer_row_memo(kind, A, B, R)
    rows = memo[0]
    if N >= len(rows):
        new = _recurrence_rows(kind, A, B, R, N, start=rows[-1] if rows else None)
        rows = memo[0] = rows[:-1] + tuple(map(tuple, new))
    return rows[: N + 1]


def symbolic_triangle(kind: str, N: int) -> Triangle:
    """Triangle with fully symbolic parameters; entries are ParamPoly."""
    return build_recurrence(kind, ParamPoly.alpha(), ParamPoly.beta(), ParamPoly.r(), N)


# ---------------------------------------------------------------------------
# scheme 2: explicit alternating sums over the falling-power table
# ---------------------------------------------------------------------------


def _falling_power_table(alpha, beta, r, X: int, N: int):
    """table[n][x] = (beta x + r)^{falling n, alpha} for 0<=n<=N, 0<=x<=X."""
    bases = [beta * x + r for x in range(X + 1)]
    table = [[1] * (X + 1)]
    for n in range(N):
        step = n * alpha
        table.append(list(map(mul, table[-1], [base - step for base in bases])))
    return table


@lru_cache(maxsize=256)
def _signed_pascal(m: int) -> Tuple[int, ...]:
    """``(-1)^j C(m, j)`` for ``0 <= j <= m``."""
    return tuple(-comb(m, j) if j % 2 else comb(m, j) for j in range(m + 1))


def _alternating_sum(kind: str, n: int, k: int, table) -> int:
    """Entry (n, k) of ``Shat`` or ``E`` from the falling-power table:
    ``sum_j (-1)^j C(m, j) table[n][k-j]`` with ``m = k`` for ``Shat`` and
    ``m = n+1`` for ``E``, as one dot product.  For ``E`` the weights stop
    at ``j = min(k, n+1)``, so ``k`` may run past ``n``."""
    return sum(map(mul, _signed_pascal(k if kind == "Shat" else n + 1), table[n][k::-1]))


def entry_by_sum(kind: str, n: int, k: int, alpha, beta, r) -> Fraction:
    """Single entry from the explicit alternating sum.

    ``kind`` must be ``"Shat"`` or ``"E"`` (the unmodified ``S`` entries
    follow from ``Shat`` by dividing out ``beta^k k!`` when ``beta != 0``).
    """
    if kind not in ("Shat", "E"):
        raise ValueError("entry_by_sum supports kinds 'Shat' and 'E'")
    if k < 0 or k > n:
        raise ValueError(f"index (n, k) = ({n}, {k}) outside 0 <= k <= n")
    q, (A, B, R) = scale_params(alpha, beta, r)
    table = _falling_power_table(A, B, R, k, n)
    return Fraction(_alternating_sum(kind, n, k, table), q**n)


def triangle_by_sum(kind: str, alpha, beta, r, N: int) -> Triangle:
    """All rows 0..N from the explicit sums at the scaled parameters, every
    entry one dot product over one shared falling-power table."""
    if kind not in ("Shat", "E"):
        raise ValueError("triangle_by_sum supports kinds 'Shat' and 'E'")
    _check_rows(N)
    q, (A, B, R) = scale_params(alpha, beta, r)
    table = _falling_power_table(A, B, R, N, N)
    rows = [[_alternating_sum(kind, n, k, table) for k in range(n + 1)] for n in range(N + 1)]
    return Triangle._scaled(kind, (alpha, beta, r), q, rows)


def shat_from_s_row(row: Sequence[Scalar], beta) -> List[Scalar]:
    """Rescale an S row to the modified row: entry k times ``beta^k k!``,
    the weight carried along the row as ``w_k = w_{k-1} beta k``.

    For a ``Fraction`` ``beta = p / q`` the entries must be rationals: the
    weight is carried as the two ints ``p^k k!`` and ``q^k``, and each entry
    is one ``Fraction`` of integer products.  Any other ``beta`` (an int or
    a ``ParamPoly``) multiplies through the scalars."""
    if type(beta) is Fraction:
        p, q = beta.numerator, beta.denominator
        out = []
        num = den = 1  # p^k k!, q^k
        for k, v in enumerate(row):
            if k:
                num *= p * k
                den *= q
            out.append(Fraction(v.numerator * num, v.denominator * den))
        return out
    weights = accumulate(range(1, len(row)), lambda w, k: w * beta * k, initial=1)
    return list(map(mul, row, weights))


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
    weights = _transform_weights(len(row) - 1, -1 if direction == "ShatToE" else 1)
    return [sum(map(mul, w, row)) for w in weights]


@lru_cache(maxsize=256)
def _transform_weights(n: int, sign: int) -> Tuple[Tuple[int, ...], ...]:
    """Row ``k`` holds ``sign^(k-j) C(n-j, n-k)`` for ``0 <= j <= k``."""
    return tuple(
        tuple(sign ** (k - j) * comb(n - j, n - k) for j in range(k + 1)) for k in range(n + 1)
    )


def triangle_by_transform(kind: str, alpha, beta, r, N: int) -> Triangle:
    """Build ``Shat`` (or ``E``) rows by transforming the dual kind's rows,
    where the dual rows come from the integer triangular recurrence at the
    scaled parameters (O(N^2) work, no cache): the two kinds are binomial
    transforms of each other, as the paper states them."""
    if kind not in ("Shat", "E"):
        raise ValueError("triangle_by_transform supports kinds 'Shat' and 'E'")
    _check_rows(N)
    dual_kind = "E" if kind == "Shat" else "Shat"
    direction = "EToShat" if kind == "Shat" else "ShatToE"
    q, ints = scale_params(alpha, beta, r)
    rows = [binomial_transform(row, direction) for row in _recurrence_rows(dual_kind, *ints, N)]
    return Triangle._scaled(kind, (alpha, beta, r), q, rows)


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
    rows = _lower_product(_scaled_rows(left, q), _columns(_scaled_rows(right, q)))
    return Triangle._scaled("S", (left.alpha, right.beta, left.r + right.r), q, rows)


def identity_triangle(alpha, N: int) -> Triangle:
    """The S-kind identity section, parameters ``(alpha, alpha; 0)``."""
    _check_rows(N)
    q, _ = scale_params(alpha)
    rows = [[int(k == n) for k in range(n + 1)] for n in range(N + 1)]
    return Triangle._scaled("S", (alpha, alpha, 0), q, rows)


def vandermonde_ldu_check(alpha, beta, r, N: int) -> bool:
    """Check the factorization of the generalized Vandermonde square section
    ``V[n][x] = (beta x + r)^{falling n, alpha}`` as L * D * U with
    L the S triangle, D = diag(beta^k k!) and U the transposed Pascal matrix.
    """
    _check_rows(N)
    # at the parameters scaled by q both sides are q^n times their value
    _, (A, B, R) = scale_params(alpha, beta, r)
    rows = _recurrence_rows("S", A, B, R, N)
    table = _falling_power_table(A, B, R, N, N)
    diag = [B**k * factorial(k) for k in range(N + 1)]
    # column x of D * U: diag[k] C(x, k), zero past k = x
    du = [[d * comb(x, k) for k, d in enumerate(diag)] for x in range(N + 1)]
    return all(
        table[n][x] == sum(map(mul, rows[n], du[x])) for n in range(N + 1) for x in range(N + 1)
    )


def reflection_check(alpha, beta, r, N: int) -> bool:
    """Check the row-reversal symmetry of the Eulerian kind:
    E[n][n-k](alpha, beta; r) == E[n][k](-alpha, beta; beta - r)."""
    _check_rows(N)
    # the reflected point has the same common denominator q, and every E
    # entry of row n is q^n times its value at both points
    _, (A, B, R) = scale_params(alpha, beta, r)
    rows = _recurrence_rows("E", A, B, R, N)
    reflected = _recurrence_rows("E", -A, B, B - R, N)
    return all(row[::-1] == other for row, other in zip(rows, reflected))


# ---------------------------------------------------------------------------
# scheme 4: decomposition through the classical triangles
# ---------------------------------------------------------------------------


def _classical_rows(N: int, cycles: bool):
    """Rows 0..N of the classical subset (``cycles=False``) or unsigned cycle
    (``cycles=True``) Stirling triangle: the S recurrence at ``(0, 1; 0)`` or
    ``(-1, 0; 0)``, read from the integer-row memo."""
    return _integer_rows("S", *((-1, 0, 0) if cycles else (0, 1, 0)), N)


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


def decompose_classical(n: int, k: int, alpha, beta, r) -> Fraction:
    """Single S entry through the classical cycle/subset triangles:

    ``sum_{j=k}^{n} sum_{p=k}^{j} (-alpha)^{n-j} c(n,j) r^{j-p} C(j,p)
    beta^{p-k} S(p,k)``

    with ``c``/``S`` the classical cycle/subset numbers.  Zero-to-the-zero
    powers count as 1, so every parameter (including 0) is legal.  This is
    entry ``(n, k)`` of the three factors that
    :func:`triangle_by_decomposition` multiplies: row ``n`` of the first
    dotted with the second times column ``k`` of the third, in O(n^2) steps.
    """
    if k < 0 or k > n:
        raise ValueError(f"index (n, k) = ({n}, {k}) outside 0 <= k <= n")
    q, (A, B, R) = scale_params(alpha, beta, r)
    apow, bpow, rpow = ([x**i for i in range(n + 1 - k)] for x in (-A, B, R))
    sub = _classical_rows(n, False)
    column = [bpow[i] * sub[k + i][k] for i in range(n + 1 - k)]  # p = k..n
    # rows j = k..n of C(j, p) r^(j-p), p = k..j, times that column
    mid = [sum(map(mul, [comb(j, p) * rpow[j - p] for p in range(k, j + 1)], column))
           for j in range(k, n + 1)]
    cyc = _classical_rows(n, True)[n]
    return Fraction(sum(cyc[j] * apow[n - j] * m for j, m in enumerate(mid, k)), q ** (n - k))


def triangle_by_decomposition(alpha, beta, r, N: int) -> Triangle:
    """All S rows 0..N via the classical decomposition, computed as the
    product of its three factor matrices in O(N^3) steps."""
    _check_rows(N)
    q, (A, B, R) = scale_params(alpha, beta, r)
    apow, bpow, rpow = ([x**i for i in range(N + 1)] for x in (-A, B, R))
    cyc, sub = _classical_rows(N, True), _classical_rows(N, False)
    # the double sum is the product of (-alpha)^(n-j) c(n,j), C(j,p) r^(j-p)
    # and beta^(p-k) S(p,k), the last two given by columns
    left = [[apow[n - j] * c for j, c in enumerate(cyc[n])] for n in range(N + 1)]
    pascal = [[comb(p + i, p) * rpow[i] for i in range(N + 1 - p)] for p in range(N + 1)]
    subset = [[bpow[i] * sub[k + i][k] for i in range(N + 1 - k)] for k in range(N + 1)]
    rows = _lower_product(_lower_product(left, pascal), subset)
    return Triangle._scaled("S", (alpha, beta, r), q, rows)


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
    and p natural, i.e. an integer r >= 1 (checked by _check_e_vi)."""
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


def _check_e_vi(rr: Fraction) -> None:
    if rr.denominator != 1 or rr < 1:
        raise ValueError("the (zeta, p) Eulerian family needs an integer r >= 1")


def closed_form_params(family: str, r=0, beta=1):
    """The (kind, alpha, beta, r) tuple a family's closed form evaluates."""
    rr = as_rational(r)
    b = as_rational(beta)
    if family not in _CLOSED_FORMS:
        raise ValueError(f"unknown closed-form family {family!r}")
    if family == "E_vi":
        _check_e_vi(rr)
    free = {"r": rr, "b": b, "-b": -b}
    kind, *params = _CLOSED_FORMS[family][0]
    return (kind, *(free[p] if isinstance(p, str) else p for p in params))


def closed_form(family: str, n: int, k: int, r=0, beta=1) -> Fraction:
    """Evaluate one of the sixteen closed-form families exactly.

    ``r`` is honored by the primed/Eulerian families and ignored by the
    fixed-parameter ones; ``beta`` is honored only by the four families with
    a free stride (S_8F_iprime, S_8F_iiprime, E_i, E_ii).  The (zeta, p)
    Eulerian family ``E_vi`` requires an integer ``r >= 1``, at every
    ``(n, k)``.

    Every family computes one integer numerator at ``(R, B) = q (r, beta)``
    in O(n) steps and divides it once, by ``q^d`` (``d = n - k``),
    ``(2q)^d``, ``(-2q)^d``, ``q^n``, ``2^d`` or 1: this function is that
    unreduced pair (:func:`_closed_form_ints`) made one ``Fraction``.
    ``E_vi`` checks its ``r`` once per call, before the triangle bounds.  A
    sweep over ``(n, k)`` that passes the same ``r`` and ``beta`` objects
    each time scales them once: :func:`kernels.scale_params` keeps its last
    result.
    """
    return Fraction(*_closed_form_ints(family, n, k, r, beta))


def _closed_form_ints(family: str, n: int, k: int, r, beta) -> Tuple[int, int]:
    """The value of :func:`closed_form` as one integer numerator over one
    nonzero integer denominator, unreduced; ``(0, 1)`` outside the
    triangle."""
    spec = _CLOSED_FORMS.get(family)
    if spec is None:
        raise ValueError(f"unknown closed-form family {family!r}")
    if family == "E_vi":
        _check_e_vi(as_rational(r))  # before the triangle bounds
    if k < 0 or k > n:
        return 0, 1
    q, (R, B) = scale_params(r, beta)
    _, numerator, denominator = spec
    d = n - k
    return numerator(n, k, d, q, R, B), denominator(n, d, q)


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
    q, (A, B, R) = scale_params(alpha, beta, r)
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

    A Shat triangle is shifted as the S triangle it scales: column ``k``
    divided by ``beta^k k!`` (an entry that does not divide stays a
    ``Fraction``), shifted as S along beta, and multiplied back.  Along
    alpha the series mixes whole columns, so both kinds shift alike.
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
    N = base.N
    fall = [strided_falling(RHO, m, stride) for m in range(N + 1)]
    base_rows = _scaled_rows(base, q)
    if scheme == "NewtonAlpha":  # entry (n, k) is sum_j C(n, j) fall[n-j] base[j][k]
        weights = [[comb(n, j) * fall[n - j] for j in range(n + 1)] for n in range(N + 1)]
        return Triangle._scaled(base.kind, (a, b, rho), q,
                                _lower_product(weights, _columns(base_rows)))
    if base.kind == "Shat":  # scaled by q, Shat[n][k] is B^k k! S[n][k]
        scales = list(accumulate(range(1, N + 1), lambda w, k: w * B * k, initial=1))
        base_rows = [list(map(_exact_quotient, row, scales)) for row in base_rows]
    # entry (n, k) of S is sum_m base[n][k+m] C(k+m, m) fall[m]
    rows = _lower_product(
        base_rows, [[comb(k + m, m) * fall[m] for m in range(N + 1 - k)] for k in range(N + 1)]
    )
    if base.kind == "Shat":
        rows = [list(map(mul, row, scales)) for row in rows]
    return Triangle._scaled(base.kind, (a, b, rho), q, rows)


# ---------------------------------------------------------------------------
# the integer-r summation conjecture checker (reports, never asserts)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConjectureCell:
    n: int
    k: int
    r: int
    recurrence: int
    sum_stated: int
    sum_truncated: int
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
    to ``j >= 0`` are evaluated and reported, in ints.  This function never
    raises on a mismatch; it reports.

    The stated range is a proof for every integer ``r`` once ``r`` runs over
    ``0..2N+1`` (``n <= N``).  Write ``r = 2p + zeta`` with ``zeta`` in
    ``{0, 1}``.  Then ``hi - lo`` does not depend on ``p``, and with ``j``
    counted from ``lo`` the second binomial's lower index ``2j + r - 1`` is
    ``p``-free while the first binomial's upper index is linear in ``p``.
    :func:`weylstir.kernels.binomial` is the generalized ``falling / k!``,
    a polynomial in its upper index, so for each parity the stated sum is
    a polynomial in ``p`` of degree ``n - k``, and ``Shat(-1, 2; r)[n][k]``
    is one of degree ``n``.  Their difference vanishes at ``p = 0..N`` for
    both parities exactly when it is zero.  The truncated (``j >= 0``) sum
    is not polynomial in ``p`` and stays sampled.
    """
    _check_rows(n_max)
    report = ConjectureReport(n_max=n_max, r_min=r_min, r_max=r_max)
    for r in range(r_min, r_max + 1):
        rows = _integer_rows("Shat", -1, 2, r, n_max)
        lo = (2 - r) // 2  # floor division, may be negative
        for n in range(n_max + 1):
            nfact = factorial(n)
            hi = (n + 2 - r) // 2
            for k in range(n + 1):
                total_stated = total_trunc = 0
                for j in range(lo, hi + 1):
                    term = binomial(n - j, n - k) * nfact * binomial(n + 1, 2 * j + r - 1)
                    total_stated += term
                    if j >= 0:
                        total_trunc += term
                rec = rows[n][k]
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
