"""Exact scalar kernels: strided factorial powers, generalized binomials,
a desingularized terminating Gauss sum, and the common-denominator scaling
of rational parameters.

Everything here is pure and exact.  "Scalar" means an ``int``, a
:class:`fractions.Fraction` or any commutative-ring element supporting ``+``,
``-`` and ``*`` with itself and with ``int`` (in particular
:class:`weylstir.poly.ParamPoly`).  No floats, ever.

The numeric schemes call these kernels on integers: :func:`scale_params`
turns rational parameters into integers over one common denominator ``q``,
and a quantity homogeneous of degree ``d`` in the parameters is then an
integer over ``q^d``.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial, lcm
from operator import is_
from typing import Tuple, Union

__all__ = [
    "as_rational",
    "scale_params",
    "binomial",
    "binomial_general",
    "factorial",
    "strided_falling",
    "strided_rising",
    "falling",
    "rising",
    "hyp2f1_hat",
]

def as_rational(value: Union[int, str, Fraction]) -> Fraction:
    """Coerce ``value`` to an exact rational.

    Accepts ints, Fractions, and strings of the form ``"p"`` or ``"p/q"``
    (no decimals)::

        as_rational("3/4")  -> Fraction(3, 4)
        as_rational(-2)     -> Fraction(-2, 1)
    """
    if type(value) is Fraction:
        return value
    if isinstance(value, float):
        raise TypeError("floats are not accepted; use 'p/q' strings or Fraction")
    if isinstance(value, str) and ("." in value or "e" in value.lower()):
        raise ValueError(f"not an exact rational literal: {value!r}")
    return Fraction(value)


# (params, (q, scaled)) of the last scale_params call, one tuple replaced
# whole; the unique first item matches no call, the empty one included
_LAST_SCALED = ((object(),), None)


def scale_params(*params) -> Tuple[int, Tuple[int, ...]]:
    """The common denominator ``q`` of rational ``params`` and the integers
    ``q * p``::

        scale_params("1/2", 3, "-2/3")  -> (6, (3, 18, -4))

    A polynomial with integer coefficients that is homogeneous of degree
    ``d`` in the parameters takes the value ``P(q * params) / q^d``; the
    numeric schemes evaluate ``P`` on these integers and divide once.  Ints
    and Fractions are used as they are, any other value as
    :func:`as_rational` reads it.

    The result of the last call is kept and returned again when the call
    passes the very same objects (compared by ``is``, never by ``==``, so a
    float equal to the last ``Fraction`` still raises), as a builder does
    at every power of one cell and ``closed_form`` at every entry of one
    family.
    """
    global _LAST_SCALED
    last, kept = _LAST_SCALED
    # closed_form passes the pair (r, beta) at every entry; two ``is`` tests
    # cost a fifth of what the map(is_, ...) iterator costs
    if len(params) == len(last) and (
        params[0] is last[0] and params[1] is last[1] if len(params) == 2
        else all(map(is_, params, last))
    ):
        return kept
    rationals = [p if type(p) in (int, Fraction) else as_rational(p) for p in params]
    q = lcm(*(p.denominator for p in rationals))
    kept = q, tuple(p.numerator * (q // p.denominator) for p in rationals)
    _LAST_SCALED = (params, kept)
    return kept


def binomial(n: int, k: int) -> int:
    """Generalized binomial coefficient ``C(n, k)`` for integer arguments,
    defined as ``falling(n, k) / k!``.

    Works for negative ``n`` (e.g. ``binomial(-2, 3) == -4``); for natural
    ``n`` it is zero when ``k > n``, and it is zero for ``k < 0``.
    """
    if k < 0:
        return 0
    if n >= 0:
        return comb(n, k)
    # C(n, k) = (-1)^k C(k - n - 1, k) for n < 0
    return (-1) ** k * comb(k - n - 1, k)


def binomial_general(c, m: int):
    """``C(c, m) = falling(c, m) / m!`` for scalar ``c`` and natural ``m``.

    Used by generalized binomial series expansions where the upper index is a
    non-integer rational.
    """
    if m < 0:
        raise ValueError(f"binomial lower index must be a natural number, got {m}")
    num = falling(c, m)
    if isinstance(num, int):
        return _exact_quotient(num, factorial(m))
    return num / factorial(m)


def _exact_quotient(num: int, den: int):
    """``num / den`` for integers: an int when ``den`` divides ``num``,
    else a Fraction."""
    quo, rem = divmod(num, den)
    return Fraction(num, den) if rem else quo


def strided_falling(r, m: int, alpha):
    """Falling factorial power with stride ``alpha``:

    ``r (r - alpha) (r - 2 alpha) ... (r - (m-1) alpha)``, with the empty
    product (``m == 0``) equal to ``1``.  The rising power with stride
    ``alpha`` is this power at stride ``-alpha`` (:func:`strided_rising`).
    """
    if m < 0:
        raise ValueError(f"power must be a natural number, got {m}")
    out = 1
    for j in range(m):
        out = out * (r - j * alpha)
    return out


def strided_rising(r, m: int, alpha):
    """Rising factorial power with stride ``alpha``:

    ``r (r + alpha) (r + 2 alpha) ... (r + (m-1) alpha)``, empty product 1:
    the falling power at stride ``-alpha``,
    ``strided_rising(r, m, a) == strided_falling(r, m, -a)``.
    """
    return strided_falling(r, m, -alpha)


def falling(r, m: int):
    """Ordinary falling factorial ``r (r-1) ... (r-m+1)`` (stride 1)."""
    return strided_falling(r, m, 1)


def rising(r, m: int):
    """Ordinary rising factorial ``r (r+1) ... (r+m-1)``, the falling one at stride -1."""
    return strided_falling(r, m, -1)


def hyp2f1_hat(N: int, b, c, z, stride=1):
    """Desingularized terminating Gauss sum.

    For natural ``N`` and scalars ``b``, ``c``, ``z``::

        sum_{k=0}^{N} (-1)^k C(N, k) rising(b, k) rising(c + k, N - k) z^k

    This equals ``rising(c, N) * 2F1(-N, b; c; z)`` whenever the Gauss series
    is defined, but remains a polynomial in ``b`` and ``c`` for *all* ``c``,
    including the nonpositive integers where 2F1 itself is singular.  The
    ``k``-th numerator ``rising(-N, k) / k!`` has been folded into the signed
    binomial, so no division occurs and the result stays in the scalar ring.

    With a ``stride`` ``q``, ``b`` is taken as scaled by ``q``: the result is
    ``q^N`` times the sum at ``b / q``, computed without division through
    ``q^k rising(b / q, k) == strided_rising(b, k, q)``.

    One O(N) forward pass in Horner form.  With the heads
    ``h_k = strided_rising(b, k, q) z^k`` (``h_k = h_{k-1} (b + (k-1) q) z``)
    and ``C(N, k)`` carried as an ``int``, each tail
    ``q^(N-k) rising(c + k, N - k)`` is the product of the factors
    ``q (c + j)`` for ``j = k..N-1``, so the sum folds from ``total = 1`` as
    ``total = total q (c + k - 1) + (-1)^k C(N, k) h_k`` for ``k = 1..N``.
    No list is built, and only ``+``, ``-`` and ``*`` touch ``b``, ``c``
    and ``z``.
    """
    if N < 0:
        raise ValueError(f"series order must be a natural number, got {N}")
    total = 1
    head = 1
    weight = 1  # (-1)^k C(N, k)
    for k in range(1, N + 1):
        head = head * (b + (k - 1) * stride) * z
        weight = -weight * (N - k + 1) // k
        total = total * (stride * (c + k - 1)) + weight * head
    return total
