"""Exponential generating functions for the two triangle kinds.

The bivariate EGFs are expanded as exact truncated power series in ``t``
(marking the column) and ``z`` (marking the row, exponentially scaled):
the coefficient of ``t^k z^n / n!`` reproduces the triangle entry.

Every series in ``z`` is stored EGF-normalised and fraction-free: with the
parameters scaled to integers ``(A, B, R) = q (alpha, beta, r)`` over their
common denominator ``q``, entry ``m`` holds the integer ``m! q^m [z^m]``.
The binomial power ``(1 + alpha z)^{c/alpha}`` is then
``strided_falling(q c, m, A)`` at ``z^m``, which is also its ``alpha -> 0``
limit ``exp(c z)``; a product of two series is their binomial convolution.
Each entry is divided by ``q^n`` once, at the end.

With ``F = (1 + alpha z)^{r/alpha}`` and ``G = (1 + alpha z)^{beta/alpha}``,
the ``Shat`` EGF is ``F / (1 - t (G - 1))``, whose ``t^k`` coefficient is
``F (G - 1)^k``.  The ``E`` EGF is ``(1 - t) F(u) / (1 - t G(u))`` with
``u = z (1 - t)``.  Expanded as ``(1 - t) sum_j t^j F(u) G(u)^j``, and with
``u^n = z^n (1 - t)^n``, its entry ``(n, k)`` is

    ``sum_{j=0}^{k} (-1)^{k-j} C(n+1, k-j) [u^n / n!] F G^j``,

so the columns ``F G^j`` (``j <= deg_t``, one series product each) and one
signed-binomial dot product per entry give all entries in
``O(deg_t deg_z^2 + deg_t^2 deg_z)`` steps.  Entries with ``k > n`` are
computed the same way; they vanish because the sum is the ``(n + 1)``-st
difference of a polynomial of degree ``n`` in ``j``.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb
from operator import mul
from typing import List, Tuple

from .kernels import scale_params, strided_falling

__all__ = ["egf_coefficients"]


def _binomial_power(c: int, a: int, deg: int) -> List[int]:
    """``(1 + a z)^{c/a}`` (``exp(c z)`` at ``a = 0``), EGF-normalised."""
    return [strided_falling(c, m, a) for m in range(deg + 1)]


@lru_cache(maxsize=256)
def _pascal(deg: int) -> Tuple[Tuple[int, ...], ...]:
    """Rows ``0..deg`` of Pascal's triangle, row ``m`` holding ``C(m, j)``."""
    return tuple(tuple(comb(m, j) for j in range(m + 1)) for m in range(deg + 1))


def _egf_mul(f: List[int], g: List[int]) -> List[int]:
    """Product of two EGF-normalised series of one length: entry ``m`` is
    ``sum_j C(m, j) f[j] g[m - j]``, one dot product per entry."""
    return [
        sum(map(mul, row, map(mul, f, g[m::-1])))
        for m, row in enumerate(_pascal(len(f) - 1))
    ]


def egf_coefficients(kind: str, alpha, beta, r, deg_t: int, deg_z: int):
    """Triangle entries recovered from the EGF expansion.

    Returns a rectangular array ``C`` with ``C[n][k]`` equal to
    ``n! * [t^k z^n]`` of the generating function, for ``0 <= n <= deg_z``
    and ``0 <= k <= deg_t``.  ``kind`` is ``"Shat"`` or ``"E"``; ``beta``
    must be nonzero (the generating functions degenerate otherwise).
    """
    if kind not in ("Shat", "E"):
        raise ValueError("egf_coefficients supports kinds 'Shat' and 'E'")
    if deg_t < 0 or deg_z < 0:
        raise ValueError("egf_coefficients needs natural degrees deg_t and deg_z")
    q, (A, B, R) = scale_params(alpha, beta, r)
    if B == 0:
        raise ValueError("egf_coefficients requires beta != 0")
    F = _binomial_power(R, A, deg_z)
    G = _binomial_power(B, A, deg_z)

    if kind == "Shat":
        # [t^k] of F / (1 - t (G - 1)) is F (G - 1)^k
        G[0] -= 1
    cols = [F]  # F G^j, or F (G - 1)^j for Shat
    for _ in range(deg_t):
        cols.append(_egf_mul(cols[-1], G))
    rows = [[col[n] for col in cols] for n in range(deg_z + 1)]
    if kind == "E":
        # entry (n, k) is sum_j (-1)^(k-j) C(n+1, k-j) [u^n / n!] F G^j
        for n, at_n in enumerate(rows):
            signed = [(-1) ** i * comb(n + 1, i) for i in range(deg_t + 1)]
            rows[n] = [sum(map(mul, signed[k::-1], at_n)) for k in range(deg_t + 1)]
    out = []
    den = 1  # q^n, one power per row
    for row in rows:
        out.append([Fraction(v, den) for v in row])
        den *= q
    return out
