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
"""

from __future__ import annotations

from fractions import Fraction
from math import comb
from typing import List

from .kernels import scale_params, strided_falling

__all__ = ["egf_coefficients"]


def _binomial_power(c: int, a: int, deg: int) -> List[int]:
    """``(1 + a z)^{c/a}`` (``exp(c z)`` at ``a = 0``), EGF-normalised."""
    return [strided_falling(c, m, a) for m in range(deg + 1)]


def _egf_mul(f: List[int], g: List[int]) -> List[int]:
    """Product of two EGF-normalised series of one length."""
    return [
        sum(comb(m, j) * f[j] * g[m - j] for j in range(m + 1))
        for m in range(len(f))
    ]


def _in_one_minus_t(f: List[int], i: int) -> List[int]:
    """The ``t^i`` coefficient of ``f(z (1 - t))``, a series in ``z``."""
    return [(-1) ** i * comb(m, i) * c for m, c in enumerate(f)]


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
        cols = [F]
        for _ in range(deg_t):
            cols.append(_egf_mul(cols[-1], G))
    else:
        # T = (1 - t) F(z (1 - t)) / (1 - t G(z (1 - t))) solves
        # T = (1 - t) F(z (1 - t)) + t G(z (1 - t)) T, one t-degree at a time
        Fs = [_in_one_minus_t(F, i) for i in range(deg_t + 1)]
        Gs = [_in_one_minus_t(G, i) for i in range(deg_t)]
        cols = []
        for i in range(deg_t + 1):
            col = Fs[i] if i == 0 else [x - y for x, y in zip(Fs[i], Fs[i - 1])]
            for j in range(i):
                col = [x + y for x, y in zip(col, _egf_mul(Gs[i - 1 - j], cols[j]))]
            cols.append(col)
    return [
        [Fraction(cols[k][n], q**n) for k in range(deg_t + 1)]
        for n in range(deg_z + 1)
    ]
