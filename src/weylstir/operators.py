"""Formal words in x and D and their exact action on monomials.

A :class:`Word` is the single-annihilator pattern ``x^L D x^R`` with rational
exponents; its *excess* ``L + R - 1`` is the net amount it raises a monomial
degree.  An :class:`OperatorExpr` is a finite sum of terms, each a rational
coefficient times an ordered product of factors; a factor is either a pure
power ``x^p`` or a word power ``(x^L D x^R)^m``.  Factors are written in
operator order: the leftmost factor acts last.

Exponents are stored as integers over one denominator.  An expression keeps
a positive ``q`` and, per term, its coefficient and its factors in units of
``1/q``: an ``int`` ``p`` is the pure power ``x^(p/q)``, a tuple
``(L, R, m)`` the word power ``(x^(L/q) D x^(R/q))^m``.  The catalog builders
scale each parameter cell once and construct expressions in this form
directly (:meth:`OperatorExpr.over`); the constructor takes the rational
factors :class:`XPower` and :class:`WordPower` and scales them, and
:attr:`OperatorExpr.terms` reads them back.

Every expression acts on a formal monomial ``x^s`` exactly:

    (x^L D x^R)^m : x^s  |->  prod_{j=0}^{m-1} (s + R + j e) * x^{s + m e}

with ``e`` the excess.  In ``u = q s`` a word power contributes the integer
linear factors ``u + c``, and a term's exponent shift is its excess, an
integer in units of ``1/q``.  When all terms share one excess, as in every
catalog identity, the action is a :class:`Certificate`: that one shift and
one polynomial in ``u`` with integer coefficients over one common
denominator, computed in one walk over the terms
(:meth:`OperatorExpr.certificate`, which raises :class:`MixedExcessError` at
the first term of another excess).  Two expressions are equal as operators on
monomials exactly when their certificates are equal, which certifies an
identity at every ``s``, at any degree; certificates compare in integers:
over one ``q`` as coefficient lists (each scaled by the other's denominator
when the denominators differ), over two ``q`` coefficient by coefficient.
The walk keeps each term's polynomial as one int, its value at ``u = 2^W``
(Kronecker substitution: one shift and one small product per linear
factor), sums the terms there and reads the coefficients back as balanced
base-``2^W`` digits, with ``W`` wide enough for a bound on every
coefficient; nothing is cached, as a walk costs about what a lookup did.
:meth:`Certificate.action` reads a certificate in ``Fraction`` values of ``s``;
:meth:`OperatorExpr.act_on_monomial` is the pointwise reference.

An expression whose exponents are all natural numbers lives in the
creation/annihilation dialect and spells as boson strings
(:meth:`OperatorExpr.boson_strings`); the letters of a term are counted
from its integer exponents as it is spelled, so a caller that bounds the
length gets None before any longer string is spelled.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from .kernels import as_rational

__all__ = [
    "Word",
    "XPower",
    "WordPower",
    "Factor",
    "OperatorExpr",
    "Certificate",
    "MixedExcessError",
]


class MixedExcessError(ValueError):
    """Raised when an expression mixes terms of different excess."""


@dataclass(frozen=True)
class Word:
    """The pattern ``x^L D x^R``."""

    L: Fraction
    R: Fraction

    def __post_init__(self):
        object.__setattr__(self, "L", as_rational(self.L))
        object.__setattr__(self, "R", as_rational(self.R))

    @property
    def excess(self) -> Fraction:
        return self.L + self.R - 1


@dataclass(frozen=True)
class XPower:
    """Pure power factor ``x^exp``."""

    exp: Fraction

    def __post_init__(self):
        object.__setattr__(self, "exp", as_rational(self.exp))


@dataclass(frozen=True)
class WordPower:
    """Word power factor ``(x^L D x^R)^power``."""

    word: Word
    power: int

    def __post_init__(self):
        if not isinstance(self.power, int) or self.power < 0:
            raise ValueError(f"word power must be a natural number, got {self.power}")


Factor = Union[XPower, WordPower]
Term = Tuple[Fraction, Tuple[Factor, ...]]
Action = Dict[Fraction, Tuple[Fraction, ...]]
# a factor in units of 1/q: x^(p/q) as p, (x^(L/q) D x^(R/q))^m as (L, R, m)
Scaled = Union[int, Tuple[int, int, int]]


def _scale(factor: Factor, q: int) -> Scaled:
    if isinstance(factor, XPower):
        return factor.exp.numerator * (q // factor.exp.denominator)
    L, R = factor.word.L, factor.word.R
    return (L.numerator * (q // L.denominator), R.numerator * (q // R.denominator), factor.power)


def _unscale(factor: Scaled, q: int) -> Factor:
    if factor.__class__ is int:
        return XPower(Fraction(factor, q))
    L, R, m = factor
    return WordPower(Word(Fraction(L, q), Fraction(R, q)), m)


class Certificate:
    """The symbolic action of an expression of one excess, in integers.

    With ``u = q s``, the expression sends ``x^s`` to ``P(u) / denom`` times
    ``x^(s + shift / q)``, where ``poly`` lists the integer coefficients of
    ``P`` (constant first, no trailing zero; empty when the action is zero).
    ``shift`` is the common excess in units of ``1/q``, None for the zero
    expression.
    """

    __slots__ = ("q", "shift", "denom", "poly")

    def __init__(self, q: int, shift: Optional[int], denom: int, poly: List[int]):
        self.q, self.shift, self.denom, self.poly = q, shift, denom, poly

    @property
    def excess(self) -> Optional[Fraction]:
        """The common excess (None for the zero expression)."""
        return None if self.shift is None else Fraction(self.shift, self.q)

    @property
    def degree(self) -> int:
        """The degree in ``s`` of the action."""
        return max(len(self.poly) - 1, 0)

    def excess_matches(self, other: "Certificate") -> bool:
        """False only if both expressions have an excess and they differ."""
        if self.shift is None or other.shift is None:
            return True
        return self.shift * other.q == other.shift * self.q

    def action(self) -> Action:
        """{exponent shift: coefficients of the polynomial in ``s``} as
        Fractions, empty for the zero action: ``u^k / denom`` is
        ``q^k s^k / denom``."""
        if not self.poly:
            return {}
        q, denom = self.q, self.denom
        return {
            Fraction(self.shift, q): tuple(
                Fraction(a * q**k, denom) for k, a in enumerate(self.poly)
            )
        }

    def __eq__(self, other):
        """Equal actions, compared in integers: coefficient ``k`` is
        ``a_k q^k / denom`` on either side, cross-multiplied.  Over one
        ``q`` the powers ``q^k`` cancel, so the lists compare whole: as
        they are over one denominator, each scaled by the other's
        denominator otherwise."""
        if not isinstance(other, Certificate):
            return NotImplemented
        a, b = self.poly, other.poly
        if not a or not b:
            return a == b
        if len(a) != len(b) or self.shift * other.q != other.shift * self.q:
            return False
        da, db = self.denom, other.denom
        if self.q == other.q:
            return a == b if da == db else [x * db for x in a] == [y * da for y in b]
        p, q = self.q, other.q
        return all(x * p**k * db == y * q**k * da for k, (x, y) in enumerate(zip(a, b)))


class OperatorExpr:
    """Finite sum of coefficient-weighted factor products, with exponents
    in units of ``1/q``."""

    __slots__ = ("q", "_terms")

    def __init__(self, terms: Iterable[Tuple[object, Sequence[Factor]]] = ()):
        clean: List[Term] = []
        for coeff, factors in terms:
            c = as_rational(coeff)
            if c:
                clean.append((c, tuple(factors)))
        q = lcm(*(
            x.denominator
            for _, factors in clean
            for f in factors
            for x in ((f.exp,) if isinstance(f, XPower) else (f.word.L, f.word.R))
        ))
        self.q = q
        self._terms = tuple((c, tuple(_scale(f, q) for f in factors)) for c, factors in clean)

    # -- constructors ---------------------------------------------------

    @classmethod
    def over(cls, q: int, terms: Iterable[Tuple[object, Tuple[Scaled, ...]]]) -> "OperatorExpr":
        """The expression of ``terms`` whose factors are already in units of
        ``1/q`` (``p`` for ``x^(p/q)``, ``(L, R, m)`` for a word power);
        coefficients are ints or Fractions, and zero ones are left out."""
        expr = cls.__new__(cls)
        expr.q = q
        expr._terms = tuple((c, factors) for c, factors in terms if c)
        return expr

    @classmethod
    def single(cls, coeff, *factors: Factor) -> "OperatorExpr":
        return cls([(coeff, factors)])

    @classmethod
    def zero(cls) -> "OperatorExpr":
        return cls()

    @property
    def terms(self) -> Tuple[Term, ...]:
        """The terms with rational factors."""
        q = self.q
        return tuple(
            (coeff, tuple(_unscale(f, q) for f in factors)) for coeff, factors in self._terms
        )

    def __add__(self, other: "OperatorExpr") -> "OperatorExpr":
        return OperatorExpr(self.terms + other.terms)

    def scaled(self, c) -> "OperatorExpr":
        c = as_rational(c)
        return OperatorExpr.over(self.q, [(c * coeff, factors) for coeff, factors in self._terms])

    # -- semantics ------------------------------------------------------

    def act_on_monomial(self, s) -> Dict[Fraction, Fraction]:
        """Apply to ``x^s``; returns {exponent: coefficient}, zeros dropped.

        Factors apply right to left (the rightmost factor hits ``x^s``
        first), matching operator composition.  This is the pointwise
        reference for :meth:`certificate`, in rational arithmetic.
        """
        s = as_rational(s)
        collected: Dict[Fraction, Fraction] = {}
        for coeff, factors in self.terms:
            exp = s
            c = coeff
            for factor in reversed(factors):
                if isinstance(factor, XPower):
                    exp = exp + factor.exp
                else:
                    e = factor.word.excess
                    base = exp + factor.word.R
                    for j in range(factor.power):
                        c = c * (base + j * e)
                    exp = exp + factor.power * e
                if not c:
                    break
            if c:
                collected[exp] = collected.get(exp, Fraction(0)) + c
        return {e: v for e, v in collected.items() if v}

    def certificate(self) -> Certificate:
        """The symbolic action in integers, from one walk over the terms;
        raises MixedExcessError at the first term whose excess differs.

        A term's factors, right to left, give its shift and its polynomial
        ``prod (u + c)``, evaluated at ``u = 2^W`` (first with ``W = 64``)
        as one int (Kronecker substitution); the terms are summed there over
        the common denominator ``d q^top``, with ``d`` the lcm of the
        coefficient denominators and ``top`` the highest degree, and the sum
        is read back in balanced base-``2^W`` digits.  Every coefficient of
        a term is at most its ``|lift| prod (|c| + 1)`` in size, so below a
        summed bound of ``2^(W-1)`` the digits are the coefficients; above
        it the certificate is redone once with a ``W`` that clears the bound.
        """
        return self._certificate(64)

    def _certificate(self, W: int) -> Certificate:
        """:meth:`certificate` read in digits of ``W`` bits."""
        q = self.q
        first = None
        walked = []
        top = 0
        for coeff, factors in self._terms:
            shift = deg = 0
            P = bound = 1
            for f in reversed(factors):
                if f.__class__ is int:
                    shift += f
                    continue
                L, R, m = f
                e = L + R - q
                c = shift + R
                for _ in range(m):
                    P = (P << W) + c * P
                    bound *= abs(c) + 1
                    c += e
                deg += m
                shift += m * e
            if first is None:
                first = shift
            elif shift != first:
                raise MixedExcessError(
                    f"terms of mixed excess: {Fraction(first, q)} vs {Fraction(shift, q)}"
                )
            walked.append((coeff, deg, P, bound))
            if deg > top:
                top = deg
        d = lcm(*(coeff.denominator for coeff, _, _, _ in walked))
        total = bound_sum = 0
        for coeff, deg, P, bound in walked:
            lift = coeff.numerator * (d // coeff.denominator) * q ** (top - deg)
            total += lift * P
            bound_sum += abs(lift) * bound
        if bound_sum >> (W - 1):
            return self._certificate(bound_sum.bit_length() + 2)
        poly = []
        mask, half = (1 << W) - 1, 1 << (W - 1)
        while total:
            a = total & mask
            if a >= half:
                a -= mask + 1
            poly.append(a)
            total = (total - a) >> W
        return Certificate(q, first, d * q**top, poly)

    def adjoint(self) -> "OperatorExpr":
        """Formal adjoint: reverses factor order, fixes pure powers, and
        maps ``(x^L D x^R)^m`` to ``(-1)^m (x^R D x^L)^m``."""
        out = []
        for coeff, factors in self._terms:
            sign = 1
            new_factors: List[Scaled] = []
            for f in reversed(factors):
                if f.__class__ is int:
                    new_factors.append(f)
                else:
                    L, R, m = f
                    if m % 2:
                        sign = -sign
                    new_factors.append((R, L, m))
            out.append((sign * coeff, tuple(new_factors)))
        return OperatorExpr.over(self.q, out)

    def is_wc_admissible(self) -> bool:
        """True if every exponent in sight is a nonnegative integer, i.e.
        the expression lives in the creation/annihilation dialect."""
        return self.boson_strings() is not None

    def boson_strings(self, max_len: Optional[int] = None) -> Optional[List[Tuple[Fraction, str]]]:
        """Spell each term as a string over '+', '-' ('+' the creation
        letter) in one walk; None if the expression is not admissible
        (:meth:`is_wc_admissible`) or, with ``max_len``, if some term has
        more than ``max_len`` letters.  The letters are counted from the
        exponents before each factor is spelled, so no string longer than
        ``max_len`` is spelled."""
        q = self.q
        out = []
        for coeff, factors in self._terms:
            chunks = []
            letters = 0
            for f in factors:
                if f.__class__ is int:
                    if f < 0 or f % q:
                        return None
                    letters += f // q
                    if max_len is not None and letters > max_len:
                        return None
                    chunks.append("+" * (f // q))
                else:
                    L, R, m = f
                    if L < 0 or R < 0 or L % q or R % q:
                        return None
                    L, R = L // q, R // q
                    letters += (L + 1 + R) * m
                    if max_len is not None and letters > max_len:
                        return None
                    chunks.append(("+" * L + "-" + "+" * R) * m)
            out.append((coeff, "".join(chunks)))
        return out

    # -- display ----------------------------------------------------------

    def render(self, style: str = "x") -> str:
        """Human-readable form; ``style`` is ``"x"`` (x and D) or ``"adag"``
        (creation/annihilation, suitable for admissible expressions)."""
        if not self._terms:
            return "0"
        parts = []
        for coeff, factors in self.terms:
            body = " ".join(_render_factor(f, style) for f in factors if not _is_unit(f))
            if not body:
                body = "1"
            if coeff == 1:
                parts.append(body)
            elif coeff == -1:
                parts.append(f"- {body}" if not parts else f"-{body}")
            else:
                parts.append(f"{coeff} {body}")
        return " + ".join(parts).replace("+ -", "- ")

    def __repr__(self):
        return f"OperatorExpr({self.render()})"

    def __eq__(self, other):
        if not isinstance(other, OperatorExpr):
            return NotImplemented
        return self.terms == other.terms


def _is_unit(factor: Factor) -> bool:
    if isinstance(factor, XPower):
        return factor.exp == 0
    return factor.power == 0


def _render_factor(factor: Factor, style: str) -> str:
    if style == "adag":
        if isinstance(factor, XPower):
            return "a†" if factor.exp == 1 else f"a†^{factor.exp}"
        w = factor.word
        inner = []
        if w.L:
            inner.append("a†" if w.L == 1 else f"a†^{w.L}")
        inner.append("a")
        if w.R:
            inner.append("a†" if w.R == 1 else f"a†^{w.R}")
        body = " ".join(inner)
        if factor.power == 1:
            return f"({body})"
        return f"({body})^{factor.power}"
    if isinstance(factor, XPower):
        return "x" if factor.exp == 1 else f"x^{factor.exp}"
    w = factor.word
    return f"(x^{w.L} D x^{w.R})^{factor.power}"
