"""Formal words in x and D and their exact action on monomials.

A :class:`Word` is the single-annihilator pattern ``x^L D x^R`` with rational
exponents; its *excess* ``L + R - 1`` is the net amount it raises a monomial
degree.  An :class:`OperatorExpr` is a finite sum of terms, each a rational
coefficient times an ordered product of factors; a factor is either a pure
power ``x^p`` or a word power ``(x^L D x^R)^m``.  Factors are written in
operator order: the leftmost factor acts last.

The whole point of this representation is that every expression acts on a
formal monomial ``x^s`` exactly:

    (x^L D x^R)^m : x^s  |->  prod_{j=0}^{m-1} (s + R + j e) * x^{s + m e}

with ``e`` the excess.  An expression's action is therefore a finite map
``{exponent shift: polynomial in s}`` (:meth:`OperatorExpr.action_polynomials`),
and two expressions are equal as operators on monomials exactly when these
maps are equal: comparing them certifies an identity at every ``s``, at any
degree.  A term's shift is its excess, so :meth:`OperatorExpr.action_certificate`
returns the common excess from the same pass.
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

    def reversed(self) -> "Word":
        return Word(self.R, self.L)

    def is_natural(self) -> bool:
        return (
            self.L.denominator == 1
            and self.R.denominator == 1
            and self.L.numerator >= 0
            and self.R.numerator >= 0
        )


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


class OperatorExpr:
    """Finite sum of coefficient-weighted factor products."""

    __slots__ = ("terms",)

    def __init__(self, terms: Iterable[Tuple[object, Sequence[Factor]]] = ()):
        clean: List[Term] = []
        for coeff, factors in terms:
            c = as_rational(coeff)
            if c:
                clean.append((c, tuple(factors)))
        self.terms: Tuple[Term, ...] = tuple(clean)

    # -- constructors ---------------------------------------------------

    @classmethod
    def single(cls, coeff, *factors: Factor) -> "OperatorExpr":
        return cls([(coeff, factors)])

    @classmethod
    def zero(cls) -> "OperatorExpr":
        return cls()

    def __add__(self, other: "OperatorExpr") -> "OperatorExpr":
        return OperatorExpr(list(self.terms) + list(other.terms))

    def scaled(self, c) -> "OperatorExpr":
        c = as_rational(c)
        return OperatorExpr([(c * coeff, factors) for coeff, factors in self.terms])

    # -- semantics ------------------------------------------------------

    def act_on_monomial(self, s) -> Dict[Fraction, Fraction]:
        """Apply to ``x^s``; returns {exponent: coefficient}, zeros dropped.

        Factors apply right to left (the rightmost factor hits ``x^s``
        first), matching operator composition.  This is the pointwise
        reference for :meth:`action_polynomials`.
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

    def action_certificate(self) -> Tuple[Optional[Fraction], Action]:
        """The common excess of all terms (None for the zero expression)
        and the symbolic action :meth:`action_polynomials`, in one pass.

        A term's exponent shift is its excess, so the uniform-excess check
        is read off the same walk; raises MixedExcessError if two terms
        disagree.
        """
        excess, mixed, action = self._action()
        if mixed is not None:
            raise MixedExcessError(f"terms of mixed excess: {excess} vs {mixed}")
        return excess, action

    def action_polynomials(self) -> Action:
        """Symbolic action on ``x^s``: {exponent shift: coefficients of a
        polynomial in ``s``, constant term first}, zero polynomials dropped.

        For every ``s``, ``act_on_monomial(s)`` sends ``x^s`` to the sum of
        each polynomial's value at ``s`` times ``x^(s + shift)``, so equal
        maps prove that two expressions act alike on every monomial.  Terms
        of mixed excess are allowed here.
        """
        return self._action()[2]

    def excess(self) -> Optional[Fraction]:
        """Common excess of all terms (None for the zero expression);
        raises MixedExcessError if terms disagree."""
        return self.action_certificate()[0]

    def _action(self) -> Tuple[Optional[Fraction], Optional[Fraction], Action]:
        """The first term's excess, the first excess that differs from it
        (None if every term agrees) and the symbolic action.

        The arithmetic is fraction-free: with ``q`` the lcm of the exponent
        denominators, a word power contributes integer linear factors
        ``u + c`` in ``u = q s`` and every exponent shift is an integer in
        units of ``1/q``; terms of one shift are summed over a common
        denominator, and only the final coefficients are divided.
        """
        q = d = 1  # lcm of the exponent / coefficient denominators
        top = 0  # highest degree of any term
        for coeff, factors in self.terms:
            d = lcm(d, coeff.denominator)
            degree = 0
            for factor in factors:
                if isinstance(factor, XPower):
                    q = lcm(q, factor.exp.denominator)
                else:
                    q = lcm(q, factor.word.L.denominator, factor.word.R.denominator)
                    degree += factor.power
            top = max(top, degree)

        def scaled(x: Fraction) -> int:
            return x.numerator * (q // x.denominator)

        first = mixed = None  # term shifts, in units of 1/q
        # shift -> d q^top times the polynomial in u
        sums: Dict[int, List[int]] = {}
        for coeff, factors in self.terms:
            shift = 0
            poly = [coeff.numerator * (d // coeff.denominator)]
            for factor in reversed(factors):
                if isinstance(factor, XPower):
                    shift += scaled(factor.exp)
                    continue
                r = scaled(factor.word.R)
                e = scaled(factor.word.L) + r - q
                c = shift + r
                for _ in range(factor.power):
                    poly = [c * a + b for a, b in zip(poly + [0], [0] + poly)]
                    c += e
                shift += factor.power * e
            if first is None:
                first = shift
            elif mixed is None and shift != first:
                mixed = shift
            lift = q ** (top - len(poly) + 1)
            acc = sums.setdefault(shift, [])
            acc.extend([0] * (len(poly) - len(acc)))
            for k, a in enumerate(poly):
                acc[k] += lift * a
        out: Action = {}
        denom = d * q**top
        for shift, acc in sums.items():
            while acc and not acc[-1]:
                acc.pop()
            if acc:
                out[Fraction(shift, q)] = tuple(
                    Fraction(a * q**k, denom) for k, a in enumerate(acc)
                )
        excess = None if first is None else Fraction(first, q)
        return excess, None if mixed is None else Fraction(mixed, q), out

    def adjoint(self) -> "OperatorExpr":
        """Formal adjoint: reverses factor order, fixes pure powers, and
        maps ``(x^L D x^R)^m`` to ``(-1)^m (x^R D x^L)^m``."""
        out = []
        for coeff, factors in self.terms:
            sign = 1
            new_factors: List[Factor] = []
            for factor in reversed(factors):
                if isinstance(factor, WordPower):
                    if factor.power % 2:
                        sign = -sign
                    new_factors.append(WordPower(factor.word.reversed(), factor.power))
                else:
                    new_factors.append(factor)
            out.append((sign * coeff, tuple(new_factors)))
        return OperatorExpr(out)

    def is_wc_admissible(self) -> bool:
        """True if every exponent in sight is a nonnegative integer, i.e.
        the expression lives in the creation/annihilation dialect."""
        for _, factors in self.terms:
            for factor in factors:
                if isinstance(factor, XPower):
                    if factor.exp.denominator != 1 or factor.exp.numerator < 0:
                        return False
                elif not factor.word.is_natural():
                    return False
        return True

    def boson_strings(self) -> Optional[List[Tuple[Fraction, str]]]:
        """Spell each term as a string over '+', '-' ('+' the creation
        letter) in one walk; None if the expression is not admissible
        (:meth:`is_wc_admissible`)."""
        out = []
        for coeff, factors in self.terms:
            chunks = []
            for factor in factors:
                if isinstance(factor, XPower):
                    exp = factor.exp
                    if exp.denominator != 1 or exp.numerator < 0:
                        return None
                    chunks.append("+" * exp.numerator)
                else:
                    word = factor.word
                    if not word.is_natural():
                        return None
                    unit = "+" * word.L.numerator + "-" + "+" * word.R.numerator
                    chunks.append(unit * factor.power)
            out.append((coeff, "".join(chunks)))
        return out

    # -- display ----------------------------------------------------------

    def render(self, style: str = "x") -> str:
        """Human-readable form; ``style`` is ``"x"`` (x and D) or ``"adag"``
        (creation/annihilation, suitable for admissible expressions)."""
        if not self.terms:
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
