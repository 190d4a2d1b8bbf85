"""Sparse integer-coefficient polynomials in the three parameters
``alpha``, ``beta``, ``r``.

Triangle entries are polynomials in these parameters with integer
coefficients; :class:`ParamPoly` is the exact carrier for the symbolic
triangle mode.  Representation: a dict mapping exponent triples
``(i, j, k)`` (for ``alpha^i beta^j r^k``) to nonzero ``int`` coefficients.
"""

from __future__ import annotations

from fractions import Fraction
from operator import neg
from typing import Dict, Tuple

Monomial = Tuple[int, int, int]

_VAR_NAMES = ("alpha", "beta", "r")


class ParamPoly:
    """Exact polynomial in Z[alpha, beta, r].

    Supports ``+``, ``-``, ``*`` and ``**`` with other ParamPoly values and
    with ints; zero coefficients are never stored.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Dict[Monomial, int] | None = None):
        clean: Dict[Monomial, int] = {}
        if terms:
            for mono, coeff in terms.items():
                if not isinstance(coeff, int):
                    raise TypeError(f"coefficients must be int, got {type(coeff).__name__}")
                i, j, k = mono
                if i < 0 or j < 0 or k < 0:
                    raise ValueError(f"negative exponent in monomial {mono}")
                if coeff:
                    clean[(i, j, k)] = coeff
        self._terms = clean

    # -- constructors -------------------------------------------------

    @classmethod
    def constant(cls, c: int) -> "ParamPoly":
        return cls({(0, 0, 0): c})

    @classmethod
    def variable(cls, name: str) -> "ParamPoly":
        if name not in _VAR_NAMES:
            raise ValueError(f"unknown parameter {name!r}; expected one of {_VAR_NAMES}")
        mono = [0, 0, 0]
        mono[_VAR_NAMES.index(name)] = 1
        return cls({tuple(mono): 1})

    @classmethod
    def alpha(cls) -> "ParamPoly":
        return cls.variable("alpha")

    @classmethod
    def beta(cls) -> "ParamPoly":
        return cls.variable("beta")

    @classmethod
    def r(cls) -> "ParamPoly":
        return cls.variable("r")

    # -- inspection ---------------------------------------------------

    def is_zero(self) -> bool:
        return not self._terms

    def total_degrees(self) -> set[int]:
        """Set of total degrees i+j+k present (for homogeneity checks)."""
        return {i + j + k for (i, j, k) in self._terms}

    def evaluate(self, alpha: Fraction, beta: Fraction, r: Fraction) -> Fraction:
        """Exact evaluation at a rational parameter point."""
        total = Fraction(0)
        for (i, j, k), coeff in self._terms.items():
            total += coeff * alpha**i * beta**j * r**k
        return total

    # -- ring operations ----------------------------------------------

    @staticmethod
    def _coerce(other) -> "ParamPoly | None":
        if isinstance(other, ParamPoly):
            return other
        if isinstance(other, int):
            return ParamPoly({(0, 0, 0): other})
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        terms = dict(self._terms)
        for mono, coeff in o._terms.items():
            new = terms.get(mono, 0) + coeff
            if new:
                terms[mono] = new
            else:
                terms.pop(mono, None)
        out = ParamPoly.__new__(ParamPoly)
        out._terms = terms
        return out

    __radd__ = __add__

    def __neg__(self):
        out = ParamPoly.__new__(ParamPoly)
        out._terms = {m: -c for m, c in self._terms.items()}
        return out

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        terms: Dict[Monomial, int] = {}
        for (i1, j1, k1), c1 in self._terms.items():
            for (i2, j2, k2), c2 in o._terms.items():
                mono = (i1 + i2, j1 + j2, k1 + k2)
                new = terms.get(mono, 0) + c1 * c2
                if new:
                    terms[mono] = new
                else:
                    terms.pop(mono, None)
        out = ParamPoly.__new__(ParamPoly)
        out._terms = terms
        return out

    __rmul__ = __mul__

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("only natural powers are defined")
        result = ParamPoly.constant(1)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    # -- equality / display --------------------------------------------

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._terms == o._terms

    def __hash__(self):
        # a constant equals its int, so it hashes as that int
        if not self._terms.keys() - {(0, 0, 0)}:
            return hash(self._terms.get((0, 0, 0), 0))
        return hash(frozenset(self._terms.items()))

    def __bool__(self):
        return bool(self._terms)

    def __repr__(self):
        return f"ParamPoly({self})"

    def __str__(self):
        terms = self._terms
        if not terms:
            return "0"
        parts = []
        # highest total degree first, then lexicographic, for stable output
        for _, mono, coeff in sorted(zip(map(neg, map(sum, terms)), terms, terms.values())):
            text = _MONOMIAL_TEXT.get(mono)
            if text is None:
                text = _MONOMIAL_TEXT[mono] = "*".join(
                    name if exp == 1 else f"{name}^{exp}" for name, exp in zip(_VAR_NAMES, mono) if exp
                )
            mag = abs(coeff)
            if not text:
                body = str(mag)
            elif mag == 1:
                body = text
            else:
                body = f"{mag}*{text}"
            parts.append((" - " if coeff < 0 else " + ") + body)
        text = "".join(parts)
        return text[3:] if text[1] == "+" else "-" + text[3:]


# the text of each monomial met so far (``alpha^2*beta``, empty for 1)
_MONOMIAL_TEXT: Dict[Monomial, str] = {}


ALPHA = ParamPoly.alpha()
BETA = ParamPoly.beta()
R = ParamPoly.r()
