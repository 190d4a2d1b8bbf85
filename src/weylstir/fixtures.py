"""Frozen reference rows for well-known triangles.

Each fixture pins the first six rows of a classical triangle, keyed by its
OEIS id, together with the parameters that should regenerate it.  The rows
below were entered from the published tables, *not* generated by this
package, so they anchor the recurrence engine against an external source.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Tuple

from .triangles import Triangle, build_recurrence

__all__ = ["Fixture", "FIXTURES", "fixture_triangle", "check_fixture", "check_all"]


@dataclass(frozen=True)
class Fixture:
    oeis: str
    name: str
    kind: str
    alpha: int
    beta: int
    r: int
    rows: Tuple[Tuple[int, ...], ...]


FIXTURES: Dict[str, Fixture] = {
    f.oeis: f
    for f in (
        Fixture(
            "A008277",
            "subset-counting triangle",
            "S", 0, 1, 0,
            ((1,), (0, 1), (0, 1, 1), (0, 1, 3, 1), (0, 1, 7, 6, 1), (0, 1, 15, 25, 10, 1)),
        ),
        Fixture(
            "A132393",
            "unsigned cycle-counting triangle",
            "S", -1, 0, 0,
            ((1,), (0, 1), (0, 1, 1), (0, 2, 3, 1), (0, 6, 11, 6, 1), (0, 24, 50, 35, 10, 1)),
        ),
        Fixture(
            "A271703",
            "unsigned list-partition (Lah) triangle",
            "S", -1, 1, 0,
            ((1,), (0, 1), (0, 2, 1), (0, 6, 6, 1), (0, 24, 36, 12, 1),
             (0, 120, 240, 120, 20, 1)),
        ),
        Fixture(
            "A122848",
            "involution-matching (Bessel) triangle",
            "S", 1, 2, 0,
            ((1,), (0, 1), (0, 1, 1), (0, 0, 3, 1), (0, 0, 3, 6, 1), (0, 0, 0, 15, 10, 1)),
        ),
        Fixture(
            "A132062",
            "odd double-factorial (Bessel cycle) triangle",
            "S", -2, -1, 0,
            ((1,), (0, 1), (0, 1, 1), (0, 3, 3, 1), (0, 15, 15, 6, 1),
             (0, 105, 105, 45, 10, 1)),
        ),
        Fixture(
            "A173018",
            "descent-counting triangle",
            "E", 0, 1, 1,
            ((1,), (1, 0), (1, 1, 0), (1, 4, 1, 0), (1, 11, 11, 1, 0),
             (1, 26, 66, 26, 1, 0)),
        ),
        Fixture(
            "A060187",
            "signed-descent (midpoint) triangle",
            "E", 0, 2, 1,
            ((1,), (1, 1), (1, 6, 1), (1, 23, 23, 1), (1, 76, 230, 76, 1),
             (1, 237, 1682, 1682, 237, 1)),
        ),
    )
}


def fixture_triangle(oeis: str) -> Triangle:
    """The frozen rows of a fixture, wrapped as a Triangle."""
    fx = FIXTURES[oeis]
    rows = tuple(tuple(Fraction(v) for v in row) for row in fx.rows)
    return Triangle(kind=fx.kind, alpha=Fraction(fx.alpha), beta=Fraction(fx.beta),
                    r=Fraction(fx.r), rows=rows)


def check_fixture(oeis: str) -> Tuple[bool, List[str]]:
    """Regenerate a fixture by recurrence and diff it row by row."""
    fx = FIXTURES[oeis]
    frozen = fixture_triangle(oeis)
    fresh = build_recurrence(fx.kind, fx.alpha, fx.beta, fx.r, frozen.N)
    diffs = []
    for n in range(frozen.N + 1):
        if frozen.row(n) != fresh.row(n):
            old, new = (", ".join(map(str, t.row(n))) for t in (frozen, fresh))
            diffs.append(f"{oeis} row {n}: frozen [{old}] != [{new}]")
    return (not diffs, diffs)


def check_all() -> Tuple[bool, List[str]]:
    all_diffs: List[str] = []
    for oeis in FIXTURES:
        ok, diffs = check_fixture(oeis)
        all_diffs.extend(diffs)
    return (not all_diffs, all_diffs)
