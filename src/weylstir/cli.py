"""Command-line front end.

Subcommands:

* ``triangle``   — compute one triangle and export it (text/json/csv/latex);
* ``verify``     — run identity-verification sweeps over parameter grids;
* ``conjecture`` — run the integer-r summation conjecture checker;
* ``fixtures``   — regenerate the embedded reference triangles and diff;
* ``expand``     — pretty-print one instantiated identity with coefficients.

Exit codes: 0 = all checks pass, 1 = mathematical counterexample found,
2 = usage or parameter error, including an ``expand`` option or
``verify --range`` value outside a template's parameter domain
(:meth:`IdentityTemplate.domain_error`).  The environment variable
WEYLSTIR_MAX_N overrides the hard caps on ``--n`` (default 64 for triangle/expand/conjecture
work, 32 for symbolic triangles, 10 for verification sweeps and for expanding a template
of 2^n words).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from functools import lru_cache
from typing import Dict, Optional, Sequence, Tuple

from .boson import _normal_order
from .fixtures import FIXTURES, check_fixture
from .identities import (
    TEMPLATES,
    TEMPLATE_ORDER,
    VacuousRunError,
    VerifyReport,
    templates_matching,
    verify_identity,
)
from .kernels import as_rational
from .triangles import (KINDS, _integer_row_memo, build_recurrence, conjecture_check,
                        symbolic_triangle)

_TRIANGLE_CAP = 64
_SYMBOLIC_CAP = 32  # the output grows as n^4: E at n = 32 writes 155 433 terms in about 0.25 s
_VERIFY_CAP = 10
_CONJECTURE_CELL_CAP = 1 << 16  # the most (r, n, k) cells a conjecture report holds
# the build and channel caches whose use a serial ``verify --format json`` reports
_CHANNEL_CACHES = {"coefficient_rows": _integer_row_memo, "normal_order": _normal_order}


class UsageError(Exception):
    """Usage or parameter error; :func:`main` prints it and exits 2."""


def _cap(default: int) -> int:
    env = os.environ.get("WEYLSTIR_MAX_N")
    if env is None:
        return default
    try:
        return int(env)
    except ValueError:
        raise UsageError(f"WEYLSTIR_MAX_N is not an integer: {env!r}")


def _check_n(n: int, default_cap: int) -> None:
    """Reject a negative ``--n`` and one above the cap."""
    if n < 0:
        raise UsageError(f"--n must be nonnegative, got {n}")
    cap = _cap(default_cap)
    if n > cap:
        raise UsageError(f"--n {n} exceeds the cap {cap} (override with WEYLSTIR_MAX_N)")


def _rational(text: str) -> Fraction:
    """Rationals are 'p/q' or integer strings; decimal input is rejected."""
    try:
        return as_rational(text.strip())
    except ZeroDivisionError:
        raise argparse.ArgumentTypeError(f"zero denominator in {text!r}")
    except (ValueError, TypeError) as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _word(text: str) -> Tuple[Fraction, Fraction]:
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"expected 'L,R', got {text!r}")
    return (_rational(parts[0]), _rational(parts[1]))


def _int_range(text: str) -> Tuple[int, int]:
    lo, sep, hi = text.partition("..")
    if not sep:
        raise argparse.ArgumentTypeError(f"expected 'a..b', got {text!r}")
    try:
        return (int(lo), int(hi))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected integer bounds in {text!r}")


# ---------------------------------------------------------------------------
# triangle
# ---------------------------------------------------------------------------


def cmd_triangle(args) -> int:
    _check_n(args.n, _SYMBOLIC_CAP if args.symbolic else _TRIANGLE_CAP)
    if args.symbolic:
        tri = symbolic_triangle(args.kind, args.n)
    else:
        tri = build_recurrence(args.kind, args.alpha, args.beta, args.r, args.n)
    print(getattr(tri, f"to_{args.format}")())  # to_text, to_json, to_csv or to_latex
    return 0


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def _verify_worker(job) -> VerifyReport:
    tid, cells, n_max = job
    return verify_identity(TEMPLATES[tid], cells=cells, n_max=n_max)


def cmd_verify(args) -> int:
    if args.n is not None:
        _check_n(args.n, _VERIFY_CAP)
    if args.all:
        selected = [TEMPLATES[tid] for tid in TEMPLATE_ORDER]
    elif args.template:
        selected = templates_matching(args.template)
        if not selected:
            raise UsageError(f"no template matches {args.template!r}; known ids: "
                             + ", ".join(TEMPLATE_ORDER))
    else:
        raise UsageError("pass --template ID (or a prefix) or --all")

    jobs, vacuous = [], []
    for template in selected:
        try:
            cells = template.grid() if args.range is None else template.range_cells(*args.range)
            template.run_powers(cells, args.n)
        except VacuousRunError:
            vacuous.append(template.id)
        except ValueError as exc:
            raise UsageError(str(exc)) from None
        jobs.append((template.id, sorted(cells, key=lambda c: tuple(sorted(c.items()))),
                     args.n))
    if vacuous:
        raise UsageError(f"nothing to verify for {', '.join(vacuous)} "
                         "(0 instances; check --range and --n)")
    caches = None  # the workers' caches are out of reach
    if args.parallel and len(jobs) > 1:
        import multiprocessing  # only --parallel needs it; kept out of start-up

        # one pool of spawned workers for the whole run, one template per
        # task: a worker takes the next template as soon as it is free
        with multiprocessing.get_context("spawn").Pool() as pool:
            reports = pool.map(_verify_worker, jobs, chunksize=1)
    else:
        before = {name: cache.cache_info() for name, cache in _CHANNEL_CACHES.items()}
        reports = [_verify_worker(job) for job in jobs]
        caches = {name: _cache_use(before[name], cache.cache_info())
                  for name, cache in _CHANNEL_CACHES.items()}
    ok = all(r.ok for r in reports)
    if args.format == "json":
        payload = {
            "ok": ok,
            "reports": [
                {
                    "template": r.template_id,
                    "ok": r.ok,
                    "cells": r.cells,
                    "instances": r.instances,
                    "action_probes": r.action_probes,
                    "action_degree": r.action_degree,
                    "string_probes": r.string_probes,
                    "failures": r.failures,
                    "seconds": {
                        "build": round(r.build_s, 6),
                        "action": round(r.action_s, 6),
                        "strings": round(r.string_s, 6),
                    },
                }
                for r in reports
            ],
        }
        if caches is not None:
            payload["caches"] = caches
        print(json.dumps(payload, indent=2))
    else:
        for r in reports:
            print(r.summary())
        print(f"verify: {'all templates pass' if ok else 'FAILURES found'} "
              f"({len(reports)} template(s))")
    return 0 if ok else 1


def _cache_use(before, after) -> Dict[str, Optional[int]]:
    """The hits and misses of one run and the cache's bound and size after it."""
    return {"hits": after.hits - before.hits, "misses": after.misses - before.misses,
            "maxsize": after.maxsize, "currsize": after.currsize}


# ---------------------------------------------------------------------------
# conjecture
# ---------------------------------------------------------------------------


def cmd_conjecture(args) -> int:
    _check_n(args.n, _TRIANGLE_CAP)
    if args.r_min > args.r_max:
        raise UsageError(f"--r-min {args.r_min} exceeds --r-max {args.r_max}: "
                         "no cells to check")
    cells = (args.r_max - args.r_min + 1) * (args.n + 1) * (args.n + 2) // 2
    if cells > _CONJECTURE_CELL_CAP:
        raise UsageError(f"r in [{args.r_min}, {args.r_max}] at n <= {args.n} makes {cells} "
                         f"cells, more than the bound {_CONJECTURE_CELL_CAP}")
    report = conjecture_check(n_max=args.n, r_min=args.r_min, r_max=args.r_max)
    stated = report.mismatches_stated
    trunc = report.mismatches_truncated
    sensitive = report.convention_sensitive
    if args.format == "json":
        payload = {
            "n_max": report.n_max,
            "r_min": report.r_min,
            "r_max": report.r_max,
            "cells": report.total,
            "mismatches_stated_range": len(stated),
            "mismatches_truncated_range": len(trunc),
            "convention_sensitive_cells": len(sensitive),
            "first_mismatches": [
                {
                    "n": c.n, "k": c.k, "r": c.r,
                    "recurrence": str(c.recurrence),
                    "sum_stated": str(c.sum_stated),
                    "sum_truncated": str(c.sum_truncated),
                }
                for c in (stated or trunc)[:10]
            ],
        }
        print(json.dumps(payload, indent=2))
    else:
        print(f"conjecture check: n <= {report.n_max}, "
              f"r in [{report.r_min}, {report.r_max}]")
        print(f"cells checked:                {report.total}")
        print(f"mismatches (stated range):    {len(stated)}")
        print(f"mismatches (j >= 0 range):    {len(trunc)}")
        print(f"convention-sensitive cells:   {len(sensitive)}")
        for c in (stated or trunc)[:5]:
            print(f"  n={c.n} k={c.k} r={c.r}: recurrence {c.recurrence}, "
                  f"stated {c.sum_stated}, truncated {c.sum_truncated}")
    # This checker reports on an unproven statement; completing the sweep is
    # success regardless of how many cells disagree.
    return 0


# ---------------------------------------------------------------------------
# fixtures
# ---------------------------------------------------------------------------


def cmd_fixtures(args) -> int:
    bad = []
    for oeis in FIXTURES:
        ok, diffs = check_fixture(oeis)
        fx = FIXTURES[oeis]
        status = "OK" if ok else "MISMATCH"
        print(f"{oeis} ({fx.name}): {status}")
        bad.extend(diffs)
    for line in bad:
        print("  " + line)
    return 0 if not bad else 1


# ---------------------------------------------------------------------------
# expand
# ---------------------------------------------------------------------------


# template parameter -> (expand option, index into its L,R pair or None)
_EXPAND_OPTIONS = {
    "L": ("word", 0), "R": ("word", 1), "Lp": ("wordp", 0), "Rp": ("wordp", 1),
    "alpha": ("alpha", None), "r": ("r", None), "case": ("case", None), "m": ("m", None),
}


def _collect_params(template, args) -> Dict[str, Fraction]:
    cell: Dict[str, Fraction] = {}
    for name in template.params:
        option, idx = _EXPAND_OPTIONS[name]
        value = getattr(args, option)
        if value is None:
            pair = "" if idx is None else " L,R"
            raise UsageError(f"template {template.id!r} needs --{option}{pair}")
        cell[name] = Fraction(value if idx is None else value[idx])
    return cell


def cmd_expand(args) -> int:
    _check_n(args.n, _TRIANGLE_CAP)
    matches = templates_matching(args.template)
    if len(matches) != 1:
        raise UsageError(f"--template must name exactly one template "
                         f"(got {len(matches)} matches for {args.template!r})")
    template = matches[0]
    if template.id == "special_corollary":  # 2^n words on its left: capped as verify is
        _check_n(args.n, _VERIFY_CAP)
    cell = _collect_params(template, args)
    try:
        template.check_cell(cell)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    if args.n < template.n_min:
        raise UsageError(f"template {template.id!r} requires n >= {template.n_min}")

    instances = template.build(cell, args.n)
    payload = []
    for inst in instances:
        adag = (args.format == "latex" and inst.lhs.is_wc_admissible()
                and inst.rhs.is_wc_admissible())
        style = "adag" if adag else "x"
        entry = {
            "template": template.id,
            "params": {k: str(v) for k, v in cell.items()},
            "n": args.n,
            "lhs": inst.lhs.render(style),
            "rhs": inst.rhs.render(style),
        }
        if inst.coeffs is not None:
            entry["coefficients"] = [str(c) for c in inst.coeffs]
        if inst.label:
            entry["label"] = inst.label
        payload.append(entry)
    if args.format == "json":
        print(json.dumps(payload, indent=2))
    else:
        for entry in payload:
            label = f" [{entry['label']}]" if "label" in entry else ""
            print(f"{entry['template']}{label}  (n = {entry['n']}"
                  + (", " + ", ".join(f"{k}={v}" for k, v in entry["params"].items())
                     if entry["params"] else "") + ")")
            print(f"  lhs: {entry['lhs']}")
            print(f"  rhs: {entry['rhs']}")
            if "coefficients" in entry:
                print(f"  coefficients for k = 0..{entry['n']}: "
                      f"[{', '.join(entry['coefficients'])}]")
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="weylstir",
        description="Exact generalized Stirling/Eulerian triangles and "
                    "operator ordering identity verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_tri = sub.add_parser("triangle", help="compute and export one triangle")
    p_tri.add_argument("--kind", choices=KINDS, default="S")
    p_tri.add_argument("--alpha", type=_rational, default=Fraction(0))
    p_tri.add_argument("--beta", type=_rational, default=Fraction(1))
    p_tri.add_argument("--r", type=_rational, default=Fraction(0))
    p_tri.add_argument("--n", type=int, required=True)
    p_tri.add_argument("--symbolic", action="store_true",
                       help="entries as polynomials in alpha, beta, r")
    p_tri.add_argument("--format", choices=("text", "json", "csv", "latex"),
                       default="text")
    p_tri.set_defaults(func=cmd_triangle)

    p_ver = sub.add_parser("verify", help="verify identity templates on a grid")
    p_ver.add_argument("--template", help="template id or prefix")
    p_ver.add_argument("--all", action="store_true", help="every template once")
    p_ver.add_argument("--range", type=_int_range, default=None, metavar="A..B",
                       help="override the parameter grid with integers A..B")
    p_ver.add_argument("--n", type=int, default=None, help="maximum power n")
    p_ver.add_argument("--parallel", action="store_true",
                       help="verify the selected templates in worker processes")
    p_ver.add_argument("--format", choices=("text", "json"), default="text")
    p_ver.set_defaults(func=cmd_verify)

    p_con = sub.add_parser("conjecture", help="run the summation conjecture checker")
    p_con.add_argument("--n", type=int, default=10)
    p_con.add_argument("--r-min", dest="r_min", type=int, default=-4)
    p_con.add_argument("--r-max", dest="r_max", type=int, default=6)
    p_con.add_argument("--format", choices=("text", "json"), default="text")
    p_con.set_defaults(func=cmd_conjecture)

    p_fix = sub.add_parser("fixtures", help="regenerate embedded reference rows")
    p_fix.set_defaults(func=cmd_fixtures)

    p_exp = sub.add_parser("expand", help="print one instantiated identity")
    p_exp.add_argument("--template", required=True)
    p_exp.add_argument("--word", type=_word, default=None, metavar="L,R")
    p_exp.add_argument("--wordp", type=_word, default=None, metavar="L,R")
    p_exp.add_argument("--alpha", type=_rational, default=None)
    p_exp.add_argument("--r", type=_rational, default=None)
    p_exp.add_argument("--case", type=int, default=None)
    p_exp.add_argument("--m", type=int, default=None)
    p_exp.add_argument("--n", type=int, required=True)
    p_exp.add_argument("--format", choices=("text", "json", "latex"), default="text")
    p_exp.set_defaults(func=cmd_expand)

    return parser


@lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The parser :func:`main` reuses: parsing leaves no state in it."""
    return build_parser()


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
