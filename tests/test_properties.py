"""Property tests: at random rational parameters every scheme, the EGFs and
the closed forms with a free parameter reproduce the recurrence.

The numeric schemes compute over the parameters scaled to integers, so
mixed denominators, zero and sign changes are what these tests vary.
Runs only when ``hypothesis`` is installed.
"""

import os
import subprocess
import sys
import textwrap
from fractions import Fraction as F
from pathlib import Path

import pytest

# database=None keeps no example database, but Hypothesis also caches the
# constants it reads from local source files; keep that inside pytest's own
# cache directory instead of a new .hypothesis/ in the working directory
os.environ.setdefault(
    "HYPOTHESIS_STORAGE_DIRECTORY",
    str(Path(__file__).resolve().parent.parent / ".pytest_cache" / "hypothesis"),
)
hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from weylstir.egf import egf_coefficients  # noqa: E402
from weylstir.triangles import (  # noqa: E402
    build_recurrence,
    closed_form,
    closed_form_params,
    decompose_classical,
    entry_by_sum,
    triangle_by_decomposition,
    triangle_by_sum,
    triangle_by_transform,
)

rationals = st.builds(F, st.integers(-20, 20), st.integers(1, 12))
nonzero = rationals.filter(bool)
rows = st.integers(0, 8)
SETTINGS = settings(deadline=None, database=None, max_examples=150)

FREE_FAMILIES = (
    "S_8F_iprime", "S_8F_iiprime", "S_8F_iiiprime", "S_8F_ivprime",
    "S_4F_v", "S_4F_vi", "E_i", "E_ii", "E_vi",
)


@SETTINGS
@given(rationals, rationals, rationals, rows)
def test_schemes_agree_with_the_recurrence(a, b, r, n):
    s = build_recurrence("S", a, b, r, n)
    assert triangle_by_decomposition(a, b, r, n) == s
    assert decompose_classical(n, n // 2, a, b, r) == s.entry(n, n // 2)
    for kind in ("Shat", "E"):
        rec = build_recurrence(kind, a, b, r, n)
        assert triangle_by_sum(kind, a, b, r, n) == rec
        assert triangle_by_transform(kind, a, b, r, n) == rec
        assert entry_by_sum(kind, n, n // 2, a, b, r) == rec.entry(n, n // 2)


@SETTINGS
@given(rationals, nonzero, rationals, rows)
def test_egfs_equal_the_recurrence(a, b, r, n):
    for kind in ("Shat", "E"):
        rec = build_recurrence(kind, a, b, r, n)
        coeffs = egf_coefficients(kind, a, b, r, n, n)
        assert all(
            coeffs[m][k] == (rec.entry(m, k) if k <= m else 0)
            for m in range(n + 1)
            for k in range(n + 1)
        )


@SETTINGS
@given(st.sampled_from(FREE_FAMILIES), rationals, rationals, rows)
def test_free_closed_forms_equal_the_recurrence(family, r, beta, n):
    if family == "E_vi":  # defined at integer r >= 1 only
        r = abs(r.numerator) + 1
    kind, a, b, rr = closed_form_params(family, r=r, beta=beta)
    rec = build_recurrence(kind, a, b, rr, n)
    for m in range(n + 1):
        for k in range(m + 1):
            assert closed_form(family, m, k, r=r, beta=beta) == rec.entry(m, k)


def test_a_failing_property_test_is_reported_and_the_run_goes_on(tmp_path):
    """Hypothesis's failure report imports libcst, which raises a
    DeprecationWarning; the repo's ``filterwarnings = error`` must not turn
    it into an INTERNALERROR that ends the run before the next test."""
    (tmp_path / "test_child.py").write_text(textwrap.dedent("""
        from hypothesis import given, settings, strategies as st

        @settings(database=None)
        @given(st.integers())
        def test_fails(x):
            assert x < 5

        def test_passes():
            pass
    """))
    config = Path(__file__).resolve().parent.parent / "pyproject.toml"
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(config),
         "--rootdir", str(tmp_path), "test_child.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
        env={**os.environ, "HYPOTHESIS_STORAGE_DIRECTORY": str(tmp_path / "hypothesis")},
    )
    assert "INTERNALERROR" not in result.stdout + result.stderr
    assert "1 failed, 1 passed" in result.stdout
