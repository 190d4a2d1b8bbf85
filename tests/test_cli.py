"""End-to-end CLI behavior: output formats, exit codes, caps."""

import hashlib
import json
import os
import re
import runpy
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

from weylstir import cli
from weylstir.cli import main
from weylstir.identities import TEMPLATES, IdentityTemplate, TemplateInstance
from weylstir.operators import OperatorExpr, XPower
from weylstir.triangles import Triangle, build_recurrence


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_triangle_text(capsys):
    code, out, _ = run(capsys, "triangle", "--kind", "S", "--alpha", "0",
                       "--beta", "1", "--r", "0", "--n", "4")
    assert code == 0
    assert out.splitlines()[4] == "0, 1, 7, 6, 1"


def test_triangle_json_round_trips(capsys):
    code, out, _ = run(capsys, "triangle", "--kind", "E", "--alpha", "-1",
                       "--beta", "2", "--r", "2", "--n", "3", "--format", "json")
    assert code == 0
    tri = Triangle.from_json(out)
    assert tri.kind == "E"
    assert tri.row(3) == [24, 24, 0, 0]
    assert tri.to_json() == out.strip()


def test_triangle_symbolic_row(capsys):
    code, out, _ = run(capsys, "triangle", "--kind", "S", "--symbolic", "--n", "1")
    assert code == 0
    assert out.splitlines()[1] == "r, 1"


@pytest.mark.parametrize("argv, digest", [
    (("--kind", "S", "--alpha=9/7", "--beta=-13/9", "--r=17/11", "--n", "64"),
     "dd1d11f2064635446192c3ab7e9ba9834683d2ad7cce98e6be6e460e66cea955"),
    (("--kind", "Shat", "--alpha=-10/9", "--beta=15/11", "--r=13/7", "--n", "64"),
     "13370e9e73bdbce1c65d0f3fcd8a6c96e07d963eacf1652590747fb4fdfb331d"),
    (("--kind", "E", "--alpha=14/11", "--beta=-8/7", "--r=11/9", "--n", "64"),
     "7bca7164df56ef364d2c7b977f4298a9b69355b9ededb5a7057875341f0453ce"),
    (("--kind", "S", "--symbolic", "--n", "18"),
     "1756f7a9da1a72ba6f7c740813f669ed78021ad03551a266fc4de27248230ff9"),
    (("--kind", "Shat", "--symbolic", "--n", "18"),
     "1ad3ebb847c2fb0e6c2690b7ad88f86e02ff211edd485958e7aea3a5893b5db3"),
    (("--kind", "E", "--symbolic", "--n", "18"),
     "1afe44422b4815228c087dec8ac3c0eac20d75de2b7e93338fc97c9df811070b"),
], ids=["S-64", "Shat-64", "E-64", "S-symbolic-18", "Shat-symbolic-18", "E-symbolic-18"])
def test_triangle_json_exports_are_pinned(capsys, argv, digest):
    """The JSON exports hash to the digests of the per-N cached recurrence
    they replaced: large denominators at the n cap, and the symbolic mode.
    A numeric export read back writes the same bytes."""
    code, out, _ = run(capsys, "triangle", *argv, "--format", "json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest
    if "--symbolic" not in argv:
        again = Triangle.from_json(out).to_json() + "\n"
        assert hashlib.sha256(again.encode()).hexdigest() == digest


def test_triangle_csv(capsys):
    code, out, _ = run(capsys, "triangle", "--kind", "S", "--alpha", "0",
                       "--beta", "1", "--r", "0", "--n", "2", "--format", "csv")
    assert code == 0
    assert out.splitlines() == ["1", "0,1", "0,1,1"]
    assert out == "1\n0,1\n0,1,1\n"


@pytest.mark.parametrize("fmt", ["text", "json", "csv", "latex"])
def test_triangle_format_picks_the_export_of_its_name(capsys, fmt):
    code, out, _ = run(capsys, "triangle", "--kind", "E", "--alpha", "1/2", "--r", "1",
                       "--n", "3", "--format", fmt)
    assert code == 0
    tri = build_recurrence("E", F(1, 2), 1, 1, 3)
    assert out == getattr(tri, f"to_{fmt}")() + "\n"


@pytest.mark.parametrize("value, message", [
    ("0.5", "not an exact rational literal: '0.5'"),
    ("1/0", "zero denominator in '1/0'"),
], ids=["0.5", "1/0"])
def test_triangle_rejects_decimals(capsys, value, message):
    with pytest.raises(SystemExit) as exc:
        main(["triangle", "--alpha", value, "--n", "3"])
    assert exc.value.code == 2
    assert f"argument --alpha: {message}" in capsys.readouterr().err


def test_triangle_accepts_slash_rationals(capsys):
    code, out, _ = run(capsys, "triangle", "--kind", "S", "--alpha", "1/2",
                       "--beta", "2", "--r=-3/2", "--n", "1")
    assert code == 0
    assert out.splitlines()[1] == "-3/2, 1"


def test_triangle_cap_and_override(capsys, monkeypatch):
    monkeypatch.delenv("WEYLSTIR_MAX_N", raising=False)
    code, _, err = run(capsys, "triangle", "--n", "65")
    assert code == 2 and "cap" in err
    monkeypatch.setenv("WEYLSTIR_MAX_N", "70")
    code, out, _ = run(capsys, "triangle", "--n", "65")
    assert code == 0
    assert len(out.splitlines()) == 66


def test_symbolic_triangle_cap_and_override(capsys, monkeypatch):
    """A symbolic triangle is capped at n = 32, below the numeric 64, and the
    one override lifts it."""
    monkeypatch.delenv("WEYLSTIR_MAX_N", raising=False)
    code, _, err = run(capsys, "triangle", "--symbolic", "--n", "33")
    assert code == 2
    assert err == "error: --n 33 exceeds the cap 32 (override with WEYLSTIR_MAX_N)\n"
    monkeypatch.setenv("WEYLSTIR_MAX_N", "40")
    code, out, _ = run(capsys, "triangle", "--symbolic", "--n", "33")
    assert code == 0
    assert len(out.splitlines()) == 34


@pytest.mark.parametrize("option", ["--alpha=5", "--beta=2", "--r=-1"])
def test_symbolic_triangle_refuses_numeric_parameters(capsys, option):
    """A symbolic triangle has no numeric parameters: one passed beside
    ``--symbolic`` is a usage error, not dropped; without ``--symbolic``
    the parameters default to (0, 1; 0)."""
    code, out, err = run(capsys, "triangle", "--symbolic", "--n", "3", option)
    assert (code, out, err) == (2, "", "error: --symbolic takes no --alpha, --beta or --r\n")
    _, default, _ = run(capsys, "triangle", "--n", "4")
    _, explicit, _ = run(capsys, "triangle", "--n", "4", "--alpha=0", "--beta=1", "--r=0")
    assert default == explicit


def test_verify_pass_and_exit_zero(capsys):
    code, out, _ = run(capsys, "verify", "--template", "ttv", "--n", "6")
    assert code == 0
    assert "ttv: PASS" in out


def test_verify_bad_template_exit_two(capsys):
    code, _, err = run(capsys, "verify", "--template", "nonsense")
    assert code == 2
    assert "no template matches" in err


def test_verify_needs_selection(capsys):
    code, _, err = run(capsys, "verify")
    assert code == 2


def test_verify_cap(capsys, monkeypatch):
    monkeypatch.delenv("WEYLSTIR_MAX_N", raising=False)
    code, _, err = run(capsys, "verify", "--template", "ttv", "--n", "11")
    assert code == 2
    monkeypatch.setenv("WEYLSTIR_MAX_N", "12")
    code, _, _ = run(capsys, "verify", "--template", "ttv", "--n", "11")
    assert code == 0


def test_expand_caps_the_template_of_2_to_the_n_words_as_verify(capsys, monkeypatch):
    """``special_corollary`` has 2^n words on its left, so ``expand`` refuses
    it above the verification cap before building, unless overridden."""
    monkeypatch.delenv("WEYLSTIR_MAX_N", raising=False)
    argv = ("expand", "--template", "special_corollary", "--word", "1,0", "--format", "json")
    code, out, err = run(capsys, *argv, "--n", "11")
    assert (code, out) == (2, "")
    assert err == "error: --n 11 exceeds the cap 10 (override with WEYLSTIR_MAX_N)\n"
    code, out, _ = run(capsys, *argv, "--n", "10")
    assert code == 0 and json.loads(out)[0]["lhs"].count("+") == 2**10 - 1
    monkeypatch.setenv("WEYLSTIR_MAX_N", "11")
    code, out, _ = run(capsys, *argv, "--n", "11")
    assert code == 0 and json.loads(out)[0]["lhs"].count("+") == 2**11 - 1


def test_verify_counterexample_exit_one(capsys):
    """A deliberately false template drives the exit-1 contract."""
    broken = IdentityTemplate(
        id="selftest.broken",
        domain="WC",
        params=(),
        build=lambda p, n: [TemplateInstance(
            OperatorExpr.single(1, XPower(F(0))),
            OperatorExpr.single(2, XPower(F(0))),
        )],
        grid=lambda: [{}],
        uses_n=False,
    )
    TEMPLATES["selftest.broken"] = broken
    try:
        code, out, _ = run(capsys, "verify", "--template", "selftest.broken")
        assert code == 1
        assert "FAIL" in out
    finally:
        del TEMPLATES["selftest.broken"]


@pytest.mark.parametrize("argv", [
    ("verify", "--template", "normord", "--range", "3..1"),
    ("verify", "--template", "katriel.norm", "--n", "-3"),
    ("verify", "--template", "sampleappl", "--n", "0"),
    ("triangle", "--n", "-1"),
    ("conjecture", "--n", "-2"),
    ("conjecture", "--r-min", "5", "--r-max", "1"),
    ("conjecture", "--n", "200"),
    ("expand", "--template", "lah_triple", "--case", "5", "--n", "3"),
    ("expand", "--template", "difflr", "--m", "-1", "--n", "3"),
    ("verify", "--template", "lah_triple", "--range", "3..5"),
    ("verify", "--template", "s211_triple", "--range", "3..5"),
    ("verify", "--template", "difflr", "--range=-1..1"),
    ("verify", "--template", "cor1", "--range=-1..1"),
    ("verify", "--template", "powerful.main1a", "--range=-1..0"),
])
def test_vacuous_or_negative_runs_exit_two(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


# entries of these runs pass Python's 4 300-digit int-to-string limit at n = 24
_LONG_ALPHA = f"--alpha={10**200 + 7}/{10**200 + 9}"


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                    reason="no int-to-string digit limit before Python 3.10.7")
@pytest.mark.parametrize("argv", [
    *(("triangle", "--kind", "Shat", _LONG_ALPHA, "--n", "24", "--format", fmt)
      for fmt in ("json", "text", "csv", "latex")),
    ("expand", "--template", "katrielplus.norm", _LONG_ALPHA, "--n", "24"),
], ids=["triangle-json", "triangle-text", "triangle-csv", "triangle-latex", "expand"])
def test_an_entry_too_long_to_write_exits_two(capsys, argv):
    """An entry past the digit limit is a parameter error inside the --n cap."""
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1 and "4300" in err


def test_bad_max_n_environment_exits_two(capsys, monkeypatch):
    monkeypatch.setenv("WEYLSTIR_MAX_N", "abc")
    code, _, err = run(capsys, "triangle", "--n", "3")
    assert code == 2
    assert err == "error: WEYLSTIR_MAX_N is not an integer: 'abc'\n"


def test_verify_has_no_probe_option():
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--template", "katriel.norm", "--s", "0"])
    assert exc.value.code == 2


def test_verify_json_and_range(capsys):
    code, out, _ = run(capsys, "verify", "--template", "lah_triple",
                       "--range", "0..2", "--n", "4", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True
    assert payload["reports"][0]["template"] == "lah_triple"
    assert payload["reports"][0]["cells"] == 3
    assert payload["reports"][0]["action_probes"] == payload["reports"][0]["instances"]
    assert payload["reports"][0]["action_degree"] == 4


def _verify_json(capsys, *argv):
    """The JSON of a passing ``verify`` run, each report's seconds removed."""
    code, out, _ = run(capsys, "verify", "--format", "json", *argv)
    assert code == 0
    payload = json.loads(out)
    for report in payload["reports"]:
        seconds = report.pop("seconds")
        assert set(seconds) == {"build", "action", "strings"}
        assert all(v >= 0 for v in seconds.values())
    return payload


def test_verify_json_is_the_same_with_a_worker_pool(capsys):
    serial = _verify_json(capsys, "--template", "katriel", "--n", "4")
    pooled = _verify_json(capsys, "--template", "katriel", "--n", "4", "--parallel")
    # only a serial run can read the caches it used
    assert "caches" in serial and "caches" not in pooled
    serial.pop("caches")
    assert serial == pooled
    assert len(pooled["reports"]) == 4


def test_one_template_parallel_verify_runs_serially(capsys):
    serial = _verify_json(capsys, "--template", "powerful.main1a")
    single = _verify_json(capsys, "--template", "powerful.main1a", "--parallel")
    # one template is one job: no pool, so the caches are read (their
    # counts differ, as the first run warmed them)
    assert set(single.pop("caches")) == set(serial.pop("caches"))
    assert serial == single
    assert single["reports"][0]["cells"] == 256


def test_serial_verify_json_reports_the_channel_caches(capsys):
    code, out, _ = run(capsys, "verify", "--template", "katriel.norm", "--n", "3",
                       "--format", "json")
    assert code == 0
    caches = json.loads(out)["caches"]
    assert set(caches) == {"coefficient_rows", "normal_order"}
    for info in caches.values():
        assert set(info) == {"hits", "misses", "maxsize", "currsize"}
        assert info["hits"] + info["misses"] > 0
        assert 0 < info["currsize"] <= info["maxsize"]


def test_expand_coefficients(capsys):
    code, out, _ = run(capsys, "expand", "--template", "powerful.main1a",
                       "--word", "3,0", "--wordp", "2,0", "--n", "2")
    assert code == 0
    assert "coefficients for k = 0..2: [0, 1, 1]" in out


def test_expand_lah_case(capsys):
    code, out, _ = run(capsys, "expand", "--template", "cor1",
                       "--word", "1,1", "--n", "2", "--format", "latex")
    assert code == 0
    assert "coefficients for k = 0..2: [2, 4, 1]" in out
    assert "a†" in out


def test_expand_latex_keeps_x_style_for_non_natural_exponents(capsys):
    # a WC template whose instance has the exponents 3/2 on its right side
    code, out, _ = run(capsys, "expand", "--template", "otherpair.a",
                       "--word", "1,2", "--n", "3", "--format", "latex")
    assert code == 0
    assert out.splitlines()[1:] == [
        "  lhs: (x^1 D x^2)^1 + (x^2 D x^1)^1",
        "  rhs: 2 (x^3/2 D x^3/2)^1",
    ]


def test_expand_eulerian_instance(capsys):
    code, out, _ = run(capsys, "expand", "--template", "powerful2.2main1a",
                       "--word", "2,0", "--wordp", "3,0", "--n", "1",
                       "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload[0]["coefficients"] == ["0", "-2"]


def test_expand_rejects_fractional_word_for_natural_template(capsys):
    code, _, err = run(capsys, "expand", "--template", "cor1",
                       "--word", "1/2,1", "--n", "2")
    assert code == 2
    assert "natural" in err


def test_expand_missing_parameter(capsys):
    code, _, err = run(capsys, "expand", "--template", "cor1", "--n", "2")
    assert code == 2


@pytest.mark.parametrize("argv, message", [
    (("--template", "cor1"), "needs --word L,R"),
    (("--template", "powerful.main1a", "--word", "1,0"), "needs --wordp L,R"),
    (("--template", "major.1a"), "needs --alpha"),
    (("--template", "major.2a", "--alpha", "1"), "needs --r"),
    (("--template", "lah_triple"), "needs --case"),
    (("--template", "difflr"), "needs --m"),
])
def test_expand_names_the_missing_option(capsys, argv, message):
    code, out, err = run(capsys, "expand", *argv, "--n", "2")
    assert code == 2 and out == ""
    assert err == f"error: template {argv[1]!r} {message}\n"


@pytest.mark.parametrize("argv", [
    ("verify", "--template", "cor1", "--range=-1..1", "--n", "3"),
    ("verify", "--template", "powerful.main1a", "--range=-1..0", "--n", "2"),
    ("expand", "--template", "cor1", "--word=-1,1", "--n", "2"),
])
def test_out_of_domain_word_parameters_exit_two(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err == f"error: template {argv[2]!r}: L must be a natural number, got -1\n"


def test_expand_below_the_template_n_min_exits_two(capsys):
    code, out, err = run(capsys, "expand", "--template", "sampleappl", "--n", "0")
    assert code == 2 and out == ""
    assert err == "error: template 'sampleappl' requires n >= 1\n"


def test_expand_prints_the_label_of_each_instance(capsys):
    code, out, _ = run(capsys, "expand", "--template", "major.2a", "--alpha", "1/2",
                       "--r", "2", "--n", "3")
    assert code == 0
    heads = [line for line in out.splitlines() if not line.startswith(" ")]
    assert heads == [
        "major.2a [conjugated]  (n = 3, alpha=1/2, r=2)",
        "major.2a [direct]  (n = 3, alpha=1/2, r=2)",
    ]


@pytest.mark.parametrize("argv, message", [
    (("expand", "--template", "cor1", "--word", "1", "--n", "2"),
     "argument --word: expected 'L,R', got '1'"),
    (("verify", "--template", "ttv", "--range", "1-3"),
     "argument --range: expected 'a..b', got '1-3'"),
    (("verify", "--template", "ttv", "--range", "1..x"),
     "argument --range: expected integer bounds in '1..x'"),
], ids=["word", "range", "range-bounds"])
def test_malformed_word_and_range_exit_two(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    assert message in capsys.readouterr().err


def test_expand_ambiguous_prefix(capsys):
    code, _, err = run(capsys, "expand", "--template", "powerful", "--n", "1",
                       "--word", "1,0", "--wordp", "1,0")
    assert code == 2


def test_fixtures_exit_zero(capsys):
    code, out, _ = run(capsys, "fixtures")
    assert code == 0
    assert out.count("OK") == 7


def test_conjecture_runs_and_reports(capsys):
    code, out, _ = run(capsys, "conjecture", "--n", "5", "--r-min", "0",
                       "--r-max", "4")
    assert code == 0
    assert "mismatches (stated range):    0" in out


def test_conjecture_cap_follows_the_override(capsys, monkeypatch):
    monkeypatch.setenv("WEYLSTIR_MAX_N", "3")
    code, _, err = run(capsys, "conjecture", "--n", "4")
    assert code == 2 and "cap" in err
    code, out, _ = run(capsys, "conjecture", "--n", "3", "--r-min", "0", "--r-max", "0")
    assert code == 0
    assert "cells checked:                10" in out


def test_conjecture_json(capsys):
    code, out, _ = run(capsys, "conjecture", "--n", "4", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["mismatches_stated_range"] == 0
    assert payload["convention_sensitive_cells"] > 0


@pytest.mark.parametrize("argv, count", [
    (("verify", "--template", "firstmain.2a", "--range", "0..99"), 100000000),
    (("verify", "--all", "--range", "0..99"), 10000),
    (("conjecture", "--n", "64", "--r-min=-15", "--r-max", "15"), 66495),
], ids=["range", "all-range", "conjecture"])
def test_a_run_past_its_cell_bound_exits_two_naming_the_count(capsys, argv, count):
    """The size bounds of verify --range (4 096 cells per template) and
    conjecture (65 536 cells) are refused before any work, with the count."""
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert f" makes {count} cells, more than the bound " in err and err.count("\n") == 1


def test_the_conjecture_bound_admits_65536_cells_and_is_checked_first(capsys, monkeypatch):
    class Reached(Exception):
        pass

    def reached(**kwargs):
        raise Reached

    monkeypatch.setattr(cli, "conjecture_check", reached)
    with pytest.raises(Reached):  # one cell per r at n = 0
        main(["conjecture", "--n", "0", "--r-min", "1", "--r-max", "65536"])
    code, _, err = run(capsys, "conjecture", "--n", "0", "--r-min", "0", "--r-max", "65536")
    assert code == 2
    assert err == "error: r in [0, 65536] at n <= 0 makes 65537 cells, more than the bound 65536\n"


# sha256 of the conjecture outputs, taken before the checker summed in ints
_CONJECTURE_DIGESTS = {
    (): "8d0b9dc7aefac6995e0977861edc287ac9e943ccbe52d1ed0d29ae2b05275388",
    ("--format", "json"): "fca23bf1cb94299e3bc290a36cb95327111db90b53ac4fb94ccfd89d24ebf47c",
    ("--n", "30", "--r-min", "-6", "--r-max", "9", "--format", "json"):
        "45c84193631bbbaf4e4dbe411a5a209015b1d631d3c1f88e675e08956f297f02",
}


@pytest.mark.parametrize("argv", list(_CONJECTURE_DIGESTS), ids=["text", "json", "n30-json"])
def test_conjecture_output_is_pinned(capsys, argv):
    code, out, _ = run(capsys, "conjecture", *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == _CONJECTURE_DIGESTS[argv]


def test_symbolic_latex_braces_every_exponent(capsys):
    """LaTeX reads r^10 as r^1 0; the export writes r^{10}, the parameters
    as \\alpha and \\beta, and a product as a space."""
    code, out, _ = run(capsys, "triangle", "--symbolic", "--n", "10", "--format", "latex")
    assert code == 0
    assert "r^{10} - 45 \\alpha r^{9}" in out
    assert not re.search(r"\^(?!\{[0-9]+\})", out)  # no bare exponent is left
    assert "*" not in out and not re.search(r"(?<!\\)(alpha|beta)", out)


def test_verify_all_range_is_clipped_to_case_tables(capsys):
    code, out, _ = run(capsys, "verify", "--all", "--range", "0..3", "--n", "1",
                       "--format", "json")
    assert code == 0
    reports = {r["template"]: r for r in json.loads(out)["reports"]}
    assert len(reports) == 42
    assert reports["lah_triple"]["cells"] == 3
    assert reports["s211_triple"]["cells"] == 3
    assert reports["difflr"]["cells"] == 4


def test_python_dash_m_runs_the_command_line():
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-m", "weylstir", "verify", "--template", "ttv",
                           "--n", "2"], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0
    assert proc.stdout.startswith("ttv: PASS")
    proc = subprocess.run([sys.executable, "-m", "weylstir", "triangle", "--n", "-1"],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 2
    env.pop("WEYLSTIR_MAX_N", None)
    proc = subprocess.run([sys.executable, "-m", "weylstir", "triangle", "--n", "65"],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 2 and "exceeds the cap 64" in proc.stderr


@pytest.mark.parametrize("argv, code", [
    (("verify", "--template", "ttv", "--n", "2"), 0),
    (("triangle", "--n", "65"), 2),
], ids=["verify", "over-the-cap"])
def test_the_module_entry_point_exits_with_the_code_of_main(capsys, monkeypatch, argv, code):
    """``__main__.py`` run in process, as ``python -m weylstir`` runs it."""
    monkeypatch.delenv("WEYLSTIR_MAX_N", raising=False)
    monkeypatch.setattr(sys, "argv", ["weylstir", *argv])
    with pytest.raises(SystemExit) as info:
        runpy.run_module("weylstir", run_name="__main__")
    assert info.value.code == code
    out = capsys.readouterr()
    assert run(capsys, *argv) == (code, out.out, out.err)


def test_importing_the_command_line_leaves_multiprocessing_out():
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", "import sys, weylstir.cli; "
                           "print('multiprocessing' in sys.modules)"],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


def test_back_to_back_calls_print_what_separate_runs_print(capsys):
    # options given in one call must not carry over to the next
    argvs = [
        ("triangle", "--kind", "E", "--alpha", "1/2", "--r", "1", "--n", "4",
         "--format", "csv"),
        ("triangle", "--n", "3"),
        ("expand", "--template", "cor1", "--word", "1,2", "--n", "2"),
        ("verify", "--template", "ttv", "--n", "2"),
        ("triangle", "--n", "-1"),
        ("conjecture", "--n", "4", "--r-min", "0", "--r-max", "1", "--format", "json"),
        ("triangle", "--kind", "Shat", "--n", "3", "--format", "json"),
    ]
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=src)
    for argv in argvs:
        code, out, err = run(capsys, *argv)
        proc = subprocess.run([sys.executable, "-m", "weylstir", *argv],
                              capture_output=True, text=True, env=env, timeout=120)
        assert (code, out, err) == (proc.returncode, proc.stdout, proc.stderr), argv
