"""Embedded reference rows regenerate from the recurrence."""

from dataclasses import replace

from weylstir import cli
from weylstir.fixtures import FIXTURES, check_fixture, fixture_triangle


def test_fixture_set():
    assert set(FIXTURES) == {
        "A008277", "A132393", "A271703", "A122848", "A132062", "A173018", "A060187",
    }


def test_every_fixture_regenerates():
    for oeis in FIXTURES:
        ok, diffs = check_fixture(oeis)
        assert ok, diffs


def test_apex_rows():
    for oeis in FIXTURES:
        assert FIXTURES[oeis].rows[0] == (1,)


def test_quoted_rows():
    assert FIXTURES["A271703"].rows[3] == (0, 6, 6, 1)
    assert FIXTURES["A173018"].rows[4][:4] == (1, 11, 11, 1)
    assert FIXTURES["A060187"].rows[3] == (1, 23, 23, 1)
    assert FIXTURES["A132062"].rows[5] == (0, 105, 105, 45, 10, 1)


def test_fixture_triangle_wrapper():
    tri = fixture_triangle("A008277")
    assert tri.kind == "S"
    assert tri.entry(5, 2) == 15
    tri.validate()


def test_a_wrong_fixture_is_reported_and_fails_the_cli(monkeypatch, capsys):
    """A frozen row that the recurrence does not regenerate is a
    counterexample: ``check_fixture`` diffs it and ``weylstir fixtures``
    prints the diff and exits 1."""
    fx = FIXTURES["A008277"]
    wrong = fx.rows[:3] + ((0, 1, 3, 2),) + fx.rows[4:]
    monkeypatch.setitem(FIXTURES, "A008277", replace(fx, rows=wrong))
    diff = "A008277 row 3: frozen [0, 1, 3, 2] != [0, 1, 3, 1]"
    assert check_fixture("A008277") == (False, [diff])
    assert cli.main(["fixtures"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert "A008277 (subset-counting triangle): MISMATCH" in lines
    assert sum(line.endswith(": OK") for line in lines) == len(FIXTURES) - 1
    assert lines[-1] == "  " + diff
