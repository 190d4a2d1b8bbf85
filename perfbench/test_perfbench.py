"""Tests of the benchmark itself: ``python3 -m pytest perfbench -q``."""

from __future__ import annotations

import dataclasses
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import rep  # noqa: E402

rep.import_library()

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, load_spans  # noqa: E402
from weylstir import identities  # noqa: E402
from weylstir.operators import OperatorExpr  # noqa: E402


def _rep(workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "rep.py"), "--workload", workload, "--seed", str(seed)],
        capture_output=True, text=True, check=True, timeout=170,
    )
    return json.loads(proc.stdout.splitlines()[-1])


# -- seeds --------------------------------------------------------------------


@pytest.mark.parametrize("workload", sorted(workloads.OPS))
def test_same_seed_gives_identical_inputs_and_counters(workload):
    assert workloads.describe_inputs(workload, 11) == workloads.describe_inputs(workload, 11)
    first, second = _rep(workload, 11), _rep(workload, 11)
    assert first["labels"] == second["labels"]
    assert first["counters"] == second["counters"]
    assert not first["failed"]


@pytest.mark.parametrize("workload", sorted(workloads.OPS))
def test_different_seed_changes_inputs(workload):
    assert workloads.describe_inputs(workload, 1) != workloads.describe_inputs(workload, 2)


# -- tracing ------------------------------------------------------------------


def test_self_time_of_nested_calls(tmp_path):
    now = [0.0]
    tracer = Tracer(clock=lambda: now[0])

    def leaf():
        now[0] += 4

    def inner():
        now[0] += 3
        traced_leaf()

    def outer():
        now[0] += 1
        traced_inner()
        traced_leaf()
        now[0] += 2

    traced_leaf = tracer.wrap(leaf, "leaf")
    traced_inner = tracer.wrap(inner, "inner")
    with tracer.span("root"):
        now[0] += 0.5
        tracer.wrap(outer, "outer")()

    summary = tracer.summary()
    assert summary == {"root": (1, 0.5), "outer": (1, 3.0), "inner": (1, 3.0), "leaf": (2, 8.0)}
    assert sum(s for _, s in summary.values()) == tracer.end[0] - tracer.start[0] == 14.5

    with tracer.span("root"):
        tracer.wrap(outer, "outer")()
    assert tracer.summary(scale=[1.0, 0.5])["leaf"] == (4, 12.0)

    tracer.write(tmp_path / "toy.spans")
    names, arrays = load_spans(tmp_path / "toy.spans")
    assert [names[i] for i in arrays["name"]][:5] == ["root", "outer", "inner", "leaf", "leaf"]
    assert list(arrays["parent"]) == [-1, 0, 1, 2, 1, -1, 5, 6, 7, 6]


def test_install_patches_names_where_callers_look_them_up():
    original = identities.build_recurrence
    tracer = Tracer()
    tracer.install()
    try:
        assert identities.build_recurrence is not original
        report = identities.verify_identity(identities.TEMPLATES["katriel.norm"], n_max=3)
    finally:
        tracer.uninstall()
    assert identities.build_recurrence is original
    assert report.ok
    summary = tracer.summary()
    assert summary["identities.build"][0] == 4  # n = 0..3
    assert summary["triangles.recurrence"][0] == 10  # one per coefficient
    assert summary["boson.normal_order"][0] > 0
    assert sum(tracer.string_lengths.values()) == summary["boson.normal_order"][0]


# -- correctness gate -----------------------------------------------------------


def _wrong_coefficient_template():
    good = identities.TEMPLATES["katriel.norm"]

    def build(cell, n):
        insts = good.build(cell, n)
        if n < 3:
            return insts
        (inst,) = insts
        terms = [(c + (1 if i == 1 else 0), f) for i, (c, f) in enumerate(inst.rhs.terms)]
        return [dataclasses.replace(inst, rhs=OperatorExpr(terms))]

    return dataclasses.replace(good, id="fake.wrong_coefficient", build=build)


def test_wrong_coefficient_raising_and_vacuous_ops_fail():
    fake = _wrong_coefficient_template()
    ops = [
        workloads.Op("genuine", lambda: workloads.verify_cell(identities.TEMPLATES["ttv"], {})),
        workloads.Op("wrong coefficient", lambda: workloads.verify_cell(fake, {})),
        workloads.Op("raises", lambda: 1 / 0),
        workloads.Op("vacuous", lambda: workloads.Outcome(ok=True, certified=0)),
    ]
    _, probes, outcomes, failures = rep.run_ops(ops, rep.probe)
    assert len(probes) == len(ops) + 1
    assert [rep.is_failure(o) for o in outcomes] == [False, True, True, True]
    assert len(failures) == 3


def test_failed_op_makes_the_run_exit_nonzero(monkeypatch, capsys):
    fake_rep = {"setup_s": 0.1, "timed_wall_s": 1.0, "cpu_s": 1.0, "peak_rss_mb": 30.0,
                "latencies_s": [0.1] * 4, "probes_s": [0.0005] * 5, "failed": [2], "failures": ["op 2: check failed"],
                "counters": {"triangles.cache.hits": 0}}
    monkeypatch.setattr(run, "collect", lambda *a: ([fake_rep] * 3, [], [(0.2, 0.1)] * 9))
    code = run.main(["--workload", "catalog", "--seconds", "1"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert result["correct"] is False
    assert (result["attempted"], result["failed"]) == (12, 3)


def test_tail_percentile_keeps_ten_samples_beyond():
    assert run.tail(list(range(244)))[::2] == (95, 12)
    assert run.tail(list(range(61)))[::2] == (75, 15)
    p, value, beyond = run.tail([float(v) for v in range(51)])
    assert (p, value, beyond) == (75, 37.5, 12)


# -- the benchmark definition --------------------------------------------------


def test_benchmark_json_is_valid():
    spec = run.SPEC
    name = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"] + spec["workloads"]]
    assert all(name.match(n) for n in names) and len(set(names)) == len(names)
    assert all(len(w["why"]) <= 200 for w in spec["workloads"])
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    assert max(spec["end_to_end"], key=lambda m: m["bound"])["name"] == "setup_s"
    assert sorted(run.WORKLOADS) == sorted(workloads.OPS)
    hist = [n for n in names if n.startswith("boson.string_len_hist.")]
    assert hist == [f"boson.string_len_hist.le{b:02d}" for b in run.STRING_LEN_BINS]


def test_fails_without_the_library(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
