"""Benchmark entry point.

One measured run::

    python3 perfbench/run.py --workload catalog --seed 1 --seconds 30 --trace 0

runs repetitions of the workload, each in a fresh interpreter
(``perfbench/rep.py``), until ``--seconds`` have passed, checks every op
exactly and prints the metrics; the last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0``
the metrics are the end-to-end ones, measured untraced, and set-up-only
repetitions run between the others to time the set-up.  With ``--trace 1``
untraced and traced repetitions alternate and the metrics are the per-layer
ones.  The command exits 1 if any op failed or an exact counter did not
repeat.  Workloads, metric names and units are read from ``BENCHMARK.json``.

Every workload, both modes, one table::

    python3 perfbench/run.py --all [--seed 1] [--seconds 30]
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from rep import REF_PROBE_S, SETUP_PROBES, probe_times, reference_scale  # noqa: E402
from tracer import LAYERS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
STRING_LEN_BINS = (4, 8, 12, 16, 20, 24)  # boson.string_len_hist.leNN upper ends

MIN_REPS = 3  # untraced repetitions in a --trace 0 run
SETUPS_PER_REP = 3  # set-up-only repetitions before each of them
MIN_TRACED_REPS = 2  # of each kind in a --trace 1 run
DEADLINE_S = 170  # a run, repetitions included, ends within three minutes
TAIL_PERCENTILES = (99.9, 99, 95, 90, 75, 50)
TAIL_BEYOND = 10


class BenchError(Exception):
    """The benchmark itself could not produce a trustworthy result."""


# ---------------------------------------------------------------------------
# repetitions
# ---------------------------------------------------------------------------


def spawn(workload: str, seed: int, budget_s: float, *flags: str) -> tuple:
    """Run ``rep.py`` once; returns its result and the clock at the spawn."""
    cmd = [sys.executable, str(HERE / "rep.py"), "--workload", workload,
           "--seed", str(seed), *flags]
    spawned = time.perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(budget_s, 1.0))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"repetition exceeded the {DEADLINE_S} s deadline") from exc
    if proc.returncode != 0:
        raise BenchError(f"repetition exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), spawned


def time_setup(workload: str, seed: int, budget_s: float) -> tuple:
    """Seconds from the spawn of a set-up-only repetition to its first op
    (interpreter start, import, catalog construction, input generation):
    ``(raw, at the reference speed)``.  Both clocks are CLOCK_MONOTONIC.

    Set-up is scaled like the op latencies, by the median of the probes
    timed just before the spawn and just after the set-up.
    """
    before = probe_times(SETUP_PROBES)
    rep, spawned = spawn(workload, seed, budget_s, "--setup-only")
    raw = rep["first_op_clock"] - spawned
    return raw, raw * REF_PROBE_S / statistics.median(before + rep["probes_s"])


def collect(workload: str, seed: int, seconds: float, trace: bool):
    """Repetitions until ``seconds`` pass; returns (untraced, traced,
    set-up times).  The set-up-only repetitions run in an untraced run only,
    a few before each full repetition, so that they sample the whole run."""
    started = time.perf_counter()
    plain, traced, setups = [], [], []
    last_wall = {False: 0.0, True: 0.0}
    while True:
        elapsed = time.perf_counter() - started
        if trace:
            need = len(plain) < MIN_TRACED_REPS or len(traced) < MIN_TRACED_REPS
            kind = len(traced) < len(plain)
        else:
            need = len(plain) < MIN_REPS
            kind = False
        if not need and elapsed + last_wall[kind] > seconds:
            break
        t0 = time.perf_counter()
        if not trace:
            for _ in range(SETUPS_PER_REP):
                setups.append(time_setup(workload, seed, DEADLINE_S - (t0 - started)))
        budget = DEADLINE_S - (time.perf_counter() - started)
        rep, _ = spawn(workload, seed, budget, "--trace", str(int(kind)))
        last_wall[kind] = time.perf_counter() - t0
        (traced if kind else plain).append(rep)
    return plain, traced, setups


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def tail(values):
    """The highest listed percentile with at least ten values beyond it:
    ``(percentile, value, count beyond)``, interpolating linearly between
    the two nearest of the sorted ``values``."""
    n = len(values)
    for p in TAIL_PERCENTILES:
        h = p / 100 * (n - 1)
        lo = math.floor(h)
        beyond = n - 1 - math.ceil(h)
        if beyond >= TAIL_BEYOND or p == TAIL_PERCENTILES[-1]:
            hi = min(lo + 1, n - 1)
            return p, values[lo] + (h - lo) * (values[hi] - values[lo]), beyond


def op_latencies_ms(reps, scaled: bool = True) -> list:
    """Each op's latency at the reference machine speed, in ms: its median
    over the repetitions of ``latency * REF_PROBE_S / probe``, where
    ``probe`` is the mean of the probe times just before and after the op.
    With ``scaled=False``, the median of the raw latencies.

    The machine is shared, and its speed swings by up to a factor of two
    within a second; raw latencies of one seed spread by 30-40 % between
    runs.  The probe does fixed work that does not touch ``weylstir``, so a
    change to the library moves the op time and leaves the probe time alone.
    """
    per_rep = [scaled_latencies(r) if scaled else r["latencies_s"] for r in reps]
    return [1000 * statistics.median(col) for col in zip(*per_rep)]


def scaled_latencies(rep: dict) -> list:
    return [lat * f for lat, f in zip(rep["latencies_s"], reference_scale(rep["probes_s"]))]


def end_to_end(reps, setups) -> tuple:
    lat = sorted(op_latencies_ms(reps))
    raw = op_latencies_ms(reps, scaled=False)
    probe_median = statistics.median(p for r in reps for p in r["probes_s"])
    p, tail_ms, beyond = tail(lat)
    metrics = {
        "setup_s": statistics.median(s for _, s in setups),
        "ops_per_s": 1000 * len(lat) / sum(lat),
        "op_p50_ms": statistics.median(lat),
        "op_tail_ms": tail_ms,
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
    }
    notes = [
        f"op_tail_ms is p{p:g} of {len(lat)} ops ({beyond} beyond it); "
        f"each op's latency is its median of {len(reps)} repetitions, scaled to the "
        f"reference speed; median probe {1000 * probe_median:.4g} ms against "
        f"{1000 * REF_PROBE_S:g} ms",
        f"setup_s is the median of {len(setups)} set-up-only repetitions, scaled alike",
        # the scaled figures hide a change that slows the probe as much as
        # the ops; the raw ones show it, with the machine's noise
        f"unscaled: ops_per_s {1000 * len(raw) / sum(raw):.6g} 1/s, "
        f"op_p50_ms {statistics.median(raw):.6g} ms, "
        f"setup_s {statistics.median(s for s, _ in setups):.6g} s",
    ]
    return metrics, notes


def check_repeats(reps, key: str) -> None:
    first = reps[0][key]
    for r in reps[1:]:
        if r[key] != first:
            diff = sorted(k for k in set(first) | set(r[key]) if first.get(k) != r[key].get(k))
            raise BenchError(f"{key} differ between repetitions of one seed: {diff}")


def per_layer(plain, traced) -> dict:
    check_repeats(plain + traced, "counters")
    check_repeats(traced, "string_lengths")
    calls = {name: v[0] for name, v in traced[0]["spans"].items()}
    for r in traced[1:]:
        if {name: v[0] for name, v in r["spans"].items()} != calls:
            raise BenchError("span call counts differ between repetitions of one seed")
    self_s = {name: statistics.median(r["spans"][name][1] for r in traced) for name in calls}
    walls = [sum(v[1] for v in r["spans"].values()) for r in traced]
    for r, wall in zip(traced, walls):
        # the self times of all spans partition the root spans, one per op
        if abs(wall - r["root_s"]) > 1e-6 * r["root_s"]:
            raise BenchError(f"self times sum to {wall} s, the root spans to {r['root_s']} s")

    # a layer's total covers its categories: "triangles" sums "triangles.*"
    out = {}
    for group in set(calls) | set(LAYERS):
        members = [n for n in calls if n == group or n.startswith(group + ".")]
        out[f"{group}.calls"] = sum(calls[n] for n in members)
        out[f"{group}.self_s"] = sum(self_s[n] for n in members)

    counters = plain[0]["counters"]
    out.update(counters)
    lookups = counters["triangles.cache.hits"] + counters["triangles.cache.misses"]
    out["triangles.cache.hit_ratio"] = counters["triangles.cache.hits"] / lookups if lookups else 0.0

    lengths = {int(k): v for k, v in traced[0]["string_lengths"].items()}
    out["boson.string_letters"] = sum(k * v for k, v in lengths.items())
    low = -1
    for b in STRING_LEN_BINS:
        out[f"boson.string_len_hist.le{b:02d}"] = sum(v for k, v in lengths.items() if low < k <= b)
        low = b

    untraced_wall = statistics.median(sum(scaled_latencies(r)) for r in plain)
    out["process.cpu_s"] = statistics.median(r["cpu_s"] for r in plain)
    out["trace.wall_s"] = statistics.median(walls)
    out["trace.untraced_wall_s"] = untraced_wall
    out["trace.overhead_ratio"] = out["trace.wall_s"] / untraced_wall
    out["trace.spans"] = traced[0]["span_count"]
    return {m["name"]: out.get(m["name"], 0) for m in SPEC["per_layer"]}


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """One run: the result object plus human-readable notes."""
    if not (ROOT / "src" / "weylstir" / "__init__.py").is_file():
        raise BenchError(f"no weylstir sources under {ROOT / 'src'}")
    plain, traced, setups = collect(workload, seed, seconds, trace)
    reps = plain + traced
    attempted = sum(len(r["latencies_s"]) for r in reps)
    failed = sum(len(r["failed"]) for r in reps)
    notes = [f"{workload} seed={seed}: {len(plain)} untraced + {len(traced)} traced "
             f"repetitions, {attempted} ops attempted, {failed} failed"]
    for r in reps:
        notes.extend(f"FAILED {msg}" for msg in r["failures"])
    if trace:
        values = per_layer(plain, traced)
    else:
        check_repeats(plain, "counters")
        values, more = end_to_end(plain, setups)
        notes.extend(more)
    metrics = {name: {"value": v, "unit": UNITS[name]} for name, v in values.items()}
    return {
        "result": {"correct": failed == 0, "attempted": attempted, "failed": failed,
                   "metrics": metrics},
        "notes": notes,
        "fail_ratio": failed / attempted,
    }


# ---------------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------------


def print_table(rows) -> None:
    better = {m["name"]: m["better"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
    better["fail_ratio"] = "lower"
    print(f"{'workload':9s} {'metric':34s} {'value':>16s} {'unit':6s} better")
    for workload, name, value, unit in rows:
        shown = f"{value:.6g}" if isinstance(value, float) else str(value)
        print(f"{workload:9s} {name:34s} {shown:>16s} {unit:6s} {better[name]}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="weylstir benchmark")
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true",
                        help="every workload, end-to-end and per-layer, as one table")
    args = parser.parse_args(argv)
    if not args.all and args.workload is None:
        parser.error("pass --workload NAME or --all")

    try:
        if not args.all:
            run = measure(args.workload, args.seed, args.seconds, bool(args.trace))
            for line in run["notes"]:
                print(line)
            print(f"fail_ratio {run['fail_ratio']:.6g} ratio")
            print(json.dumps(run["result"]))
            return 0 if run["result"]["correct"] else 1

        rows, ok = [], True
        for workload in WORKLOADS:
            for trace in (False, True):
                run = measure(workload, args.seed, args.seconds, trace)
                ok = ok and run["result"]["correct"]
                for line in run["notes"]:
                    print(line, file=sys.stderr)
                if not trace:
                    rows.append((workload, "fail_ratio", run["fail_ratio"], "ratio"))
                rows.extend((workload, name, m["value"], m["unit"])
                            for name, m in run["result"]["metrics"].items())
        print_table(rows)
        return 0 if ok else 1
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
