"""One repetition of a workload, in a fresh interpreter.

Usage: ``python3 perfbench/rep.py --workload NAME --seed N --trace 0|1 [--setup-only]``

Imports ``weylstir`` from the checkout's ``src/`` (the library's caches
start empty, as for a CLI user), generates the workload's inputs from the
seed, runs every op once and prints one JSON object: the clock reading at the
first op, the timed wall and CPU seconds, the peak RSS, each op's latency and
failure, the probe times around the ops, the exact work counters and, when
traced, each span's calls and self time.  With ``--setup-only`` it stops
after the inputs are made and prints only the clock reading at that point
and one probe time.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from collections import Counter
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPAN_DIR = ROOT / ".perfbench_out"
# the probe's time on an unloaded vCPU of the 2-vCPU Xeon (2.0 GHz) machine the
# benchmark was defined on; op and layer times are reported at that speed
REF_PROBE_S = 0.0005
# probes timed around a set-up-only repetition, on each side
SETUP_PROBES = 9


def import_library():
    """Import ``weylstir`` from this checkout's ``src/`` and nowhere else."""
    if not (SRC / "weylstir" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no weylstir sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import weylstir

    if Path(weylstir.__file__).resolve().parent != SRC / "weylstir":
        raise SystemExit(f"perfbench: imported weylstir from {weylstir.__file__}")
    return weylstir


def is_failure(outcome) -> bool:
    """An op fails if its exact check disagrees or it certified nothing."""
    return outcome is None or not outcome.ok or outcome.certified <= 0


def probe():
    """Fixed interpreter work, independent of ``weylstir``, timed between
    ops to follow how fast the shared machine runs at that moment."""
    total = Fraction(0)
    table = {}
    for i in range(1, 200):
        total += Fraction(i % 7 + 1, i % 13 + 1)
        key = (i % 5, i % 3)
        table[key] = table.get(key, 0) + i
    return total, table


def probe_times(count: int, clock=time.perf_counter) -> list:
    """``count`` probe times in a row, in seconds."""
    times = []
    for _ in range(count):
        t0 = clock()
        probe()
        times.append(clock() - t0)
    return times


def reference_scale(probes):
    """Per op, the factor that takes its time to the reference speed: the
    reference probe time over the mean of the probe times around the op."""
    return [2 * REF_PROBE_S / (probes[i] + probes[i + 1]) for i in range(len(probes) - 1)]


def run_ops(ops, probe=None, around=None, clock=time.perf_counter):
    """Run each op once; an exception fails that op and the run goes on.

    Returns ``(latencies, probe times, outcomes, failure messages)``, times
    in seconds, with ``None`` as the outcome of an op that raised.  When a
    probe is given it is timed before each op and after the last one.
    ``around``, when given, makes the context each op runs in (the tracer's
    root span), so that the probes stay outside it.
    """
    latencies, probes, outcomes, failures = [], [], [], []

    def time_probe():
        if probe is not None:
            t0 = clock()
            probe()
            probes.append(clock() - t0)

    for op in ops:
        time_probe()
        t0 = clock()
        try:
            if around is None:
                outcome = op.run()
            else:
                with around():
                    outcome = op.run()
        except Exception:  # an op that raises is a failed op, not a crash
            outcome = None
            failures.append(f"{op.label}: {traceback.format_exc(limit=3).strip()}")
        latencies.append(clock() - t0)
        outcomes.append(outcome)
        if outcome is not None and is_failure(outcome):
            failures.append(f"{op.label}: check failed (certified {outcome.certified})")
    time_probe()
    return latencies, probes, outcomes, failures


def entry_bits(triangles) -> int:
    """Numerator plus denominator bit lengths over every entry."""
    return sum(
        v.numerator.bit_length() + v.denominator.bit_length()
        for t in triangles
        for row in t.rows
        for v in row
    )


def counters(outcomes, cache_before, cache_after) -> dict:
    """Exact work counts of one repetition; they repeat for a given seed."""
    totals = Counter()
    triangles = []
    for out in outcomes:
        if out is not None:
            totals.update(out.counts)
            triangles.extend(out.triangles)
    totals["triangles.cells"] = sum(len(row) for t in triangles for row in t.rows)
    totals["triangles.entry_bits"] = entry_bits(triangles)
    totals["triangles.cache.hits"] = cache_after.hits - cache_before.hits
    totals["triangles.cache.misses"] = cache_after.misses - cache_before.misses
    return dict(sorted(totals.items()))


def prepare(workload: str, seed: int):
    """The set-up a user's process does before the first op: import the
    library (which builds the ``TEMPLATES`` catalog) and make the inputs."""
    import_library()
    sys.path.insert(0, str(HERE))
    import tracer  # noqa: F401  (so that traced and untraced set-up are alike)
    import workloads

    return workloads.OPS[workload](seed)


def setup_only(workload: str, seed: int) -> dict:
    prepare(workload, seed)
    ready = time.perf_counter()
    return {"first_op_clock": ready, "probes_s": probe_times(SETUP_PROBES)}


def repetition(workload: str, seed: int, trace: bool) -> dict:
    ops = prepare(workload, seed)
    import weylstir.triangles as tri
    from tracer import ROOT as ROOT_SPAN, Tracer

    tracer = Tracer() if trace else None
    if tracer is not None:
        tracer.install()
    cache_before = tri._recurrence_rows_cached.cache_info()
    cpu0 = time.process_time()
    first_op = time.perf_counter()
    around = None if tracer is None else (lambda: tracer.span(ROOT_SPAN))
    latencies, probes, outcomes, failures = run_ops(ops, probe, around)
    if tracer is not None:
        tracer.uninstall()
    timed_wall = time.perf_counter() - first_op
    cpu = time.process_time() - cpu0
    cache_after = tri._recurrence_rows_cached.cache_info()
    result = {
        "first_op_clock": first_op,
        "timed_wall_s": timed_wall,
        "cpu_s": cpu,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "labels": [op.label for op in ops],
        "latencies_s": latencies,
        "probes_s": probes,
        "failed": [i for i, out in enumerate(outcomes) if is_failure(out)],
        "failures": failures[:20],
        "counters": counters(outcomes, cache_before, cache_after),
    }
    if tracer is not None:
        scale = reference_scale(probes)
        result["spans"] = {k: list(v) for k, v in tracer.summary(scale).items()}
        result["root_s"] = tracer.root_time(scale)
        result["span_count"] = len(tracer)
        result["string_lengths"] = {str(k): v for k, v in sorted(tracer.string_lengths.items())}
        SPAN_DIR.mkdir(exist_ok=True)
        tracer.write(SPAN_DIR / f"{workload}.spans")
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    if args.setup_only:
        print(json.dumps(setup_only(args.workload, args.seed)))
    else:
        print(json.dumps(repetition(args.workload, args.seed, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
