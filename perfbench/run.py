"""Benchmark of the kaenmaki report, Monte Carlo, export and verify paths.

    python3 perfbench/run.py --workload report-sweep --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the program is imported from its
``src/``.  One process, one operation at a time (a closed loop with a single
client).  The run repeats whole rounds of the workload's operation list until
the next round would end past ``--seconds``, with at least two rounds, and
prints one JSON object as its last line: ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` alternates untraced and traced rounds and reports the
per-layer metrics from the traced ones, with the tracing overhead.

Times are wall times at a reference machine speed.  The speed of a shared
host can drift by +-20% over tens of seconds, for Python and numpy code
alike, so a fixed calibration task is timed around and during every timed
interval, and the interval is scaled by CAL_REF_S over the task's median
time.  The unscaled figures go to standard error.
"""

from __future__ import annotations

import argparse
import json
import mmap
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPEATS = 7
CAL_REF_S = 3.0e-3  # calibration task time that defines the reference speed
PROBE_PERIOD_S = 0.2

END_TO_END = [("setup_s", "s"), ("op_p50_ms", "ms"), ("ops_per_s", "op/s"),
              ("peak_rss_mb", "MB")]

# (metric, unit): <module>.<function>.<quantity>, each a mean per traced operation
PER_LAYER = [
    ("thermo.affinity_dimension_detail.calls", "count/op"),
    ("thermo.affinity_dimension_detail.evals", "count/op"),
    ("thermo.affinity_dimension_detail.ms", "ms/op"),
    ("thermo.gibbs_markov.misses", "count/op"),
    ("thermo.gibbs_markov.ms", "ms/op"),
    ("thermo.pressure.ms", "ms/op"),
    ("thermo.convergence_failures", "count/op"),
    ("dimension.dimension_report.self_ms", "ms/op"),
    ("dimension.projected_dimension.ms", "ms/op"),
    ("ifs.parse_ifs.ms", "ms/op"),
    ("ifs.check_strong_separation.ms", "ms/op"),
    ("coding.product_signature.calls", "count/op"),
    ("coding.product_signature.ms", "ms/op"),
    ("coding.encode_tau.calls", "count/op"),
    ("coding.encode_tau.ms", "ms/op"),
    ("cli.main.self_ms", "ms/op"),
    ("thermo.level_log_measures.words", "count/op"),
    ("thermo.level_log_measures.ms", "ms/op"),
    ("thermo.submultiplicativity_check.ms", "ms/op"),
    ("sampling.strip_measure_oracle.ms", "ms/op"),
    ("sampling.strip_reverse_oracle.ms", "ms/op"),
    ("sampling.sample_symbolic.self_ms", "ms/op"),
    ("sampling.sample_symbolic.draws", "count/op"),
    ("coding.signature_arrays.ms", "ms/op"),
    ("sampling.estimate_local_dimension.ms", "ms/op"),
    ("sampling.estimate_projected_dim.ms", "ms/op"),
    ("sampling.box_count.ms", "ms/op"),
    ("sampling.write_csv.ms", "ms/op"),
    ("sampling.write_csv.bytes", "B/op"),
    ("sampling.render_attractor.ms", "ms/op"),
    ("trace.overhead_ratio", "ratio"),
]

SETUP_CODE = """
import sys
sys.path.insert(0, sys.argv[1])
import kaenmaki, kaenmaki.cli
for path in sys.argv[2:]:
    with open(path) as fh:
        kaenmaki.parse_ifs(fh.read())
"""


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def calibrate() -> float:
    """Wall time of the calibration task.

    A pure-Python loop, then 1 MB of fresh anonymous pages filled and summed:
    interpreter work, page faults and memory traffic, the kinds of work whose
    speed the host moves.  The pages come from mmap, not from the heap, so
    the task does not depend on what the program allocated before it.
    """
    t0 = time.perf_counter()
    acc = 0
    for i in range(20_000):
        acc += i * i % 7
    with mmap.mmap(-1, 1 << 20) as buf:
        pages = np.frombuffer(buf, dtype=np.float64)
        pages.fill(1.0)
        pages.sum()
        del pages  # release the buffer before the mapping closes
    return time.perf_counter() - t0


def timed(fn, expected=()):
    """Run fn; return (result, expected exception or None, wall s, reference s).

    The calibration task runs right before and right after fn, and every
    PROBE_PERIOD_S while fn runs, from a SIGALRM handler whose own time is
    taken out of the wall time.  The reference time is the wall time scaled
    by CAL_REF_S over the median task time.
    """
    samples = [calibrate()]

    def probe(signum, frame):
        samples.append(calibrate())

    previous = signal.signal(signal.SIGALRM, probe)
    signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
    t0 = time.perf_counter()
    try:
        result, exc = fn(), None
    except expected as e:
        result, exc = None, e
    finally:
        wall = time.perf_counter() - t0
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)
    wall -= sum(samples[1:])
    samples.append(calibrate())
    return result, exc, wall, wall * CAL_REF_S / statistics.median(samples)


def measure_setup(paths) -> tuple[float, float]:
    """Median (wall, reference) time of fresh interpreters importing and parsing."""
    argv = [sys.executable, "-c", SETUP_CODE, str(SRC), *paths]
    runs = [timed(lambda: subprocess.run(argv, check=True, cwd=ROOT))
            for _ in range(SETUP_REPEATS)]
    return statistics.median(r[2] for r in runs), statistics.median(r[3] for r in runs)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (SRC / "kaenmaki" / "__init__.py").is_file():
        return fail(f"no program source under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import kaenmaki
    import kaenmaki.cli as cli
    from kaenmaki import coding, thermo
    from kaenmaki.errors import ConvergenceFailure
    if Path(kaenmaki.__file__).resolve().parent != (SRC / "kaenmaki").resolve():
        return fail(f"imported kaenmaki from {kaenmaki.__file__}, not from {SRC}")

    # One core for the whole run, set-up interpreters included, so that the
    # calibration task always measures the core the timed work runs on.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

    import oracle
    import spans
    import workloads
    if args.workload not in workloads.WORKLOADS:
        return fail(f"unknown workload {args.workload!r}; "
                    f"choose from {', '.join(workloads.WORKLOADS)}")

    oracle.self_check()
    OUT.mkdir(exist_ok=True)
    wl = workloads.WORKLOADS[args.workload](args.seed, OUT)
    for _ in range(5):
        calibrate()
    setup = None if args.trace else measure_setup(wl.config_paths())

    # Each operation starts with every lru_cache empty, as in a fresh CLI process.
    caches = [thermo.gibbs_markov, thermo.kaenmaki_measure, coding.transition_matrix]
    warmup = OUT / "warmup.json"
    warmup.write_text(json.dumps(workloads.EX1))
    workloads.run_cli(cli, ["report", "--spec", str(warmup), "--output", "json"])

    recorder = spans.Recorder()
    walls, refs, scale_of_op = [], [], {}
    round_walls = {False: [], True: []}
    round_refs = {False: [], True: []}
    attempted = failed = passed = misses = 0
    errors, first_digest = [], {}
    start = time.perf_counter()
    rounds = 0
    while rounds < 2 or (time.perf_counter() - start) + statistics.mean(
            round_walls[False] + round_walls[True]) <= args.seconds:
        traced = bool(args.trace and rounds % 2)
        restore = recorder.install(kaenmaki, ConvergenceFailure) if traced else None
        round_wall = round_ref = 0.0
        for i, op in enumerate(wl.ops):
            for cache in caches:
                cache.cache_clear()
            recorder.op = attempted
            result, exc, wall, ref = timed(lambda: wl.execute(cli, kaenmaki, op),
                                           workloads.OpFailed)
            scale_of_op[attempted] = ref / wall
            attempted += 1
            walls.append(wall)
            refs.append(ref)
            round_wall += wall
            round_ref += ref
            if traced:
                misses += caches[0].cache_info().misses
            if exc is not None:
                failed += 1
                if rounds == 0:
                    print(f"op {i} ({Path(op['path']).name}) failed: {exc}", file=sys.stderr)
                continue
            if i not in first_digest:
                op_errors = wl.check(op, result)
                first_digest[i] = wl.digest(result)
            else:
                op_errors = ([] if wl.digest(result) == first_digest[i]
                             else ["output differs from the first round"])
            errors.extend(f"op {i} ({Path(op['path']).name}): {e}" for e in op_errors)
            passed += not op_errors
            del result
        if restore:
            restore()
        round_walls[traced].append(round_wall)
        round_refs[traced].append(round_ref)
        rounds += 1

    for line in errors[:20]:
        print(f"check failed: {line}", file=sys.stderr)
    print(f"{args.workload}: {rounds} rounds of {len(wl.ops)} operations; unscaled: "
          f"op_p50 {statistics.median(walls) * 1e3:.3f} ms, {passed / sum(walls):.4f} op/s"
          + (f", setup {setup[0]:.4f} s" if setup else ""), file=sys.stderr)

    if args.trace:
        traced_ops = attempted * len(round_refs[True]) // rounds
        calls, incl, own = recorder.totals(scale_of_op)
        values = {"trace.overhead_ratio": statistics.mean(round_refs[True])
                  / statistics.mean(round_refs[False]),
                  "thermo.gibbs_markov.misses": misses / traced_ops}
        for name, _ in PER_LAYER:
            if name in values:
                continue
            fn, _, quantity = name.rpartition(".")
            if quantity == "ms":
                values[name] = incl.get(fn, 0) / 1e6 / traced_ops
            elif quantity == "self_ms":
                values[name] = own.get(fn, 0) / 1e6 / traced_ops
            elif quantity == "calls":
                values[name] = calls.get(fn, 0) / traced_ops
            else:
                values[name] = recorder.counts.get(name, 0) / traced_ops
        recorder.write(OUT / f"spans-{args.workload}-{args.seed}.jsonl")
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}
    else:
        values = {
            "setup_s": setup[1],
            "op_p50_ms": statistics.median(refs) * 1e3,
            "ops_per_s": passed / sum(refs),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}

    print(json.dumps({"correct": not errors, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
