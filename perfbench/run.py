"""poislin benchmark: one workload, one run, one JSON line.

    python3 perfbench/run.py --workload batch-warm|cli-cold|cohomology \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout; poislin is imported from ./src.  The run
sets up several times and reports the median set-up time, then runs whole
rounds of the workload's operations until S seconds have passed, then checks
every output (see checks.py).  The last line of standard output is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics for --trace 0 and the per-layer metrics for
--trace 1.  A traced run alternates untraced and traced rounds and reports
the difference of their mean op times as the tracing overhead.  Times are
calibrated against a reference computation (see REFERENCE_S below).  The raw
per-op times, set-up times, reference samples and span totals go to
perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

WORKLOADS = ("batch-warm", "cli-cold", "cohomology")
SETUP_MIN_REPEATS = 3
SETUP_MAX_REPEATS = 15
SETUP_BUDGET_S = 1.0     # short set-ups repeat until this much time is spent

# The machines this runs on share cores with other work, and a core's speed
# drifts by tens of percent within seconds.  Every time is therefore
# calibrated: the run pins itself and its children to the core it starts on,
# times a fixed reference computation just before each set-up step and each
# op, and multiplies the step or op time by REFERENCE_S over that reference
# time.  A figure is thus in seconds on a core where the reference takes
# REFERENCE_S, about its time on an idle core here.  Raw wall times and
# reference samples go to the raw output file.
REFERENCE_S = 0.0065
_REFERENCE_VALUES = [Fraction(3 * i + 1, 7 * i + 2) for i in range(64)]


def reference_seconds() -> float:
    """Best of three timings of a fixed computation in the style of
    poislin's inner loops (rational products accumulated in a dict).  It
    shares no code with poislin, so a change to poislin cannot move it; the
    best of three drops a first pass slowed by caches another process left
    cold."""
    best = None
    for _ in range(3):
        start = perf_counter()
        acc = {}
        for rep in range(6):
            for i, a in enumerate(_REFERENCE_VALUES):
                for b in _REFERENCE_VALUES[i::9]:
                    key = (i * 31 + rep) % 17
                    acc[key] = acc.get(key, 0) + a * b
        elapsed = perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
    return best


def calibrated(times: list, references: list) -> list:
    """Each time scaled by REFERENCE_S over the reference timed before it."""
    return [t * REFERENCE_S / ref for t, ref in zip(times, references)]


def pin_to_current_core() -> None:
    """Keep this process and its children on the core it runs on now, so the
    reference samples and the work they calibrate see the same core."""
    try:
        with open("/proc/self/stat", encoding="ascii") as handle:
            core = int(handle.read().rsplit(")", 1)[1].split()[36])
        os.sched_setaffinity(0, {core})
    except (OSError, AttributeError, ValueError, IndexError):
        pass   # not Linux, or not allowed: run unpinned


def timed_setup(workload) -> tuple[list, list]:
    """Run one set-up; its generator yields between steps, and each step is
    timed after a reference sample.  Returns (step times, references)."""
    times, references = [], []
    steps = workload.setup()
    while True:
        references.append(reference_seconds())
        start = perf_counter()
        done = next(steps, StopIteration) is StopIteration
        times.append(perf_counter() - start)
        if done:
            return times, references


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _make_workload(name: str, seed: int, workdir: Path):
    import workloads

    if name == "batch-warm":
        return workloads.BatchWarm(seed)
    if name == "cli-cold":
        return workloads.CliCold(seed, workdir)
    return workloads.Cohomology(seed)


def run(name: str, seed: int, seconds: float, trace: bool, workdir: Path) -> dict:
    import tracer as tracing
    from workloads import reset_caches

    pin_to_current_core()
    workload = _make_workload(name, seed, workdir)
    in_process = name != "cli-cold"
    setup_times = []         # raw seconds of each whole set-up
    setups = []              # calibrated seconds of each whole set-up
    setup_steps = []         # (step seconds, reference seconds) of every step
    while len(setup_times) < SETUP_MIN_REPEATS or (
            sum(setup_times) < SETUP_BUDGET_S and len(setup_times) < SETUP_MAX_REPEATS):
        reset_caches()
        steps, refs = timed_setup(workload)
        setup_times.append(sum(steps))
        setups.append(sum(calibrated(steps, refs)))
        setup_steps.extend(zip(steps, refs))

    tracer = tracing.Tracer()
    ops = workload.round_ops()
    op_times = []            # (seconds, traced, op index, reference seconds)
    first = {}               # op index -> record from the first round
    errors = []              # ops that raised
    mismatches = []          # outputs that differ from the first round's
    attempted = failed = rounds = 0
    start = perf_counter()
    while True:
        traced_round = trace and rounds % 2 == 1
        workload.before_round()
        if traced_round and in_process:
            tracer.install()
        try:
            for index, op in enumerate(ops):
                attempted += 1
                ref = reference_seconds()
                began = perf_counter()
                try:
                    out = workload.run_op(op, traced_round)
                except Exception as exc:   # an op that raises counts as failed
                    failed += 1
                    errors.append(f"round {rounds} op {index}: {type(exc).__name__}: {exc}")
                    continue
                op_times.append((perf_counter() - began, traced_round, index, ref))
                record = workload.record(op, out)
                if index not in first:
                    first[index] = record
                elif record != first[index]:
                    mismatches.append(f"round {rounds} op {index}: output differs from round 0")
        finally:
            if traced_round and in_process:
                tracer.uninstall()
        rounds += 1
        if perf_counter() - start >= seconds and (not trace or rounds >= 2):
            break
    peak_rss_mb = workload.peak_rss_mb()

    problems = list(mismatches)
    for index, record in sorted(first.items()):
        problems += [f"op {index}: {msg}" for msg in workload.check(ops[index], record)]

    raw_times = [t for t, _, _, _ in op_times]
    times = calibrated(raw_times, [ref for _, _, _, ref in op_times])
    raw = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "rounds": rounds, "setup_times": setup_times, "setup_steps": setup_steps,
        "op_times": [[t, int(traced), index, ref] for t, traced, index, ref in op_times],
        "errors": errors, "problems": problems,
    }
    if trace:
        snap = tracer.snapshot()
        for child in getattr(workload, "child_traces", []):
            tracing.merge(snap, child)
        traced = [c for c, (_, is_traced, _, _) in zip(times, op_times) if is_traced]
        plain = [c for c, (_, is_traced, _, _) in zip(times, op_times) if not is_traced]
        traced_raw = sum(t for t, is_traced, _, _ in op_times if is_traced)
        overhead = 100.0 * (statistics.mean(traced) / statistics.mean(plain) - 1.0)
        extra = {
            "bench.trace_overhead_pct": (overhead, "%"),
            "bench.traced_op_s": (statistics.mean(traced), "s/op"),
        }
        metrics = tracing.per_layer_metrics(snap, len(traced), traced_raw,
                                            sum(traced) / traced_raw, extra)
        raw["spans"] = snap
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "op_s_p50": {"value": statistics.median(times), "unit": "s"},
            "ops_per_s": {"value": len(times) / sum(times), "unit": "1/s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    raw["metrics"] = metrics
    OUT.mkdir(exist_ok=True)
    (OUT / f"{name}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(raw, indent=1) + "\n", encoding="utf-8")
    for msg in errors + problems:
        sys.stderr.write(f"{name}: {msg}\n")
    return {"correct": not problems, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (ROOT / "src" / "poislin" / "__init__.py").is_file():
        sys.stderr.write(f"poislin sources not found under {ROOT / 'src'}; "
                         "run from the root of a checkout\n")
        return 2
    if args.seconds <= 0:
        sys.stderr.write("--seconds must be positive\n")
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
