"""Run one fwlop benchmark workload and print its metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root.  The package is imported from ``src/``
(it is not installed), in this one process, on one thread.

With ``--trace 0`` the workload runs closed loop for about S seconds, in
whole cycles of its request mix and for at least 100 operations, and the
end-to-end metrics are printed.  With ``--trace 1`` a fixed number of
operations (a whole number of cycles, independent of S, so call counts
repeat exactly for a seed) runs twice: once untraced and once with the
span recorder installed; the per-layer metrics come from the spans, which
are written to ``.bench_out/``.

Every operation's result is checked against an identity of the library's
contract outside the timed region.  The last line of standard output is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it are a readable table and an ``info`` line
recording the environment and the inputs.
"""

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402
from fractions import Fraction  # noqa: E402
from itertools import islice  # noqa: E402
from pathlib import Path  # noqa: E402

from spans import SpanRecorder, layer_metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_ROUNDS = 5
SETUP_REFS = 5
MIN_OPS = 100
# Past this much loop time a run stops sizing itself up, so that set-up,
# the loop and the exit stay well inside 180 seconds.
LOOP_CAP_S = 100.0
SUBMODULES = ["symcore", "diffop", "multivec", "lbundle", "linearize", "randgen", "verify", "cli"]


def load_fwlop():
    """Import fwlop afresh from ``src/``, dropping any earlier import."""
    for name in [n for n in sys.modules if n == "fwlop" or n.startswith("fwlop.")]:
        del sys.modules[name]
    package = importlib.import_module("fwlop")
    for sub in SUBMODULES:
        importlib.import_module(f"fwlop.{sub}")
    return package


# -- host-speed calibration ---------------------------------------------------
# The vCPUs of a shared host change speed by up to 1.7x within seconds (seen
# on a 2-vCPU x86-64 sandbox at 2.0 GHz), far more than the effects the
# benchmark has to resolve.  So right before and right after every timed
# operation the harness times a fixed stdlib computation in the same style
# as the program (Fraction arithmetic into a dict).  An operation's
# calibrated time is its wall time scaled by REF_NOMINAL_S over the mean of
# those two reference times: its time on a host where the reference takes
# REF_NOMINAL_S, a typical reference time on that sandbox (0.55 to 1.1 ms).
REF_ITERS = 150
REF_NOMINAL_S = 0.0008


def reference_s():
    start = time.perf_counter()
    acc = {}
    x = Fraction(3, 7)
    for i in range(REF_ITERS):
        key = (i % 13, i % 7)
        acc[key] = acc.get(key, 0) + x * Fraction(i % 11 + 1, i % 5 + 1)
    return time.perf_counter() - start


def run_one(op, recorder=None):
    """Time one operation, then check its result outside the timed region.

    Returns (seconds, speed factor, verdict).  The speed factor calibrates
    the seconds to the nominal host (see ``reference_s``); the verdict is
    "ok", "wrong", "outcome" or "raised".
    """
    before = reference_s()
    if recorder is not None:
        recorder.active = True
    start = time.perf_counter()
    try:
        result = op.run()
    except (Exception, SystemExit):
        elapsed = time.perf_counter() - start
        verdict = "raised"
    else:
        elapsed = time.perf_counter() - start
        verdict = None
    finally:
        if recorder is not None:
            recorder.active = False
    factor = 2 * REF_NOMINAL_S / (before + reference_s())
    if verdict is None:
        try:
            verdict = op.check(result)
        except Exception:
            verdict = "wrong"
    return elapsed, factor, verdict


def setup(cls, seed, workdir):
    """Import, generate inputs, write fixtures and warm up; return the workload.

    Warm-up runs on its own instance, so the measured one starts with
    untouched operand pools and evaluation caches.
    """
    fw = load_fwlop()
    for op in cls(fw, seed, workdir).warmup_ops():
        run_one(op)
    return fw, cls(fw, seed, workdir)


def percentile_90(values):
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def timed_run(workload, seconds):
    raw, factors, verdicts = [], [], Counter()
    start = time.perf_counter()
    for i, op in enumerate(workload.ops()):
        elapsed, factor, verdict = run_one(op)
        raw.append(elapsed)
        factors.append(factor)
        verdicts[verdict, op.kind] += 1
        loop_s = time.perf_counter() - start
        cycle_done = (i + 1) % workload.rotation == 0
        if cycle_done and loop_s >= seconds and len(raw) >= MIN_OPS:
            break
        if loop_s >= LOOP_CAP_S:
            break
    return raw, factors, verdicts, time.perf_counter() - start


def traced_run(cls, fw, seed, workdir):
    """Run the fixed traced operation count untraced, then traced.

    Both passes use fresh workload instances, so they run identical inputs
    from identical starting state.  Returns the traced workload, the
    recorder, the traced pass's latencies, speed factors and verdicts, and
    the untraced pass's calibrated total time.
    """
    count = cls(fw, seed, workdir).trace_ops
    untraced_s = 0.0
    for op in islice(cls(fw, seed, workdir).ops(), count):
        elapsed, factor, _ = run_one(op)
        untraced_s += elapsed * factor
    recorder = SpanRecorder()
    workload = cls(fw, seed, workdir)
    raw, factors, verdicts = [], [], Counter()
    recorder.install(fw)
    try:
        for i, op in enumerate(islice(workload.ops(), count)):
            recorder.op_id = i
            elapsed, factor, verdict = run_one(op, recorder)
            raw.append(elapsed)
            factors.append(factor)
            verdicts[verdict, op.kind] += 1
    finally:
        recorder.uninstall()
    return workload, recorder, raw, factors, verdicts, untraced_s


def environment(args):
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "platform": platform.platform(),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def failures(verdicts):
    return {
        f"{verdict}:{kind}": count
        for (verdict, kind), count in sorted(verdicts.items())
        if verdict != "ok"
    }


def emit(info, metrics, attempted, failed, correct):
    print("info " + json.dumps(info, sort_keys=True))
    width = max(len(name) for name in metrics)
    for name, (value, unit) in metrics.items():
        print(f"{name:<{width}}  {value:>14.6g}  {unit}")
    print(f"{'failed_op_ratio':<{width}}  {failed / attempted:>14.6g}  ratio")
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if sys.flags.optimize:
        sys.exit("refusing to run under python -O: fwlop's assert invariants would vanish")
    if not (SRC / "fwlop" / "__init__.py").is_file():
        sys.exit(f"no fwlop package under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))

    cls = WORKLOADS[args.workload]
    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    info = environment(args)
    info["workload"] = args.workload
    info["mix"] = cls.mix
    try:
        if args.trace:
            fw, _ = setup(cls, args.seed, str(workdir))
            workload, recorder, raw, factors, verdicts, untraced_s = traced_run(
                cls, fw, args.seed, str(workdir)
            )
            out_dir = ROOT / ".bench_out"
            out_dir.mkdir(exist_ok=True)
            span_file = out_dir / f"spans-{args.workload}-seed{args.seed}.tsv"
            recorder.write(span_file)
            info.update(ops=len(raw), spans=len(recorder), span_file=str(span_file.relative_to(ROOT)))
        else:
            setup_times = []
            for _ in range(SETUP_ROUNDS):
                before = [reference_s() for _ in range(SETUP_REFS)]
                begin = time.perf_counter()
                fw, workload = setup(cls, args.seed, str(workdir))
                elapsed = time.perf_counter() - begin
                host = statistics.median(before + [reference_s() for _ in range(SETUP_REFS)])
                setup_times.append(elapsed * REF_NOMINAL_S / host)
            first_op_s = time.perf_counter() - PROCESS_START
            raw, factors, verdicts, loop_s = timed_run(workload, args.seconds)
            info.update(
                ops=len(raw),
                loop_s=loop_s,
                setup_rounds_s=setup_times,
                process_start_to_first_op_s=first_op_s,
            )
        info.update(workload.info())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = len(raw)
    failed = sum(count for (verdict, _), count in verdicts.items() if verdict != "ok")
    latencies = [elapsed * factor for elapsed, factor in zip(raw, factors)]
    info["median_speed_factor"] = statistics.median(factors)
    if args.trace:
        metrics = layer_metrics(recorder.summary(factors))
        metrics["trace.overhead_ratio"] = (untraced_s / sum(latencies), "ratio")
    else:
        p90 = percentile_90(latencies)
        metrics = {
            "ops_per_s": (attempted / sum(latencies), "1/s"),
            "latency_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
            "latency_p90_ms": (p90 * 1e3, "ms"),
            "setup_s": (statistics.median(setup_times), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        info["samples_above_p90"] = sum(1 for x in latencies if x > p90)
        info["uncalibrated"] = {
            "ops_per_s": attempted / sum(raw),
            "latency_p50_ms": statistics.median(raw) * 1e3,
            "latency_p90_ms": percentile_90(raw) * 1e3,
        }
    info["failures"] = failures(verdicts)
    correct = not any(verdict == "wrong" for verdict, _ in verdicts)
    emit(info, metrics, attempted, failed, correct)


if __name__ == "__main__":
    main()
