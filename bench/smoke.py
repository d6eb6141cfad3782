"""Smoke test of the benchmark harness.

    python3 bench/smoke.py [WORKLOAD ...]

Run it from the repository root.  For each workload (all by default) it
checks that:

* a short timed run prints, as its last line, the result object with
  exactly the end-to-end metrics that BENCHMARK.json lists, with their units,
  and no operation in it fails;
* two traced runs with the same seed print exactly the per-layer metrics
  that BENCHMARK.json lists, and agree on every ``.calls`` count and on
  ``cli.escaped_exceptions``;

and, once, that the harness refuses to run under ``python -O`` and in a
directory holding only BENCHMARK.json and the benchmark's own files.
Exits 0 when every check passes.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SEED = 7


def run(args, cwd=ROOT, flags=()):
    cmd = [sys.executable, *flags, *SPEC["command"][1:], *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def result_of(proc):
    if proc.returncode != 0:
        raise AssertionError(f"exit {proc.returncode}: {proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["attempted"] >= 1
    return result


def check_metrics(result, listed):
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    want = {m["name"]: m["unit"] for m in listed}
    assert got == want, f"metrics differ from BENCHMARK.json: {sorted(set(got) ^ set(want))}"


def check_workload(name):
    args = ["--workload", name, "--seed", str(SEED), "--seconds", "1"]
    timed = result_of(run(args + ["--trace", "0"]))
    check_metrics(timed, SPEC["end_to_end"])
    assert timed["correct"], f"{name}: a result differed from its oracle"
    assert timed["failed"] == 0, f"{name}: {timed['failed']} operations failed"
    assert timed["attempted"] >= 100, timed["attempted"]

    traced = [result_of(run(args + ["--trace", "1"])) for _ in range(2)]
    for result in traced:
        check_metrics(result, SPEC["per_layer"])
    counts = [
        {
            metric: value["value"]
            for metric, value in result["metrics"].items()
            if metric.endswith(".calls") or metric == "cli.escaped_exceptions"
        }
        for result in traced
    ]
    assert counts[0] == counts[1], f"{name}: call counts differ between traced runs"
    print(f"ok  {name}: {timed['attempted']} timed ops, {len(counts[0])} counts repeat")


def check_refusals():
    args = ["--workload", SPEC["workloads"][0]["name"], "--seed", "1", "--seconds", "1"]
    proc = run(args, flags=("-O",))
    assert proc.returncode != 0 and not proc.stdout.strip(), "ran under python -O"

    bare = ROOT / ".bench_work" / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(args, cwd=bare)
        assert proc.returncode != 0 and not proc.stdout.strip(), "ran without the program"
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("ok  refuses python -O and a directory without the program")


def main():
    names = sys.argv[1:] or [w["name"] for w in SPEC["workloads"]]
    check_refusals()
    for name in names:
        check_workload(name)


if __name__ == "__main__":
    main()
