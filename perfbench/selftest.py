"""Self-test of the benchmark at smoke size.

Checks, for every workload in ``BENCHMARK.json``:

* an untraced run emits exactly the ``end_to_end`` metrics and a traced
  run exactly the ``per_layer`` metrics, each with its declared unit,
  and both pass the correctness gate;
* a forced digest mismatch shows up in ``failed`` (and ``correct`` goes
  false) without aborting the run;
* another seed changes the inputs but not the metric names;

and that, in a directory holding only ``BENCHMARK.json`` and this
directory, the benchmark exits non-zero without printing a result.

Run from the repository root:  python3 perfbench/selftest.py
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")


def run(workload, *extra, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--size", "smoke",
         "--seconds", "0.5", *extra],
        capture_output=True, text=True, cwd=cwd, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    return proc, lines


def result_of(proc, lines) -> dict:
    if proc.returncode != 0:
        raise AssertionError(f"exit {proc.returncode}:\n{proc.stderr}")
    return json.loads(lines[-1])


def inputs_of(lines) -> str:
    return next(line for line in lines if line.startswith("inputs: "))


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    declared = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    failures = []

    def check(cond, message):
        print(("ok   " if cond else "FAIL ") + message, flush=True)
        if not cond:
            failures.append(message)

    for w in (wl["name"] for wl in bench["workloads"]):
        seed0 = None
        for trace in (0, 1):
            proc, lines = run(w, "--seed", "0", "--trace", str(trace))
            res = result_of(proc, lines)
            got = {k: m["unit"] for k, m in res["metrics"].items()}
            check(got == declared[trace],
                  f"{w} trace {trace}: metric names and units match "
                  "BENCHMARK.json")
            check(set(res) == {"correct", "attempted", "failed", "metrics"},
                  f"{w} trace {trace}: result keys")
            check(res["correct"] and res["failed"] == 0
                  and res["attempted"] >= 1,
                  f"{w} trace {trace}: correctness gate passes")
            if trace == 0:
                seed0 = (inputs_of(lines), set(got))

        proc, lines = run(w, "--seed", "1", "--trace", "0")
        res = result_of(proc, lines)
        check(inputs_of(lines) != seed0[0],
              f"{w}: another seed changes the inputs")
        check(set(res["metrics"]) == seed0[1],
              f"{w}: another seed keeps the metric names")
        check(res["correct"], f"{w}: seed 1 passes the references")

    proc, lines = run(bench["workloads"][0]["name"], "--seed", "0",
                      "--trace", "0", "--force-mismatch")
    res = result_of(proc, lines)
    check(res["failed"] > 0 and not res["correct"],
          "a forced digest mismatch shows up in failed")

    os.makedirs(os.path.join(ROOT, ".perfbench"), exist_ok=True)
    bare = tempfile.mkdtemp(prefix="bare-",
                            dir=os.path.join(ROOT, ".perfbench"))
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload",
             bench["workloads"][0]["name"], "--seed", "0", "--seconds", "1",
             "--trace", "0"],
            capture_output=True, text=True, cwd=bare, timeout=180,
            env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
        )
        check(proc.returncode != 0 and '"metrics"' not in proc.stdout,
              "without the sources: non-zero exit and no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
