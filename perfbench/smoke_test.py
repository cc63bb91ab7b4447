#!/usr/bin/env python3
"""Smoke test of the benchmark itself, at tiny scale (about a minute).

Run from the repository root:

    python3 perfbench/smoke_test.py

For every workload it runs perfbench/run.py with `--scale tiny` once with
--trace 0 and twice with --trace 1 on the same seed, and checks that
  - each run ends with a well-formed result line, correct, with no failures;
  - the printed metric names and units are exactly BENCHMARK.json's
    end_to_end (trace 0) and per_layer (trace 1) lists;
  - the program's counts repeat exactly between the two traced runs.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 7
COUNTS = ["core.rwr_iterations", "core.distance_evals", "sketch.updates",
          "robust.checkpoints", "graph.edges"]


def run(workload, trace):
    out = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload",
         workload, "--seed", str(SEED), "--seconds", "1", "--trace",
         str(trace), "--scale", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    if out.returncode != 0:
        raise AssertionError(f"{workload} --trace {trace} exited "
                             f"{out.returncode}: {out.stderr[-2000:]}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def check_result(result, expected_units, label):
    errors = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"{label}: result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        errors.append(f"{label}: correct={result.get('correct')} "
                      f"failed={result.get('failed')}")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        errors.append(f"{label}: attempted={result.get('attempted')}")
    printed = {name: m.get("unit") for name, m in result["metrics"].items()}
    if printed != expected_units:
        missing = set(expected_units) - set(printed)
        extra = set(printed) - set(expected_units)
        wrong = {n for n in set(printed) & set(expected_units)
                 if printed[n] != expected_units[n]}
        errors.append(f"{label}: missing {sorted(missing)}, extra "
                      f"{sorted(extra)}, wrong unit {sorted(wrong)}")
    for name, m in result["metrics"].items():
        if not isinstance(m.get("value"), (int, float)):
            errors.append(f"{label}: {name} = {m.get('value')!r}")
    return errors


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    errors = []
    for workload in (w["name"] for w in bench["workloads"]):
        found = check_result(run(workload, 0), end_to_end,
                             f"{workload} trace 0")
        first, second = run(workload, 1), run(workload, 1)
        found += check_result(first, per_layer, f"{workload} trace 1")
        for name in COUNTS:
            a = first["metrics"][name]["value"]
            b = second["metrics"][name]["value"]
            if a != b:
                found.append(f"{workload}: {name} {a} then {b}")
        for error in found:
            print("FAIL", error, flush=True)
        print(f"{workload}: {'FAIL' if found else 'ok'}", flush=True)
        errors += found
    print("smoke test:", "FAIL" if errors else "PASS")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
