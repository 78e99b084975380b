#!/usr/bin/env python3
"""Quick self-check of the repository benchmark.

Runs one minimal-length pass (--seconds 1) of every workload in
BENCHMARK.json, untraced and traced, and asserts that:

  * the last stdout line is the result object with exactly the keys
    correct / attempted / failed / metrics, and correct is true;
  * every end-to-end (untraced) or per-layer (traced) metric named in
    BENCHMARK.json is printed with its unit, and no other metric is;
  * the workload printed its correctness-check line ("checks: ...") and
    its work fingerprint ("work {...}").

Run from the repository root:  python3 perfbench/selfcheck.py
Exits non-zero on the first failure.
"""

import json
import subprocess
import sys


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    wanted = {
        "0": {m["name"]: m["unit"] for m in bench["end_to_end"]},
        "1": {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    for workload in [w["name"] for w in bench["workloads"]]:
        for trace in ("0", "1"):
            cmd = bench["command"] + [
                "--workload", workload, "--seed", "42", "--seconds", "1", "--trace", trace,
            ]
            run = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
            label = f"{workload} --trace {trace}"
            if run.returncode != 0:
                sys.exit(f"FAIL {label}: exit {run.returncode}\n{run.stderr[-2000:]}")
            lines = run.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                sys.exit(f"FAIL {label}: result keys {sorted(result)}")
            if result["correct"] is not True or result["attempted"] < 1:
                sys.exit(f"FAIL {label}: {lines[-1][:200]}")
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != wanted[trace]:
                missing = set(wanted[trace]) - set(got)
                extra = set(got) - set(wanted[trace])
                wrong = {n for n in set(got) & set(wanted[trace]) if got[n] != wanted[trace][n]}
                sys.exit(f"FAIL {label}: missing {missing}, extra {extra}, wrong units {wrong}")
            if not any(l.startswith("checks: ") for l in lines):
                sys.exit(f"FAIL {label}: no correctness-check line")
            if not any(l.startswith("work {") for l in lines):
                sys.exit(f"FAIL {label}: no work fingerprint")
            print(f"ok   {label}: {len(got)} metrics, attempted {result['attempted']}")
    print("self-check passed")


if __name__ == "__main__":
    main()
