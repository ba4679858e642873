"""Smoke check of the benchmark itself, at tiny widths; takes seconds.

    python3 perfbench/smoke.py

Runs every workload in BENCHMARK.json untraced and traced through run.py
with ``--smoke``, and checks that each run is correct and reports every
metric BENCHMARK.json names, each a finite number with its unit. Exits
with status 1 and names the first problem otherwise.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def check(spec: dict, workload: str, trace: int) -> None:
    command = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
               "--seed", "7", "--seconds", "1", "--trace", str(trace), "--smoke"]
    child = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=170)
    if child.returncode != 0:
        raise AssertionError(f"{workload} trace {trace}: exit status {child.returncode}")
    result = json.loads(child.stdout.splitlines()[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise AssertionError(f"{workload} trace {trace}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        raise AssertionError(f"{workload} trace {trace}: {result}")
    expected = spec["per_layer"] if trace else spec["end_to_end"]
    names = {m["name"]: m["unit"] for m in expected}
    if set(result["metrics"]) != set(names):
        raise AssertionError(
            f"{workload} trace {trace}: metrics differ from BENCHMARK.json by "
            f"{sorted(set(result['metrics']) ^ set(names))}"
        )
    for name, metric in result["metrics"].items():
        if metric["unit"] != names[name] or not math.isfinite(metric["value"]):
            raise AssertionError(f"{workload} trace {trace}: {name} = {metric}")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    try:
        for workload in spec["workloads"]:
            for trace in (0, 1):
                check(spec, workload["name"], trace)
                print(f"ok {workload['name']} trace {trace}")
    except AssertionError as exc:
        print(f"smoke check failed: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
