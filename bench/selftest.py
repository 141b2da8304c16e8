"""Determinism self-test of the benchmark, at tiny size.

Usage, from the repository root:

    python3 bench/selftest.py

For every workload it checks that the same seed gives identical inputs
and another seed different ones, that two traced runs with the same seed
give identical per-layer counts, and that an untraced run reports no
failed request.  Exits 0 when every check holds and 1 otherwise.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(1, str(BENCH))

from workloads import WORKLOADS  # noqa: E402

SECONDS = "1"


def inputs(name: str, seed: int) -> str:
    workload = WORKLOADS[name](seed)
    try:
        return repr(workload.inputs)
    finally:
        workload.close()


def bench(name: str, seed: int, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", name, "--seed", str(seed),
         "--seconds", SECONDS, "--trace", str(trace)],
        capture_output=True, text=True, timeout=175,
    )
    if done.returncode != 0:
        raise RuntimeError(f"{name} seed {seed} trace {trace} exited {done.returncode}:\n"
                           f"{done.stderr[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def counts(result: dict) -> dict:
    return {k: m["value"] for k, m in result["metrics"].items() if m["unit"] == "count"}


def main() -> int:
    failures = 0
    for name in WORKLOADS:
        first, second = bench(name, 1, 1), bench(name, 1, 1)
        plain = bench(name, 1, 0)
        checks = {
            "same seed, same inputs": inputs(name, 1) == inputs(name, 1),
            "other seed, other inputs": inputs(name, 1) != inputs(name, 2),
            "same seed, same per-layer counts": counts(first) == counts(second),
            "traced runs correct": first["correct"] and second["correct"],
            "untraced run has no failed request":
                plain["correct"] and plain["failed"] == 0
                and plain["metrics"]["ok_frac"]["value"] == 1,
        }
        for what, ok in checks.items():
            print(f"{'PASS' if ok else 'FAIL'} {name}: {what}")
            failures += not ok
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
