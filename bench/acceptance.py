"""One-shot recorder of the acceptance gate's time against its budgets.

Usage, from the repository root:

    python3 bench/acceptance.py

Runs the tier-1 test command unchanged, reads every
``ACCEPTANCE n: PASS (t)`` line it prints, takes each criterion's budget
from ``tests/test_acceptance.py`` and prints one JSON object: the tier-1
wall time and exit code, and per criterion its elapsed time, budget and
share of the budget, against the target of at most 25%.  This is not a
benchmark workload; run it once per change.  Exits with the tier-1 exit
code.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIER1 = "PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python -m pytest -q --continue-on-collection-errors"
TARGET_SHARE = 0.25
RESULT = re.compile(r"ACCEPTANCE (\d+): (PASS|FAIL) \(([0-9.]+)s\)")
BUDGET = re.compile(r"finish\(capsys, (\d+), failures, t0, budget=([0-9.]+)\)")


def main() -> int:
    source = (ROOT / "tests" / "test_acceptance.py").read_text()
    budgets = {int(n): float(b) for n, b in BUDGET.findall(source)}
    t0 = time.perf_counter()
    done = subprocess.run(["bash", "-c", TIER1], cwd=ROOT, capture_output=True, text=True)
    wall = time.perf_counter() - t0
    lines = done.stdout.strip().splitlines()
    criteria = []
    for n, status, elapsed in RESULT.findall(done.stdout):
        budget = budgets.get(int(n))
        share = float(elapsed) / budget if budget else None
        criteria.append({
            "criterion": int(n),
            "status": status,
            "elapsed_s": float(elapsed),
            "budget_s": budget,
            "share": share,
            "within_target": share is not None and share <= TARGET_SHARE,
        })
    print(json.dumps({
        "command": TIER1,
        "tier1_wall_s": wall,
        "tier1_exit": done.returncode,
        "tier1_summary": lines[-1] if lines else "",
        "target_share": TARGET_SHARE,
        "criteria": criteria,
    }, indent=1))
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
