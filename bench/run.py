"""The ncwords benchmark.

Usage, from the repository root:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see ``BENCHMARK.json`` and ``bench/README.md`` for why each
was chosen): ``cooperad-check``, ``cumulant-batch``, ``cli-cold``.

Each workload runs in a worker process of its own.  With ``--trace 0``
the driver first times the set-up alone in several fresh workers, then
lets one worker send requests for S seconds and prints the end-to-end
metrics.  With ``--trace 1`` a worker runs a fixed list of requests
untraced and then traced, and the driver prints the per-layer metrics.
Either way a fixed ``Fraction`` loop is timed before and after the run,
so that machine drift can be told apart from a change in the program.

The machine's speed drifts by up to 2x within minutes, so end-to-end
times are scaled to a reference speed by the same loop, run between
requests (``machine.py``); the measured times are printed beside them.
The driver and everything it starts stay on one CPU.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it describe the run.  Failed requests are listed on standard error.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import machine

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKER = BENCH / "worker.py"
WORKLOADS = ("cooperad-check", "cumulant-batch", "cli-cold")
# Fresh set-up workers per run, besides the one that runs the requests;
# setup_s is the median of all of them.
SETUP_PROBES = 6
# Every worker is killed if the run is still going this long after start.
DEADLINE_S = 170.0

COUNTS = (
    "words.calls", "words.restrict.calls", "words.reduce.calls",
    "surjections.enum.calls", "surjections.enum.misses", "surjections.built",
    "cooperad.calls", "cooperad.terms", "cooperad.chains",
    "probability.expect.calls",
    "cumulants.scanned", "cumulants.kept", "cumulants.blocks",
)
SELF_TIMES = ("words", "surjections", "cooperad", "probability", "cumulants", "cli")


class BenchError(RuntimeError):
    pass


def worker(args: list[str], deadline: float) -> dict:
    proc = subprocess.Popen(
        [sys.executable, str(WORKER), *args],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {args} did not finish in time") from None
    finally:
        if proc.poll() is None:
            # The group holds the worker and any interpreter it started.
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
    if proc.returncode != 0:
        raise BenchError(f"worker {args} exited {proc.returncode}:\n{err[-4000:]}")
    return json.loads(out.strip().splitlines()[-1])


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(name: str, seed: int, seconds: float, deadline: float) -> tuple[dict, str]:
    setups = [
        worker([name, str(seed), str(seconds), "setup"], deadline)
        for _ in range(SETUP_PROBES)
    ]
    result = worker([name, str(seed), str(seconds), "run"], deadline)
    setups.append(result)
    latencies = sorted(result["scaled_latencies"])
    if not latencies:
        raise BenchError(f"no request of {name} returned: {result['errors'][:3]}")
    n = len(latencies)
    # The tail is the highest percentile with at least ten samples above
    # it; a run too short to have one reports its slowest request.
    tail_index = n - 11 if n > 10 else n - 1
    tail_pct = 100.0 * (tail_index + 1) / n
    attempted = result["attempted"]
    failed = len(result["errors"])
    metrics = {
        "requests_per_s": metric(n / sum(latencies), "1/s"),
        "latency_p50_ms": metric(statistics.median(latencies) * 1000, "ms"),
        "latency_tail_ms": metric(latencies[tail_index] * 1000, "ms"),
        "setup_s": metric(statistics.median(s["scaled_setup_s"] for s in setups), "s"),
        "peak_rss_mb": metric(result["peak_rss_mb"], "MB"),
        "ok_frac": metric((attempted - failed) / attempted, "ratio"),
    }
    measured = sorted(result["latencies"])
    note = (
        f"{n} requests returned of {attempted} attempted, {failed} failed; "
        f"latency_tail_ms is p{tail_pct:.2f} with {n - tail_index - 1} samples above it; "
        f"setup_s is the median of {len(setups)} set-ups.\n"
        f"Times are scaled to the reference speed (calibration {machine.CALIB_REF_MS} ms); "
        f"measured: requests_per_s {n / sum(measured):.4f}, "
        f"latency_p50_ms {statistics.median(measured) * 1000:.4f}, "
        f"latency_tail_ms {measured[tail_index] * 1000:.4f}, "
        f"setup_s {statistics.median(s['setup_s'] for s in setups):.4f}; "
        f"calibration median {statistics.median(result['calib_ms']):.3f} ms "
        f"over {len(result['calib_ms'])} passes"
    )
    return {"attempted": attempted, "failed": failed, "errors": result["errors"],
            "metrics": metrics}, note


def per_layer(name: str, seed: int, seconds: float, deadline: float) -> tuple[dict, str]:
    r = worker([name, str(seed), str(seconds), "trace"], deadline)
    counts = r["counts"]
    metrics = {key: metric(counts.get(key, 0), "count") for key in COUNTS}
    scanned = counts.get("cumulants.scanned", 0)
    kept = counts.get("cumulants.kept", 0)
    metrics["cumulants.kept_ratio"] = metric(kept / scanned if scanned else 0.0, "ratio")
    for layer in SELF_TIMES:
        metrics[f"{layer}.self_s"] = metric(r["self_s"].get(layer, 0.0), "s")
    metrics["probability.load_s"] = metric(r["load_s"], "s")
    metrics["cumulants.lattice_s"] = metric(r["lattice_s"], "s")
    metrics["cli.startup_ms"] = metric(
        statistics.median(r["startup_ms"]) if r["startup_ms"] else 0.0, "ms")
    metrics["cli.self_ms"] = metric(
        statistics.median(r["main_self_s"]) * 1000 if r["main_self_s"] else 0.0, "ms")
    metrics["bench.self_s"] = metric(r["traced_wall_s"] - r["top_s"], "s")
    metrics["trace.wall_s"] = metric(r["traced_wall_s"], "s")
    metrics["trace.overhead_frac"] = metric(r["traced_wall_s"] / r["plain_wall_s"] - 1, "ratio")
    note = (
        f"{r['requests']} requests untraced, then the same {r['requests']} traced; "
        f"times are totals over the traced requests except cli.* (median per request); "
        f"cumulants.kept_ratio = {kept}/{scanned}"
    )
    return {"attempted": r["attempted"], "failed": len(r["errors"]), "errors": r["errors"],
            "metrics": metrics}, note


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ns = p.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    if not (ROOT / "src" / "ncwords" / "__init__.py").is_file():
        print(f"error: no ncwords package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if ns.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2

    machine.pin()
    calib_before = [machine.calibrate() for _ in range(3)]
    run = per_layer if ns.trace else end_to_end
    try:
        result, note = run(ns.workload, ns.seed, ns.seconds, deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    calib_after = [machine.calibrate() for _ in range(3)]
    if ns.trace:
        result["metrics"]["machine.calib_ms"] = metric(
            statistics.median(calib_before + calib_after), "ms")

    for error in result["errors"]:
        print(f"FAILED {ns.workload} seed {ns.seed}: {error}", file=sys.stderr)
    print(f"{ns.workload} seed {ns.seed}, trace {ns.trace}: {note}")
    print("machine.calib_ms before " + " ".join(f"{x:.2f}" for x in calib_before)
          + ", after " + " ".join(f"{x:.2f}" for x in calib_after))
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
