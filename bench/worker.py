"""Runs one workload in a process of its own and prints one JSON line.

Usage: ``python3 bench/worker.py WORKLOAD SEED SECONDS MODE``

MODE is one of

- ``setup``: import, input generation and warm-up, timed; nothing else.
- ``run``: set up, then send requests for SECONDS of wall time.  Each
  request is timed alone; its output is checked after the clock stops.
  The calibration loop of ``machine.py`` runs every ``EVERY_S`` seconds
  between requests, and each request's time is also given scaled to the
  reference machine speed.
- ``trace``: set up, then run a fixed list of requests (its length
  depends on SECONDS and the workload, never on speed) twice: untraced,
  then with every layer function wrapped.  Reports per-layer counts and
  self times, and the tracing overhead.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

import machine

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(1, str(BENCH))


def setup(name: str, seed: int):
    """Set the workload up; returns it with the set-up time, measured and
    scaled by calibration passes run right after it."""
    t0 = time.perf_counter()
    from workloads import WORKLOADS

    workload = WORKLOADS[name](seed)
    workload.warm()
    setup_s = time.perf_counter() - t0
    after = time.perf_counter()
    samples = [(after, machine.calibrate()) for _ in range(3)]
    return workload, setup_s, setup_s * machine.scale(after, samples)


def checked(workload, i: int, output) -> str | None:
    try:
        return workload.check(i, output)
    except Exception as exc:  # a crash in a check is a failed request
        return f"check raised {exc!r}"


def run(workload, seconds: float) -> dict:
    clock = time.perf_counter
    starts: list[float] = []
    latencies: list[float] = []
    samples: list[tuple[float, float]] = []
    errors: list[str] = []
    attempted = 0
    start = clock()
    next_sample = start
    while clock() - start < seconds:
        if clock() >= next_sample:
            samples.append((clock(), machine.calibrate()))
            next_sample = clock() + machine.EVERY_S
        i = attempted
        attempted += 1
        t0 = clock()
        try:
            output = workload.request(i)
        except Exception as exc:
            errors.append(f"request {i} raised {exc!r}")
            continue
        latencies.append(clock() - t0)
        starts.append(t0)
        error = checked(workload, i, output)
        if error is not None:
            errors.append(f"request {i}: {error}")
    samples.append((clock(), machine.calibrate()))
    return {
        "attempted": attempted,
        "errors": errors,
        "latencies": latencies,
        "scaled_latencies": [d * machine.scale(t, samples) for t, d in zip(starts, latencies)],
        "calib_ms": [ms for _, ms in samples],
    }


def peak_rss_mb(workload) -> float:
    # Linux reports ru_maxrss in KiB.  The cli-cold work happens in child
    # interpreters, so its peak is the largest child's.
    who = resource.RUSAGE_CHILDREN if workload.name == "cli-cold" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024


def trace(workload, seconds: float) -> dict:
    from tracer import Tracer

    n = max(2, round(seconds * workload.TRACE_PER_S))
    is_cli = workload.name == "cli-cold"
    if is_cli:
        workload.out = workload.dir / "report.json"
    errors: list[str] = []
    merged = {"counts": {}, "self_s": {}, "top_s": 0.0, "lattice_s": 0.0, "load_s": 0.0,
              "main_self_s": []}
    startup_ms: list[float] = []

    def one_pass(tracer, digests: dict) -> float:
        wall = 0.0
        for i in range(n):
            spawned = time.monotonic()
            t0 = time.perf_counter()
            try:
                output = workload.request(i)
            except Exception as exc:
                errors.append(f"request {i} raised {exc!r}")
                continue
            finally:
                wall += time.perf_counter() - t0
            if is_cli:
                report = json.loads(workload.out.read_text())
                if tracer is None:
                    startup_ms.append((report["entered"] - spawned) * 1000)
                else:
                    _merge(merged, report)
            elif tracer is not None:
                tracer.end_request()
            if tracer is None:
                digests[i] = workload.digest(output)
                error = checked(workload, i, output)
                if error is not None:
                    errors.append(f"request {i}: {error}")
            elif workload.digest(output) != digests.get(i):
                errors.append(f"request {i}: traced output differs from untraced output")
        return wall

    digests: dict = {}
    plain_wall = one_pass(None, digests)
    tracer = Tracer()
    if is_cli:
        workload.traced = True  # the children install their own tracer
    else:
        tracer.install()
    try:
        traced_wall = one_pass(tracer, digests)
    finally:
        tracer.uninstall()
    if not is_cli:
        _merge(merged, tracer.totals())
    return {
        "attempted": 2 * n,
        "errors": errors,
        "requests": n,
        "plain_wall_s": plain_wall,
        "traced_wall_s": traced_wall,
        "startup_ms": startup_ms,
        **merged,
    }


def _merge(into: dict, part: dict) -> None:
    for key in ("counts", "self_s"):
        for name, value in part[key].items():
            into[key][name] = into[key].get(name, 0) + value
    for key in ("top_s", "lattice_s", "load_s"):
        into[key] += part[key]
    into["main_self_s"].extend(part["main_self_s"])


def main(argv: list[str]) -> int:
    name, seed, seconds, mode = argv[0], int(argv[1]), float(argv[2]), argv[3]
    workload, setup_s, scaled_setup_s = setup(name, seed)
    try:
        if mode == "setup":
            result = {}
        elif mode == "run":
            result = run(workload, seconds)
            result["peak_rss_mb"] = peak_rss_mb(workload)
        elif mode == "trace":
            result = trace(workload, seconds)
        else:
            raise ValueError(f"unknown mode {mode!r}")
    finally:
        workload.close()
    result.update(setup_s=setup_s, scaled_setup_s=scaled_setup_s)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
