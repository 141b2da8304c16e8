"""Child entry for the cli-cold workload: a fresh interpreter running one
``ncwords`` command through ``ncwords.cli.main``.

Usage: ``python3 bench/child.py REPORT TRACE <ncwords arguments...>``

``REPORT`` is ``-`` for a plain run.  Otherwise the child writes a JSON
report there on exit: the monotonic clock on entering ``main`` and on
leaving it and, when ``TRACE`` is ``1``, its layer totals.
"""

import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import ncwords.cli  # noqa: E402


def run(report: str, traced: bool, argv: list[str]) -> int:
    tracer = None
    if traced:
        sys.path.insert(0, str(Path(__file__).resolve().parent))
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    entered = time.monotonic()
    try:
        code = ncwords.cli.main(argv)
    finally:
        left = time.monotonic()
        if report != "-":
            sys.stdout.flush()
            out = {"entered": entered, "left": left}
            if tracer is not None:
                tracer.end_request()
                out.update(tracer.totals())
            import json

            Path(report).write_text(json.dumps(out))
    return code


if __name__ == "__main__":
    sys.exit(run(sys.argv[1], sys.argv[2] == "1", sys.argv[3:]))
