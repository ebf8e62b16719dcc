"""One pass of one workload in a fresh process, like one ``berglab`` call.

Prints one JSON line: set-up time (from before ``import berglab`` to the
start of the pass), wall and CPU time of the pass, the process's peak
RSS, the check lines, a digest of the outputs and, with ``--trace 1``,
the per-layer metrics.  There is no warm-up pass: a command-line user
pays cold caches on every run.

    python3 perfbench/worker.py --workload recovery_deep --seed 1 --trace 0 --work DIR
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _cpu(ru) -> float:
    return ru.ru_utime + ru.ru_stime


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work", required=True)
    args = parser.parse_args()
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]

    t0 = time.perf_counter()
    import workloads  # imports berglab

    wl = workloads.WORKLOADS[args.workload]
    work = Path(args.work)
    work.mkdir(parents=True, exist_ok=True)
    inputs = wl.setup(args.seed, work)
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        tracer.enabled = True
    setup_s = time.perf_counter() - t0

    ru0 = resource.getrusage(resource.RUSAGE_SELF)
    w0 = time.perf_counter()
    try:
        outputs = wl.run(inputs)
        error = None
    except Exception:  # a raising pass is reported as a failed check
        outputs = None
        error = traceback.format_exc()
    wall_s = time.perf_counter() - w0
    ru1 = resource.getrusage(resource.RUSAGE_SELF)
    if tracer is not None:
        tracer.enabled = False

    if error is None:
        checks, digest = wl.check(inputs, outputs)
        checks = [(str(label), bool(ok), str(detail)) for label, ok, detail in checks]
    else:
        print(error, file=sys.stderr)
        checks, digest = [("pass raised", False, error.strip().splitlines()[-1])], None

    import numpy
    import scipy

    record = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "cpu_s": _cpu(ru1) - _cpu(ru0),
        "peak_rss_mb": ru1.ru_maxrss / 1024.0,
        "checks": checks,
        "digest": digest,
        "threads": workloads.THREADS,
        "versions": {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
        },
    }
    if tracer is not None:
        record["layers"] = tracer.metrics()
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
