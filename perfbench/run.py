"""Benchmark entry point for berglab.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs passes of one workload, each in a fresh worker process, until the
next pass would end more than half a pass after ``--seconds`` (at least
two passes, or one untraced and one traced pass with ``--trace 1``).  Inputs come from the
seed only, so every pass of a run sees the same inputs and must write
the same outputs; a differing digest is a failed check.

The last line of standard output is one JSON object: ``correct``,
``attempted`` and ``failed`` count the check lines of every pass plus the
determinism checks.  With ``--trace 0`` the metrics are the end-to-end
ones of BENCHMARK.json (medians over the passes); with ``--trace 1`` they
are the per-layer ones of the traced passes, plus the tracing overhead
(traced minus untraced median wall time).  Lines before it, starting
with ``#``, are the run record.  Metric names and units are read from
BENCHMARK.json.  See NOTES.md for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# inherited as they are; the record shows what the run had
THREAD_ENV = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
PASS_TIMEOUT_S = 150


def _commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def _pass(workload: str, seed: int, trace: int, work: Path) -> dict:
    cmd = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--trace", str(trace),
        "--work", str(work),
    ]
    proc = subprocess.run(
        cmd, cwd=ROOT, capture_output=True, text=True, timeout=PASS_TIMEOUT_S
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-4000:])
        raise SystemExit(f"worker for {workload} exited with {proc.returncode}")
    return json.loads(lines[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(names)}")
    if not (ROOT / "src" / "berglab" / "__init__.py").is_file():
        print(f"error: no berglab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    work = ROOT / ".bench_build" / "perfbench" / f"{args.workload}-{os.getpid()}"
    passes = []
    start = time.perf_counter()
    try:
        units = 0
        while True:
            for trace in ((0, 1) if args.trace else (0,)):
                passes.append(_pass(args.workload, args.seed, trace, work))
            units += 1
            elapsed = time.perf_counter() - start
            # one more unit only if it is expected to end within half a unit of the budget
            if units >= (1 if args.trace else 2) and elapsed * (units + 0.5) / units > args.seconds:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()  # only when no other run is using it

    attempted = failed = 0
    for p in passes:
        attempted += len(p["checks"])
        failed += sum(1 for _, ok, _ in p["checks"] if not ok)
        for label, ok, detail in p["checks"]:
            if not ok:
                print(f"# FAIL {label}: {detail}")
    digests = [p["digest"] for p in passes]
    attempted += len(passes) - 1
    failed += sum(1 for d in digests[1:] if d is None or d != digests[0])

    plain = [p for p in passes if "layers" not in p]
    traced = [p for p in passes if "layers" in p]
    first = passes[0]
    print(f"# workload {args.workload} seed {args.seed} passes {len(plain)} untraced, {len(traced)} traced")
    print(f"# commit {_commit()}")
    print(f"# nproc {len(os.sched_getaffinity(0))} suite threads {first['threads']}")
    print("# env " + " ".join(f"{k}={os.environ.get(k, '(unset)')}" for k in THREAD_ENV))
    print("# versions " + " ".join(f"{k} {v}" for k, v in first["versions"].items()))
    print(f"# output digest {digests[0]}")
    for key in ("setup_s", "wall_s", "cpu_s", "peak_rss_mb"):
        print(f"# {key} " + " ".join(f"{p[key]:.4f}" for p in plain))

    if args.trace:
        wanted = spec["per_layer"]
        values = {
            key: statistics.median(p["layers"][key] for p in traced)
            for key in traced[0]["layers"]
        }
        values["trace.overhead_s"] = statistics.median(
            p["wall_s"] for p in traced
        ) - statistics.median(p["wall_s"] for p in plain)
    else:
        wanted = spec["end_to_end"]
        values = {
            key: statistics.median(p[key] for p in plain)
            for key in ("setup_s", "wall_s", "cpu_s", "peak_rss_mb")
        }
        values["pass_ratio"] = (attempted - failed) / attempted
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
