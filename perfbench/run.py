"""netwake benchmark: replicate throughput on four workloads.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload replicate_sync --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` prints the
per-layer metrics of a traced run. ``--quick`` shrinks every workload to
N=400 so the harness, checks and tracer can be exercised in seconds. The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _import_netwake() -> float:
    """Import the package from this checkout's sources; return the seconds
    it took. Exits with code 2 when the checkout holds no sources."""
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    try:
        import netwake
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import netwake from {SRC}: {exc}")
    elapsed = time.perf_counter() - start
    if Path(netwake.__file__).resolve().parent != SRC / "netwake":
        sys.exit(f"perfbench: imported netwake from {netwake.__file__}, not from {SRC}")
    return elapsed


def _git_rev() -> str | None:
    """HEAD's commit id read from .git, or None outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(workload_seed: int) -> dict:
    import numpy
    import scipy

    digest = hashlib.sha256()
    for path in sorted((SRC / "netwake").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "git_rev": _git_rev(),
        "source_sha256": digest.hexdigest()[:16],
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "workload_seed": workload_seed,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true", help="tiny sizes (N=400) for a smoke test")
    args = parser.parse_args(argv)

    import_s = _import_netwake()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as workdir:
        setups = []
        for _ in range(workloads.SETUP_REPEATS):
            start = time.perf_counter()
            if args.workload == "window_sweep":
                inputs = workloads.setup_sweep(ROOT, Path(workdir), args.seed, args.quick)
            else:
                inputs = workloads.setup_replicates(args.workload, args.seed, args.quick)
            setups.append(time.perf_counter() - start)
        if args.workload == "window_sweep":
            result = workloads.run_sweep_workload(inputs, args.seconds, bool(args.trace))
        else:
            result = workloads.run_replicate_workload(inputs, args.seconds, bool(args.trace))

    if args.trace:
        units = workloads.PER_LAYER
        metrics = {name: result.metrics.get(name, 0.0) for name in units}
    else:
        units = workloads.END_TO_END
        # Import once, then the median of the repeated input generation and
        # warm-up replicate.
        result.metrics["setup_s"] = import_s + statistics.median(setups)
        metrics = {name: result.metrics[name] for name in units}

    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}{' quick' if args.quick else ''}")
    print("environment " + json.dumps(environment(args.seed)))
    for name, value in metrics.items():
        print(f"  {name:36} {value:14.6g} {units[name]}")
    if not args.trace:
        print(f"  {'failed_share':36} {result.failed / result.attempted:14.6g} ratio")
    for note in result.notes:
        print(f"  {note}")
    if not result.identical:
        print("  traced and untraced runs gave different results")
    for problem in result.problems:
        print(f"  check failed: {problem}")
    print(json.dumps({
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
