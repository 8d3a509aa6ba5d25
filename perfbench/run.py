"""Benchmark of the ABONN verifier and its verification service.

Run from the repository root::

    python3 perfbench/run.py --workload rq_dense --seed 0 --seconds 30 --trace 0

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a run whose calls into the program are wrapped in spans (see
``layers.py``).  Each metric is printed on its own line with its unit and
sample count.  A timing divided by the machine's slowdown (``speed.py``) is
followed by its raw wall seconds.  The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  The workloads and the reasons for them are described in
``workloads.py`` and ``MEASUREMENTS.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

SOURCES = Path(__file__).resolve().parent.parent / "src"

#: BLAS thread pools pinned to one thread, so that a run keeps to one core
#: and its timings do not depend on what else runs on the others.
BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SOURCES / "repro" / "__init__.py").is_file():
        print(f"perfbench: the program's sources are missing ({SOURCES})", file=sys.stderr)
        return 2
    for variable in BLAS_THREAD_VARIABLES:
        os.environ.setdefault(variable, "1")
    sys.path.insert(0, str(SOURCES))
    import workloads  # imports the program, so only after the check above

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose one of "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    run = workloads.traced_run if args.trace else workloads.untraced_run
    report = run(args.workload, args.seed, args.seconds)
    for name, (value, unit, samples) in report.metrics.items():
        raw = f"  raw {report.raw[name]:.6g} s" if name in report.raw else ""
        print(f"{name:40s} {value:14.6g} {unit:6s} n={samples}{raw}")
    for error in report.errors:
        print(f"error: {error}", file=sys.stderr)
    print(json.dumps({
        "correct": report.failed == 0 and report.consistent,
        "attempted": report.attempted,
        "failed": report.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in report.metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
