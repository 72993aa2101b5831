"""Run one workload of the fleet benchmark; print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload fleet-250ms --seed 1 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` makes the separate traced run that splits the cost by
layer.  Human-readable lines come first; the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``.  The exit code is 0 only when every session's events
matched the standalone-node reference.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time

sys.dont_write_bytecode = True


def use_checkout_src() -> None:
    """Put the checkout's ``src/`` first on the path, or fail."""
    src = os.path.abspath("src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        raise SystemExit("perfbench: run from the root of a checkout that holds src/repro")
    sys.path.insert(0, src)
    import repro

    if not os.path.abspath(repro.__file__).startswith(src + os.sep):
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}, not {src}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.perf_counter()
    use_checkout_src()

    from measure import run_end_to_end, run_traced
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    run_root = os.path.abspath(".perfbench_run")
    run_dir = os.path.join(run_root, str(os.getpid()))
    os.makedirs(run_dir)
    try:
        run = run_traced if args.trace else run_end_to_end
        metrics, notes, bad, attempted, failed = run(
            workload, args.seed, args.seconds, run_dir, started
        )
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            os.rmdir(run_root)
        except OSError:  # another run still uses it
            pass

    kind = "per-layer (traced)" if args.trace else "end-to-end"
    print(f"== {workload.name} {kind}, seed {args.seed}, {time.perf_counter() - started:.1f} s")
    for line in notes:
        print(f"  {line}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<34} {value:>14.6g} {unit}")
    for problem in bad:
        print(f"  MISMATCH {problem}")
    print(
        json.dumps(
            {
                "correct": not bad,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0 if not bad else 1


if __name__ == "__main__":
    sys.exit(main())
