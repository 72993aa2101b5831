"""One command, one report: every workload end to end, then traced.

Usage, from the root of a checkout::

    python3 perfbench/report.py --seed 1 --seconds 25

Runs ``run.py`` for each workload with tracing off and then on, prints
each run's end-to-end metrics or per-layer table, and closes with the
two predictions the benchmark was built to test: filter plus detect
holds the largest share of CPU time on ``fleet-250ms``, and the
delineation share on ``arrhythmia-3lead`` is at least twice its share
on ``fleet-250ms``.  Exits non-zero if any run did.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

sys.dont_write_bytecode = True

from run import use_checkout_src  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))


def run(workload: str, seed: int, seconds: float, trace: int) -> tuple[int, dict | None]:
    command = [
        sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(command, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    print("\n".join(lines[:-1]), flush=True)
    if proc.returncode:
        print(proc.stderr, file=sys.stderr)
    try:
        return proc.returncode, json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return proc.returncode or 1, None


def cpu_shares(metrics: dict) -> dict[str, float]:
    """Each layer's share of the traced window's CPU time."""
    cpu = {
        name[: -len(".self_cpu_s")]: entry["value"]
        for name, entry in metrics.items()
        if name.endswith(".self_cpu_s")
    }
    cpu["unattributed"] = metrics["unattributed.self_s"]["value"]
    total = sum(cpu.values())
    return {layer: value / total for layer, value in cpu.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    args = parser.parse_args(argv)
    use_checkout_src()
    from workloads import WORKLOADS

    failed = 0
    shares = {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            code, result = run(workload, args.seed, args.seconds, trace)
            failed += code != 0
            if trace and result is not None:
                shares[workload] = cpu_shares(result["metrics"])

    print("== seed predictions")
    fleet, arrhythmia = shares.get("fleet-250ms"), shares.get("arrhythmia-3lead")
    if fleet is None or arrhythmia is None:
        print("  not checked: a traced run failed")
        return 1
    front_end = fleet["dsp.filter"] + fleet["dsp.detect"]
    layer, largest = max(
        ((k, v) for k, v in fleet.items() if k not in ("dsp.filter", "dsp.detect")),
        key=lambda kv: kv[1],
    )
    print(
        f"  fleet-250ms: filter+detect {front_end:.1%} of CPU, next largest {layer} "
        f"{largest:.1%} -> {'held' if front_end > largest else 'NOT held'}"
    )
    ratio = arrhythmia["dsp.delineate"] / fleet["dsp.delineate"]
    print(
        f"  delineation share: arrhythmia-3lead {arrhythmia['dsp.delineate']:.1%}, "
        f"fleet-250ms {fleet['dsp.delineate']:.1%}, ratio {ratio:.2f} "
        f"-> {'held' if ratio >= 2 else 'NOT held'} (predicted >= 2)"
    )
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
