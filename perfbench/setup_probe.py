"""Set up one workload's tier in this fresh process, then wait.

Started by ``measure.fresh_setup_s``: prints ``ready`` once the tier
could take its first chunk, then stops the tier and exits when its
standard input closes.

    python3 perfbench/setup_probe.py WORKLOAD RUN_DIR
"""

import sys

sys.dont_write_bytecode = True

from run import use_checkout_src  # noqa: E402


def main() -> int:
    use_checkout_src()
    from measure import build_classifier
    from workloads import WORKLOADS

    workload = WORKLOADS[sys.argv[1]]
    tier = workload.start_tier(build_classifier(), workload.gateway_kwargs, sys.argv[2])
    try:
        print("ready", flush=True)
        sys.stdin.read()
    finally:
        tier.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
