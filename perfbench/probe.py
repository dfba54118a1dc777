"""Set-up probe: one fresh process's imports plus one workload warm-up.

Started by ``run.py`` with ``--t0`` set to the monotonic clock just before
the process was spawned; prints ``{"setup_s": ...}``, the time from spawn
to the end of the warm-up, minus the benchmark's own input generation.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--workers", type=int, required=True)
    parser.add_argument("--scratch", type=Path, required=True)
    args = parser.parse_args()
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

    import phases

    start = time.monotonic()
    workload = phases.WORKLOADS[args.workload](0, args.scratch, args.workers)
    inputs_s = time.monotonic() - start
    workload.warm_up()
    print(json.dumps({"setup_s": time.monotonic() - args.t0 - inputs_s}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
