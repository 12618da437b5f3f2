"""Set-up time of one workload in a fresh interpreter.

Usage: python3 -B perfbench/setup_probe.py WORKLOAD

Times ``import fermicloud`` plus the workload's set-up, which evaluates
``R_value(model, 1.0)`` once per model it uses and ``bound_constant_C(d)``
where it uses that; together these fill every lazy table.  Prints one JSON
object ``{"setup_s": ...}``.
"""

import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402  (standard library only; fermicloud is not imported yet)


def main() -> int:
    workload = workloads.WORKLOADS[sys.argv[1]]
    t0 = time.perf_counter()
    import fermicloud

    workload.setup(fermicloud)
    elapsed = time.perf_counter() - t0
    print(json.dumps({"setup_s": elapsed}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
