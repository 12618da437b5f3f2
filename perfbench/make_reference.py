"""Recompute ``reference.json``: the roots the multiplicity workloads must find.

Usage: python3 perfbench/make_reference.py

The committed file was computed once from the code the benchmark was written
against, on the unshifted grids.  The roots do not depend on the seed's grid
shift to within the 1e-6 relative tolerance of the check, so the file holds
for every seed.  Regenerating it after a code change would hide a change of
results; a change that moves the roots is a finding, not a reason to rerun
this.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import fermicloud  # noqa: E402
import workloads  # noqa: E402


def main() -> int:
    reference = {}
    for cls in (workloads.MbMultiplicity, workloads.FfdMultiplicity):
        workload = cls(0, {})
        workload.shift = 0.0
        cls.setup(fermicloud)
        curve = workload.stage1(fermicloud, None)
        multiplicity, roots = workload.stage2(fermicloud, curve, None)
        reference[cls.name] = {
            "model": json.loads(cls.model(fermicloud).to_json()),
            "rho_range": [1e-2, 1e8],
            "points_per_decade": cls.points_per_decade,
            "target_mass": 2.0 * fermicloud.sigma_d(3),
            "multiplicity": multiplicity,
            "roots": list(roots),
        }
    path = HERE / "reference.json"
    path.write_text(json.dumps(reference, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
