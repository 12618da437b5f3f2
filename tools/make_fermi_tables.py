#!/usr/bin/env python3
"""Regenerate ``src/fermicloud/fermi_tables.json``, the shipped Fermi order tables.

Usage (from the root of a checkout):

    python3 tools/make_fermi_tables.py

For each order the package evaluates, alpha = d/2 - 2 and d/2 - 1 for
d = 3..9 (the nine orders -0.5, 0, ..., 3.5), the script runs the fit that
``FermiEvaluator`` otherwise runs at build time: Chebyshev panels of
``log f_alpha`` interpolated at quadrature values.  It writes their
coefficients, one panel per line, with ``repr`` floats so that reading the
file gives the fitted coefficients bit for bit.  The Tier-1 suite refits
every order and compares.  Needs scipy (the quadrature) and takes about a
second per order.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from fermicloud import fermi  # noqa: E402

ORDERS = sorted({d / 2.0 - k for d in range(3, 10) for k in (1, 2)})


def main() -> int:
    evaluator = fermi.FermiEvaluator
    layout = {"panels": evaluator._N_PANELS, "degree": evaluator._DEGREE,
              "lo": evaluator._lo, "hi": evaluator._hi}
    lines = ["{", f' "layout": {json.dumps(layout)},', ' "orders": {']
    for i, alpha in enumerate(ORDERS):
        panels = [json.dumps(list(coef)) for coef in evaluator._fit(alpha)]
        lines.append(f'  "{alpha!r}": [')
        lines += [f"   {row}," for row in panels[:-1]] + [f"   {panels[-1]}"]
        lines.append("  ]," if i < len(ORDERS) - 1 else "  ]")
    lines += [" }", "}"]
    fermi._TABLE_PATH.write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"wrote {len(ORDERS)} orders to {fermi._TABLE_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
