"""mpmath's increments of F1(z; mu, nu), the antiderivative of J_mu J_nu / t,
on the fine grids of ``tests/test_radial.py``'s ``_GAP_CASES``, one JSON
table next to this module: ``f1_small_gap.json``.

Every gap of those grids is at most 2.5e-3, so ``f1_integral`` carries F1
along them by the two-point Hermite rule alone. ``TestSmallGapTable``
compares its increments from the grid's first point with this table, in place
of recomputing mpmath's quadrature (about 1 s a case) on every run; a guard
beside it recomputes a seeded 3 entries and fails when the table's grids
differ from the test's. A change of those grids rewrites the table with

    PYTHONPATH=src python tests/reference/f1_small_gap.py

Each case holds its [mu, nu, z_min, z_max, points] and, at each of
``_gap_checkpoints``' grid indices past the first, the index, the grid point
as a JSON float (exact) and the increment as a decimal string at 30 digits,
integrated segment by segment between checkpoints with ``mpmath.quad``.
"""

from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path

import mpmath

HERE = Path(__file__).resolve().parent
DPS = 30


def main() -> int:
    spec = importlib.util.spec_from_file_location("test_radial", HERE.parent / "test_radial.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    cases = {}
    with mpmath.workdps(DPS):
        for case, (mu, nu, lo, hi, points) in module._GAP_CASES.items():
            idx, zs = module._gap_checkpoints(case)
            increments = module._mp_increments(mu, nu, zs[idx])
            cases[case] = {"case": [mu, nu, lo, hi, points],
                           "points": [[int(i), float(zs[i]), mpmath.nstr(v, DPS)]
                                      for i, v in zip(idx[1:], increments)]}
            print(f"{case}: {len(increments)} increments at {DPS} digits")
    text = ",\n".join(f"{json.dumps(k)}: {json.dumps(v)}" for k, v in cases.items())
    (HERE / "f1_small_gap.json").write_text('{"dps": %d, "cases": {\n%s\n}}\n' % (DPS, text))
    return 0


if __name__ == "__main__":
    sys.exit(main())
