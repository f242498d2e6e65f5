"""mpmath's 50-digit values of 2F1(1, 1; c; x) at the points of three tests
in ``tests/test_specfun.py``, one JSON table each, next to this module:

* ``hyp2f1_inverse.json``  -- ``TestHyp2f1Branches``: every c of its ``_CS``
  at every x of its ``_inverse_args()``, |x| from 1.5 to 1e6;
* ``hyp2f1_rule.json``     -- ``TestEulerRule``: the points of
  ``_rule_points()``, region by region, where Euler's integral runs;
* ``hyp2f1_near_one.json`` -- ``TestHyp2f1NearOne``: |1 - x| from 1e-2 to
  1e-8.

The tests compare ``hyp2f1_11`` with these tables in place of recomputing
mpmath's ``hyp2f1`` (2-60 ms a point) on every run. A guard beside each
recomputes a seeded 8 entries and fails when the table's points differ from
the test's. The test module's ``_MP_TABLES`` names each table's points; a
change of those points rewrites the tables with

    PYTHONPATH=src python tests/reference/hyp2f1_tables.py

Each row is [c, Re x, Im x, Re F, Im F], the point as JSON floats (exact,
signed zeros kept) and the value as 50-digit decimal strings.
"""

from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path

import mpmath

HERE = Path(__file__).resolve().parent
DPS = 50


def main() -> int:
    spec = importlib.util.spec_from_file_location("test_specfun", HERE.parent / "test_specfun.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    for name, points in module._MP_TABLES.items():
        rows = []
        with mpmath.workdps(DPS):
            for c, x in points():
                f = mpmath.hyp2f1(1, 1, mpmath.mpf(c), mpmath.mpc(x.real, x.imag))
                rows.append([c, x.real, x.imag, mpmath.nstr(f.real, DPS), mpmath.nstr(f.imag, DPS)])
        text = ",\n".join(json.dumps(row) for row in rows)
        (HERE / name).write_text('{"dps": %d, "points": [\n%s\n]}\n' % (DPS, text))
        print(f"{name}: {len(rows)} points at {DPS} digits")
    return 0


if __name__ == "__main__":
    sys.exit(main())
