"""mpmath's 50-digit values of 2F1(1, 1; c; x) at the points of
``TestHyp2f1Branches`` in ``tests/test_specfun.py``: every c of its ``_CS``
at every x of its ``_inverse_args()``, |x| from 1.5 to 1e6.

``test_inverse_series_against_mpmath`` compares ``hyp2f1_11`` with the table
``hyp2f1_inverse.json`` next to this module, in place of recomputing mpmath's
``hyp2f1`` (2-60 ms a point) on every run. A guard beside it recomputes a
seeded 8 entries and fails when the table's points differ from the test's.
A change of those points rewrites the table with

    PYTHONPATH=src python tests/reference/hyp2f1_inverse.py

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
TABLE = HERE / "hyp2f1_inverse.json"
DPS = 50


def main() -> int:
    spec = importlib.util.spec_from_file_location("test_specfun", HERE.parent / "test_specfun.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    branches = module.TestHyp2f1Branches
    rows = []
    with mpmath.workdps(DPS):
        for c in branches._CS:
            for x in branches._inverse_args():
                f = mpmath.hyp2f1(1, 1, mpmath.mpf(c), mpmath.mpc(x.real, x.imag))
                rows.append([c, x.real, x.imag, mpmath.nstr(f.real, DPS), mpmath.nstr(f.imag, DPS)])
    text = ",\n".join(json.dumps(row) for row in rows)
    TABLE.write_text('{"dps": %d, "points": [\n%s\n]}\n' % (DPS, text))
    print(f"{TABLE.name}: {len(rows)} points at {DPS} digits")
    return 0


if __name__ == "__main__":
    sys.exit(main())
