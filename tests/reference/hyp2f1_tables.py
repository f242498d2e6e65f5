"""mpmath's 50-digit values at the points of four tests, one JSON table each,
next to this module. Three hold 2F1(1, 1; c; x), for ``tests/test_specfun.py``:

* ``hyp2f1_inverse.json``  -- ``TestHyp2f1Branches``: every c of its ``_CS``
  at every x of its ``_inverse_args()``, |x| from 1.5 to 1e6;
* ``hyp2f1_rule.json``     -- ``TestEulerRule``: the points of
  ``_rule_points()``, region by region, where Euler's integral runs;
* ``hyp2f1_near_one.json`` -- ``TestHyp2f1NearOne``: |1 - x| from 1e-2 to
  1e-8.

One holds the kernel G(alpha', phi) of ``scattering.g_fn``, for
``tests/test_scattering.py``:

* ``kernel_g.json``        -- ``TestKernelTable``: the points of
  ``_kernel_table_points()``, G by the formula of ``TestKernel._g_mpmath``
  at the kernel's own gamma and locus point x.

The tests compare ``hyp2f1_11`` and ``g_fn`` with these tables in place of
recomputing mpmath's ``hyp2f1`` (2-60 ms a point, six per G) on every run. A
guard beside each recomputes a seeded 8 entries and fails when the table's
points differ from the test's. Each test module's ``_MP_TABLES`` names its
tables' points, and its ``_mp_reference`` gives the value at a point; a
change of those points rewrites the tables with

    PYTHONPATH=src python tests/reference/hyp2f1_tables.py

Each row is the point as JSON floats (exact, signed zeros kept; a complex
coordinate as its real and imaginary parts), [c, Re x, Im x] or
[alpha', phi], then the value's real and imaginary parts as 50-digit decimal
strings.
"""

from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path

import mpmath

HERE = Path(__file__).resolve().parent
DPS = 50
TEST_MODULES = ("test_specfun", "test_scattering")


def _coordinates(point) -> list[float]:
    """A point's coordinates as JSON floats, a complex one as two."""
    return [v for p in point for v in ((p.real, p.imag) if isinstance(p, complex) else (p,))]


def main() -> int:
    for stem in TEST_MODULES:
        spec = importlib.util.spec_from_file_location(stem, HERE.parent / f"{stem}.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        for name, points in module._MP_TABLES.items():
            rows = []
            with mpmath.workdps(DPS):
                for point in points():
                    f = module._mp_reference(*point)
                    rows.append([*_coordinates(point), mpmath.nstr(f.real, DPS), mpmath.nstr(f.imag, DPS)])
            text = ",\n".join(json.dumps(row) for row in rows)
            (HERE / name).write_text('{"dps": %d, "points": [\n%s\n]}\n' % (DPS, text))
            print(f"{name}: {len(rows)} points at {DPS} digits")
    return 0


if __name__ == "__main__":
    sys.exit(main())
