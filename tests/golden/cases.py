"""Golden outputs of the ``abgup`` command line.

Every case below is one small command, run once as CSV and once as JSON.
Its output is kept byte for byte in the file ``<case>.csv`` or
``<case>.json`` next to this module, and ``tests/test_golden.py`` renders
each case through ``abgup.cli.main`` and compares it with its file.

A change that means to move output rewrites the files with

    PYTHONPATH=src python tests/golden/cases.py

which prints, per file, the largest difference of any column between the
file on disk and the new output, relative to that column's largest
magnitude on disk, so every change reports moved output the same way.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import sys
from pathlib import Path

from abgup import cli

HERE = Path(__file__).resolve().parent

# Each command is run with the default CSV output and with --format json.
_COMMANDS = {
    # integer-flux skips at alpha' = 1, 2 and 3: first, middle and last row
    "alpha_scan_beta0": ["alpha-scan", "--phi", "0.7", "--beta", "0",
                         "--alpha-min", "1", "--alpha-max", "3", "--steps", "9"],
    # integer-flux skips at alpha' = 1 and 2
    "alpha_scan_beta": ["alpha-scan", "--phi", "0.7", "--beta", "0.01",
                        "--alpha-min", "0.5", "--alpha-max", "2.5", "--steps", "9"],
    "alpha_scan_modulus": ["alpha-scan", "--phi", "-2.2", "--beta", "0.01", "--form", "modulus",
                           "--alpha-min", "-1.3", "--alpha-max", "3.7", "--steps", "11"],
    "phi_scan_beta0": ["phi-scan", "--alpha", "0.3", "--beta", "0",
                       "--phi-min", "-3", "--phi-max", "3", "--steps", "13"],
    # crosses phi = pi: CSV keeps the raw angle, JSON the principal one, and
    # the three points within the margin of pi are skipped
    "phi_scan_across_pi": ["phi-scan", "--alpha", "2.5", "--beta", "0.008", "--margin", "0.06",
                           "--phi-min", "2.6415926535897931", "--phi-max", "3.6415926535897931",
                           "--steps", "21"],
    # integer flux: every row is skipped on the integer-flux margin
    "phi_scan_integer_flux": ["phi-scan", "--alpha", "2", "--beta", "0.01",
                              "--phi-min", "-3", "--phi-max", "3", "--steps", "7"],
    # --margin 0: the last point reduces to -pi + 5e-7, within the amplitudes'
    # 1e-6 of forward, and is skipped as a ForwardSingularityError row
    "phi_scan_forward_error": ["phi-scan", "--alpha", "1.3", "--beta", "0.01", "--margin", "0",
                               "--phi-min", "2.1415926535897931",
                               "--phi-max", "3.1415931535897931", "--steps", "11"],
    "radial_beta0": ["radial", "--m", "1", "--alpha", "0.3", "--beta", "0",
                     "--z-min", "0.5", "--z-max", "16", "--steps", "12"],
    "radial_beta": ["radial", "--m", "-2", "--alpha", "0.5", "--beta", "0.01",
                    "--z-min", "0.1", "--z-max", "20", "--steps", "15"],
    "width_beta0": ["width", "--n", "1", "--phi", "0.5", "--beta", "0"],
    "width_beta": ["width", "--n", "-3", "--phi", "4.0", "--beta", "0.01"],
    "trajectory_uniform_b_beta0": ["trajectory", "--field", "uniform-b", "--b", "1", "--beta", "0",
                                   "--x0", "0,0", "--p0", "1,0", "--dt", "0.01", "--steps", "20"],
    "trajectory_ab_beta": ["trajectory", "--field", "ab", "--alpha", "0.5", "--beta", "0.01",
                           "--x0", "2,0", "--p0=-0.15,0.35", "--dt", "0.01", "--steps", "20"],
    "trajectory_uniform_e_3d_beta": ["trajectory", "--field", "uniform-e", "--e0", "0.1,0,0.2",
                                     "--beta", "0.01", "--x0", "0,0,0", "--p0", "0.5,0,0.2",
                                     "--dt", "0.05", "--steps", "12"],
    # the particle reaches the flux line and the field evaluation fails
    "trajectory_truncated": ["trajectory", "--field", "ab", "--alpha", "0",
                             "--x0=0.005,0", "--p0=-1,0", "--steps", "20"],
}

CASES = {
    f"{stem}.{fmt}": argv + ([] if fmt == "csv" else ["--format", "json"])
    for stem, argv in _COMMANDS.items()
    for fmt in ("csv", "json")
}


def render(argv: list[str]) -> str:
    """Output of ``abgup <argv>`` written to stdout."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    if rc != 0:
        raise RuntimeError(f"abgup {' '.join(argv)} exited {rc}")
    return buf.getvalue()


def _columns(text: str, name: str) -> tuple[dict[str, list], list]:
    """Columns of a CSV or JSON output by name, and its skip entries."""
    if name.endswith(".json"):
        doc = json.loads(text)
        cols: dict[str, list] = {}
        for rec in doc["records"]:
            for key, value in rec.items():
                cols.setdefault(key, []).append(value)
        return cols, doc["skipped"]
    lines = text.splitlines()
    header = lines[0].split(",")
    rows = [ln.split(",") for ln in lines[1:] if not ln.startswith("#")]
    skips = [ln for ln in lines[1:] if ln.startswith("#")]
    return {key: [float(row[i]) for row in rows] for i, key in enumerate(header)}, skips


def column_difference(old: str, new: str, name: str) -> str:
    """The largest per-column difference between two outputs of one case,
    relative to the column's largest magnitude in ``old``."""
    if old == new:
        return "identical"
    old_cols, old_skips = _columns(old, name)
    new_cols, new_skips = _columns(new, name)
    if list(old_cols) != list(new_cols) or any(
        len(old_cols[key]) != len(new_cols[key]) for key in old_cols
    ):
        return "columns or row count changed"
    worst, where = 0.0, "-"
    for key, olds in old_cols.items():
        scale = max((abs(v) for v in olds if math.isfinite(v)), default=0.0)
        for a, b in zip(olds, new_cols[key]):
            if a == b or (math.isnan(a) and math.isnan(b)):
                continue
            rel = abs(b - a) / scale if scale > 0.0 else math.inf
            if not rel <= worst:
                worst, where = rel, key
    if worst == 0.0:
        text = "same values, different text"
    else:
        text = f"largest difference {worst:.3g} of max|column| in {where}"
    return text if old_skips == new_skips else text + "; skip entries changed"


def main() -> int:
    for name, argv in CASES.items():
        path = HERE / name
        new = render(argv)
        old = path.read_bytes().decode("utf-8") if path.exists() else None
        print(f"{name}: " + ("new file" if old is None else column_difference(old, new, name)))
        path.write_bytes(new.encode("utf-8"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
