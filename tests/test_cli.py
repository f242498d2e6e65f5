"""Command-line interface: emission formats, skip annotations,
determinism and exit codes."""

import argparse
import contextlib
import io
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from abgup import PhysicalParams, dsigma, flux_split, selftest, width
from abgup.cli import _build_parser, _write, main


def _rows(path):
    lines = path.read_text().splitlines()
    header = lines[0]
    data = [ln for ln in lines[1:] if not ln.startswith("#")]
    skips = [ln for ln in lines[1:] if ln.startswith("# skipped")]
    return header, data, skips


def _run_to_stdout(argv, warning_action="error"):
    """main(argv) with output to stdout, warnings as errors by default;
    returns (exit code, stdout, stderr). An exception main does not turn
    into an exit code propagates."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with warnings.catch_warnings():
            warnings.simplefilter(warning_action)
            rc = main([*argv, "--out", "-"])
    return rc, out.getvalue(), err.getvalue()


def _assert_finite_rows(argv, out):
    if out.startswith("{"):
        values = [v for rec in json.loads(out)["records"] for v in rec.values()]
    else:
        rows = [ln for ln in out.splitlines()[1:] if not ln.startswith("#")]
        values = [float(tok) for ln in rows for tok in ln.split(",")]
    assert all(math.isfinite(v) for v in values), (argv, out)


def _assert_finite_rows_or_one_line_error(argv):
    """Exit 0 with only finite numbers in the output, or exit 1 or 2 with a
    one-line message, no output and no warning."""
    rc, out, err = _run_to_stdout(argv)
    if rc == 0:
        _assert_finite_rows(argv, out)
    else:
        assert rc in (1, 2), (argv, rc)
        assert out == "" and err.startswith("abgup: ") and err.count("\n") == 1, (argv, err)


# =====================================================================
# Scan subcommands
# =====================================================================

class TestScans:
    def test_alpha_scan_csv(self, tmp_path):
        out = tmp_path / "scan.csv"
        rc = main(
            [
                "alpha-scan", "--phi", "0.785398163", "--beta", "0.01",
                "--alpha-min", "0.01", "--alpha-max", "1.99", "--steps", "50",
                "--out", str(out),
            ]
        )
        assert rc == 0
        header, data, _ = _rows(out)
        assert header == "alpha_prime,phi,beta,dsigma"
        assert len(data) == 50
        a0, phi0, beta0, d0 = (float(tok) for tok in data[0].split(","))
        assert a0 == 0.01
        assert beta0 == 0.01
        assert d0 == pytest.approx(
            dsigma(phi0, a0, PhysicalParams(beta=0.01)), rel=1e-15
        )

    def test_alpha_scan_beta_zero_closed_form(self, tmp_path):
        out = tmp_path / "scan.csv"
        assert main(
            [
                "alpha-scan", "--phi", str(math.pi / 4), "--beta", "0",
                "--alpha-min", "0.05", "--alpha-max", "0.95", "--steps", "10",
                "--out", str(out),
            ]
        ) == 0
        _, data, _ = _rows(out)
        for line in data:
            a, phi, _, d = (float(tok) for tok in line.split(","))
            gamma = flux_split(a).gamma_part
            ref = math.sin(math.pi * gamma) ** 2 / (2 * math.pi * math.cos(phi / 2) ** 2)
            assert d == pytest.approx(ref, abs=1e-14)

    def test_phi_scan_skips_near_pi(self, tmp_path):
        out = tmp_path / "scan.csv"
        rc = main(
            [
                "phi-scan", "--alpha", "2.5", "--beta", "0.008",
                "--phi-min", str(math.pi - 0.02), "--phi-max", str(math.pi + 0.02),
                "--steps", "5", "--out", str(out),
            ]
        )
        assert rc == 0
        _, data, skips = _rows(out)
        assert len(data) == 4
        assert len(skips) == 1
        assert "forward-direction margin" in skips[0]
        assert f"phi={math.pi:.17g}" in skips[0]

    def test_alpha_scan_skips_integer_flux(self, tmp_path):
        out = tmp_path / "scan.csv"
        assert main(
            [
                "alpha-scan", "--phi", "0.5", "--beta", "0.01",
                "--alpha-min", "0.99995", "--alpha-max", "1.00005", "--steps", "3",
                "--out", str(out),
            ]
        ) == 0
        _, data, skips = _rows(out)
        assert len(data) == 0
        assert len(skips) == 3
        assert all("integer-flux margin" in s for s in skips)

    def test_margin_flag_widens_skip_band(self, tmp_path):
        out = tmp_path / "scan.csv"
        assert main(
            [
                "phi-scan", "--alpha", "0.5", "--beta", "0.01",
                "--phi-min", "3.0", "--phi-max", "3.1", "--steps", "3",
                "--margin", "0.2", "--out", str(out),
            ]
        ) == 0
        _, data, skips = _rows(out)
        assert len(data) == 0
        assert len(skips) == 3

    def test_deterministic_output(self, tmp_path):
        argv = [
            "alpha-scan", "--phi", "0.7853981634", "--beta", "0.01",
            "--alpha-min", "0.01", "--alpha-max", "1.99", "--steps", "40",
        ]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(argv + ["--out", str(a)]) == 0
        assert main(argv + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_json_round_trip(self, tmp_path):
        out = tmp_path / "scan.json"
        assert main(
            [
                "alpha-scan", "--phi", "0.785", "--beta", "0.01",
                "--alpha-min", "0.3", "--alpha-max", "1.7", "--steps", "10",
                "--format", "json", "--out", str(out),
            ]
        ) == 0
        doc = json.loads(out.read_text())
        assert len(doc["records"]) == 10
        assert doc["skipped"] == []
        rec = doc["records"][0]
        assert set(rec) == {
            "alpha_prime", "phi", "beta", "f0_re", "f0_im", "f1_re", "f1_im", "dsigma",
        }
        assert json.loads(json.dumps(doc, sort_keys=True)) == doc

    def test_json_skip_records(self, tmp_path):
        out = tmp_path / "scan.json"
        assert main(
            [
                "alpha-scan", "--phi", "0.5", "--beta", "0.01",
                "--alpha-min", "1.0", "--alpha-max", "1.0", "--steps", "2",
                "--format", "json", "--out", str(out),
            ]
        ) == 0
        doc = json.loads(out.read_text())
        assert doc["records"] == []
        assert len(doc["skipped"]) == 2
        assert doc["skipped"][0]["reason"] == "integer-flux margin"

    def test_stdout_emission(self, capsys):
        assert main(
            [
                "alpha-scan", "--phi", "0.5", "--beta", "0",
                "--alpha-min", "0.2", "--alpha-max", "0.8", "--steps", "3",
                "--out", "-",
            ]
        ) == 0
        captured = capsys.readouterr().out
        assert captured.startswith("alpha_prime,phi,beta,dsigma\n")
        assert len(captured.strip().splitlines()) == 4

    @pytest.mark.parametrize(
        "bad, argv, flag",
        [
            # angles also beyond the |phi| <= 1e6 limit; a huge margin is valid
            pytest.param(bad, argv, flag, id=f"{bad}-argv{i}-{flag}")
            for bad in ("nan", "inf", "-inf", "1e300", "-1e300")
            for i, (argv, flag) in enumerate([
                (["alpha-scan", "--phi=0.5", "--alpha-min=0.2", "--alpha-max=0.8"], "--phi"),
                (["phi-scan", "--alpha=0.3", "--phi-min=0.2", "--phi-max=0.8"], "--phi-min"),
                (["phi-scan", "--alpha=0.3", "--phi-min=0.2", "--phi-max=0.8"], "--phi-max"),
                (["alpha-scan", "--phi=0.5", "--alpha-min=0.2", "--alpha-max=0.8"], "--margin"),
                (["phi-scan", "--alpha=0.3", "--phi-min=0.2", "--phi-max=0.8"], "--margin"),
            ])
            if flag != "--margin" or "e300" not in bad
        ],
    )
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_non_finite_angle_or_margin_exits_1(self, tmp_path, capsys, argv, flag, bad, fmt):
        out = tmp_path / "x.out"
        rc = main([*argv, "--steps=3", "--beta=0.01", f"{flag}={bad}",
                   f"--format={fmt}", "--out", str(out)])
        assert rc == 1
        assert "finite" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_margin_exits_1(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        rc = main(["phi-scan", "--alpha=0.3", "--phi-min=3.1", "--phi-max=3.2",
                   "--steps=3", "--margin=-0.1", "--out", str(out)])
        assert rc == 1
        assert "--margin" in capsys.readouterr().err
        assert not out.exists()

    def test_steps_validation(self, tmp_path):
        rc = main(
            [
                "alpha-scan", "--phi", "0.5", "--alpha-min", "0.2",
                "--alpha-max", "0.8", "--steps", "1", "--out", str(tmp_path / "x.csv"),
            ]
        )
        assert rc == 1


# =====================================================================
# Radial / trajectory / width
# =====================================================================

class TestRadial:
    def test_csv_shape(self, tmp_path):
        out = tmp_path / "radial.csv"
        rc = main(
            [
                "radial", "--m", "1", "--alpha", "0.3", "--z-min", "0.5",
                "--z-max", "10", "--steps", "25", "--beta", "0.01", "--out", str(out),
            ]
        )
        assert rc == 0
        header, data, _ = _rows(out)
        assert header == "z,m,alpha_prime,re_f0,im_f0,re_f1,im_f1"
        assert len(data) == 25
        first = data[0].split(",")
        assert float(first[0]) == 0.5
        assert first[1] == "1"

    def test_small_z_rejected(self, tmp_path):
        rc = main(["radial", "--alpha", "0.3", "--z-min", "0.05", "--out", str(tmp_path / "x.csv")])
        assert rc == 1

    def test_degenerate_mode_rejected(self, tmp_path):
        rc = main(["radial", "--m", "1", "--alpha", "1.0", "--out", str(tmp_path / "x.csv")])
        assert rc == 1

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_alpha_exits_1(self, tmp_path, capsys, bad):
        out = tmp_path / "x.csv"
        rc = main(["radial", "--m", "1", f"--alpha={bad}", "--steps=3", "--out", str(out)])
        assert rc == 1
        assert "finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("m", [150, 170, 200, -150])
    def test_large_order_is_finite_or_typed(self, m):
        # at the default z-min = 0.5, J_-nu overflows from about |m| = 150
        _assert_finite_rows_or_one_line_error(
            ["radial", "--alpha", "0.3", f"--m={m}", "--beta", "0.01", "--steps", "3"]
        )

    def test_order_170_writes_finite_rows(self):
        # Gamma(172.3) of the order itself overflows; the closed forms need only
        # finite products of Gammas
        argv = ["radial", "--alpha", "0.3", "--m", "170", "--beta", "0.01", "--steps", "3",
                "--z-min", "5"]
        rc, out, err = _run_to_stdout(argv)
        assert rc == 0 and err == ""
        _assert_finite_rows(argv, out)
        assert len(out.splitlines()) == 4

    def test_order_200_overflow_stays_typed(self):
        # J_-nu itself exceeds the largest double on the panels from z = 4
        rc, out, err = _run_to_stdout(["radial", "--alpha", "0.3", "--m", "200", "--beta",
                                       "0.01", "--steps", "3", "--z-min", "5"])
        assert rc == 2 and out == ""
        assert "|J_-200.3| overflows" in err

    def test_z_beyond_panel_cap_exits_1(self, tmp_path, capsys):
        # the degenerate-order panels would need about 2e309 nodes; rejected at once
        out = tmp_path / "x.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(["radial", "--alpha", "0.3", "--steps", "2", "--z-max", "1e308",
                       "--out", str(out)])
        assert rc == 1
        assert "z <= 10000" in capsys.readouterr().err
        assert not out.exists()


class TestTrajectory:
    def test_csv_2d(self, tmp_path):
        out = tmp_path / "traj.csv"
        rc = main(
            [
                "trajectory", "--field", "uniform-b", "--b", "1.0",
                "--x0", "0,0", "--p0", "1,0", "--dt", "0.001", "--steps", "100",
                "--out", str(out),
            ]
        )
        assert rc == 0
        header, data, _ = _rows(out)
        assert header == "t,x1,x2,v1,v2,energy"
        assert len(data) == 101
        energies = [float(ln.split(",")[-1]) for ln in data]
        assert max(energies) - min(energies) < 1e-12

    def test_csv_3d(self, tmp_path):
        out = tmp_path / "traj.csv"
        rc = main(
            [
                "trajectory", "--field", "uniform-e", "--e0", "0.1,0,0",
                "--x0", "0,0,0", "--p0", "0.5,0,0.2", "--steps", "10",
                "--out", str(out),
            ]
        )
        assert rc == 0
        header, data, _ = _rows(out)
        assert header == "t,x1,x2,x3,v1,v2,v3,energy"
        assert len(data) == 11

    def test_ab_needs_2d(self, tmp_path):
        rc = main(
            ["trajectory", "--field", "ab", "--x0", "1,0,0", "--p0", "0,1,0",
             "--out", str(tmp_path / "x.csv")]
        )
        assert rc == 1

    def test_bad_vector(self, tmp_path):
        rc = main(["trajectory", "--x0", "a,b", "--out", str(tmp_path / "x.csv")])
        assert rc == 1

    @pytest.mark.parametrize(
        "flag",
        ["--dt", "--x0", "--p0", "--t0",
         "--hbar", "--beta", "--mass", "--charge", "--k", "--b", "--alpha", "--e0"],
    )
    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_input_exits_1(self, tmp_path, capsys, flag, bad):
        value = f"{bad},0" if flag in ("--x0", "--p0", "--e0") else bad
        field = {"--alpha": "ab", "--e0": "uniform-e"}.get(flag, "uniform-b")
        out = tmp_path / "x.csv"
        rc = main(["trajectory", "--field", field, f"{flag}={value}", "--out", str(out)])
        assert rc == 1
        assert "finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["--dt", "1e300", "--steps", "3"],
        ["--x0", "1e300,0", "--beta", "0.01", "--steps", "3"],
    ])
    def test_overflowing_state_exits_2(self, argv):
        # the state overflows to nan in the first step
        rc, out, err = _run_to_stdout(["trajectory", *argv])
        assert rc == 2 and out == ""
        assert err.startswith("abgup: accuracy failure: trajectory state is not finite")
        _assert_finite_rows_or_one_line_error(["trajectory", *argv])

    def test_neutral_particle(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        rc = main(["trajectory", "--field", "ab", "--charge=0", "--out", str(out)])
        assert rc == 1
        assert "charge" in capsys.readouterr().err
        assert not out.exists()
        # the uniform fields take a neutral particle
        rc = main(["trajectory", "--field", "uniform-b", "--charge=0", "--steps=3",
                   "--out", str(out)])
        assert rc == 0 and len(_rows(out)[1]) == 4

    def test_json_records(self, tmp_path):
        out = tmp_path / "traj.json"
        assert main(
            [
                "trajectory", "--field", "free", "--x0", "0,0", "--p0", "1,1",
                "--steps", "5", "--format", "json", "--out", str(out),
            ]
        ) == 0
        doc = json.loads(out.read_text())
        assert len(doc["records"]) == 6
        assert set(doc["records"][0]) == {"t", "x1", "x2", "v1", "v2", "energy"}


class TestWidth:
    def test_single_row(self, tmp_path):
        out = tmp_path / "w.csv"
        rc = main(
            ["width", "--n", "1", "--phi", str(math.pi / 4), "--beta", "0.01",
             "--out", str(out)]
        )
        assert rc == 0
        header, data, _ = _rows(out)
        assert header == "n,phi,beta,width"
        assert len(data) == 1
        val = float(data[0].split(",")[-1])
        assert val == pytest.approx(
            width(1, math.pi / 4, PhysicalParams(beta=0.01)), rel=1e-15
        )
        assert val == pytest.approx(0.0222144, abs=1e-6)

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "1e300", "-1e300"])
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_non_finite_phi_exits_1(self, tmp_path, capsys, bad, fmt):
        out = tmp_path / "w.out"
        rc = main(["width", "--n", "1", f"--phi={bad}", f"--format={fmt}", "--out", str(out)])
        assert rc == 1
        assert "finite" in capsys.readouterr().err
        assert not out.exists()


# =====================================================================
# Output writer
# =====================================================================

def _reference_json(records, skipped):
    return json.dumps({"records": records, "skipped": skipped}, sort_keys=True, indent=2) + "\n"


def _written(tmp_path, fmt, columns, values, skipped=()):
    """The text ``_write`` writes for these arguments in ``fmt``."""
    out = tmp_path / f"doc.{fmt}"
    _write(argparse.Namespace(format=fmt, out=str(out)), columns, values, list(skipped))
    return out.read_text()


def _write_json(tmp_path, records, skipped, fold):
    """``records`` (dicts with the same keys) written by ``_write`` as JSON;
    with ``fold``, a column holding the same object in every record is
    passed as a constant column, else every column is read per row."""
    names = tuple(records[0]) if records else ("x",)
    columns = tuple(
        (c, records[0][c])
        if fold and records and all(rec[c] is records[0][c] for rec in records)
        else c
        for c in names
    )
    if not any(isinstance(c, str) for c in columns):
        columns = (names[0], *columns[1:])  # at least one column is read per row
    values = [rec[c] for rec in records for c in columns if isinstance(c, str)]
    return _written(tmp_path, "json", columns, values, [(0, "", rec) for rec in skipped])


_ALL_KINDS = {  # one of each value type the writer meets, then a second row
    "z": (math.nan, 1.5), "y": (math.inf, -math.inf), "x": (-math.inf, math.inf),
    "w": (np.float64(0.1), np.float64(-2.5)), "v": (-0.0, 0.0), "n": (3, -1),
    "m": (-7, 10**20), "flag": (True, False), "none": (None, None),
    "big": (1e300, -1e300), "tiny": (5e-324, -5e-324),
}


class TestJsonWriter:
    @pytest.mark.parametrize(
        "records, skipped",
        [
            ([], []),
            ([{"a": 1.0}], []),
            ([], [{"reason": "x"}]),
            ([{"a": "x", "b": 2}, {"a": "y", "b": -3}], [{"c": 1}]),
            (
                [{k: pair[0] for k, pair in _ALL_KINDS.items()},
                 {k: pair[1] for k, pair in _ALL_KINDS.items()}],
                [{"reason": 'a, "quoted"\nline\tand \\ and \u00e9', "phi": np.float64(-2.5)}],
            ),
            # text that looks like the break between two records
            ([{"s": "},\n      {"}, {"s": "}, {"}], [{"s": "}"}]),
            # template syntax in keys, values and skips, one constant column
            (
                [{"100%": "%s %(x)s", "k": "\u00e9%d", "r": 0.5},
                 {"100%": "%%", "k": "\u00e9%d", "r": -0.5}],
                [{"reason": "50%s"}],
            ),
            # the same object in every row of every column
            ([{"a": -0.0, "b": 10**20, "c": None, "d": True}] * 3, []),
        ],
    )
    def test_matches_json_dumps_indent_2(self, tmp_path, records, skipped):
        # the JSON document of _write, with and without constant columns
        expected = _reference_json(records, skipped)
        assert _write_json(tmp_path, records, skipped, fold=False) == expected
        assert _write_json(tmp_path, records, skipped, fold=True) == expected

    @pytest.mark.parametrize(
        "argv",
        [
            ["alpha-scan", "--phi", "0.5", "--beta", "0.01", "--alpha-min", "1.0",
             "--alpha-max", "1.3", "--steps", "7"],
            ["radial", "--m", "1", "--alpha", "0.3", "--z-min", "0.5", "--z-max", "16",
             "--steps", "9", "--beta", "0.01"],
            ["trajectory", "--field", "ab", "--alpha", "0", "--x0", "0.7,0",
             "--p0=-1,0", "--dt", "0.01", "--steps", "100"],
        ],
    )
    def test_cli_records_match_json_dumps(self, tmp_path, argv):
        # a scan with skipped rows, a radial dump and a truncated trajectory
        out = tmp_path / "doc.json"
        assert main(argv + ["--format", "json", "--out", str(out)]) == 0
        text = out.read_text()
        doc = json.loads(text)
        assert doc["records"] and (doc["skipped"] or argv[0] == "radial")
        assert text == _reference_json(doc["records"], doc["skipped"])


class TestCsvWriter:
    def test_template_and_skips_in_place(self, tmp_path):
        values = [1, 0.1, -0.0, -2, 1e-300, math.inf, 30, 2.5, math.nan]
        skipped = [
            (0, "skipped at=%(at)d", {"at": 0}),
            (2, "skipped x=%(x).17g why=%(why)s", {"x": 0.3, "why": "a b"}),
            (2, "%(reason)s, twice", {"reason": "again"}),
            (3, "end", {}),
            (3, "rate %(r)s", {"r": "5% %s"}),
        ]
        assert _written(tmp_path, "csv", ("n", "x", "y"), values, skipped) == (
            "n,x,y\n"
            "# skipped at=0\n"
            "1,0.10000000000000001,-0\n"
            "-2,1e-300,inf\n"
            "# skipped x=0.29999999999999999 why=a b\n"
            "# again, twice\n"
            "30,2.5,nan\n"
            "# end\n"
            "# rate 5% %s\n"
        )

    def test_constant_columns_read_as_formatted_per_row(self, tmp_path):
        # a constant column is formatted once into the row template, as the
        # same value read from every row would be
        neg, beta, big = -0.0, 0.1, 10**20
        names = ("zero", "neg", "m", "beta", "big")
        expected = (
            "zero,neg,m,beta,big\n"
            "0,-0,7,0.10000000000000001,100000000000000000000\n"
            "# # mid\n"
            "-0,-0,7,0.10000000000000001,100000000000000000000\n"
            "0,-0,7,0.10000000000000001,100000000000000000000\n"
        )
        folded = ("zero", ("neg", neg), ("m", 7), ("beta", beta), ("big", big))
        got = _written(tmp_path, "csv", folded, [0.0, -0.0, 0.0], [(1, "# mid", {})])
        assert got == expected
        per_row = [v for z in (0.0, -0.0, 0.0) for v in (z, neg, 7, beta, big)]
        assert _written(tmp_path, "csv", names, per_row, [(1, "# mid", {})]) == expected
        assert _written(tmp_path, "csv", ("x",), [0.0, -0.0]) == "x\n0\n-0\n"
        assert _written(tmp_path, "csv", ("x", "y"), [neg, 3]) == "x,y\n-0,3\n"
        assert _written(tmp_path, "csv", (("x", neg), "y"), [3]) == "x,y\n-0,3\n"
        assert _written(tmp_path, "csv", ("x", ("y", 3)), []) == "x,y\n"

    def test_value_types_in_both_formats(self, tmp_path):
        # the numeric kinds of _ALL_KINDS (None has no CSV form), with and
        # without a constant column; JSON against json.dumps
        names = ("z", "y", "x", "w", "v", "n", "m", "flag", "big", "tiny")
        values = [_ALL_KINDS[k][i] for i in (0, 1) for k in names]
        assert _written(tmp_path, "csv", names, values, [(1, "%(k)s", {"k": "mid"})]) == (
            "z,y,x,w,v,n,m,flag,big,tiny\n"
            "nan,inf,-inf,0.10000000000000001,-0,3,-7,1,1.0000000000000001e+300,"
            "4.9406564584124654e-324\n"
            "# mid\n"
            "1.5,-inf,inf,-2.5,0,-1,100000000000000000000,0,-1.0000000000000001e+300,"
            "-4.9406564584124654e-324\n"
        )
        folded = (("flag", True), *names)
        got = _written(tmp_path, "csv", folded, values[:10])
        assert got.splitlines()[1] == "1," + _written(tmp_path, "csv", names, values[:10]).splitlines()[1]
        records = [dict(zip(names, values[:10])), dict(zip(names, values[10:]))]
        skipped = [{"reason": "mid", "at": math.nan}]
        got = _written(tmp_path, "json", names, values, [(1, "%(reason)s", skipped[0])])
        assert got == _reference_json(records, skipped)


# =====================================================================
# Exit codes and selftest
# =====================================================================

def _fresh_python(args):
    """Run a new interpreter that imports abgup from this checkout."""
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=60
    )


# Prints the scipy modules a fresh interpreter holds after importing abgup
# and abgup.cli, then again after running each command of sys.argv[1:]
# (JSON lists of argv, one per command) through main with stdout captured.
_SCIPY_PROBE = """
import contextlib, io, json, sys
import abgup, abgup.cli

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

print(json.dumps(scipy_modules()))
for argv in sys.argv[1:]:
    with contextlib.redirect_stdout(io.StringIO()):
        rc = abgup.cli.main(json.loads(argv))
    assert rc == 0, argv
print(json.dumps(scipy_modules()))
"""


class TestScipyLoadedOnlyByTheOracle:
    """scipy backs the quadrature oracle alone: importing the package and
    running scans, radial dumps, widths and trajectories never loads it."""

    def _probe(self, commands):
        done = _fresh_python(["-c", _SCIPY_PROBE, *(json.dumps(argv) for argv in commands)])
        assert done.returncode == 0, done.stderr
        after_import, after_commands = (json.loads(ln) for ln in done.stdout.splitlines())
        return after_import, after_commands

    def test_commands_load_no_scipy(self):
        commands = [
            ["alpha-scan", "--phi", "0.7", "--alpha-min", "0.1", "--alpha-max", "2.9",
             "--steps", "9", "--beta", "0.01"],
            ["phi-scan", "--alpha", "0.3", "--phi-min", "-3", "--phi-max", "3",
             "--steps", "9", "--beta", "0.01", "--format", "json"],
            ["radial", "--m", "1", "--alpha", "0.3", "--z-max", "20", "--steps", "40",
             "--beta", "0.01"],
            ["radial", "--m", "0", "--alpha", "0.5", "--z-max", "20", "--steps", "40",
             "--beta", "0.01", "--format", "json"],
            ["width", "--n", "1", "--phi", "0.5", "--beta", "0.01"],
            ["trajectory", "--steps", "50", "--beta", "0.01"],
        ]
        assert self._probe(commands) == ([], [])

    def test_selftest_loads_scipy(self):
        after_import, after_selftest = self._probe([["selftest"]])
        assert after_import == []
        assert {"scipy.integrate", "scipy.special"} <= set(after_selftest)


class TestExitCodes:
    def test_help_is_zero(self, capsys):
        assert main(["--help"]) == 0
        capsys.readouterr()

    def test_unknown_flag(self, capsys):
        assert main(["alpha-scan", "--bogus", "1"]) == 1
        capsys.readouterr()

    def test_missing_required(self, capsys):
        assert main(["width", "--n", "1"]) == 1
        capsys.readouterr()

    def test_unwritable_path(self):
        rc = main(
            ["width", "--n", "1", "--phi", "0.5", "--out", "/nonexistent-dir/x.csv"]
        )
        assert rc == 1

    def test_parser_is_built_once_and_calls_do_not_leak(self, tmp_path):
        assert _build_parser() is _build_parser()
        argv = ["width", "--n", "1", "--phi", "0.5", "--beta", "0.01"]
        first, second = tmp_path / "a.out", tmp_path / "b.out"
        assert main(argv + ["--format", "json", "--out", str(first)]) == 0
        assert main(argv + ["--out", str(second)]) == 0
        assert json.loads(first.read_text())["records"][0]["n"] == 1
        header, data, _ = _rows(second)
        assert header == "n,phi,beta,width"
        assert data[0].split(",")[:3] == ["1", "0.5", "0.01"]
        third = tmp_path / "c.out"
        assert main(["width", "--n", "2", "--phi", "0.5", "--out", str(third)]) == 0
        _, data, _ = _rows(third)
        assert data[0].split(",")[:3] == ["2", "0.5", "0"]

    def test_python_dash_m(self):
        done = _fresh_python(["-m", "abgup", "--help"])
        assert done.returncode == 0
        assert "usage: abgup" in done.stdout

    def test_selftest_passes(self, capsys):
        rc = main(["selftest"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "FAIL" not in out
        assert "checks passed" in out


class TestSelftestRunner:
    """``abgup selftest`` runs ``selftest.CHECKS``, one (name, check,
    tolerance) row per printed line."""

    def _run(self, monkeypatch, capsys, rows):
        monkeypatch.setattr(selftest, "CHECKS", rows)
        rc = main(["selftest"])
        return rc, capsys.readouterr().out.splitlines()

    @pytest.mark.parametrize("figure, tol", [
        (2e-3, 1e-3), (1e-3, 1e-3), (math.nan, 1.0), (math.inf, 1.0), (-math.inf, 1.0),
        (5e-324, 0.0),
    ])
    def test_figure_outside_tolerance_fails(self, monkeypatch, capsys, figure, tol):
        rows = [("first", lambda: 0.0, 0.0), ("second", lambda: figure, tol),
                ("third", lambda: -1.0, 1e-3)]
        rc, lines = self._run(monkeypatch, capsys, rows)
        assert rc == 2
        assert lines == [
            "ok   first  (0.00e+00, tolerance 0)",
            f"FAIL second  ({figure:.2e}, tolerance {tol:g})",
            "ok   third  (-1.00e+00, tolerance 0.001)",
            "selftest: 2/3 checks passed",
        ]

    def test_raising_check_fails_its_row_only(self, monkeypatch, capsys):
        def crash():
            return 1.0 / 0.0

        rows = [("crash", crash, 1.0), ("next", lambda: 0.5, 1.0)]
        rc, lines = self._run(monkeypatch, capsys, rows)
        assert rc == 2
        assert lines == [
            "FAIL crash  (ZeroDivisionError: float division by zero)",
            "ok   next  (5.00e-01, tolerance 1)",
            "selftest: 1/2 checks passed",
        ]

    def test_all_rows_passing_exits_0(self, monkeypatch, capsys):
        rows = [("a", lambda: 0.0, 0.0), ("b", lambda: 1e-9, 1e-8)]
        rc, lines = self._run(monkeypatch, capsys, rows)
        assert rc == 0
        assert lines[-1] == "selftest: 2/2 checks passed"

    def test_check_names_in_order(self):
        assert [name for name, _, _ in selftest.CHECKS] == [
            "core: uncertainty bound floor",
            "core: uncertainty bound above floor",
            "core: flux split exactness",
            "core: momentum map",
            "core: commutator residual size",
            "core: commutator residual O(h^2)",
            "specfun: gamma reflection",
            "specfun: digamma recurrence",
            "specfun: bessel recurrence",
            "specfun: 2f1 log identity",
            "specfun: 2f1 log identity past |x| = 1.5",
            "radial: product integral vs quadrature",
            "radial: equal-order branch",
            "radial: derivative identity",
            "radial: homogeneous mode residual",
            "radial: constant-term convergence",
            "scattering: g2m closed value",
            "scattering: regularized gamma sum",
            "scattering: series vs closed form",
            "scattering: jump identity",
            "scattering: jump closed value",
            "scattering: integer-flux zeros",
            "scattering: flip symmetry",
            "scattering: beta = 0 flip symmetry",
            "scattering: forms agree to O(beta^2)",
            "scattering: sample assembly",
            "classical: flow is gradient of H",
            "classical: uniform-E force correction",
            "classical: free-space correction vanishes",
            "classical: cyclotron radius",
            "classical: energy conservation",
            "classical: action-consistency residual",
            "classical: shifted-potential consistency",
        ]

    def test_selftest_takes_no_flags(self, capsys):
        assert main(["selftest", "--m-max", "600"]) == 1
        assert "unrecognized arguments: --m-max" in capsys.readouterr().err


# =====================================================================
# Property: every subcommand exits 0 with finite output, or 1 or 2
# =====================================================================

_EXTREME = [0.0, -0.0, 1e-300, -1e-300, 5e-324, 1e300, -1e300, sys.float_info.max,
            math.nan, math.inf, -math.inf]
_FLOAT = st.one_of(st.sampled_from(_EXTREME), st.floats(-20.0, 20.0), st.floats(0.0, 3.0),
                   st.floats(0.0, 3.0))
_STEPS = st.integers(-1, 50)  # bounded so that no draw allocates much


def _vec(dims):
    return st.lists(_FLOAT, min_size=dims, max_size=dims).map(lambda v: ",".join(map(repr, v)))


_COMMON = {f"--{name}": _FLOAT for name in ("hbar", "k", "beta", "mass", "charge")}
_SUBCOMMANDS = {
    "alpha-scan": {"--phi": _FLOAT, "--alpha-min": _FLOAT, "--alpha-max": _FLOAT,
                   "--steps": _STEPS, "--margin": _FLOAT,
                   "--form": st.sampled_from(["linearized", "modulus"])},
    "phi-scan": {"--alpha": _FLOAT, "--phi-min": _FLOAT, "--phi-max": _FLOAT,
                 "--steps": _STEPS, "--margin": _FLOAT,
                 "--form": st.sampled_from(["linearized", "modulus"])},
    "radial": {"--m": st.integers(-300, 300), "--alpha": _FLOAT, "--z-min": _FLOAT,
               "--z-max": _FLOAT, "--steps": _STEPS},
    "trajectory": {"--field": st.sampled_from(["ab", "uniform-b", "uniform-e", "free"]),
                   "--alpha": _FLOAT, "--b": _FLOAT, "--e0": _vec(2), "--x0": _vec(2),
                   "--p0": _vec(2), "--t0": _FLOAT, "--dt": _FLOAT, "--steps": _STEPS},
    "width": {"--n": st.integers(-(10**6), 10**6), "--phi": _FLOAT},
}


_REQUIRED = {"--phi", "--alpha-min", "--alpha-max", "--phi-min", "--phi-max", "--n"}


@st.composite
def _argv(draw, command):
    argv = [command, "--format=" + draw(st.sampled_from(["csv", "json"]))]
    for flag, values in {**_COMMON, **_SUBCOMMANDS[command]}.items():
        # an optional flag is set with probability 1/2; "=" keeps "-inf" a value
        required = flag in _REQUIRED or (flag == "--alpha" and command != "trajectory")
        if required or draw(st.booleans()):
            argv.append(f"{flag}={draw(values)}")
    return argv


@pytest.mark.parametrize("command", sorted(_SUBCOMMANDS))
@settings(max_examples=60, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_every_subcommand_exits_typed(command, data):
    # selftest takes no flags; TestExitCodes::test_selftest_passes runs it.
    # Warnings are not part of the property (an overflow on the way to a
    # typed error may print one).
    argv = data.draw(_argv(command))
    rc, out, err = _run_to_stdout(argv, warning_action="ignore")
    if rc == 0:
        _assert_finite_rows(argv, out)
    else:
        assert rc in (1, 2), (argv, rc, err)


@pytest.mark.parametrize("argv, rc", [
    (["trajectory", "--field", "uniform-b", "--mass", "3.2e-173", "--dt", "1.17",
      "--x0", "3e-173,1e-45", "--p0", "3e-173,1e-45", "--steps", "20"], 2),
    (["alpha-scan", "--phi", "0.5", "--alpha-min", "0.1",
      "--alpha-max", "1.7976931348623157e308"], 0),
    (["alpha-scan", "--phi", "0.5", "--alpha-min=-1e300",
      "--alpha-max", "1.7976931348623157e308"], 1),
], ids=["trajectory-field-nan", "scan-to-largest-double", "scan-width-overflows"])
def test_extreme_inputs_warn_nothing(argv, rc):
    # numpy overflows on the way to these results; warnings as errors shows
    # whether one escapes
    assert _run_to_stdout(argv)[0] == rc
    _assert_finite_rows_or_one_line_error(argv)
