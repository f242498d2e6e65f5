"""Command-line interface: emission formats, skip annotations,
determinism and exit codes."""

import argparse
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from abgup import PhysicalParams, dsigma, flux_split, width
from abgup.cli import _build_parser, _json_document, _write, main


def _rows(path):
    lines = path.read_text().splitlines()
    header = lines[0]
    data = [ln for ln in lines[1:] if not ln.startswith("#")]
    skips = [ln for ln in lines[1:] if ln.startswith("# skipped")]
    return header, data, skips


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


class TestJsonWriter:
    @pytest.mark.parametrize(
        "records, skipped",
        [
            ([], []),
            ([{"a": 1.0}], []),
            ([], [{"reason": "x"}]),
            ([{"b": 2}, {"a": "x"}], [{"c": 1}]),
            (
                [
                    {"z": math.nan, "y": math.inf, "x": -math.inf, "w": np.float64(0.1), "v": -0.0},
                    {"n": 3, "m": -7, "flag": True, "none": None, "big": 1e300, "tiny": 5e-324},
                ],
                [{"reason": 'a, "quoted"\nline\tand \\ and \u00e9', "phi": np.float64(-2.5)}],
            ),
            # text that looks like the break between two records
            ([{"s": "},\n      {"}, {"s": "}, {"}], [{"s": "}"}]),
        ],
    )
    def test_matches_json_dumps_indent_2(self, tmp_path, records, skipped):
        # the writer's JSON document; through _write when the records share keys
        assert _json_document(records, skipped) == _reference_json(records, skipped)
        if len({tuple(rec) for rec in records}) == 1:
            columns = tuple(records[0])
            out = tmp_path / "doc.json"
            args = argparse.Namespace(format="json", out=str(out))
            _write(args, columns, [tuple(rec.values()) for rec in records],
                   [(0, "", rec) for rec in skipped])
            assert out.read_text() == _reference_json(records, skipped)

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
        out = tmp_path / "doc.csv"
        args = argparse.Namespace(format="csv", out=str(out))
        rows = [(1, 0.1, -0.0), (-2, 1e-300, math.inf), (30, 2.5, math.nan)]
        skipped = [
            (0, "skipped at=%(at)d", {"at": 0}),
            (2, "skipped x=%(x).17g why=%(why)s", {"x": 0.3, "why": "a b"}),
            (2, "%(reason)s, twice", {"reason": "again"}),
            (3, "end", {}),
        ]
        _write(args, ("n", "x", "y"), rows, skipped)
        assert out.read_text() == (
            "n,x,y\n"
            "# skipped at=0\n"
            "1,0.10000000000000001,-0\n"
            "-2,1e-300,inf\n"
            "# skipped x=0.29999999999999999 why=a b\n"
            "# again, twice\n"
            "30,2.5,nan\n"
            "# end\n"
        )


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
