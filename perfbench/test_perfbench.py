"""Tests of the benchmark itself: tracing, classification, generator, oracles."""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import random
from pathlib import Path

import pytest

import abgup.cli as cli
from abgup import radial, specfun
from perfbench import oracles, run, tracing, workloads
from perfbench.tracing import Span


def _current(target):
    return getattr(importlib.import_module(target.module), target.attr)


def test_wrappers_restore_originals():
    before = [_current(t) for t in tracing.TARGETS]
    tracer = tracing.Tracer()
    with pytest.raises(RuntimeError):
        with tracer.installed():
            for t, orig in zip(tracing.TARGETS, before):
                assert _current(t) is not orig and _current(t).__wrapped__ is orig
            raise RuntimeError("leave the block early")
    assert [_current(t) for t in tracing.TARGETS] == before


def test_thresholds_match_the_package():
    assert tracing.HYP_SERIES_RADIUS == specfun._SERIES_RADIUS
    assert tracing.HYP_MIN_DIRECT_C == specfun._MIN_DIRECT_C
    assert tracing.BESSEL_SERIES_Z_MAX == specfun._SERIES_Z_MAX
    assert tracing.BESSEL_ASYMPTOTIC_Z_MIN == specfun._ASYMPTOTIC_Z_MIN
    assert tracing.F1_DEGENERATE_TOL == radial._DEGENERATE_TOL


def test_branch_classification_at_the_thresholds():
    hyp = tracing.hyp_attrs
    assert hyp((2.0, 0.7), {}, None) == {"branch": "series", "shifted": False}
    assert hyp((2.0, 0.7000001j), {}, None)["branch"] == "cf"
    assert hyp((1.5, 0.1), {}, None)["shifted"] is False
    assert hyp((1.4999, 0.1), {}, None)["shifted"] is True

    a = tracing.bessel_attrs((0.3, [13.999, 14.0, 999.9, 1000.0, 2.0e3]), {}, None)
    assert (a["points"], a["series"], a["miller"], a["asymptotic"]) == (5, 1, 2, 2)
    assert a["neg_order"] is False
    assert tracing.bessel_attrs((-0.7, 3.0), {}, None) == {
        "points": 1, "series": 1, "miller": 0, "asymptotic": 0, "neg_order": True,
    }

    f1 = tracing.f1_attrs
    assert f1((1.0, 0.3, 0.3), {}, None)["branch"] == "degenerate"
    assert f1((1.0, -0.3, 0.3), {}, None)["branch"] == "degenerate"
    assert f1((1.0, 0.3, 1.3), {}, None)["branch"] == "generic"


def test_self_time_on_a_synthetic_tree():
    spans = [
        Span("root", -1, 0, 0, 100),
        Span("a", 0, 0, 10, 30),
        Span("a.child", 1, 0, 15, 20),
        Span("b", 0, 0, 20, 40),  # overlaps "a": the union is counted once
        Span("c", 0, 0, 90, 120),  # runs past its parent: clipped at 100
    ]
    got = [round(s * 1e9) for s in tracing.self_times(spans)]
    assert got == [100 - 30 - 10, 15, 5, 20, 30]


def test_generator_is_deterministic_and_seed_only_moves_parameters():
    for w in workloads.WORKLOADS:
        a, b, c = workloads.generate(w, 7), workloads.generate(w, 7), workloads.generate(w, 8)
        assert a == b
        assert [x.argv for x in a] != [x.argv for x in c]
        shape = lambda calls: [(x.command, x.stratum, x.get("steps"), x.get("format")) for x in calls]
        assert shape(a) == shape(c)


def _run_cli(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert cli.main(argv) == 0
    return buf.getvalue()


@pytest.mark.parametrize("fmt, builds", [("csv", 1.0), ("json", 2.0)])
def test_traced_scan_counts_kernel_builds_and_no_other_layer(fmt, builds):
    argv = ["alpha-scan", "--beta=0.01", "--phi=0.5", "--alpha-min=0.2",
            "--alpha-max=2.7", "--steps=5", f"--format={fmt}"]
    tracer = tracing.Tracer()
    with tracer.installed():
        text = _run_cli(argv)
    rows, skipped = oracles.count_rows(text, fmt)
    m = tracing.layer_metrics(tracer.spans, rows, len(text), skipped, 0.0)
    assert rows == 5 and m["scattering.kernel_builds_per_row"] == builds
    assert m["specfun.hyp2f1_11.calls"] == 6 * 5 * builds
    assert m["specfun.bessel_j.calls"] == 0 and m["classical.integrate.calls"] == 0
    assert m["cli.main.calls"] == 1 and 0.0 < m["cli.main.self_s"]


def test_oracles_accept_outputs_and_reject_a_corrupted_row():
    rng = random.Random(0)
    call = workloads.generate("scan", 3)[1]  # alpha-scan, continued-fraction branch
    text = _run_cli(call.argv)
    assert oracles.check_scan(call, text, rng) == []
    lines = text.splitlines()
    for i in range(1, len(lines)):  # perturb the 7th significant digit of every dsigma
        head, val = lines[i].rsplit(",", 1)
        lines[i] = f"{head},{float(val) * (1 + 1e-7)!r}"
    assert oracles.check_scan(call, "\n".join(lines) + "\n", rng)

    fine, coarse = workloads.generate("radial", 3)[:2]  # one mode, fine then coarse grid
    fine_text, coarse_text = _run_cli(fine.argv), _run_cli(coarse.argv)
    assert oracles.check_radial(fine, fine_text, None) == []
    assert oracles.check_radial(coarse, coarse_text, (fine, fine_text)) == []
    assert coarse.get("format") == "csv"
    lines = coarse_text.splitlines()
    fields = lines[10].split(",")
    fields[5] = repr(float(fields[5]) * (1 + 1e-6))  # re_f1 of one sample
    lines[10] = ",".join(fields)
    assert oracles.check_radial(coarse, "\n".join(lines) + "\n", (fine, fine_text))

    traj = next(c for c in workloads.generate("trajectory", 3) if c.stratum == "uniform-b-bare")
    assert traj.get("format") == "csv"
    text = _run_cli(traj.argv)
    assert oracles.check_trajectory(traj, text) == []
    lines = text.splitlines()
    fields = lines[200].split(",")
    fields[1] = repr(float(fields[1]) + 1e-6)  # move x1 of one sample off the orbit
    lines[200] = ",".join(fields)
    assert oracles.check_trajectory(traj, "\n".join(lines) + "\n")


def test_benchmark_json_lists_every_metric():
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    e2e = {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]}
    layer = {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]}
    assert e2e == run.E2E_METRICS
    assert layer == tracing.LAYER_METRICS
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
