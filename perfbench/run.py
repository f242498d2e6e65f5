#!/usr/bin/env python3
"""Seeded end-to-end and per-layer benchmark of the abgup CLI.

Usage, from the repository root:

    python3 perfbench/run.py --workload {scan,radial,trajectory} \
        --seed N --seconds S --trace {0,1}

One process, one thread (BLAS and OpenMP pools pinned to 1). The seed makes a
pass of CLI argv lists (see ``workloads.py``); the program receives only
those argv lists, through ``abgup.cli.main`` with stdout captured in memory.
Whole passes run while the next one is expected to end within ``--seconds``
of wall time (at least one pass runs). The outputs
of the first pass are checked against independent oracles (``oracles.py``)
outside the timed region; later passes must repeat them byte for byte.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` alternates
untraced and traced passes, reports the per-layer metrics of the first
traced pass (its spans go to ``perfbench/out/``) and the tracing overhead.

The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it carries the run
metadata. The exit code is 0 when every output passed its check, 1 when one
failed, and 2 when the package cannot be found or imported.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import hashlib
import io
import json
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / "perfbench" / "out"

# End-to-end metrics: name -> (unit, better).
E2E_METRICS = {
    "rows_per_s": ("rows/s", "higher"),
    "invocation_ms_p50": ("ms", "lower"),
    "invocation_ms_tail": ("ms", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}

SETUP_IMPORTS = 5  # fresh interpreters timed per run for setup_s
TAIL_BEYOND = 10  # the tail percentile leaves this many calls of each pass above it
# A call's time is this quantile of its wall times over the passes. On a shared
# host the speed of one core flips between a common slow state and bursts up to
# 1.5 times faster that last seconds to minutes; the median of a call's few
# samples flips with them, the upper quartile stays in the common state.
CALL_QUANTILE = 0.75


@dataclass
class PassResult:
    """Timings and outputs of one pass over the workload's calls."""

    durations: list[float] = field(default_factory=list)
    outputs: list[str] = field(default_factory=list)
    digests: list[str] = field(default_factory=list)
    broken: set[int] = field(default_factory=set)  # nonzero exit or untyped exception

    @property
    def wall_s(self) -> float:
        return sum(self.durations)


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def run_pass(cli, calls, keep_outputs: bool) -> PassResult:
    res = PassResult()
    for i, call in enumerate(calls):
        buf = io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                rc = cli.main(call.argv)  # looked up per call, so a tracer sees it
        except Exception:  # an untyped exception is a failed call, not an abort
            traceback.print_exc()
            rc = None
        res.durations.append(time.perf_counter() - start)
        if rc != 0:
            res.broken.add(i)
        text = buf.getvalue()
        res.digests.append(_digest(text))
        if keep_outputs:
            res.outputs.append(text)
    return res


def check_outputs(workload: str, calls, outputs: list[str], seed: int) -> dict[int, list[str]]:
    """Failure messages per call index, from the oracles."""
    from perfbench import oracles

    failures: dict[int, list[str]] = {}
    fine = {c.pair: (c, out) for c, out in zip(calls, outputs) if c.stratum.endswith("-fine")}
    for i, (call, text) in enumerate(zip(calls, outputs)):
        try:
            if workload == "scan":
                errs = oracles.check_scan(call, text, random.Random(f"check:{seed}:{i}"))
            elif workload == "radial":
                errs = oracles.check_radial(call, text, fine.get(call.pair))
            else:
                errs = oracles.check_trajectory(call, text)
        except Exception as exc:  # unparseable output is a failed check
            errs = [f"check raised {type(exc).__name__}: {exc}"]
        if errs:
            failures[i] = errs
    return failures


def measure_setup(n: int) -> list[float]:
    """Wall times of ``n`` fresh interpreters importing abgup.cli."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cmd = [sys.executable, "-c", "import abgup.cli"]
    subprocess.run(cmd, env=env, cwd=ROOT, check=True, timeout=120)  # warm the file cache
    times = []
    for _ in range(n):
        start = time.perf_counter()
        subprocess.run(cmd, env=env, cwd=ROOT, check=True, timeout=120)
        times.append(time.perf_counter() - start)
    return times


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolation percentile, q in [0, 1]."""
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def _commit() -> str:
    if not (ROOT / ".git").exists():  # an exported checkout: the source digest identifies it
        return "unknown"
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "abgup").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def parse_args(argv=None) -> argparse.Namespace:
    from perfbench.workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not args.seconds > 0:
        ap.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    sys.path.insert(0, str(ROOT))
    args = parse_args(argv)
    if not (SRC / "abgup" / "cli.py").is_file():
        print(f"perfbench: no abgup sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    try:
        import numpy
        import scipy

        import abgup.cli as cli
    except ImportError as exc:
        print(f"perfbench: cannot import abgup.cli: {exc}", file=sys.stderr)
        return 2
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        print(f"perfbench: abgup imported from {cli.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from perfbench import oracles, tracing, workloads

    calls = workloads.generate(args.workload, args.seed)
    setup = measure_setup(SETUP_IMPORTS)

    seen = set()
    for call in calls:  # warm-up: one call of each subcommand and format
        key = (call.command, call.get("format"))
        if key not in seen:
            seen.add(key)
            run_pass(cli, [call], keep_outputs=False)

    untraced: list[PassResult] = []
    traced: list[PassResult] = []
    tracer = None
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        untraced.append(run_pass(cli, calls, keep_outputs=not untraced))
        if args.trace:
            t = tracing.Tracer()
            with t.installed():
                traced.append(run_pass(cli, calls, keep_outputs=False))
            tracer = tracer or t
        now = time.perf_counter()
        if now + (now - round_start) - start > args.seconds:  # the next round would overrun
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    first = untraced[0]
    if args.trace:
        with tracer.installed():  # the trajectory check's el_residual calls are traced too
            failures = check_outputs(args.workload, calls, first.outputs, args.seed)
    else:
        failures = check_outputs(args.workload, calls, first.outputs, args.seed)
    for i in first.broken:
        failures.setdefault(i, []).append("nonzero exit or untyped exception")

    passes = untraced + traced
    attempted = len(calls) * len(passes)
    failed = 0
    for p in passes:
        for i, dig in enumerate(p.digests):
            if i in failures or i in p.broken or dig != first.digests[i]:
                failed += 1
    for i, errs in sorted(failures.items()):
        print(f"check failed: call {i} {' '.join(calls[i].argv)}: {'; '.join(errs)}", file=sys.stderr)

    counts = [oracles.count_rows(text, c.get("format")) for c, text in zip(calls, first.outputs)]
    rows_per_pass = sum(r for r, _ in counts)
    call_times = [
        percentile([p.durations[i] for p in untraced], CALL_QUANTILE) for i in range(len(calls))
    ]
    tail_q = 1.0 - TAIL_BEYOND / len(calls)
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": _commit(),
        "source_sha256": _source_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "calls_per_pass": len(calls),
        "untraced_passes": len(untraced),
        "traced_passes": len(traced),
        "rows_per_pass": rows_per_pass,
        "invocation_samples": sum(len(p.durations) for p in untraced),
        "call_quantile": CALL_QUANTILE,
        "tail_percentile": round(100.0 * tail_q, 2),
        "error_rate": failed / attempted,
        "setup_samples_s": setup,
    }

    if args.trace:
        overhead = statistics.median(p.wall_s for p in traced) / statistics.median(
            p.wall_s for p in untraced
        ) - 1.0
        OUT_DIR.mkdir(parents=True, exist_ok=True)
        span_file = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.csv"
        tracer.write(span_file)
        meta["span_file"] = str(span_file.relative_to(ROOT))
        values = tracing.layer_metrics(
            tracer.spans,
            scan_rows=rows_per_pass if args.workload == "scan" else 0,
            bytes_out=sum(len(t.encode()) for t in first.outputs),
            rows_skipped=sum(s for _, s in counts),
            overhead_frac=overhead,
        )
        specs = {k: u for k, (u, _) in tracing.LAYER_METRICS.items()}
    else:
        values = {
            "rows_per_s": rows_per_pass / sum(call_times),
            "invocation_ms_p50": 1e3 * statistics.median(call_times),
            "invocation_ms_tail": 1e3 * percentile(call_times, tail_q),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": peak_rss_mb,
        }
        specs = {k: u for k, (u, _) in E2E_METRICS.items()}

    for name, unit in specs.items():
        print(f"{name:40s} {values[name]:.6g} {unit}")
    print("meta " + json.dumps(meta, sort_keys=True))
    result = {
        "correct": not failures and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": u} for k, u in specs.items()},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
