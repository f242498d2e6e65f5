"""Command-line front end: grid scans, radial dumps, classical
trajectories, integer-flux jump evaluation, and a self-test harness.

Exit codes: 0 success, 1 validation/usage/IO failure, 2 numerical-accuracy
failure (a selftest oracle disagreed).

Output is CSV (17 significant digits, deterministic row order; grid points
inside exclusion margins appear as `# skipped ...` comment lines) or JSON
(scan records use the amplitude-dump schema with f0/f1 split into real and
imaginary parts; skipped points are listed separately). One writer,
``_write``, emits both for every subcommand: a row template repeated per
row, constant columns formatted into it once, filled by one ``%`` from the
rows' values in one flat tuple.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

import numpy as np

from . import classical, radial, scattering
from .core import ENDPOINT_BAND, AccuracyError, DomainValidationError, PhysicalParams, flux_split

_PHI_MARGIN_DEFAULT = 1e-3  # scans skip angles this close to +-pi
_NUM = "%.17g"  # every float written to CSV

_SCAN_SKIP_NOTE = "skipped alpha_prime=%(alpha_prime).17g phi=%(phi).17g reason=%(reason)s"
_TRUNCATED_NOTE = "%(reason)s (field evaluation failed)"


def _parse_vec(text: str, name: str) -> np.ndarray:
    try:
        vals = [float(tok) for tok in text.split(",")]
    except ValueError as exc:
        raise DomainValidationError(f"{name}: cannot parse {text!r} as comma-separated floats") from exc
    if len(vals) not in (2, 3):
        raise DomainValidationError(f"{name} must have 2 or 3 components, got {len(vals)}")
    return np.array(vals)


def _lit(text: str) -> str:
    """``text`` as a literal part of a %-template."""
    return text.replace("%", "%%")


def _json_texts(values: list) -> list[str]:
    """The text ``json.dumps`` writes for each value: ``float.__repr__``
    when every value is a float and their sum is finite (so is every value;
    finite values whose sum overflows take the other path), else
    ``json.dumps`` of each value."""
    try:
        if math.isfinite(sum(values)):
            return list(map(float.__repr__, values))
    except TypeError:  # a value that is not a number, or not a float
        pass
    return list(map(json.dumps, values))


def _write(
    args: argparse.Namespace,
    columns: tuple,
    values: list,
    skipped: list[tuple[int, str, dict]],
) -> None:
    """Write one subcommand's output to ``args.out`` in ``args.format``.

    ``columns`` lists the output's columns in order: a name for a column
    read from ``values``, or a ``(name, value)`` pair for a column holding
    that value in every row, of which at least one is a name. ``values``
    holds the named columns' values row after row in one flat sequence.

    Both formats fill one %-template, a row template repeated per row, with
    one flat tuple; a constant column is formatted once into the row
    template. CSV writes ``%d`` for an int column (its type read from the
    first row) and ``%.17g`` otherwise. JSON writes byte for byte what
    ``json.dumps({"records": ..., "skipped": ...}, sort_keys=True,
    indent=2) + "\n"`` would: each record with sorted keys and the text
    ``json.dumps`` writes for each value.

    A skip entry ``(position, note, record)`` puts ``record`` under
    ``"skipped"`` in JSON and the comment ``"# " + note % record`` before
    row ``position`` in CSV.
    """
    names = [c if isinstance(c, str) else c[0] for c in columns]
    read = [i for i, c in enumerate(columns) if isinstance(c, str)]  # columns read from values
    width = len(read)
    n_rows = len(values) // width
    if args.format == "json":
        texts = _json_texts(values)
        fields, picks = [], []
        for i in sorted(range(len(columns)), key=names.__getitem__):
            if i in read:
                picks.append(read.index(i))
                text = "%s"
            else:
                text = _lit(json.dumps(columns[i][1]))
            fields.append("      " + _lit(json.dumps(names[i])) + ": " + text)
        by_key = texts[:]  # each row's values in sorted key order
        for j, k in enumerate(picks):
            by_key[j::width] = texts[k::width]
        record = "    {\n" + ",\n".join(fields) + "\n    }"
        rows = "[\n" + ",\n".join([record] * n_rows) % tuple(by_key) + "\n  ]" if n_rows else "[]"
        tail = json.dumps({"skipped": [rec for _, _, rec in skipped]}, sort_keys=True, indent=2)
        text = '{\n  "records": ' + rows + "," + tail[1:] + "\n"
    else:
        first = iter(values[:width])
        fields = []
        for column in columns:
            if isinstance(column, str):
                fields.append("%d" if isinstance(next(first, 0.0), int) else _NUM)
            else:
                fields.append(("%d" if isinstance(column[1], int) else _NUM) % column[1])
        line = ",".join(fields) + "\n"
        parts = [_lit(",".join(names) + "\n")]
        done = 0
        for position, note, rec in skipped:
            parts += [line * (position - done), _lit("# " + note % rec + "\n")]
            done = position
        parts.append(line * (n_rows - done))
        text = "".join(parts) % tuple(values)
    if args.out == "-":
        sys.stdout.write(text)
    else:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _params_from(args: argparse.Namespace) -> PhysicalParams:
    return PhysicalParams(
        hbar=args.hbar, beta=args.beta, mass=args.mass, charge=args.charge, k=args.k
    )


def _add_common(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--hbar", type=float, default=1.0)
    sp.add_argument("--k", type=float, default=1.0)
    sp.add_argument("--beta", type=float, default=0.0)
    sp.add_argument("--mass", type=float, default=1.0)
    sp.add_argument("--charge", type=float, default=1.0)
    sp.add_argument("--out", default="-", help="output path, - for stdout")
    sp.add_argument("--format", choices=("csv", "json"), default="csv")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and kept for the process:
    parsing leaves it unchanged, and each parse returns a new namespace."""
    parser = argparse.ArgumentParser(
        prog="abgup",
        description="Flux-line scattering cross sections and deformed classical dynamics",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("alpha-scan", help="cross section vs flux parameter at fixed angle")
    _add_common(sp)
    sp.add_argument("--phi", type=float, required=True)
    sp.add_argument("--alpha-min", type=float, required=True)
    sp.add_argument("--alpha-max", type=float, required=True)
    sp.add_argument("--steps", type=int, default=400)
    sp.add_argument("--margin", type=float, default=_PHI_MARGIN_DEFAULT)
    sp.add_argument("--form", choices=("linearized", "modulus"), default="linearized")

    sp = sub.add_parser("phi-scan", help="cross section vs angle at fixed flux")
    _add_common(sp)
    sp.add_argument("--alpha", type=float, required=True)
    sp.add_argument("--phi-min", type=float, required=True)
    sp.add_argument("--phi-max", type=float, required=True)
    sp.add_argument("--steps", type=int, default=500)
    sp.add_argument("--margin", type=float, default=_PHI_MARGIN_DEFAULT)
    sp.add_argument("--form", choices=("linearized", "modulus"), default="linearized")

    sp = sub.add_parser("radial", help="per-mode radial profiles f0, f1 on a z grid")
    _add_common(sp)
    sp.add_argument("--m", type=int, default=0)
    sp.add_argument("--alpha", type=float, required=True)
    sp.add_argument("--z-min", type=float, default=0.5)
    sp.add_argument("--z-max", type=float, default=10.0)
    sp.add_argument("--steps", type=int, default=100)

    sp = sub.add_parser("trajectory", help="integrate a classical trajectory")
    _add_common(sp)
    sp.add_argument(
        "--field",
        choices=("ab", "uniform-b", "uniform-e", "free"),
        default="ab",
    )
    sp.add_argument("--alpha", type=float, default=0.5, help="flux of the ab field")
    sp.add_argument("--b", type=float, default=1.0, help="uniform-b field strength (2-d)")
    sp.add_argument("--e0", default="0.1,0", help="uniform-e components, comma separated")
    sp.add_argument("--x0", default="2,0")
    sp.add_argument("--p0", default="-0.15,0.35")
    sp.add_argument("--t0", type=float, default=0.0)
    sp.add_argument("--dt", type=float, default=1e-3)
    sp.add_argument("--steps", type=int, default=1000)

    sp = sub.add_parser("width", help="integer-flux jump of the cross section")
    _add_common(sp)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--phi", type=float, required=True)

    sub.add_parser("selftest", help="run the cross-module invariant suite")

    return parser


# =====================================================================
# Scan subcommands
# =====================================================================

def _scan_skip_reason(alpha_prime: float, phi: float, margin: float) -> str | None:
    split = flux_split(alpha_prime)
    if min(split.gamma_part, 1.0 - split.gamma_part) < ENDPOINT_BAND:
        return "integer-flux margin"
    t = scattering._principal(phi)
    if math.pi - abs(t) < margin:
        return "forward-direction margin"
    return None


def _run_scan(args: argparse.Namespace, mode: str) -> int:
    params = _params_from(args)
    if args.steps < 2:
        raise DomainValidationError(f"--steps must be >= 2 for scans, got {args.steps}")
    if not (math.isfinite(args.margin) and args.margin >= 0.0):
        raise DomainValidationError(f"--margin must be finite and >= 0, got {args.margin}")
    lo, hi = (args.alpha_min, args.alpha_max) if mode == "alpha" else (args.phi_min, args.phi_max)
    if not math.isfinite(hi - lo):  # an end that is not finite, or a width that overflows
        raise DomainValidationError(f"the scan range must be finite, got [{lo}, {hi}]")
    # only the last point's step can overflow, and linspace sets that point to hi
    with np.errstate(over="ignore"):
        values = np.linspace(lo, hi, args.steps).tolist()
    if mode == "alpha":
        grid = [(a, args.phi) for a in values]
    else:
        grid = [(args.alpha, phi) for phi in values]

    beta = ("beta", params.beta)
    if args.format == "json":  # the amplitudes too, at the principal angle
        columns = ("alpha_prime", "phi", beta, "f0_re", "f0_im", "f1_re", "f1_im", "dsigma")

        def evaluate(a: float, phi: float) -> tuple:
            s = scattering.scatter_sample(phi, a, params, form=args.form)
            f0, f1 = s.f0, s.f1
            return (s.alpha_prime, s.phi, f0.real, f0.imag, f1.real, f1.imag, s.dsigma)
    else:
        columns = ("alpha_prime", "phi", beta, "dsigma")

        def evaluate(a: float, phi: float) -> tuple:
            return (a, phi, scattering.dsigma(phi, a, params, form=args.form))

    values: list[float] = []
    skipped: list[tuple[int, str, dict]] = []
    for a, phi in grid:
        reason = _scan_skip_reason(a, phi, args.margin)
        if reason is None:
            try:
                values += evaluate(a, phi)
                continue
            except (DomainValidationError, AccuracyError) as exc:
                reason = type(exc).__name__
        rec = {"alpha_prime": a, "phi": phi, "reason": reason}
        # the position in rows, of which every column but beta is in values
        skipped.append((len(values) // (len(columns) - 1), _SCAN_SKIP_NOTE, rec))
    _write(args, columns, values, skipped)
    return 0


# =====================================================================
# Radial, trajectory and width subcommands
# =====================================================================

def _run_radial(args: argparse.Namespace) -> int:
    params = _params_from(args)
    if args.steps < 1:
        raise DomainValidationError(f"--steps must be >= 1, got {args.steps}")
    if not args.z_min >= 0.1:
        raise DomainValidationError(
            f"--z-min must be >= 0.1 (small-radius region excluded), got {args.z_min}"
        )
    if not args.z_min <= args.z_max < math.inf:
        raise DomainValidationError(f"--z-max must be finite and >= --z-min, got {args.z_max}")
    zs = np.linspace(args.z_min, args.z_max, args.steps)
    f0, f1 = radial._mode_profiles(zs, args.m, args.alpha, params)
    columns = ("z", ("m", args.m), ("alpha_prime", args.alpha), "re_f0", "im_f0", "re_f1", "im_f1")
    values = np.column_stack((zs, f0.real, f0.imag, f1.real, f1.imag)).ravel().tolist()
    _write(args, columns, values, [])
    return 0


def _run_trajectory(args: argparse.Namespace) -> int:
    params = _params_from(args)
    x0 = _parse_vec(args.x0, "--x0")
    p0 = _parse_vec(args.p0, "--p0")
    if x0.shape != p0.shape:
        raise DomainValidationError("--x0 and --p0 must have the same dimension")
    d = x0.shape[0]

    if args.field == "ab":
        if d != 2:
            raise DomainValidationError("the ab field is 2-dimensional")
        fields = classical.ab_flux_field(args.alpha, params)
    elif args.field == "uniform-b":
        fields = classical.uniform_field(
            d=d, b_field=(args.b if d == 2 else [0.0, 0.0, args.b])
        )
    elif args.field == "uniform-e":
        e_vec = _parse_vec(args.e0, "--e0")
        if e_vec.shape[0] != d:
            raise DomainValidationError("--e0 dimension must match --x0")
        fields = classical.uniform_field(d=d, e_field=e_vec)
    else:
        fields = classical.uniform_field(d=d)

    traj = classical.integrate(
        classical.ClassicalState(x0, p0, args.t0), fields, params, args.dt, args.steps
    )

    columns = ("t", *(f"x{i+1}" for i in range(d)), *(f"v{i+1}" for i in range(d)), "energy")
    values = np.column_stack((traj.t, traj.x, traj.v, traj.energy)).ravel().tolist()
    skipped = []
    if not traj.complete:
        rec = {"reason": f"truncated after {len(traj) - 1} steps"}
        skipped.append((len(traj), _TRUNCATED_NOTE, rec))
    _write(args, columns, values, skipped)
    return 0


def _run_width(args: argparse.Namespace) -> int:
    params = _params_from(args)
    val = scattering.width(args.n, args.phi, params)
    _write(args, ("n", "phi", "beta", "width"), [args.n, args.phi, params.beta, val], [])
    return 0


# =====================================================================
# Entry point
# =====================================================================

def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1

    try:
        if args.command == "alpha-scan":
            return _run_scan(args, "alpha")
        if args.command == "phi-scan":
            return _run_scan(args, "phi")
        if args.command == "radial":
            return _run_radial(args)
        if args.command == "trajectory":
            return _run_trajectory(args)
        if args.command == "width":
            return _run_width(args)
        if args.command == "selftest":
            from . import selftest  # imported only by the subcommand that runs it
            return selftest.run()
        parser.error(f"unknown command {args.command!r}")
        return 1
    except DomainValidationError as exc:
        print(f"abgup: {exc}", file=sys.stderr)
        return 1
    except AccuracyError as exc:
        print(f"abgup: accuracy failure: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"abgup: i/o failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
