"""Command-line front end: grid scans, radial dumps, classical
trajectories, integer-flux jump evaluation, and a self-test harness.

Exit codes: 0 success, 1 validation/usage/IO failure, 2 numerical-accuracy
failure (a selftest oracle disagreed).

Output is CSV (17 significant digits, deterministic row order; grid points
inside exclusion margins appear as `# skipped ...` comment lines) or JSON
(scan records use the amplitude-dump schema with f0/f1 split into real and
imaginary parts; skipped points are listed separately).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import operator
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


# A list of records in the indent=2 layout. The C encoder runs only without
# ``indent``, so the list is encoded in one call with the newline and indent
# of a record's items put in the item separator, and the breaks between
# records are then re-indented. The records are non-empty flat dicts of
# scalars, and an encoded string holds no raw newline, so "},\n      {"
# occurs only between two records.
_RECORD_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",\n      ", ": "))


def _json_list(records: list[dict]) -> str:
    if not records:
        return "[]"
    inner = _RECORD_ENCODER.encode(records)[2:-2].replace("},\n      {", "\n    },\n    {\n      ")
    return "[\n    {\n      " + inner + "\n    }\n  ]"


def _json_document(records: list[dict], skipped: list[dict]) -> str:
    """``{"records": ..., "skipped": ...}`` byte for byte as
    ``json.dumps(payload, sort_keys=True, indent=2) + "\\n"`` would write it."""
    return (
        '{\n  "records": ' + _json_list(records)
        + ',\n  "skipped": ' + _json_list(skipped) + "\n}\n"
    )


def _csv_rows(rows: list[tuple]) -> list[str]:
    """CSV lines of ``rows``: ``%d`` for int columns, ``%.17g`` otherwise.

    A column that holds the very same object in every row (radial's ``m`` and
    ``alpha_prime``, a scan's ``beta``) is formatted once into the row
    template. The test is identity, not equality, so the lines are those of
    formatting every row: equal values such as 0.0 and -0.0 stay per row.
    """
    if not rows:
        return []
    fields, varying = [], []
    for i, v in enumerate(rows[0]):
        spec = "%d" if isinstance(v, int) else _NUM
        if all(row[i] is v for row in rows):
            fields.append(spec % v)
        else:
            fields.append(spec)
            varying.append(i)
    row_fmt = ",".join(fields)
    if len(varying) == len(fields):
        return [row_fmt % row for row in rows]
    pick = operator.itemgetter(*varying) if varying else (lambda row: ())
    return [row_fmt % pick(row) for row in rows]


def _write(
    args: argparse.Namespace,
    columns: tuple[str, ...],
    rows: list[tuple],
    skipped: list[tuple[int, str, dict]],
) -> None:
    """Write one subcommand's output to ``args.out`` in ``args.format``.

    ``rows`` are tuples in ``columns`` order; CSV formats them with
    ``_csv_rows``. A skip entry
    ``(position, note, record)`` puts ``record`` under ``"skipped"`` in JSON
    and the comment ``"# " + note % record`` before ``rows[position]`` in
    CSV.
    """
    if args.format == "json":
        text = _json_document(
            [dict(zip(columns, row)) for row in rows], [rec for _, _, rec in skipped]
        )
    else:
        body = _csv_rows(rows)
        lines = [",".join(columns)]
        done = 0
        for position, note, rec in skipped:
            lines += body[done:position]
            lines.append("# " + note % rec)
            done = position
        lines += body[done:]
        text = "\n".join(lines) + "\n"
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

    if args.format == "json":  # the amplitudes too, at the principal angle
        columns = ("alpha_prime", "phi", "beta", "f0_re", "f0_im", "f1_re", "f1_im", "dsigma")

        def evaluate(a: float, phi: float) -> tuple:
            s = scattering.scatter_sample(phi, a, params, form=args.form)
            f0, f1 = s.f0, s.f1
            return (s.alpha_prime, s.phi, s.beta, f0.real, f0.imag, f1.real, f1.imag, s.dsigma)
    else:
        columns = ("alpha_prime", "phi", "beta", "dsigma")

        def evaluate(a: float, phi: float) -> tuple:
            return (a, phi, params.beta, scattering.dsigma(phi, a, params, form=args.form))

    rows: list[tuple] = []
    skipped: list[tuple[int, str, dict]] = []
    for a, phi in grid:
        reason = _scan_skip_reason(a, phi, args.margin)
        if reason is None:
            try:
                rows.append(evaluate(a, phi))
                continue
            except (DomainValidationError, AccuracyError) as exc:
                reason = type(exc).__name__
        rec = {"alpha_prime": a, "phi": phi, "reason": reason}
        skipped.append((len(rows), _SCAN_SKIP_NOTE, rec))
    _write(args, columns, rows, skipped)
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
    columns = ("z", "m", "alpha_prime", "re_f0", "im_f0", "re_f1", "im_f1")
    n = len(zs)
    rows = list(zip(
        zs.tolist(), [args.m] * n, [args.alpha] * n,
        f0.real.tolist(), f0.imag.tolist(), f1.real.tolist(), f1.imag.tolist(),
    ))
    _write(args, columns, rows, [])
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
    rows = [
        (t, *x, *v, e)
        for t, x, v, e in zip(
            traj.t.tolist(), traj.x.tolist(), traj.v.tolist(), traj.energy.tolist()
        )
    ]
    skipped = []
    if not traj.complete:
        rec = {"reason": f"truncated after {len(traj) - 1} steps"}
        skipped.append((len(rows), _TRUNCATED_NOTE, rec))
    _write(args, columns, rows, skipped)
    return 0


def _run_width(args: argparse.Namespace) -> int:
    params = _params_from(args)
    val = scattering.width(args.n, args.phi, params)
    _write(args, ("n", "phi", "beta", "width"), [(args.n, args.phi, params.beta, val)], [])
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
