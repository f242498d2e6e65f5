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
import cmath
import functools
import json
import math
import sys

import numpy as np

from . import classical, radial, scattering
from .core import (
    AccuracyError,
    DomainValidationError,
    PhysicalParams,
    commutator_residual_1d,
    flux_split,
    gup_bound,
    minimal_length,
    momentum_map,
)
from .specfun import bessel_j, digamma, gamma_fn, hyp2f1_11

_ALPHA_MARGIN = 1e-4  # scans skip flux values this close to an integer
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


def _write(
    args: argparse.Namespace,
    columns: tuple[str, ...],
    rows: list[tuple],
    skipped: list[tuple[int, str, dict]],
) -> None:
    """Write one subcommand's output to ``args.out`` in ``args.format``.

    ``rows`` are tuples in ``columns`` order; CSV formats them with ``%d``
    for int columns and ``%.17g`` otherwise. A skip entry
    ``(position, note, record)`` puts ``record`` under ``"skipped"`` in JSON
    and the comment ``"# " + note % record`` before ``rows[position]`` in
    CSV.
    """
    if args.format == "json":
        text = _json_document(
            [dict(zip(columns, row)) for row in rows], [rec for _, _, rec in skipped]
        )
    else:
        row_fmt = ",".join("%d" if isinstance(v, int) else _NUM for v in rows[0]) if rows else ""
        lines = [",".join(columns)]
        done = 0
        for position, note, rec in skipped:
            lines += [row_fmt % row for row in rows[done:position]]
            lines.append("# " + note % rec)
            done = position
        lines += [row_fmt % row for row in rows[done:]]
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

    sp = sub.add_parser("selftest", help="run the cross-module invariant suite")
    sp.add_argument("--m-max", type=int, default=600)

    return parser


# =====================================================================
# Scan subcommands
# =====================================================================

def _scan_skip_reason(alpha_prime: float, phi: float, margin: float) -> str | None:
    split = flux_split(alpha_prime)
    if min(split.gamma_part, 1.0 - split.gamma_part) < _ALPHA_MARGIN:
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
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise DomainValidationError(f"the scan range must be finite, got [{lo}, {hi}]")
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
    if args.z_min < 0.1:
        raise DomainValidationError(
            f"--z-min must be >= 0.1 (small-radius region excluded), got {args.z_min}"
        )
    if args.z_max < args.z_min:
        raise DomainValidationError("--z-max must be >= --z-min")
    zs = np.linspace(args.z_min, args.z_max, args.steps)
    # f1 first: it rejects a z range beyond the radial panel cap before any
    # Bessel evaluation on z
    f1 = radial.mode_f1(zs, args.m, args.alpha, params)
    f0 = radial.mode_f0(zs, args.m, args.alpha)
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
# Selftest
# =====================================================================

def _selftest(m_max: int) -> int:
    """Compact invariant suite spanning every module; prints one line per
    check and returns 0 (all pass) or 2 (numerical disagreement)."""
    checks: list[tuple[str, bool, str]] = []

    def add(name: str, fn) -> None:
        try:
            ok, detail = fn()
        except Exception as exc:  # a crash is a failure, not an abort
            ok, detail = False, f"{type(exc).__name__}: {exc}"
        checks.append((name, ok, detail))

    pb = PhysicalParams(beta=0.01)
    p0 = PhysicalParams(beta=0.0)

    # ---- core
    def chk_bound():
        best = minimal_length(PhysicalParams(beta=0.02))
        dp = 1.0 / math.sqrt(3.0 * 0.02)
        at_min = gup_bound(dp, PhysicalParams(beta=0.02))
        scan_ok = all(
            gup_bound(s, PhysicalParams(beta=0.02)) >= best * (1.0 - 1e-12)
            for s in np.linspace(0.2, 12.0, 50)
        )
        return abs(at_min - best) < 1e-12 and scan_ok, f"min gap {abs(at_min - best):.2e}"

    add("core: uncertainty bound floor", chk_bound)

    def chk_split():
        a = flux_split(2.3)
        b = flux_split(-0.3)
        ok = a.n_part == 2 and abs(a.gamma_part - 0.3) < 1e-15 and b.n_part == -1
        return ok, f"2.3 -> ({a.n_part},{a.gamma_part}), -0.3 -> ({b.n_part},{b.gamma_part})"

    add("core: flux split exactness", chk_split)

    def chk_momentum():
        val = momentum_map(1.0, 0.1)
        return abs(val - 1.1) < 1e-15, f"momentum_map(1,0.1) = {val}"

    add("core: momentum map", chk_momentum)

    def chk_comm():
        r1 = commutator_residual_1d(256, 0.05, 0.01, p0)
        r2 = commutator_residual_1d(512, 0.025, 0.01, p0)
        return r1 < 1e-3 and 2.0 < r1 / r2 < 8.0, f"res {r1:.2e}, halving ratio {r1 / r2:.2f}"

    add("core: commutator residual O(h^2)", chk_comm)

    # ---- specfun
    def chk_gamma():
        x = 0.37
        err = abs(gamma_fn(x) * gamma_fn(1.0 - x) - math.pi / math.sin(math.pi * x))
        return err < 1e-12, f"reflection err {err:.2e}"

    add("specfun: gamma reflection", chk_gamma)

    def chk_digamma():
        x = 1.44
        err = abs(digamma(x + 1.0) - digamma(x) - 1.0 / x)
        return err < 1e-12, f"recurrence err {err:.2e}"

    add("specfun: digamma recurrence", chk_digamma)

    def chk_bessel():
        worst = 0.0
        for nu in (0.3, 1.7, 4.4):
            for z in (0.7, 5.0, 40.0):
                lhs = bessel_j(nu - 1.0, z) + bessel_j(nu + 1.0, z)
                rhs = 2.0 * nu / z * bessel_j(nu, z)
                worst = max(worst, abs(lhs - rhs))
        return worst < 1e-8, f"recurrence worst {worst:.2e}"

    add("specfun: bessel recurrence", chk_bessel)

    def chk_2f1():
        x = 0.5 + 0.8j
        err = abs(hyp2f1_11(2.0, x) - (-cmath.log(1.0 - x) / x))
        return err < 1e-10, f"log identity err {err:.2e}"

    add("specfun: 2f1 log identity", chk_2f1)

    # ---- radial
    def chk_f1_quad():
        closed = radial.f1_integral(5.0, 0.3, 1.3)
        quad, _ = radial.fn_quadrature(1, 5.0, 0.3, 1.3)
        return abs(closed - quad) < 1e-8, f"diff {abs(closed - quad):.2e}"

    add("radial: product integral vs quadrature", chk_f1_quad)

    def chk_f1_equal():
        closed = radial.f1_integral(3.0, 0.5, 0.5)
        quad, _ = radial.fn_quadrature(1, 3.0, 0.5, 0.5)
        return abs(closed - quad) < 1e-10, f"diff {abs(closed - quad):.2e}"

    add("radial: equal-order branch", chk_f1_equal)

    def chk_f1_deriv():
        h = 1e-4
        z = 4.0
        num = (radial.f1_integral(z + h, 0.6, 1.4) - radial.f1_integral(z - h, 0.6, 1.4)) / (2 * h)
        ref = bessel_j(0.6, z) * bessel_j(1.4, z) / z
        return abs(num - ref) < 1e-6, f"derivative err {abs(num - ref):.2e}"

    add("radial: derivative identity", chk_f1_deriv)

    def chk_ode():
        zs = np.linspace(0.5, 10.0, 2048)
        r = radial.ode_residual(zs, radial.mode_f0(zs, 1, 0.3), 1, 0.3, 1.0)
        return r < 1e-5, f"residual {r:.2e}"

    add("radial: homogeneous mode residual", chk_ode)

    def chk_uv():
        _, g2 = radial.g1_g2(0, 0.5, pb)
        _, v120 = radial.uv_pair(120.0, 0, 0.5, pb)
        rel = abs(v120 - g2) / abs(g2)
        return rel < 0.05, f"rel gap at z=120: {rel:.3f}"

    add("radial: constant-term convergence", chk_uv)

    # ---- scattering
    def chk_g2m():
        val = scattering.g2m(0, 0.5, PhysicalParams())
        ref = math.pi * 13.0 / 24.0 * cmath.exp(-0.25j * math.pi)
        return abs(val - ref) < 1e-12, f"err {abs(val - ref):.2e}"

    add("scattering: g2m closed value", chk_g2m)

    def chk_j2():
        got = scattering.regularized_alternating_gamma_sum(math.pi / 3, 0.5, m_max=m_max)
        ref = -math.pi * cmath.exp(-0.5j * math.pi / 3) / (
            2.0 * math.sin(math.pi * 0.5) * math.cos(math.pi / 6)
        )
        return abs(got - ref) < 1e-6, f"err {abs(got - ref):.2e}"

    add("scattering: regularized gamma sum", chk_j2)

    def chk_series():
        worst = 0.0
        for a, phi in ((0.7, math.pi / 4), (1.3, -math.pi / 2)):
            fs = scattering.f1_series(phi, a, pb, m_max=m_max)
            fa = scattering.f1_amp(phi, a, pb)
            worst = max(worst, abs(fa - fs) / abs(fs))
        return worst < 1e-4, f"worst rel {worst:.2e}"

    add("scattering: series vs closed form", chk_series)

    def chk_width():
        up, lo = scattering.dsigma_integer_limits(1, math.pi / 4, pb)
        w = scattering.width(1, math.pi / 4, pb)
        ref = pb.beta * math.pi * abs(2.0 * math.cos(math.pi / 8) ** 2 - 1.0)
        ok = abs(w - abs(up - lo)) == 0.0 and abs(w - ref) < 1e-12
        return ok, f"width {w:.8f}"

    add("scattering: jump identity", chk_width)

    def chk_ramsauer():
        vals = [
            scattering.dsigma(phi, float(n), p0)
            for n in (1, 2, 3)
            for phi in (math.pi / 4, -math.pi / 2)
        ]
        return all(v == 0.0 for v in vals), f"max {max(vals):.1e}"

    add("scattering: integer-flux zeros", chk_ramsauer)

    def chk_flip():
        d = abs(
            scattering.f1_amp(math.pi / 3, 0.7, pb)
            - scattering.f1_amp(-math.pi / 3, -0.7, pb)
        )
        return d < 1e-10, f"flip err {d:.2e}"

    add("scattering: flip symmetry", chk_flip)

    def chk_forms():
        dm = scattering.dsigma(math.pi / 4, 0.7, pb, form="modulus")
        dl = scattering.dsigma(math.pi / 4, 0.7, pb, form="linearized")
        return abs(dm - dl) < 10.0 * pb.beta**2, f"|mod-lin| {abs(dm - dl):.2e}"

    add("scattering: forms agree to O(beta^2)", chk_forms)

    def chk_sample():
        ss = scattering.scatter_sample(math.pi / 4, 0.7, pb)
        direct = abs(ss.f0 + pb.beta * ss.f1) ** 2
        return abs(direct - ss.dsigma) < 1e-12, f"assembly err {abs(direct - ss.dsigma):.2e}"

    add("scattering: sample assembly", chk_sample)

    # ---- classical
    def chk_flow_grad():
        fab = classical.ab_flux_field(0.7, pb)
        st = classical.ClassicalState(np.array([1.2, -0.6]), np.array([0.8, 0.4]))
        xd, pd = classical.hamiltonian_flow(st, fab, pb)
        h = 1e-6
        worst = 0.0
        for j in range(2):
            dp = np.zeros(2)
            dp[j] = h
            fd = (
                classical.hamiltonian(classical.ClassicalState(st.x, st.p + dp), fab, pb)
                - classical.hamiltonian(classical.ClassicalState(st.x, st.p - dp), fab, pb)
            ) / (2 * h)
            worst = max(worst, abs(xd[j] - fd))
            dx = np.zeros(2)
            dx[j] = h
            fd = (
                classical.hamiltonian(classical.ClassicalState(st.x + dx, st.p), fab, pb)
                - classical.hamiltonian(classical.ClassicalState(st.x - dx, st.p), fab, pb)
            ) / (2 * h)
            worst = max(worst, abs(pd[j] + fd))
        return worst < 1e-6, f"worst {worst:.2e}"

    add("classical: flow is gradient of H", chk_flow_grad)

    def chk_gamma_e():
        e_vec = np.array([0.2, -0.1, 0.4])
        v = np.array([0.5, 0.3, -0.2])
        fld = classical.uniform_field(d=3, e_field=e_vec)
        got = classical.gamma_term(v, np.zeros(3), 0.0, fld, pb)
        ref = 4.0 * float(v @ v) * e_vec + 8.0 * float(v @ e_vec) * v
        err = float(np.max(np.abs(got - ref)))
        return err < 1e-10, f"err {err:.2e}"

    add("classical: uniform-E force correction", chk_gamma_e)

    def chk_zero_field():
        fld = classical.uniform_field(d=3)
        g = classical.gamma_term(np.array([0.3, -0.7, 0.2]), np.zeros(3), 0.0, fld, pb)
        return float(np.max(np.abs(g))) == 0.0, "zero-field correction"

    add("classical: free-space correction vanishes", chk_zero_field)

    def chk_cyclotron():
        fld = classical.uniform_field(d=2, b_field=1.0)
        st = classical.ClassicalState(np.zeros(2), np.array([1.0, 0.0]))
        traj = classical.integrate(st, fld, p0, 1e-3, int(round(2 * math.pi / 1e-3)))
        center = np.array([0.0, -1.0])
        radii = np.hypot(traj.x[:, 0] - center[0], traj.x[:, 1] - center[1])
        err = float(np.max(np.abs(radii - 1.0)))
        return err < 1e-6, f"radius err {err:.2e}"

    add("classical: cyclotron radius", chk_cyclotron)

    def chk_energy():
        fab = classical.ab_flux_field(0.5, pb)
        st = classical.ClassicalState(np.array([2.0, 0.0]), np.array([-0.3, 0.8]))
        traj = classical.integrate(st, fab, pb, 1e-3, 2000)
        drift = float(np.max(np.abs(traj.energy - traj.energy[0])) / abs(traj.energy[0]))
        return drift < 1e-10, f"drift {drift:.2e}"

    add("classical: energy conservation", chk_energy)

    def chk_el():
        fab = classical.ab_flux_field(0.5, pb)
        st = classical.ClassicalState(np.array([2.0, 0.0]), np.array([-0.15, 0.35]))
        traj = classical.integrate(st, fab, pb, 1e-3, 600)
        r = classical.el_residual(traj, fab, pb)
        return r < 1e-4, f"residual {r:.2e}"

    add("classical: action-consistency residual", chk_el)

    def chk_gauge():
        lam = classical.ScalarField(
            value=lambda x, t: x[0], grad=lambda x, t: np.array([1.0, 0.0])
        )
        free = classical.uniform_field(d=2)
        _, checker = classical.gauge_shift(free, lam, lam, pb)
        st = classical.ClassicalState(np.zeros(2), np.array([0.4, 0.3]))
        traj = classical.integrate(st, free, pb, 1e-3, 300)
        r = checker(traj)
        return r < 1e-10, f"residual {r:.2e}"

    add("classical: shifted-potential consistency", chk_gauge)

    failed = 0
    for name, ok, detail in checks:
        print(("ok   " if ok else "FAIL ") + name + (f"  ({detail})" if detail else ""))
        if not ok:
            failed += 1
    print(f"selftest: {len(checks) - failed}/{len(checks)} checks passed")
    return 0 if failed == 0 else 2


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
            return _selftest(args.m_max)
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
