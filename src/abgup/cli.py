"""Command-line front end: grid scans, radial dumps, classical
trajectories, integer-flux jump evaluation, and a self-test harness.

Exit codes: 0 success, 1 validation/usage/IO failure, 2 numerical-accuracy
failure (a selftest oracle disagreed).

A phi-scan evaluates all its angles in one array call of ``scattering``
(f0, f1 and the cross section from one kernel build in JSON); an
alpha-scan, whose flux moves from row to row, makes float calls row by row.
A grid point that fails becomes the same skip line in either.

Output is CSV (17 significant digits, deterministic row order; grid points
inside exclusion margins appear as `# skipped ...` comment lines) or JSON
(scan records use the amplitude-dump schema with f0/f1 split into real and
imaginary parts; skipped points are listed separately). One writer,
``_write``, emits both for every subcommand, chunk by chunk: a row template
with constant columns formatted into it once fills one byte matrix per
call, each chunk of rows fills in its values' cells, and each chunk is
written out as soon as it is made, so no copy of the whole document is
held. The float columns' text is built in numpy by ``_float_cells``, byte
for byte the text of ``%.17g`` (CSV) or ``float.__repr__`` (JSON); it hands
the few values whose rounding it cannot decide, and any other value, to
CPython.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import sys

import numpy as np

from . import classical, radial, scattering
from .core import (
    ENDPOINT_BAND,
    AccuracyError,
    DomainValidationError,
    PhysicalParams,
    flux_split,
    two_product,
)

_PHI_MARGIN_DEFAULT = 1e-3  # scans skip angles this close to +-pi
_NUM = "%.17g"  # every float written to CSV

_SCAN_SKIP_NOTE = "skipped alpha_prime=%(alpha_prime).17g phi=%(phi).17g reason=%(reason)s"
_INTEGER_SKIP = "integer-flux margin"
_FORWARD_SKIP = "forward-direction margin"
_TRUNCATED_NOTE = "%(reason)s (field evaluation failed)"


def _parse_vec(text: str, name: str) -> np.ndarray:
    try:
        vals = [float(tok) for tok in text.split(",")]
    except ValueError as exc:
        raise DomainValidationError(f"{name}: cannot parse {text!r} as comma-separated floats") from exc
    if len(vals) not in (2, 3):
        raise DomainValidationError(f"{name} must have 2 or 3 components, got {len(vals)}")
    return np.array(vals)


# _float_cells: what it leaves to CPython, and how it lays out a value
_FAST_MIN, _FAST_MAX = 1e-280, 1e290  # |x| it decides; 10**p is a normal double-double there
_DOUBT = 1e-9  # a rounding this close to a tie or an interval edge is left to CPython
_P_MIN, _P_MAX = -280, 300  # the powers of ten 10**p it scales by
# One value's cells, four uint64 words: a sign, "0." and three zeros (the
# fixed form below 1), the first digit and a point cell; digits 2-17; then a
# cell for digit 17, "e+000" and two cells never kept. A point after digit
# 2 .. 16 moves the digits after it one cell on.
_CELLS = 32
_CHUNK = 4096  # floats formatted per chunk: 2048 wrote radial about 10% slower, 8192 no faster
_E16 = np.int64(10**16)
_GROUP_ROWS = np.arange(0, 4 * 10**4, 10**4, dtype=np.int32)[:, None]  # in _words' last table


@functools.cache
def _powers_of_ten() -> tuple[np.ndarray, np.ndarray]:
    """10**p for p = _P_MIN .. _P_MAX as double-doubles (hi, lo): hi is 10**p
    rounded to a double and lo the rest rounded, both from exact integer
    arithmetic (``float(int)`` and int / int round correctly). Built on
    first use."""
    his, los = [], []
    for p in range(_P_MIN, _P_MAX + 1):
        if p >= 0:
            hi = float(10**p)
            lo = float(10**p - int(hi))
        else:
            hi = 1 / 10**-p
            num, den = hi.as_integer_ratio()
            lo = (den - num * 10**-p) / (den * 10**-p)
        his.append(hi)
        los.append(lo)
    return np.array(his), np.array(los)


@functools.cache
def _words() -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Lookup tables of cell words: the first word for a leading digit
    0 .. 9; four digits g = 0 .. 9999 as a uint32 of four cells; the
    last word for an exponent k = -400 .. 400. Then, for the group of
    digits 4j + 2 .. 4j + 5 (j = 0 .. 3) holding g, at 10^4 j + g, the
    number of digits up to its last nonzero one, 0 for g = 0."""
    g = np.arange(10**4)
    digits = g[:, None] // np.array([1000, 100, 10, 1]) % 10
    zeros = (digits[:, ::-1] == 0).cumprod(axis=1).sum(axis=1)  # trailing zeros, 4 for g = 0
    last = np.concatenate([np.where(g > 0, 4 * j + 5 - zeros, 0) for j in range(4)]).astype(np.uint8)
    heads = np.array([b"-0.000%d." % v for v in range(10)]).view(np.uint64)
    exponents = np.array([b"\0e%+04d" % k for k in range(-400, 401)], "S8").view(np.uint64)
    return heads, (48 + digits).astype(np.uint8).view(np.uint32).ravel(), exponents, last


@functools.cache
def _layouts(shortest: bool) -> tuple[np.ndarray, np.ndarray]:
    """The cells a value's text keeps, for every layout, as masks of 0xff
    bytes over its four cell words; and, for each exponent k = -400 .. 400,
    the first row of its form's layouts.

    A layout is row ``(form * 18 + n) * 2 + negative``, where n is the
    number of significant digits (0 standing for 1) and ``form`` is k + 4
    for the fixed form at decimal exponent k (-4 <= k < 17, 16 for repr), 21
    for the exponent form with two exponent digits and 22 with three. In the
    fixed form the integer part is padded with zeros to k + 1 digits, and
    repr writes a fraction of at least one digit."""
    key = np.arange(23 * 18 * 2)
    form, n = key // 36, np.maximum(key // 2 % 18, 1)
    k, fixed = form - 4, form < 21
    digits = np.where(fixed & (k >= 0), np.maximum(n, k + 1 + shortest), n)
    point = np.where(fixed, np.where((k >= 0) & (digits > k + 1), k + 1, 0), np.where(n > 1, 1, 0))
    keep = np.zeros((key.size, _CELLS), bool)
    keep[:, 0] = key % 2 == 1
    keep[:, 1:6] = (fixed & (k < 0))[:, None] & (np.arange(1, 6) < 2 - k[:, None])  # "0.", zeros
    keep[:, 6] = True  # the first digit
    keep[:, 7] = point == 1
    keep[:, 8:25] = np.arange(17) < (digits - 1 + (point > 1))[:, None]  # digits 2 .. and a point
    keep[:, [25, 26, 28, 29]] = ~fixed[:, None]
    keep[:, 27] = form == 22
    k = np.arange(-400, 401)
    form = np.where((k >= -4) & (k < 17 - shortest), k + 4, np.where(np.abs(k) >= 100, 22, 21))
    return (keep * np.uint8(255)).view(np.uint64), (36 * form).astype(np.int32)


def _scaled(a: np.ndarray, k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """a 10^(16 - k) as the nearest integer and the rest: (d, r) with
    d + r equal to it within about 1e-14, r in [-1/2, 1/2]. The product is
    taken against 10^(16 - k) as a double-double by Dekker's two-product, so
    the error is that of the double-double's low part and two roundings of
    numbers below 32."""
    his, los = _powers_of_ten()
    i = 16 - _P_MIN - k
    y, e = two_product(a, his.take(i))
    r = e + a * los.take(i)
    near = np.rint(r)
    r -= near
    d = y.astype(np.int64)  # y >= 2^53 is an integer wherever d counts
    d += near.astype(np.int64)
    return d, r


def _float_cells(x: np.ndarray, shortest: bool, fallback) -> np.ndarray:
    """The text of each element of the float64 array ``x``, as cells.

    Row i of the returned (x.size, _CELLS) uint8 matrix, its NUL cells
    dropped, spells ``"%.17g" % x[i]``, or with ``shortest``
    ``float.__repr__(x[i])``, byte for byte: both are correctly rounded
    (Gay, 1990), and this reproduces their digits and layout exactly.

    |x| is scaled into [1e16, 1e17) by a double-double power of ten
    (``_scaled``), so that its 17-digit rounding is the nearest integer d;
    the decimal exponent k is taken from d and its remainder, so a value
    just below a power of ten keeps its own exponent. repr's digits are the
    nearest of the shortest that lie strictly inside the half-ulp interval:
    that interval is narrower than 22 units of d, so it holds at most one
    multiple of 100, or else the multiples of 10 nearest d, or else d.

    An element the scaled product cannot decide takes ``fallback(float)``,
    CPython's own text (at most _CELLS long), instead: a rounding within
    _DOUBT of a tie or of an interval edge (the product is good to about
    1e-14), |x| outside [_FAST_MIN, _FAST_MAX], a non-finite x, and under
    repr a power of two, whose interval is not symmetric. Zero is decided.
    """
    ax = np.abs(x)
    zero = ax == 0.0
    fast = (ax >= _FAST_MIN) & (ax <= _FAST_MAX)
    a = np.where(fast, ax, 1.0)  # the others, zero among them, take the steps of 1.0
    fast |= zero
    k = np.floor(np.log10(a)).astype(np.int32)  # the exponent, or one off next to a power of 10
    d, r = _scaled(a, k)
    below = d - (r < 0)  # the integer part of the scaled value
    off = np.flatnonzero((below < _E16) | (below >= _E16 * 10))
    if off.size:  # the scaled value is outside [1e16, 1e17)
        k[off] += np.where(below[off] < _E16, -1, 1).astype(np.int32)
        d[off], r[off] = _scaled(a[off], k[off])
    if shortest:
        mantissa, exp2 = np.frexp(a)
        half_ulp = np.ldexp(_powers_of_ten()[0].take(16 - _P_MIN - k), exp2 - 54)  # in units of d
        t10 = d - d // 10 * 10 + r  # the scaled value above the multiple of 10 below d, and of 100
        t100 = d - d // 100 * 100 + r
        to100 = 100.0 * np.rint(0.01 * t100) - t100  # from it to the nearest multiple of 100
        to10 = 10.0 * np.rint(0.1 * t10) - t10
        gap100, gap10 = np.abs(to100), np.abs(to10)
        # decided: no candidate within _DOUBT of the interval's edge, and no tie
        # between the two nearest multiples of 10 or of 1
        doubt = np.minimum(np.abs(gap100 - half_ulp), np.abs(gap10 - half_ulp))
        doubt = np.minimum(doubt, np.minimum(np.abs(gap10 - 5.0), np.abs(np.abs(r) - 0.5)))
        fast &= (doubt >= _DOUBT) & (mantissa != 0.5)
        step = np.where(gap100 < half_ulp, to100, np.where(gap10 < half_ulp, to10, -r))
        d += np.rint(r + step).astype(np.int64)
    else:
        fast &= np.abs(np.abs(r) - 0.5) >= _DOUBT
    top = d == _E16 * 10  # rounded up to the next power of ten
    d[top] = _E16
    k += top

    heads, quads, exponents, last = _words()
    masks, forms = _layouts(shortest)
    # the digits in groups of four (integer // by a scalar is fast in numpy, % is not)
    upper = d // 10**8  # digits 1-9
    lead = upper // 10**8
    halves = np.empty((2, x.size), np.int32)  # digits 2-9 and 10-17
    halves[0] = upper - lead * 10**8
    halves[1] = d - upper * 10**8
    high = halves // 10**4
    groups = np.empty((4, x.size), np.int32)  # digits 2-5, 6-9, 10-13 and 14-17
    groups[0::2] = high
    groups[1::2] = halves - high * 10**4
    words = np.empty((x.size, _CELLS // 8), np.uint64)
    words[:, 0] = heads.take(lead - zero)  # 0 for zero, whose steps were those of 1.0
    words[:, 1:3].view(np.uint32)[:] = quads.take(groups).T
    words[:, 3] = exponents.take(k + 400)
    inside = np.flatnonzero((k > 0) & (k < 16))  # a point after digit k + 1, one of 2 .. 16
    if inside.size:  # it takes cell k + 8, and each digit after it moves one cell on
        w1, w2, w3 = words[inside, 1:].T
        q = k[inside].astype(np.uint64) * 8  # the point's bit in words 1-2, little-endian
        s1, s2 = np.minimum(q, 64), np.maximum(q, 64) - 64
        m1, m2 = (1 << s1) - 1, (1 << s2) - 1  # the bits before the point (1 << 64 is 0 in numpy)
        words[inside, 1] = (w1 & m1) | (46 << s1) | ((w1 & ~m1) << 8)
        words[inside, 2] = (w2 & m2) | np.where(q < 64, w1 >> 56, 46 << s2) | ((w2 & ~m2) << 8)
        words[inside, 3] = w3 | (w2 >> 56)
    n_digits = last.take(groups + _GROUP_ROWS).max(axis=0)
    words &= masks.take(forms.take(k + 400) + 2 * n_digits + np.signbit(x), axis=0)

    cells = words.view(np.uint8)
    slow = np.flatnonzero(~fast)
    if slow.size:
        texts = np.array([fallback(v).encode() for v in x[slow].tolist()], dtype=f"S{_CELLS}")
        cells[slow] = texts.view(np.uint8).reshape(slow.size, _CELLS)
    return cells


def _text_cells(texts: list[str]) -> np.ndarray:
    """``texts`` (ASCII, no NUL) as cells, as ``_float_cells`` gives them."""
    cells = np.array([t.encode() for t in texts])
    return cells.view(np.uint8).reshape(len(texts), cells.itemsize)


def _csv_text(value, like) -> str:
    """The CSV text of ``value`` in a column whose first value is ``like``."""
    return ("%d" if isinstance(like, int) else _NUM) % value


def _write(
    args: argparse.Namespace,
    columns: tuple,
    values,
    skipped: list[tuple[int, str, dict]],
) -> None:
    """Write one subcommand's output to ``args.out`` in ``args.format``.

    ``columns`` lists the output's columns in order: a name for a column
    read from ``values``, or a ``(name, value)`` pair for a column holding
    that value in every row, of which at least one is a name. ``values``
    holds the named columns' values row after row, in one flat list or
    float64 array.

    CSV writes ``%d`` for an int column (its type read from the first row)
    and ``%.17g`` otherwise. JSON writes byte for byte what
    ``json.dumps({"records": ..., "skipped": ...}, sort_keys=True,
    indent=2) + "\n"`` would: each record with sorted keys and the text
    ``json.dumps`` writes for each value. A column of floats is formatted
    by ``_float_cells``, any other value by CPython.

    Every row is one run of cells: the literal text of the row template
    (separators, keys, constant columns formatted once) around each read
    column's cells. The document is written in chunks of rows, each as soon
    as it is made: the header, then per chunk the template's cells with the
    chunk's cells filled in, compressed to text, then the tail. No copy of
    the whole document is made.

    A skip entry ``(position, note, record)`` puts ``record`` under
    ``"skipped"`` in JSON and the comment ``"# " + note % record`` before
    row ``position`` in CSV, between two chunks.
    """
    names = [c if isinstance(c, str) else c[0] for c in columns]
    read = [i for i, c in enumerate(columns) if isinstance(c, str)]  # columns read from values
    width = len(read)
    n_rows = len(values) // width
    is_json = args.format == "json"
    is_array = isinstance(values, np.ndarray)
    by_column = values.reshape(n_rows, width).T if is_array else [values[j::width] for j in range(width)]
    is_float = [is_array or all(issubclass(t, float) for t in set(map(type, c))) for c in by_column]
    # the read columns' values as floats row after row (an array's own), zeros standing for any not float
    floats = by_column.T if is_array else np.transpose(
        [c if f else np.zeros(n_rows) for c, f in zip(by_column, is_float)])

    # the row template, "\0" standing for each read column's text, and its columns in order
    if is_json:
        order = sorted(range(len(columns)), key=names.__getitem__)
        fields = [
            "      " + json.dumps(names[i]) + ": " + ("\0" if i in read else json.dumps(columns[i][1]))
            for i in order
        ]
        template = "    {\n" + ",\n".join(fields) + "\n    },\n"
        fallback = json.dumps
        doc = {"records": [], "skipped": [rec for _, _, rec in skipped]}
        doc = json.dumps(doc, sort_keys=True, indent=2) + "\n"
        head, tail = doc.replace("[]", "[\n\0\n  ]" if n_rows else "[\0]", 1).split("\0")  # "records" first
    else:
        order = range(len(columns))
        template = ",".join("\0" if i in read else _csv_text(c[1], c[1]) for i, c in enumerate(columns)) + "\n"
        fallback = _NUM.__mod__
        head, tail = ",".join(names) + "\n", ""
    # one row's cells: the template's literal text, NUL cells for each read column's slot
    literals = template.encode().split(b"\0")
    slots, row = [], literals[0]  # per slot: its first cell, its end and its cells' source
    for literal, i in zip(literals[1:], [i for i in order if i in read]):
        j = read.index(i)
        column = by_column[j]
        if is_float[j]:  # a column of floats: every width-th row of each chunk's cells from row j
            source, size = j, _CELLS
        else:
            texts = map(json.dumps, column) if is_json else (_csv_text(v, column[0]) for v in column)
            source = _text_cells(list(texts))
            size = source.shape[1]
        slots.append((len(row), len(row) + size, source))
        row += bytes(size) + literal

    step = max(1, _CHUNK // width)
    rows = np.empty((min(step, n_rows), len(row)), np.uint8)  # the template, filled per chunk
    rows[:] = np.frombuffer(row, np.uint8)
    notes = {}  # CSV: the comments before each row
    for position, note, rec in [] if is_json else skipped:
        notes[position] = notes.get(position, "") + "# " + note % rec + "\n"
    bounds = sorted({*range(0, n_rows, step), *notes, n_rows})  # chunks end at each comment
    target = contextlib.nullcontext(sys.stdout) if args.out == "-" else open(args.out, "w", encoding="utf-8")
    with target as out:
        out.write(head)
        for start, stop in zip(bounds, bounds[1:]):
            out.write(notes.get(start, ""))
            chunk = rows[: stop - start]
            cells = _float_cells(floats[start:stop].ravel(), is_json, fallback)
            for lo, hi, source in slots:
                chunk[:, lo:hi] = cells[source::width] if isinstance(source, int) else source[start:stop]
            text = chunk.tobytes().translate(None, b"\0")
            out.write((text[:-2] if is_json and stop == n_rows else text).decode())  # the last ",\n" cut
        out.write(notes.get(n_rows, "") + tail)


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

def _integer_flux(alpha_prime: float) -> bool:
    split = flux_split(alpha_prime)
    return min(split.gamma_part, 1.0 - split.gamma_part) < ENDPOINT_BAND


def _scan_skip_reason(alpha_prime: float, phi: float, margin: float) -> str | None:
    if _integer_flux(alpha_prime):
        return _INTEGER_SKIP
    t = scattering._principal(phi)
    if math.pi - abs(t) < margin:
        return _FORWARD_SKIP
    return None


def _phi_skip_reasons(alpha_prime: float, phis: list[float], margin: float) -> list:
    """``_scan_skip_reason`` at one flux and each of the angles ``phis``: the
    flux is tested once, and the angles are reduced as one array."""
    if _integer_flux(alpha_prime):
        return [_INTEGER_SKIP] * len(phis)
    near = math.pi - np.abs(scattering._principal_rows(np.array(phis))) < margin
    return [_FORWARD_SKIP if n else None for n in near.tolist()]


def _phi_rows(evaluate, a: float, phis: list[float], reasons: list) -> dict:
    """The rows of a phi-scan from one array call ``evaluate(a, angles)`` over
    the angles ``phis[i]`` whose ``reasons[i]`` is None, as {i: row}.

    An array call that fails names the failing angles in its error's
    ``rows``; each of them takes the error's name in ``reasons``, as it would
    have taken it alone, and the call is made again on the rest. Each
    element of an array call is bitwise the same in any split of the array,
    so the other rows keep their values.
    """
    kept = [i for i, reason in enumerate(reasons) if reason is None]
    while kept:
        try:
            columns = evaluate(a, np.array([phis[i] for i in kept]))
        except (DomainValidationError, AccuracyError) as exc:
            # an error that names no angles stands for every one of them
            failed = set(exc.rows.tolist()) if hasattr(exc, "rows") else set(range(len(kept)))
            for j in failed:
                reasons[kept[j]] = type(exc).__name__
            kept = [i for j, i in enumerate(kept) if j not in failed]
            continue
        return dict(zip(kept, np.column_stack(np.broadcast_arrays(*columns)).tolist()))
    return {}


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
        points = np.linspace(lo, hi, args.steps).tolist()
    if mode == "alpha":
        grid = [(a, args.phi) for a in points]
    else:
        grid = [(args.alpha, phi) for phi in points]

    beta = ("beta", params.beta)
    if args.format == "json":  # the amplitudes too, at the principal angle
        columns = ("alpha_prime", "phi", beta, "f0_re", "f0_im", "f1_re", "f1_im", "dsigma")

        def evaluate(a: float, phi) -> tuple:
            s = scattering.scatter_sample(phi, a, params, form=args.form)
            f0, f1 = s.f0, s.f1
            return (s.alpha_prime, s.phi, f0.real, f0.imag, f1.real, f1.imag, s.dsigma)
    else:
        columns = ("alpha_prime", "phi", beta, "dsigma")

        def evaluate(a: float, phi) -> tuple:
            return (a, phi, scattering.dsigma(phi, a, params, form=args.form))

    if mode == "phi":  # every angle in one array call
        reasons = _phi_skip_reasons(args.alpha, points, args.margin)
        rows = _phi_rows(evaluate, args.alpha, points, reasons)
    values: list[float] = []
    skipped: list[tuple[int, str, dict]] = []
    for i, (a, phi) in enumerate(grid):
        if mode == "alpha":  # one row at a time
            reason = _scan_skip_reason(a, phi, args.margin)
            if reason is None:
                try:
                    values += evaluate(a, phi)
                    continue
                except (DomainValidationError, AccuracyError) as exc:
                    reason = type(exc).__name__
        elif (reason := reasons[i]) is None:
            values += rows[i]
            continue
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
    values = np.column_stack((zs, f0.real, f0.imag, f1.real, f1.imag)).ravel()
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
    values = np.column_stack((traj.t, traj.x, traj.v, traj.energy)).ravel()
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
