"""Command-line surface.

Subcommands: btps, winding, scan, dispersion, symmetry, realspace, ring,
field-export.  All emitters format floats at 12 significant digits and use
fixed orderings, so identical invocations produce byte-identical output.
Files are written to a temp name and atomically renamed (over a symlink's
target, keeping a file's mode); nothing partial is left behind on error.

Exit codes: 0 success, 1 a requested check failed, 2 bad input, flag
combination or unwritable output path, 3 numerical non-convergence.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import stat
import sys
import tempfile
from contextlib import contextmanager
from dataclasses import asdict

import numpy as np

import epband
from .bloch import (ModelParams, Momentum, field_scale, observables_grid, symmetry_residuals,
                    torus_distance)
from .btp import KINDS, RingRegimeError, face, locate_btps, trace_ep_ring

__all__ = ["main", "parse_angle", "parse_range"]


def _on_first_call(name: str):
    """``epband.<name>``, whose submodule loads on the first call.  The package keeps each
    public name as its submodule defined it: patch ``epband.cli.<name>`` to reach a command."""
    return lambda *args, **kwargs: getattr(epband, name)(*args, **kwargs)


# phase, winding, dispersion and lattice load only for the commands that call into them
scan_phase_diagram = _on_first_call("scan_phase_diagram")
signature = _on_first_call("signature")
census_type = _on_first_call("census_type")
Loop = _on_first_call("Loop")
winding_number = _on_first_call("winding_number")
expected_dispersion = _on_first_call("expected_dispersion")
fit_power_law = _on_first_call("fit_power_law")
sample_dispersion = _on_first_call("sample_dispersion")
LatticeSize = _on_first_call("LatticeSize")
block_check = _on_first_call("block_check")
build_momentum_basis = _on_first_call("build_momentum_basis")
build_realspace = _on_first_call("build_realspace")
spectral_mismatch = _on_first_call("spectral_mismatch")

SCHEMA_VERSION = 1


# The JSON shape of each library result; the library itself writes no JSON.

def _btp_json(b) -> dict:
    return {"kx": b.k.kx, "ky": b.k.ky, "branch": b.branch, "kind": b.kind,
            "wI": b.w_i, "wII": b.w_ii}


def _census_json(sig) -> dict:
    counts = sig.counts_wi
    return {
        "nBtps": sig.n_btps,
        "countsWI": {"0": counts[0.0], "1/2": counts[0.5], "1": counts[1.0]},
        "signedWII": [{"kx": kx, "ky": ky, "wII": w} for kx, ky, w in sig.signed_wii],
        "btps": [_btp_json(b) for b in sig.btps],
    }


def _winding_json(r) -> dict:
    return {"value": r.value, "rawAngle": r.raw_angle, "residual": r.residual,
            "fieldKind": r.field_kind, "branchSwapped": r.branch_swapped,
            "center": {"kx": r.center.kx, "ky": r.center.ky}, "radius": r.radius,
            "samples": r.samples}


class UsageError(Exception):
    """Bad input that argparse cannot catch on its own."""


# ---------------------------------------------------------------------------
# flag value parsing

_PI_RE = re.compile(
    r"^([+-]?)(\d+(?:\.\d*)?)?\s*\*?\s*pi(?:\s*/\s*(\d+(?:\.\d*)?))?$", re.IGNORECASE
)


def parse_angle(text: str) -> float:
    """Radians from a float literal or a pi fraction like "pi", "-pi/2", "2pi/3"."""
    s = text.strip()
    try:
        return float(s)
    except ValueError:
        pass
    m = _PI_RE.match(s)
    if not m:
        raise argparse.ArgumentTypeError(f"cannot parse angle {text!r}")
    sign = -1.0 if m.group(1) == "-" else 1.0
    coef = float(m.group(2)) if m.group(2) else 1.0
    den = float(m.group(3)) if m.group(3) else 1.0
    if den == 0.0:
        raise argparse.ArgumentTypeError(f"zero denominator in angle {text!r}")
    return sign * coef * math.pi / den


def parse_range(text: str):
    """(lo, hi) from "lo:hi", both finite."""
    parts = text.split(":")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"range must look like lo:hi, got {text!r}")
    try:
        lo, hi = float(parts[0]), float(parts[1])
    except ValueError:
        raise argparse.ArgumentTypeError(f"range must look like lo:hi, got {text!r}")
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise argparse.ArgumentTypeError(f"range bounds must be finite, got {text!r}")
    return lo, hi


# argparse reads a dash-led token as an option unless it looks like a plain negative
# decimal, so values like "-1e-4", "-pi/2" or "-2:2" would be refused.  Every option but
# -h is long, so a token led by one dash is a value: fold it into the flag before it.
_FLAG_RE = re.compile(r"--[A-Za-z][\w-]*")


def _merge_value_flags(argv):
    merged = []
    for tok in argv:
        value = tok.startswith("-") and not tok.startswith("--") and tok != "-h"
        if value and merged and _FLAG_RE.fullmatch(merged[-1]):
            merged[-1] += "=" + tok
        else:
            merged.append(tok)
    return merged


# ---------------------------------------------------------------------------
# deterministic emitters

# The one rule for numbers, JSON, CSV and per row; adding 0.0 first prints -0.0 as "0".
_NUM = "{:.12g}"


def _fmt(x) -> str:
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"non-finite value {x!r} in report")
    return _NUM.format(x + 0.0)


def _clean(obj):
    if isinstance(obj, dict):
        return {k: _clean(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_clean(v) for v in obj]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return float(_fmt(obj))
    if obj is None or isinstance(obj, str):
        return obj
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _csv_chunks(header, rows):
    yield ",".join(header) + "\n"
    for row in rows:
        yield ",".join(row) + "\n"


def _atomic_write(*outputs) -> None:
    """Write each (path, chunks) pair to a temp file beside it; rename them all once all are
    complete.  On any error remove every temp file and any output this call renamed.

    A symlink is followed to its target.  A replaced file keeps its mode and a new one gets
    the umask's.  A directory is refused before anything is written.  A path of None is
    stdout, and a path that is not a regular file (a FIFO, a device) is written in place:
    neither can be taken back, so each gets its text in one write, once all is formatted.
    """
    for path, _ in outputs:
        if path and os.path.isdir(path):
            raise UsageError(f"{path} is a directory")
    targets = [os.path.realpath(path) for path, _ in outputs if path]
    if len(set(targets)) < len(targets):  # the second rename would replace the first file
        raise UsageError(f"two outputs name one file: {max(targets, key=targets.count)}")
    os.umask(umask := os.umask(0))  # read the umask
    temps, placed = [], []
    try:
        for path, chunks in outputs:
            target = path and os.path.realpath(path)
            mode = os.stat(target).st_mode if target and os.path.exists(target) else None
            if target is None:
                sys.stdout.write("".join(chunks))
            elif mode is not None and not stat.S_ISREG(mode):
                text = "".join(chunks)
                with open(target, "w", encoding="utf-8") as fh:
                    fh.write(text)
            else:
                try:
                    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(target), prefix=".epband-")
                except OSError as exc:  # name the path given, not the temp file
                    raise OSError(exc.errno, exc.strerror, path) from None
                temps.append((target, tmp))
                os.chmod(tmp, 0o666 & ~umask if mode is None else stat.S_IMODE(mode))
                with os.fdopen(fd, "w", encoding="utf-8") as fh:
                    fh.writelines(chunks)
        for target, tmp in temps:
            os.replace(tmp, target)
            placed.append(target)
    except BaseException:
        for leftover in [tmp for _, tmp in temps] + placed:
            if os.path.exists(leftover):
                os.unlink(leftover)
        raise


def _chunks(args, report: dict, header=(), rows=()):
    """``report`` as JSON, or ``header`` and ``rows`` under --format csv."""
    if getattr(args, "format", "json") == "csv":
        return _csv_chunks(header, rows)
    return [json.dumps(_clean(report), indent=2) + "\n"]


def _write(args, report: dict, header=(), rows=()) -> None:
    """:func:`_chunks` to --out or stdout."""
    _atomic_write((args.out or None, _chunks(args, report, header, rows)))


def _report(command: str, params: ModelParams, **fields) -> dict:
    """A JSON report: the header every subcommand shares, then ``fields`` in order."""
    return {"schemaVersion": SCHEMA_VERSION, "command": command, "params": asdict(params), **fields}


def _params(args) -> ModelParams:
    return ModelParams(J=args.J, T=args.T, t=args.t, gamma=args.gamma)


# ---------------------------------------------------------------------------
# subcommands

def cmd_btps(args) -> int:
    params = _params(args)
    if args.ring and not face(params).at_t_zero:
        raise UsageError("--ring applies only at t = 0")
    try:
        sig = signature(params)
    except RingRegimeError:
        if not args.ring:
            raise
        if args.format == "csv":  # it would print the bare header a gapped census prints
            raise UsageError("btps lists rings only in JSON: pass --format json, "
                             "or trace one branch with epband ring")
        sig = None  # the ring regime

    btps, kind = (sig.btps, census_type(sig)) if sig is not None else ((), None)
    report = _report("btps", params, count=len(btps), type=kind,
                     btps=[_btp_json(b) for b in btps])
    if sig is None:
        report["note"] = "ring regime"
    elif not btps:
        report["note"] = "gapped"
    if args.ring:
        # every ring that is not empty; a trivial EP beside a ring is its one-vertex ring
        rings = (trace_ep_ring(params, s) for s in (1, -1) if sig is None)
        report["rings"] = [{"branch": r.branch, "level": r.level, "vertices": r.vertices.tolist()}
                           for r in rings if len(r.vertices)]

    rows = (
        [_fmt(b.k.kx), _fmt(b.k.ky), str(b.branch), b.kind, _fmt(b.w_i), _fmt(b.w_ii)]
        for b in btps
    )
    _write(args, report, ("kx", "ky", "branch", "kind", "wI", "wII"), rows)
    return 0


def cmd_winding(args) -> int:
    params = _params(args)
    loop = Loop(center=Momentum(args.kx, args.ky), radius=args.loop_radius)
    result = winding_number(params, loop, field_kind=args.field)
    _write(args, _report("winding", params, **_winding_json(result)))
    return 0


_SCAN_HEADER = "gamma,T,nBtps,counts0,countsHalf,countsOne,type,boundaryFlag,wIIHash".split(",")


def _scan_record(cell):
    """One scan cell as its JSON object and its CSV row, read off the same census."""
    entry = {"gamma": cell.gamma, "T": cell.big_t, "boundaryFlag": cell.boundary}
    census, kind, digest = ("",) * 4, "", ""
    if cell.sig is not None:
        sig = cell.sig
        kind, digest = census_type(sig), sig.wii_hash()
        entry.update(type=kind, wIIHash=digest, **_census_json(sig))
        census = (sig.n_btps, *sig.counts_wi.values())
    elif cell.error:
        entry["error"] = cell.error
    flag = "1" if cell.boundary else "0"
    row = [_fmt(cell.gamma), _fmt(cell.big_t), *map(str, census), kind or "", flag, digest]
    return entry, row


def cmd_scan(args) -> int:
    base = ModelParams(J=args.J, T=0.0, t=args.t, gamma=0.0)
    grid = scan_phase_diagram(args.gamma_range, args.T_range, args.res, base)
    records = [_scan_record(cell) for row in grid.cells for cell in row]
    report = {
        "schemaVersion": SCHEMA_VERSION,
        "command": "scan",
        "base": asdict(base),
        "cells": [entry for entry, _ in records],
    }
    _write(args, report, _SCAN_HEADER, (row for _, row in records))
    return 0


def cmd_dispersion(args) -> int:
    params = _params(args)
    origin = Momentum(args.kx, args.ky)
    kind = args.kind
    if kind is None:
        hit = next((b for b in locate_btps(params) if torus_distance(b.k, origin) < 1e-6), None)
        if hit is None:
            raise UsageError(
                f"no band touching at ({origin.kx:.6f}, {origin.ky:.6f}); pass --kind to override"
            )
        kind = hit.kind
        origin = hit.k
    direction = (args.dx, args.dy)
    sample = sample_dispersion(params, origin, direction)
    fit = fit_power_law(sample)
    expected = expected_dispersion(kind, origin, direction, params)
    report = _report(
        "dispersion",
        params,
        origin={"kx": origin.kx, "ky": origin.ky},
        direction={"dx": sample.direction[0], "dy": sample.direction[1]},
        kind=kind,
        alpha=fit.alpha,
        C=fit.c,
        r2=fit.r2,
        expectedAlpha=expected.alpha if expected else None,
        expectedC=expected.c if expected else None,
        caseId=expected.case_id if expected else None,
    )
    rows = ([_fmt(q), _fmt(e)] for q, e in zip(epband.dispersion.QS, sample.abs_e))
    _write(args, report, ("q", "absE"), rows)
    return 0


def cmd_symmetry(args) -> int:
    params = _params(args)
    if not 0.0 <= args.tol < math.inf:
        raise UsageError(f"--tol must be finite and >= 0, got {args.tol!r}")
    rows = symmetry_residuals(params, grid_n=args.grid)
    worst = max(res for _, res in rows)
    passed = worst <= args.tol * field_scale(params, args.grid)  # --tol is relative to |h|
    report = _report(
        "symmetry",
        params,
        grid=args.grid,
        tol=args.tol,
        residuals=[{"relation": n, "residual": r} for n, r in rows],
        maxResidual=worst,
        passed=passed,
    )
    _write(args, report, ("relation", "residual"), ([n, _fmt(r)] for n, r in rows))
    return 0 if passed else 1


def cmd_realspace(args) -> int:
    params = _params(args)
    size = LatticeSize(args.N)
    h = build_realspace(params, size)
    basis = build_momentum_basis(size)
    check = block_check(h, basis, params)
    mismatch = spectral_mismatch(h, basis, params)
    passed = check.passed and mismatch < check.tol
    dump = ()
    if args.dump:
        order = np.lexsort((h.cols, h.rows))  # row-major order
        rows = (
            [str(r), str(c), _fmt(v.real), _fmt(v.imag)]
            for r, c, v in zip(h.rows[order].tolist(), h.cols[order].tolist(), h.vals[order])
            if v != 0
        )
        dump = ((args.dump, _csv_chunks(("row", "col", "re", "im"), rows)),)
    report = _report(
        "realspace",
        params,
        N=size.n,
        dim=size.dim,
        offblock=check.offblock,
        blockDeviation=check.blockdev,
        spectralMismatch=mismatch,
        ordering="AB",  # the basis's own sublattice order, the one block_check compares in
        passed=passed,
    )
    _atomic_write(*dump, (args.out or None, _chunks(args, report)))  # both files, or neither
    return 0 if passed else 1


def cmd_ring(args) -> int:
    params = _params(args)
    ring = trace_ep_ring(params, args.branch)
    report = _report(
        "ring",
        params,
        branch=ring.branch,
        level=ring.level,
        count=len(ring.vertices),
        vertices=ring.vertices.tolist(),
    )
    _write(args, report, ("kx", "ky"), ([_fmt(x), _fmt(y)] for x, y in ring.vertices))
    return 0


# SVG figure constants: pixel box and the two-stop background colormap.
_SVG_SIZE = 640
_CMAP_LO = np.array((13, 8, 135))
_CMAP_HI = np.array((240, 249, 33))
_ARROW_GRID = 32


def _centers(n: int) -> np.ndarray:
    return -np.pi + (np.arange(n) + 0.5) * (2.0 * np.pi / n)


def _svg_chunks(density, kxa, kya, afx, afy):
    n = density.shape[0]
    px = _SVG_SIZE / n
    yield (
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_SVG_SIZE}" height="{_SVG_SIZE}" '
        f'viewBox="0 0 {_SVG_SIZE} {_SVG_SIZE}">\n'
    )
    # Background: |F|^2 density, one rect per momentum cell, ky increasing upward.
    # Colours are packed 0xrrggbb; np.rint rounds half to even, as round() does.
    rgb = np.rint(_CMAP_LO + np.clip(density, 0.0, 1.0)[..., None] * (_CMAP_HI - _CMAP_LO))
    rgb = rgb.astype(np.int64)
    colours = (rgb[..., 0] << 16) | (rgb[..., 1] << 8) | rgb[..., 2]
    pos = [f"{c * px:.2f}" for c in range(n)]
    side = f"{px:.2f}"
    for y, row in zip(pos, colours.T[::-1]):
        rect = f'<rect x="{{}}" y="{y}" width="{side}" height="{side}" fill="#{{:06x}}"/>\n'
        yield "".join(map(rect.format, pos, row.tolist()))
    # Arrow layer: subsampled (Fx, Fy), white strokes, centered on cells, in one array pass.
    # math.hypot, not np.hypot: the two differ in the last bit, which can move a .2f.
    scale = 0.75 * (_SVG_SIZE / _ARROW_GRID)
    mag = np.array(list(map(math.hypot, afx.tolist(), afy.tolist())))
    keep = mag >= 1e-3
    vx, vy, mag = afx[keep], afy[keep], mag[keep]
    cxp = (kxa[keep] + np.pi) / (2.0 * np.pi) * _SVG_SIZE
    cyp = (np.pi - kya[keep]) / (2.0 * np.pi) * _SVG_SIZE
    ux, uy = vx / mag, -vy / mag
    half = 0.5 * scale * np.minimum(mag, 1.0)
    x0, y0 = cxp - half * ux, cyp - half * uy
    x1, y1 = cxp + half * ux, cyp + half * uy
    hx = 0.35 * half
    c150, s150 = -0.866, 0.5
    h1x = x1 + hx * (ux * c150 - uy * s150)
    h1y = y1 + hx * (ux * s150 + uy * c150)
    h2x = x1 + hx * (ux * c150 + uy * s150)
    h2y = y1 + hx * (-ux * s150 + uy * c150)
    path = ('<path d="M {:.2f} {:.2f} L {:.2f} {:.2f} '
            'M {:.2f} {:.2f} L {:.2f} {:.2f} L {:.2f} {:.2f}"/>\n')
    columns = (c.tolist() for c in (x0, y0, x1, y1, h1x, h1y, x1, y1, h2x, h2y))
    yield '<g stroke="#ffffff" stroke-width="1.2" stroke-opacity="0.9" fill="none">\n'
    yield "".join(map(path.format, *columns))
    yield "</g>\n</svg>\n"


def _field_csv_chunks(ks, fx, fy):
    """_csv_chunks' text for the field, one grid row per chunk and no Python call per cell."""
    yield "kx,ky,Fx,Fy\n"
    k = [_fmt(v) for v in ks]
    for kx, rx, ry in zip(k, fx, fy):
        line = f"{kx},{{}},{_NUM},{_NUM}\n"
        yield "".join(map(line.format, k, (rx + 0.0).tolist(), (ry + 0.0).tolist()))


def cmd_field_export(args) -> int:
    params = _params(args)
    n = args.grid
    if n < 8:
        raise UsageError("--grid must be at least 8")

    ks = _centers(n)
    fx, fy, _ = observables_grid(params, *np.meshgrid(ks, ks, indexing="ij"))
    ka = _centers(_ARROW_GRID)
    kxa, kya = (k.ravel() for k in np.meshgrid(ka, ka, indexing="ij"))  # arrows, ix-major
    afx, afy, _ = observables_grid(params, kxa, kya)
    # Both files are streamed, so check the whole field before the first byte.
    if not all(np.isfinite(a).all() for a in (fx, fy, afx, afy)):
        raise ValueError("non-finite value in the field")

    csv_path = os.path.splitext(args.out)[0] + ".csv"
    if csv_path == args.out:
        csv_path = args.out + ".csv"
    _atomic_write(
        (args.out, _svg_chunks(fx * fx + fy * fy, kxa, kya, afx, afy)),
        (csv_path, _field_csv_chunks(ks, fx, fy)),
    )
    return 0


# ---------------------------------------------------------------------------
# parser assembly

_MODEL_FLAGS = {  # flag: (default, help)
    "J": (1.0, "NN hopping scale (default 1)"),
    "T": (0.0, "interlayer coupling"),
    "t": (0.0, "staggered diagonal hopping"),
    "gamma": (0.0, "gain/loss rate"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="epband",
        description="Band touchings, winding invariants, and phase diagram "
        "of a non-Hermitian bilayer square-lattice model.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    @contextmanager
    def command(name, func, help, fmt=None, model=tuple(_MODEL_FLAGS), out=True):
        """Subcommand ``name``: the model flags it reads and --out, its block's flags, then
        --format if ``fmt`` is its default.  No flag abbreviates: --T is not --T-range."""
        p = sub.add_parser(name, help=help, allow_abbrev=False)
        for flag in model:
            default, text = _MODEL_FLAGS[flag]
            p.add_argument(f"--{flag}", type=float, default=default, help=text)
        if out:
            p.add_argument("--out", default=None, help="output path (default: stdout)")
        yield p
        if fmt:
            p.add_argument("--format", choices=("json", "csv"), default=fmt)
        p.set_defaults(func=func)

    with command("btps", cmd_btps, "locate and classify band touchings", "json") as p:
        p.add_argument("--ring", action="store_true", help="trace EP rings (t = 0 only)")

    with command("winding", cmd_winding, "winding number on one loop") as p:
        p.add_argument("--kx", type=parse_angle, required=True,
                       help="loop center kx (pi literals ok)")
        p.add_argument("--ky", type=parse_angle, required=True, help="loop center ky")
        p.add_argument("--field", choices=("F", "E"), default="F")
        p.add_argument("--loop-radius", type=float, default=0.1)

    with command("scan", cmd_scan, "phase-diagram grid scan", "csv", model=("J", "t")) as p:
        # a string default goes through parse_range like a typed flag
        p.add_argument("--gamma-range", type=parse_range, default="-2:2", metavar="LO:HI")
        p.add_argument("--T-range", type=parse_range, default="-2:2", metavar="LO:HI")
        p.add_argument("--res", type=int, default=41, help="grid points per axis")

    with command("dispersion", cmd_dispersion, "power-law fit along a ray", "json") as p:
        p.add_argument("--kx", type=parse_angle, required=True, help="ray origin kx")
        p.add_argument("--ky", type=parse_angle, required=True, help="ray origin ky")
        p.add_argument("--dx", type=parse_angle, required=True, help="ray direction x component")
        p.add_argument("--dy", type=parse_angle, required=True, help="ray direction y component")
        p.add_argument("--kind", choices=KINDS, default=None, help="override touching kind")

    with command("symmetry", cmd_symmetry, "momentum-relation residual table", "json") as p:
        p.add_argument("--grid", type=int, default=128)
        p.add_argument("--tol", type=float, default=1e-9,
                       help="relative to the largest |Bx|, |By| on the grid")

    with command("realspace", cmd_realspace, "finite-lattice block check") as p:
        p.add_argument("--N", type=int, default=6, help="lattice side length (even)")
        p.add_argument("--dump", default=None, help="write nonzero matrix entries to CSV")

    with command("ring", cmd_ring, "EP ring polyline (t = 0)", "csv") as p:
        p.add_argument("--branch", type=int, choices=(1, -1), default=1)

    with command("field-export", cmd_field_export, "SVG spin-texture figure + CSV",
                 out=False) as p:
        p.add_argument("--out", required=True, help="SVG output path (CSV lands beside it)")
        p.add_argument("--grid", type=int, default=128, help="density sampling per axis")

    return parser


def main(argv=None) -> int:
    raw = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    args = parser.parse_args(_merge_value_flags(raw))
    try:
        return args.func(args)
    except RingRegimeError as exc:  # only btps has a --ring flag to offer
        hint = " (pass --ring to trace it)" if hasattr(args, "ring") else ""
        sys.stderr.write(f"error: {exc}{hint}\n")
        return 2
    except (UsageError, ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except MemoryError as exc:  # e.g. a lattice whose plane-wave tables cannot be allocated
        sys.stderr.write(f"error: out of memory: {exc or 'allocation failed'}\n")
        return 2
    except (RuntimeError, ArithmeticError) as exc:  # WindingError is a RuntimeError
        sys.stderr.write(f"error: {exc}\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
