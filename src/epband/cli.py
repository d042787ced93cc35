"""Command-line surface.

Subcommands: btps, winding, scan, dispersion, symmetry, realspace, ring,
field-export.  All emitters format floats at 12 significant digits and use
fixed orderings, so identical invocations produce byte-identical output.
Files are written to a temp name and atomically renamed; nothing partial is
left behind on error.

Exit codes: 0 success, 1 a requested check failed, 2 bad input or flag
combination, 3 numerical non-convergence.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
import tempfile

import numpy as np

from .bloch import ModelParams, Momentum, observables_grid, symmetry_residuals, torus_distance
from .btp import RingRegimeError, branch_level, trace_ep_ring
from .dispersion import default_qs, expected_dispersion, fit_power_law, sample_dispersion
from .lattice import (
    LatticeSize,
    block_check,
    build_momentum_basis,
    build_realspace,
    spectral_mismatch,
)
from .phase import scan_phase_diagram, signature, census_type
from .winding import Loop, WindingError, winding_number

__all__ = ["main", "parse_angle", "parse_range"]

SCHEMA_VERSION = 1

_KINDS = ("DiracPoint", "SemiDiracPoint", "NormalEP", "HybridEP", "TrivialIsolatedEP")


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
    """(lo, hi) from "lo:hi"."""
    parts = text.split(":")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"range must look like lo:hi, got {text!r}")
    try:
        lo, hi = float(parts[0]), float(parts[1])
    except ValueError:
        raise argparse.ArgumentTypeError(f"range must look like lo:hi, got {text!r}")
    return lo, hi


# Values like "-2:2" or "-pi/2" start with a dash and would be eaten by
# argparse as unknown options; fold them into flag=value tokens up front.
_VALUE_FLAGS = {"--gamma-range", "--T-range", "--kx", "--ky", "--dx", "--dy"}


def _merge_value_flags(argv):
    merged = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok in _VALUE_FLAGS and i + 1 < len(argv):
            merged.append(tok + "=" + argv[i + 1])
            i += 2
        else:
            merged.append(tok)
            i += 1
    return merged


# ---------------------------------------------------------------------------
# deterministic emitters

def _round12(x: float) -> float:
    if x == 0.0:
        return 0.0
    if not math.isfinite(x):
        raise ValueError(f"non-finite value {x!r} in report")
    return float(f"{x:.12g}")


def _fmt(x) -> str:
    return f"{_round12(float(x)):.12g}"


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
        return _round12(float(obj))
    if obj is None or isinstance(obj, str):
        return obj
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _json_text(report: dict) -> str:
    return json.dumps(_clean(report), indent=2) + "\n"


def _csv_text(header, rows) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def _atomic_write(path: str, text: str) -> None:
    folder = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=folder, prefix=".epband-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _emit(text: str, out) -> None:
    if out:
        _atomic_write(out, text)
    else:
        sys.stdout.write(text)


def _params(args) -> ModelParams:
    return ModelParams(J=args.J, T=args.T, t=args.t, gamma=args.gamma)


def _params_dict(p: ModelParams) -> dict:
    return {"J": p.J, "T": p.T, "t": p.t, "gamma": p.gamma}


# ---------------------------------------------------------------------------
# subcommands

def cmd_btps(args) -> int:
    params = _params(args)
    if args.ring and abs(params.t) > 1e-12:
        raise UsageError("--ring applies only at t = 0")
    sig = None
    ring_regime = False
    try:
        sig = signature(params, samples=args.samples)
    except RingRegimeError:
        if not args.ring:
            raise
        ring_regime = True

    btps = list(sig.btps) if sig is not None else []
    report = {
        "schemaVersion": SCHEMA_VERSION,
        "command": "btps",
        "params": _params_dict(params),
        "count": len(btps),
        "type": census_type(sig) if sig is not None else None,
        "btps": [b.to_json_dict() for b in btps],
    }
    if ring_regime:
        report["note"] = "ring regime"
    elif not btps:
        report["note"] = "gapped"

    if args.ring:
        rings = []
        for s in (1, -1):
            if abs(branch_level(params, s)) >= 2.0 - 1e-9:
                continue
            ring = trace_ep_ring(params, s, samples=args.samples)
            rings.append(
                {
                    "branch": ring.branch,
                    "level": ring.level,
                    "vertices": [[float(v[0]), float(v[1])] for v in ring.vertices],
                }
            )
        report["rings"] = rings

    if args.format == "csv":
        rows = [
            [_fmt(b.k.kx), _fmt(b.k.ky), str(b.branch), b.kind, _fmt(b.w_i), _fmt(b.w_ii)]
            for b in btps
        ]
        _emit(_csv_text(("kx", "ky", "branch", "kind", "wI", "wII"), rows), args.out)
    else:
        _emit(_json_text(report), args.out)
    return 0


def cmd_winding(args) -> int:
    params = _params(args)
    loop = Loop(
        center=Momentum(args.kx, args.ky), radius=args.loop_radius, samples=args.samples
    )
    result = winding_number(params, loop, field_kind=args.field)
    report = {
        "schemaVersion": SCHEMA_VERSION,
        "command": "winding",
        "params": _params_dict(params),
    }
    report.update(result.to_json_dict())
    _emit(_json_text(report), args.out)
    return 0


_SCAN_HEADER = (
    "gamma",
    "T",
    "nBtps",
    "counts0",
    "countsHalf",
    "countsOne",
    "type",
    "boundaryFlag",
    "wIIHash",
)


def cmd_scan(args) -> int:
    base = ModelParams(J=args.J, T=0.0, t=args.t, gamma=0.0)
    grid = scan_phase_diagram(args.gamma_range, args.T_range, args.res, base)
    rows = []
    cells_json = []
    for i in range(len(grid.gammas)):
        for j in range(len(grid.big_ts)):
            cell = grid.cells[i][j]
            flag = "1" if cell.boundary else "0"
            if cell.sig is not None:
                sig = cell.sig
                counts = sig.counts_wi
                rows.append(
                    [
                        _fmt(cell.gamma),
                        _fmt(cell.big_t),
                        str(sig.n_btps),
                        str(counts[0.0]),
                        str(counts[0.5]),
                        str(counts[1.0]),
                        census_type(sig) or "",
                        flag,
                        sig.wii_hash(),
                    ]
                )
                cells_json.append(
                    {
                        "gamma": cell.gamma,
                        "T": cell.big_t,
                        "boundaryFlag": cell.boundary,
                        "type": census_type(sig),
                        "wIIHash": sig.wii_hash(),
                        **sig.to_json_dict(),
                    }
                )
            else:
                rows.append([_fmt(cell.gamma), _fmt(cell.big_t), "", "", "", "", "", flag, ""])
                entry = {"gamma": cell.gamma, "T": cell.big_t, "boundaryFlag": cell.boundary}
                if cell.error:
                    entry["error"] = cell.error
                cells_json.append(entry)
    if args.format == "json":
        report = {
            "schemaVersion": SCHEMA_VERSION,
            "command": "scan",
            "base": _params_dict(base),
            "cells": cells_json,
        }
        _emit(_json_text(report), args.out)
    else:
        _emit(_csv_text(_SCAN_HEADER, rows), args.out)
    return 0


def cmd_dispersion(args) -> int:
    params = _params(args)
    origin = Momentum(args.kx, args.ky)
    kind = args.kind
    if kind is None:
        sig = signature(params, samples=args.samples)
        hit = None
        for b in sig.btps:
            if torus_distance(b.k, origin) < 1e-6:
                hit = b
                break
        if hit is None:
            raise UsageError(
                f"no band touching at ({origin.kx:.6f}, {origin.ky:.6f}); pass --kind to override"
            )
        kind = hit.kind
        origin = hit.k
    direction = (args.dx, args.dy)
    sample = sample_dispersion(params, origin, direction, default_qs())
    fit = fit_power_law(sample)
    expected = expected_dispersion(kind, origin, direction, params)
    if args.format == "csv":
        rows = [[_fmt(q), _fmt(e)] for q, e in zip(sample.q, sample.abs_e)]
        _emit(_csv_text(("q", "absE"), rows), args.out)
        return 0
    report = {
        "schemaVersion": SCHEMA_VERSION,
        "command": "dispersion",
        "params": _params_dict(params),
        "origin": {"kx": origin.kx, "ky": origin.ky},
        "direction": {"dx": sample.direction[0], "dy": sample.direction[1]},
        "kind": kind,
        "alpha": fit.alpha,
        "C": fit.c,
        "r2": fit.r2,
        "expectedAlpha": expected.alpha if expected else None,
        "expectedC": expected.c if expected else None,
        "caseId": expected.case_id if expected else None,
    }
    _emit(_json_text(report), args.out)
    return 0


def cmd_symmetry(args) -> int:
    params = _params(args)
    rows = symmetry_residuals(params, grid_n=args.grid)
    worst = max(res for _, res in rows)
    passed = worst <= args.tol
    if args.format == "csv":
        _emit(_csv_text(("relation", "residual"), [[n, _fmt(r)] for n, r in rows]), args.out)
    else:
        report = {
            "schemaVersion": SCHEMA_VERSION,
            "command": "symmetry",
            "params": _params_dict(params),
            "grid": args.grid,
            "tol": args.tol,
            "residuals": [{"relation": n, "residual": r} for n, r in rows],
            "maxResidual": worst,
            "passed": passed,
        }
        _emit(_json_text(report), args.out)
    return 0 if passed else 1


def cmd_realspace(args) -> int:
    params = _params(args)
    size = LatticeSize(args.N)
    h = build_realspace(params, size)
    basis = build_momentum_basis(size)
    check = block_check(h, basis, params)
    mismatch = spectral_mismatch(h, basis, params)
    passed = check.passed and mismatch < 1e-10
    if args.dump:
        rs, cs = np.nonzero(h)  # row-major order
        rows = [
            [str(r), str(c), _fmt(v.real), _fmt(v.imag)]
            for r, c, v in zip(rs.tolist(), cs.tolist(), h[rs, cs])
        ]
        _atomic_write(args.dump, _csv_text(("row", "col", "re", "im"), rows))
    report = {
        "schemaVersion": SCHEMA_VERSION,
        "command": "realspace",
        "params": _params_dict(params),
        "N": size.n,
        "dim": size.dim,
        "offblock": check.offblock,
        "blockDeviation": check.blockdev,
        "spectralMismatch": mismatch,
        "ordering": check.ordering,
        "passed": passed,
    }
    _emit(_json_text(report), args.out)
    return 0 if passed else 1


def cmd_ring(args) -> int:
    params = _params(args)
    ring = trace_ep_ring(params, args.branch, samples=args.samples)
    if args.format == "json":
        report = {
            "schemaVersion": SCHEMA_VERSION,
            "command": "ring",
            "params": _params_dict(params),
            "branch": ring.branch,
            "level": ring.level,
            "count": int(ring.vertices.shape[0]),
            "vertices": [[float(v[0]), float(v[1])] for v in ring.vertices],
        }
        _emit(_json_text(report), args.out)
    else:
        rows = [[_fmt(v[0]), _fmt(v[1])] for v in ring.vertices]
        _emit(_csv_text(("kx", "ky"), rows), args.out)
    return 0


# SVG figure constants: pixel box and the two-stop background colormap.
_SVG_SIZE = 640
_CMAP_LO = (13, 8, 135)
_CMAP_HI = (240, 249, 33)
_ARROW_GRID = 32


def _cmap(val: float) -> str:
    v = min(max(val, 0.0), 1.0)
    r = round(_CMAP_LO[0] + v * (_CMAP_HI[0] - _CMAP_LO[0]))
    g = round(_CMAP_LO[1] + v * (_CMAP_HI[1] - _CMAP_LO[1]))
    b = round(_CMAP_LO[2] + v * (_CMAP_HI[2] - _CMAP_LO[2]))
    return f"#{r:02x}{g:02x}{b:02x}"


def _centers(n: int) -> np.ndarray:
    return -np.pi + (np.arange(n) + 0.5) * (2.0 * np.pi / n)


def cmd_field_export(args) -> int:
    params = _params(args)
    n = args.grid
    if n < 8:
        raise UsageError("--grid must be at least 8")

    ks = _centers(n)
    kxg, kyg = np.meshgrid(ks, ks, indexing="ij")
    fx, fy, _ = observables_grid(params, kxg, kyg)
    density = fx * fx + fy * fy

    px = _SVG_SIZE / n
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_SVG_SIZE}" height="{_SVG_SIZE}" '
        f'viewBox="0 0 {_SVG_SIZE} {_SVG_SIZE}">'
    ]
    # Background: |F|^2 density, one rect per momentum cell, ky increasing upward.
    for r in range(n):
        iy = n - 1 - r
        for c in range(n):
            parts.append(
                f'<rect x="{c * px:.2f}" y="{r * px:.2f}" width="{px:.2f}" '
                f'height="{px:.2f}" fill="{_cmap(float(density[c, iy]))}"/>'
            )
    # Arrow layer: subsampled (Fx, Fy), white strokes, centered on cells.
    ka = _centers(_ARROW_GRID)
    kxa, kya = np.meshgrid(ka, ka, indexing="ij")
    afx, afy, _ = observables_grid(params, kxa, kya)
    cell = _SVG_SIZE / _ARROW_GRID
    scale = 0.75 * cell
    parts.append('<g stroke="#ffffff" stroke-width="1.2" stroke-opacity="0.9" fill="none">')
    for ix in range(_ARROW_GRID):
        for iy in range(_ARROW_GRID):
            vx, vy = float(afx[ix, iy]), float(afy[ix, iy])
            mag = math.hypot(vx, vy)
            if mag < 1e-3:
                continue
            cxp = (kxa[ix, iy] + np.pi) / (2.0 * np.pi) * _SVG_SIZE
            cyp = (np.pi - kya[ix, iy]) / (2.0 * np.pi) * _SVG_SIZE
            ux, uy = vx / mag, -vy / mag
            half = 0.5 * scale * min(mag, 1.0)
            x0, y0 = cxp - half * ux, cyp - half * uy
            x1, y1 = cxp + half * ux, cyp + half * uy
            hx = 0.35 * half
            c150, s150 = -0.866, 0.5
            h1x = x1 + hx * (ux * c150 - uy * s150)
            h1y = y1 + hx * (ux * s150 + uy * c150)
            h2x = x1 + hx * (ux * c150 + uy * s150)
            h2y = y1 + hx * (-ux * s150 + uy * c150)
            parts.append(
                f'<path d="M {x0:.2f} {y0:.2f} L {x1:.2f} {y1:.2f} '
                f'M {h1x:.2f} {h1y:.2f} L {x1:.2f} {y1:.2f} L {h2x:.2f} {h2y:.2f}"/>'
            )
    parts.append("</g>")
    parts.append("</svg>")
    _atomic_write(args.out, "\n".join(parts) + "\n")

    csv_path = os.path.splitext(args.out)[0] + ".csv"
    if csv_path == args.out:
        csv_path = args.out + ".csv"
    rows = []
    for ix in range(n):
        for iy in range(n):
            rows.append(
                [_fmt(ks[ix]), _fmt(ks[iy]), _fmt(float(fx[ix, iy])), _fmt(float(fy[ix, iy]))]
            )
    _atomic_write(csv_path, _csv_text(("kx", "ky", "Fx", "Fy"), rows))
    return 0


# ---------------------------------------------------------------------------
# parser assembly

def _model_flags() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(add_help=False)
    p.add_argument("--J", type=float, default=1.0, help="NN hopping scale (default 1)")
    p.add_argument("--T", type=float, default=0.0, help="interlayer coupling")
    p.add_argument("--t", type=float, default=0.0, help="staggered diagonal hopping")
    p.add_argument("--gamma", type=float, default=0.0, help="gain/loss rate")
    return p


def _out_flags() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(add_help=False)
    p.add_argument("--out", default=None, help="output path (default: stdout)")
    return p


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="epband",
        description="Band touchings, winding invariants, and phase diagram "
        "of a non-Hermitian bilayer square-lattice model.",
    )
    model = _model_flags()
    outp = _out_flags()
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("btps", parents=[model, outp], help="locate and classify band touchings")
    p.add_argument("--samples", type=int, default=512, help="loop samples per winding")
    p.add_argument("--ring", action="store_true", help="trace EP rings (t = 0 only)")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(func=cmd_btps)

    p = sub.add_parser("winding", parents=[model, outp], help="winding number on one loop")
    p.add_argument("--kx", type=parse_angle, required=True, help="loop center kx (pi literals ok)")
    p.add_argument("--ky", type=parse_angle, required=True, help="loop center ky")
    p.add_argument("--field", choices=("F", "E"), default="F")
    p.add_argument("--loop-radius", type=float, default=0.1)
    p.add_argument("--samples", type=int, default=512)
    p.set_defaults(func=cmd_winding)

    p = sub.add_parser("scan", parents=[model, outp], help="phase-diagram grid scan")
    p.add_argument("--gamma-range", type=parse_range, default=(-2.0, 2.0), metavar="LO:HI")
    p.add_argument("--T-range", dest="T_range", type=parse_range, default=(-2.0, 2.0), metavar="LO:HI")
    p.add_argument("--res", type=int, default=41, help="grid points per axis")
    p.add_argument("--format", choices=("json", "csv"), default="csv")
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("dispersion", parents=[model, outp], help="power-law fit along a ray")
    p.add_argument("--kx", type=parse_angle, required=True, help="ray origin kx")
    p.add_argument("--ky", type=parse_angle, required=True, help="ray origin ky")
    p.add_argument("--dx", type=parse_angle, required=True, help="ray direction x component")
    p.add_argument("--dy", type=parse_angle, required=True, help="ray direction y component")
    p.add_argument("--kind", choices=_KINDS, default=None, help="override touching kind")
    p.add_argument("--samples", type=int, default=512)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(func=cmd_dispersion)

    p = sub.add_parser("symmetry", parents=[model, outp], help="momentum-relation residual table")
    p.add_argument("--grid", type=int, default=128)
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(func=cmd_symmetry)

    p = sub.add_parser("realspace", parents=[model, outp], help="finite-lattice block check")
    p.add_argument("--N", type=int, default=6, help="lattice side length (even)")
    p.add_argument("--dump", default=None, help="write nonzero matrix entries to CSV")
    p.set_defaults(func=cmd_realspace)

    p = sub.add_parser("ring", parents=[model, outp], help="EP ring polyline (t = 0)")
    p.add_argument("--branch", type=int, choices=(1, -1), default=1)
    p.add_argument("--samples", type=int, default=512)
    p.add_argument("--format", choices=("json", "csv"), default="csv")
    p.set_defaults(func=cmd_ring)

    p = sub.add_parser("field-export", parents=[model], help="SVG spin-texture figure + CSV")
    p.add_argument("--out", required=True, help="SVG output path (CSV lands beside it)")
    p.add_argument("--grid", type=int, default=128, help="density sampling per axis")
    p.set_defaults(func=cmd_field_export)

    return parser


def main(argv=None) -> int:
    raw = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    args = parser.parse_args(_merge_value_flags(raw))
    try:
        return args.func(args)
    except UsageError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except RingRegimeError as exc:
        sys.stderr.write(f"error: {exc} (pass --ring to trace it)\n")
        return 2
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except WindingError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 3
    except (RuntimeError, ArithmeticError, np.linalg.LinAlgError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
