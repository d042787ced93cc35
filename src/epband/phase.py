"""Configuration signatures and the (gamma, T) phase diagram scan.

A configuration signature is the winding census of all band touchings:
counts of |w_I| in {0, 1/2, 1} plus the canonically ordered list of signed
w_II values with their locations.  Two parameter points belong to the same
phase iff their signatures match entry by entry.  Signature changes can only
happen across the candidate lines {gamma = 0, T = +-gamma, T +- gamma = +-2J};
the scanner flags cells sitting on those lines instead of classifying them.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, replace

import numpy as np

from .bloch import ModelParams
from .btp import Btp, branch_level, classify_btp, locate_btps
from .winding import WindingError, make_loop, wind_loops

__all__ = [
    "ConfigurationSignature",
    "PhaseCell",
    "PhaseGrid",
    "BoundaryReport",
    "signature",
    "census_type",
    "scan_phase_diagram",
    "detect_boundaries",
    "candidate_line_distance",
]

_LINE_TOL = 1e-6
_BOUNDARY_TOL = 1e-9

_TYPE_TABLE = {
    (4, 0, 0): "I",
    (0, 0, 8): "II",
    (0, 16, 0): "III",
    (4, 8, 0): "IV",
    (8, 0, 0): "V",
}


@dataclass(frozen=True)
class ConfigurationSignature:
    """Winding census of one parameter point."""

    counts_wi: dict
    n_btps: int
    boundary_flag: bool
    btps: tuple

    @property
    def signed_wii(self) -> tuple:
        """(kx, ky, w_II) per touching, positions rounded to 6 decimals."""
        return tuple((round(b.k.kx, 6), round(b.k.ky, 6), b.w_ii) for b in self.btps)

    def key(self):
        """Hashable phase identity: counts plus per-BTP discrete labels.

        Raw positions drift continuously inside an open phase region, so the
        label keeps only what cannot change without a merger: which half-pi
        lines the point sits on, the coordinate sign pattern, the branch, and
        both winding numbers.
        """
        counts = (self.counts_wi[0.0], self.counts_wi[0.5], self.counts_wi[1.0])
        return (counts, tuple(sorted(_discrete_label(b) for b in self.btps)))

    def wii_hash(self) -> str:
        text = ";".join(f"{kx:.6f},{ky:.6f},{w:+.1f}" for kx, ky, w in self.signed_wii)
        return hashlib.sha1(text.encode()).hexdigest()[:12]

    def to_json_dict(self):
        return {
            "nBtps": self.n_btps,
            "countsWI": {
                "0": self.counts_wi[0.0],
                "1/2": self.counts_wi[0.5],
                "1": self.counts_wi[1.0],
            },
            "signedWII": [
                {"kx": kx, "ky": ky, "wII": w} for kx, ky, w in self.signed_wii
            ],
            "boundaryFlag": self.boundary_flag,
            "btps": [b.to_json_dict() for b in self.btps],
        }


def _near_any(value: float, targets, tol: float) -> bool:
    return any(abs(value - v) < tol for v in targets)


def _sgn(x: float) -> int:
    if abs(x) < 1e-9:
        return 0
    return 1 if x > 0 else -1


def _discrete_label(b: Btp):
    half = 0.5 * math.pi
    on_x = abs(abs(b.k.kx) - half) < 1e-9
    on_y = abs(abs(b.k.ky) - half) < 1e-9
    return (
        int(on_x),
        int(on_y),
        _sgn(b.k.kx),
        _sgn(b.k.ky),
        b.branch,
        b.w_i,
        b.w_ii,
    )


def signature(params: ModelParams, samples: int = 512) -> ConfigurationSignature:
    """Locate all band touchings, wind each loop, and assemble the census."""
    btps = locate_btps(params)
    boundary = abs(params.gamma) < _BOUNDARY_TOL or any(
        _near_any(branch_level(params, s), (-1.0, 0.0, 1.0), _BOUNDARY_TOL) for s in (1, -1)
    )
    loops, failure = [], None
    for b in btps:
        try:
            loops.append(make_loop(b.k, params, btps, samples=samples))
        except (ValueError, WindingError) as exc:
            failure = exc  # raised once the touchings before it are wound and classified
            break
    done = []
    # Per touching, errors surface in the order F winding, E winding, classification.
    for b, windings in zip(btps, wind_loops(params, loops)):
        for outcome in windings:
            if isinstance(outcome, WindingError):
                raise outcome
        wi, wii = (w.value for w in windings)
        done.append(replace(b, w_i=wi, w_ii=wii, kind=classify_btp(params, b, wi)))
    if failure is not None:
        raise failure
    counts = {0.0: 0, 0.5: 0, 1.0: 0}
    for b in done:
        counts[abs(b.w_i)] += 1
    ordered = sorted(done, key=lambda b: (round(b.k.kx, 6), round(b.k.ky, 6)))
    return ConfigurationSignature(
        counts_wi=counts,
        n_btps=len(done),
        boundary_flag=boundary,
        btps=tuple(ordered),
    )


def census_type(sig: ConfigurationSignature):
    """Distribution type I..V from the |w_I| counts, or None if unlisted."""
    counts = (sig.counts_wi[0.0], sig.counts_wi[0.5], sig.counts_wi[1.0])
    return _TYPE_TABLE.get(counts)


def candidate_line_distance(gamma: float, big_t: float, j: float):
    """Distance to the nearest analytic phase-boundary line, with its name."""
    lines = [
        ("gamma=0", abs(gamma)),
        ("T=gamma", abs(big_t - gamma) / math.sqrt(2.0)),
        ("T=-gamma", abs(big_t + gamma) / math.sqrt(2.0)),
        ("T+gamma=+2J", abs(big_t + gamma - 2.0 * j) / math.sqrt(2.0)),
        ("T+gamma=-2J", abs(big_t + gamma + 2.0 * j) / math.sqrt(2.0)),
        ("T-gamma=+2J", abs(big_t - gamma - 2.0 * j) / math.sqrt(2.0)),
        ("T-gamma=-2J", abs(big_t - gamma + 2.0 * j) / math.sqrt(2.0)),
    ]
    return min(lines, key=lambda item: item[1])


@dataclass(frozen=True)
class PhaseCell:
    gamma: float
    big_t: float
    boundary: bool
    sig: ConfigurationSignature | None = None
    error: str | None = None

    @property
    def classified(self) -> bool:
        return self.sig is not None and not self.boundary


@dataclass(frozen=True)
class PhaseGrid:
    gammas: np.ndarray
    big_ts: np.ndarray
    base: ModelParams
    cells: tuple  # row-major: cells[i][j] at (gammas[i], big_ts[j])


def _axis(lo: float, hi: float, resolution: int) -> np.ndarray:
    if hi < lo:
        raise ValueError(f"bad range [{lo}, {hi}]")
    if hi == lo:
        return np.array([lo])
    return np.linspace(lo, hi, resolution)


def scan_phase_diagram(gamma_range, t_range, resolution: int, base: ModelParams) -> PhaseGrid:
    """Signature at every grid cell; cells on candidate lines are flagged.

    ``base`` supplies J and t.  Degenerate ranges (lo == hi) collapse to a
    single grid point on that axis.
    """
    if resolution < 8:
        raise ValueError("resolution must be at least 8 per axis")
    gammas = _axis(*gamma_range, resolution)
    big_ts = _axis(*t_range, resolution)
    rows = []
    for g in gammas:
        row = []
        for bt in big_ts:
            _, dist = candidate_line_distance(float(g), float(bt), base.J)
            if dist < _LINE_TOL:
                row.append(PhaseCell(float(g), float(bt), boundary=True))
                continue
            params = ModelParams(J=base.J, T=float(bt), t=base.t, gamma=float(g))
            try:
                sig = signature(params)
                row.append(PhaseCell(float(g), float(bt), boundary=False, sig=sig))
            except Exception as exc:  # record in-cell, keep scanning
                row.append(PhaseCell(float(g), float(bt), boundary=False, error=str(exc)))
        rows.append(tuple(row))
    return PhaseGrid(gammas=gammas, big_ts=big_ts, base=base, cells=tuple(rows))


@dataclass(frozen=True)
class BoundarySegment:
    cell_a: tuple
    cell_b: tuple
    midpoint: tuple
    nearest_line: str
    distance: float


@dataclass(frozen=True)
class BoundaryReport:
    segments: tuple
    violations: tuple  # segments farther than one cell width from every line


def detect_boundaries(grid: PhaseGrid) -> BoundaryReport:
    """Edges between adjacent classified cells whose signatures differ.

    Each differing edge is annotated with the nearest candidate line; edges
    farther than one cell width from all lines land in ``violations`` and
    indicate either a bug or an undocumented transition.
    """
    step_g = float(grid.gammas[1] - grid.gammas[0]) if len(grid.gammas) > 1 else 0.0
    step_t = float(grid.big_ts[1] - grid.big_ts[0]) if len(grid.big_ts) > 1 else 0.0
    cell_width = max(step_g, step_t)
    segments = []
    violations = []
    ni, nj = len(grid.gammas), len(grid.big_ts)
    for i in range(ni):
        for jj in range(nj):
            a = grid.cells[i][jj]
            if not a.classified:
                continue
            for di, dj in ((1, 0), (0, 1)):
                i2, j2 = i + di, jj + dj
                if i2 >= ni or j2 >= nj:
                    continue
                b = grid.cells[i2][j2]
                if not b.classified:
                    continue
                if a.sig.key() == b.sig.key():
                    continue
                mid = (0.5 * (a.gamma + b.gamma), 0.5 * (a.big_t + b.big_t))
                line, dist = candidate_line_distance(mid[0], mid[1], grid.base.J)
                seg = BoundarySegment(
                    cell_a=(i, jj),
                    cell_b=(i2, j2),
                    midpoint=mid,
                    nearest_line=line,
                    distance=dist,
                )
                segments.append(seg)
                if dist > cell_width:
                    violations.append(seg)
    return BoundaryReport(segments=tuple(segments), violations=tuple(violations))
