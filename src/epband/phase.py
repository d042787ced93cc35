"""Configuration signatures and the (gamma, T) phase diagram scan.

A configuration signature is the winding census of all band touchings:
counts of |w_I| in {0, 1/2, 1} plus the canonically ordered list of signed
w_II values with their locations.  Two parameter points belong to the same
phase iff their signatures match entry by entry.  Signature changes can only
happen across the candidate lines {gamma = 0, T = +-gamma, T +- gamma = +-2J};
the scanner flags cells sitting on those lines instead of classifying them.
"""

from __future__ import annotations

import bisect
import hashlib
import math
from dataclasses import dataclass, replace

import numpy as np

from .bloch import ModelParams
from .btp import DIRAC_POINT, NORMAL_EP, _T_ZERO, Btp, branch_level, locate_btps, merger_level
from .winding import UnresolvedLoopError, WindingError, make_loop, wind_loops

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
_MERGERS = (-1.0, 0.0, 1.0)
_ABS_WI = {DIRAC_POINT: 1.0, NORMAL_EP: 0.5}  # |w_I| per kind; every other kind carries 0

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


def _face(params: ModelParams, levels=_MERGERS) -> tuple:
    """Where gamma (against 0) and the branch levels c_+, c_- (against ``levels``) sit.

    Each entry is 2i + 1 where btp.merger_level snaps the value onto the i-th level, else 2i
    for the open interval below it.  An odd entry puts the point on a candidate line; points
    with equal entries lie in the same face of the lines, where no touching merges.
    """
    def place(c, marks):
        m = merger_level(c, marks)
        return 2 * bisect.bisect(marks, c) if m is None else 2 * marks.index(m) + 1

    return (place(params.gamma, (0.0,)), *(place(branch_level(params, s), levels) for s in (1, -1)))


def signature(params: ModelParams, samples: int = 512) -> ConfigurationSignature:
    """Locate all band touchings, wind each loop, and assemble the census.

    A |w_I| that breaks the kind :func:`locate_btps` set raises :class:`UnresolvedLoopError`.
    """
    btps = locate_btps(params)
    boundary = any(place % 2 for place in _face(params))
    loops, failure = [], None
    for b in btps:
        try:
            loops.append(make_loop(b.k, btps, samples=samples))
        except UnresolvedLoopError as exc:
            failure = exc  # raised once the touchings before it are wound and checked
            break
    done = []
    # Errors surface per touching: F winding, E winding, kind law.  Every loop
    # settles first, refinements too: failing at the first broken law leaves
    # merger ops too short for the benchmark's speed calibration (ROADMAP item 5).
    for b, windings in zip(btps, list(wind_loops(params, loops))):
        for outcome in windings:
            if isinstance(outcome, WindingError):
                raise outcome
        wi, wii = (w.value for w in windings)
        if abs(wi) != _ABS_WI.get(b.kind, 0.0):
            raise UnresolvedLoopError(f"w_I = {wi:+g} at {b.k.xy} contradicts its kind {b.kind}")
        done.append(replace(b, w_i=wi, w_ii=wii))
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
    violations: tuple  # segments whose two cells lie in the same face of the lines


def detect_boundaries(grid: PhaseGrid) -> BoundaryReport:
    """Edges between adjacent classified cells whose signatures differ.

    Each differing edge is annotated with the nearest candidate line.  An
    edge whose two cells lie in the same face (the same sign of gamma and
    the same interval of each branch level among -1, 0 and 1, or -2 and 2
    at t = 0) crosses no line, so it lands in ``violations``: a bug or an
    undocumented transition.
    """
    levels = (-2.0, 2.0) if abs(grid.base.t) < _T_ZERO else _MERGERS
    ni, nj = len(grid.gammas), len(grid.big_ts)
    segments, violations = [], []
    for i, jj in np.ndindex(ni, nj):
        a = grid.cells[i][jj]
        for i2, j2 in ((i + 1, jj), (i, jj + 1)):
            if i2 == ni or j2 == nj:
                continue
            b = grid.cells[i2][j2]
            if not (a.classified and b.classified) or a.sig.key() == b.sig.key():
                continue
            mid = (0.5 * (a.gamma + b.gamma), 0.5 * (a.big_t + b.big_t))
            line, dist = candidate_line_distance(*mid, grid.base.J)
            segments.append(BoundarySegment((i, jj), (i2, j2), mid, line, dist))
            faces = {_face(replace(grid.base, T=c.big_t, gamma=c.gamma), levels) for c in (a, b)}
            if len(faces) == 1:
                violations.append(segments[-1])
    return BoundaryReport(segments=tuple(segments), violations=tuple(violations))
