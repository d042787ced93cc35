"""Configuration signatures and the (gamma, T) phase diagram scan.

A configuration signature is the winding census of all band touchings:
counts of |w_I| in {0, 1/2, 1} plus the canonically ordered list of signed
w_II values with their locations.  Two parameter points belong to the same
phase iff their signatures match entry by entry.  Signature changes can only
happen across the candidate lines of :func:`epband.btp.face` (for t != 0
{gamma = 0, T = +-gamma, T +- gamma = +-2J}); the scanner flags cells sitting
on those lines instead of classifying them.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, replace

import numpy as np

from .bloch import ModelParams
from .btp import DIRAC_POINT, NORMAL_EP, Btp, face, locate_btps
from .winding import UnresolvedLoopError, WindingError, make_loop, wind_loops

__all__ = ["ConfigurationSignature", "PhaseCell", "PhaseGrid", "BoundaryReport", "signature",
           "census_type", "scan_phase_diagram", "detect_boundaries", "candidate_line_distance"]

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


def signature(params: ModelParams, samples: int = 512) -> ConfigurationSignature:
    """Locate all band touchings, wind each loop, and assemble the census.

    A |w_I| that breaks the kind :func:`locate_btps` set raises :class:`UnresolvedLoopError`,
    and so do charges that do not sum to 0.
    """
    btps = locate_btps(params)
    boundary = face(params).on_line
    loops, failure = [], None
    for b in btps:
        try:
            loops.append(make_loop(b.k, btps, samples=samples))
        except UnresolvedLoopError as exc:
            failure = exc  # raised once the touchings before it are wound and checked
            break
    done = []
    # Errors surface per touching: F winding, E winding, kind law, once every loop
    # has settled, refinements too
    for b, windings in zip(btps, wind_loops(params, loops)):
        for outcome in windings:
            if isinstance(outcome, WindingError):
                raise outcome
        wi, wii = (w.value for w in windings)
        if abs(wi) != _ABS_WI.get(b.kind, 0.0):
            raise UnresolvedLoopError(f"w_I = {wi:+g} at {b.k.xy} contradicts its kind {b.kind}")
        done.append(replace(b, w_i=wi, w_ii=wii))
    if failure is not None:
        raise failure
    if sum(b.w_i for b in done) or sum(b.w_ii for b in done):  # the torus indices sum to 0
        raise UnresolvedLoopError(f"charges {[(b.w_i, b.w_ii) for b in done]} do not sum to 0")
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
    """The nearest of the seven t != 0 candidate lines and the distance to it, to name a line."""
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
    """Signature at every grid cell; cells on candidate lines (an odd face entry) are flagged.

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
            params = ModelParams(J=base.J, T=float(bt), t=base.t, gamma=float(g))
            if face(params).on_line:
                row.append(PhaseCell(float(g), float(bt), boundary=True))
                continue
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
    edge whose two cells have the same :func:`epband.btp.face` crosses no
    line, so it lands in ``violations``: a bug or an undocumented transition.
    """
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
            faces = {face(replace(grid.base, T=c.big_t, gamma=c.gamma)) for c in (a, b)}
            if len(faces) == 1:
                violations.append(segments[-1])
    return BoundaryReport(segments=tuple(segments), violations=tuple(violations))
