"""Configuration signatures and the (gamma, T) phase diagram scan.

A configuration signature is the winding census of all band touchings: the
wound touchings in canonical order, off which the counts of |w_I| in
{0, 1/2, 1} and the signed w_II values with their locations are read.  Two
parameter points belong to the same phase iff their signature keys match.
A key keeps each touching's branch and windings but not its |k_c|, so it is
not the census entry by entry: next to gamma = 0, gamma -> -gamma maps each
touching (s, w_I, w_II) to (-s, w_I, -w_II), which only swaps the labels of
the two touchings of each sign pattern.  The faces on either side of
gamma = 0 thus share a key, and :func:`detect_boundaries` reports no segment
across gamma = 0.  Signature changes can only happen across the candidate lines that
:func:`epband.btp.face` places a point among.  The scanner keeps each cell's
face and flags a cell on a line instead of classifying it, and
:func:`detect_boundaries` checks every classified cell against its face's census.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bloch import ModelParams
from .btp import Btp, Face, face, locate_btps
from .winding import UnresolvedLoopError, WindingError, make_loop, settled, wind_loops

__all__ = ["ConfigurationSignature", "PhaseCell", "PhaseGrid", "BoundaryReport", "signature",
           "census_type", "scan_phase_diagram", "detect_boundaries"]

_TYPE_TABLE = {
    (4, 0, 0): "I",
    (0, 0, 8): "II",
    (0, 16, 0): "III",
    (4, 8, 0): "IV",
    (8, 0, 0): "V",
}


@dataclass(frozen=True)
class ConfigurationSignature:
    """Winding census of one parameter point: its wound touchings, ordered by position."""

    btps: tuple

    @property
    def n_btps(self) -> int:
        return len(self.btps)

    @property
    def counts_wi(self) -> dict:
        """Touchings per |w_I| in {0, 1/2, 1}."""
        counts = dict.fromkeys((0.0, 0.5, 1.0), 0)
        for b in self.btps:
            counts[abs(b.w_i)] += 1
        return counts

    @property
    def signed_wii(self) -> tuple:
        """(kx, ky, w_II) per touching, positions rounded to 6 decimals."""
        return tuple((round(b.k.kx, 6), round(b.k.ky, 6), b.w_ii) for b in self.btps)

    def key(self):
        """Hashable phase identity: the per-BTP discrete labels, sorted.

        Raw positions drift continuously inside an open phase region, so the
        label keeps only what cannot change without a merger: which half-pi
        lines the point sits on, the coordinate sign pattern, the branch, and
        both winding numbers (and so the |w_I| counts).  Without |k_c| it
        cannot tell the two touchings of a sign pattern apart, so the key is
        the same on both sides of gamma = 0, where gamma -> -gamma swaps their
        (branch, w_II) labels; :meth:`wii_hash` tells the two sides apart.
        """
        return tuple(sorted(_discrete_label(b) for b in self.btps))

    def wii_hash(self) -> str:
        import hashlib  # here, not at load: only the scan hashes, and OpenSSL loads slowly
        text = ";".join(f"{kx:.6f},{ky:.6f},{w:+.1f}" for kx, ky, w in self.signed_wii)
        return hashlib.sha1(text.encode()).hexdigest()[:12]


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


def signature(params: ModelParams) -> ConfigurationSignature:
    """Locate all band touchings with their charges, and confirm each by winding its loop.

    Every loop is built before any is wound, each enclosing its touching alone, however close
    its partner; the winding kernel alone judges whether a loop resolves it.  Errors surface
    per touching, in order: its F winding, its E winding (a :class:`LoopThroughDefectError`
    where the field falls below its floor on the loop), then windings that differ from the
    charges :func:`locate_btps` set on it (an :class:`UnresolvedLoopError`).
    """
    btps = locate_btps(params)
    loops = [make_loop(b.k, btps) for b in btps]
    for b, windings in zip(btps, wind_loops(params, loops)):
        wi, wii = (settled(w).value for w in windings)
        if (wi, wii) != (b.w_i, b.w_ii):
            raise UnresolvedLoopError(f"windings ({wi:+g}, {wii:+g}) at {b.k.xy} contradict "
                                      f"its {b.kind} charges ({b.w_i:+g}, {b.w_ii:+g})")
    return ConfigurationSignature(tuple(btps))


def census_type(sig: ConfigurationSignature):
    """Distribution type I..V from the |w_I| counts, or None if unlisted."""
    return _TYPE_TABLE.get(tuple(sig.counts_wi.values()))


@dataclass(frozen=True)
class PhaseCell:
    gamma: float
    big_t: float
    face: Face
    sig: ConfigurationSignature | None = None
    error: str | None = None

    @property
    def boundary(self) -> bool:
        """The cell sits on a candidate line, where no census is taken."""
        return self.face.on_line

    @property
    def classified(self) -> bool:
        return self.sig is not None and not self.boundary


@dataclass(frozen=True)
class PhaseGrid:
    gammas: np.ndarray
    big_ts: np.ndarray
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
            where, sig, error = face(params), None, None
            if not where.on_line:
                try:
                    sig = signature(params)
                except (ValueError, WindingError) as exc:  # a ring or an unresolved touching
                    error = str(exc)
            row.append(PhaseCell(float(g), float(bt), where, sig, error))
        rows.append(tuple(row))
    return PhaseGrid(gammas=gammas, big_ts=big_ts, cells=tuple(rows))


@dataclass(frozen=True)
class BoundarySegment:
    cell_a: tuple
    cell_b: tuple
    lines: tuple  # (Face entry, mark) per candidate line between the two cells


@dataclass(frozen=True)
class BoundaryReport:
    segments: tuple
    violations: tuple  # (i, j) of each cell whose census is not its face's


def detect_boundaries(grid: PhaseGrid) -> BoundaryReport:
    """Check every classified cell against its face's census, and name the lines crossed.

    No census changes inside a face of the candidate lines, so a classified cell whose key
    differs from that of its face's first classified cell (row-major) lands in
    ``violations``: a bug or an undocumented transition.  Each edge between adjacent
    classified cells with different keys is a segment, with the lines its faces differ by.
    """
    keys = {(i, j): c.sig.key() for i, row in enumerate(grid.cells)
            for j, c in enumerate(row) if c.classified}  # row-major
    face_keys, segments, violations = {}, [], []
    for (i, j), key in keys.items():
        a = grid.cells[i][j]
        if face_keys.setdefault(a.face, key) != key:
            violations.append((i, j))
        for i2, j2 in ((i + 1, j), (i, j + 1)):
            if keys.get((i2, j2), key) != key:
                b = grid.cells[i2][j2]
                segments.append(BoundarySegment((i, j), (i2, j2), a.face.lines_to(b.face)))
    return BoundaryReport(segments=tuple(segments), violations=tuple(violations))
