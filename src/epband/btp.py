"""Locating and classifying band-touching points (BTPs).

For t != 0 every band touching is isolated and sits on one of the lines
kx = +-pi/2 or ky = +-pi/2: solving Bx = +-gamma, By = +-i Bx gives
|k_c| = arccos((-T + s*gamma)/(2J)) per branch s, with points at
(+-k_c, +-pi/2) and (+-pi/2, +-k_c).  Each valid branch contributes eight
points generically and four when k_c hits {0, pi/2, pi} (pair mergers).
At t = 0 with gamma != 0 the touchings form rings cos kx + cos ky = c_s
instead, except at |gamma| = |T -+ 4J| where a ring degenerates to the
single point (pi, pi) or (0, 0).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bloch import (
    ModelParams,
    Momentum,
    bloch_field_grid,
    principal_sqrt,
    wrap_angle,
)

__all__ = [
    "DIRAC_POINT",
    "SEMI_DIRAC_POINT",
    "NORMAL_EP",
    "HYBRID_EP",
    "TRIVIAL_ISOLATED_EP",
    "Btp",
    "EpRing",
    "RingRegimeError",
    "branch_level",
    "locate_btps",
    "classify_btp",
    "trace_ep_ring",
    "min_gap",
]

DIRAC_POINT = "DiracPoint"
SEMI_DIRAC_POINT = "SemiDiracPoint"
NORMAL_EP = "NormalEP"
HYBRID_EP = "HybridEP"
TRIVIAL_ISOLATED_EP = "TrivialIsolatedEP"

MERGER_TOL = 1e-9
_T_ZERO = 1e-12
_HALF_PI = 0.5 * math.pi


class RingRegimeError(ValueError):
    """Raised when isolated-point search is asked about a ring configuration."""


@dataclass(frozen=True)
class Btp:
    """One band-touching point.

    branch is +1 or -1 for the two gamma branches and 0 when they coincide
    (gamma = 0).  Winding numbers are attached later by the phase pipeline.
    """

    k: Momentum
    branch: int
    kind: str
    w_i: float | None = None
    w_ii: float | None = None

    def to_json_dict(self):
        return {
            "kx": self.k.kx,
            "ky": self.k.ky,
            "branch": self.branch,
            "kind": self.kind,
            "wI": self.w_i,
            "wII": self.w_ii,
        }


def branch_level(params: ModelParams, s: int) -> float:
    """The level c_s = (-T + s*gamma) / (2J) of branch s."""
    return (-params.T + s * params.gamma) / (2.0 * params.J)


def _merged_locations(c: float):
    """Point set for a branch whose k_c sits exactly on a merger value."""
    if abs(c - 1.0) <= MERGER_TOL:
        return [(0.0, _HALF_PI), (0.0, -_HALF_PI), (_HALF_PI, 0.0), (-_HALF_PI, 0.0)]
    if abs(c) <= MERGER_TOL:
        return [
            (_HALF_PI, _HALF_PI),
            (_HALF_PI, -_HALF_PI),
            (-_HALF_PI, _HALF_PI),
            (-_HALF_PI, -_HALF_PI),
        ]
    if abs(c + 1.0) <= MERGER_TOL:
        return [(math.pi, _HALF_PI), (math.pi, -_HALF_PI), (_HALF_PI, math.pi), (-_HALF_PI, math.pi)]
    return None


def _generic_locations(c: float):
    kc = math.acos(c)
    pts = []
    for sx in (1.0, -1.0):
        for sy in (1.0, -1.0):
            pts.append((sx * kc, sy * _HALF_PI))
            pts.append((sx * _HALF_PI, sy * kc))
    return pts


def _sorted_btps(btps):
    return sorted(btps, key=lambda b: (round(b.k.kx, 12), round(b.k.ky, 12), b.branch))


def locate_btps(params: ModelParams) -> list[Btp]:
    """All isolated band-touching points, closed form.

    Requires t != 0 whenever the touchings would otherwise lie on rings;
    the t = 0 exceptions |gamma| = |T -+ 4J| return the single trivial EP at
    (pi, pi) or (0, 0).  A gapped system returns an empty list.
    """
    gamma, t = params.gamma, params.t
    if abs(t) < _T_ZERO:
        if abs(gamma) < _T_ZERO:
            raise ValueError(
                "t = gamma = 0 degenerates the band touchings to nodal lines; "
                "no isolated-point description exists there"
            )
        pts = []
        ring_branches = []
        for s in (1, -1):
            c = branch_level(params, s)
            if abs(c + 2.0) <= MERGER_TOL:
                pts.append(Btp(Momentum(math.pi, math.pi), s, TRIVIAL_ISOLATED_EP))
            elif abs(c - 2.0) <= MERGER_TOL:
                pts.append(Btp(Momentum(0.0, 0.0), s, TRIVIAL_ISOLATED_EP))
            elif abs(c) < 2.0:
                ring_branches.append(s)
        if pts:
            return _sorted_btps(pts)
        if ring_branches:
            raise RingRegimeError(
                "t = 0 with gamma != 0 puts the band touchings on rings "
                f"(branches {ring_branches}); use trace_ep_ring"
            )
        return []  # gapped

    btps = []
    if abs(gamma) < _T_ZERO:
        c = branch_level(params, 1)
        if abs(c) > 1.0 + MERGER_TOL:
            return []
        c = min(1.0, max(-1.0, c))
        merged = _merged_locations(c)
        if merged is not None:
            locs, kind = merged, SEMI_DIRAC_POINT
        else:
            locs, kind = _generic_locations(c), DIRAC_POINT
        btps = [Btp(Momentum(x, y), 0, kind) for x, y in locs]
    else:
        for s in (1, -1):
            c = branch_level(params, s)
            if abs(c) > 1.0 + MERGER_TOL:
                continue
            c = min(1.0, max(-1.0, c))
            merged = _merged_locations(c)
            if merged is not None:
                locs, kind = merged, HYBRID_EP
            else:
                locs, kind = _generic_locations(c), NORMAL_EP
            btps.extend(Btp(Momentum(x, y), s, kind) for x, y in locs)
    return _sorted_btps(btps)


def classify_btp(params: ModelParams, btp: Btp, w_i: float) -> str:
    """Kind of a band touching from its computed field winding w_i."""
    snapped = round(2.0 * w_i) / 2.0
    if abs(2.0 * w_i - round(2.0 * w_i)) > 1e-6 or abs(snapped) > 1.0:
        raise ValueError(f"winding {w_i!r} is not in {{0, +-1/2, +-1}}")
    hermitian = abs(params.gamma) < _T_ZERO
    if hermitian:
        if abs(snapped) == 1.0:
            return DIRAC_POINT
        if snapped == 0.0:
            return SEMI_DIRAC_POINT
        raise ValueError("half-integer winding is impossible at gamma = 0")
    if abs(params.t) < _T_ZERO:
        if snapped == 0.0:
            return TRIVIAL_ISOLATED_EP
        raise ValueError("a trivial isolated EP must carry zero winding")
    if abs(snapped) == 0.5:
        return NORMAL_EP
    if snapped == 0.0:
        return HYBRID_EP
    raise ValueError("integer winding is impossible at gamma != 0")


@dataclass(frozen=True)
class EpRing:
    """Closed polyline of exceptional points at t = 0 (level set of cos kx + cos ky)."""

    vertices: np.ndarray  # (m, 2), canonical coordinates
    branch: int
    level: float


def trace_ep_ring(params: ModelParams, branch: int, samples: int = 256) -> EpRing:
    """Trace the branch's EP ring cos kx + cos ky = c_s.

    The level set is solved in closed form, ky = +-arccos(c - cos kx), while
    kx marches over the admissible arc; the two half-arcs are stitched into
    one closed polyline.  |c| >= 2 degenerates to a point or to nothing.
    """
    if abs(params.t) >= _T_ZERO:
        raise ValueError("EP rings exist only at t = 0")
    if abs(params.gamma) < _T_ZERO:
        raise ValueError("gamma must be nonzero for exceptional rings")
    if branch not in (1, -1):
        raise ValueError("branch must be +1 or -1")
    if samples < 8:
        raise ValueError("samples must be at least 8")
    c = branch_level(params, branch)
    if abs(c) > 2.0 + MERGER_TOL:
        return EpRing(np.empty((0, 2)), branch, c)
    if c >= 2.0 - MERGER_TOL:
        return EpRing(np.array([[0.0, 0.0]]), branch, c)
    if c <= -2.0 + MERGER_TOL:
        return EpRing(np.array([[math.pi, math.pi]]), branch, c)

    # Admissible kx arc: cos ky = c - cos kx must land in [-1, 1].
    if c > 0.0:
        half = math.acos(c - 1.0)
        lo, hi = -half, half
    else:
        half = math.acos(c + 1.0)
        lo, hi = half, 2.0 * math.pi - half
    m = max(samples // 2, 4)
    kxs = np.linspace(lo, hi, m)
    kys = np.arccos(np.clip(c - np.cos(kxs), -1.0, 1.0))
    top = np.column_stack([kxs, kys])
    bottom = np.column_stack([kxs[::-1], -kys[::-1]])
    verts = np.vstack([top, bottom])
    verts = np.column_stack([wrap_angle(verts[:, 0]), wrap_angle(verts[:, 1])])
    # Remove consecutive duplicates (arc endpoints have ky = 0 or wrap onto
    # each other), then a duplicated closing vertex if present.
    keep = [0]
    for i in range(1, len(verts)):
        d = np.hypot(
            wrap_angle(verts[i, 0] - verts[keep[-1], 0]),
            wrap_angle(verts[i, 1] - verts[keep[-1], 1]),
        )
        if d > 1e-12:
            keep.append(i)
    verts = verts[keep]
    if len(verts) > 1:
        d = np.hypot(wrap_angle(verts[-1, 0] - verts[0, 0]), wrap_angle(verts[-1, 1] - verts[0, 1]))
        if d <= 1e-12:
            verts = verts[:-1]

    level_err = np.max(np.abs(np.cos(verts[:, 0]) + np.cos(verts[:, 1]) - c))
    if level_err >= 1e-8:
        raise RuntimeError(f"ring vertex off the level set by {level_err:.3g}")
    bx, by = bloch_field_grid(params, verts[:, 0], verts[:, 1])
    abs_e = np.abs(principal_sqrt(bx * bx + by * by))
    if np.max(abs_e) >= 1e-6:
        raise RuntimeError(f"ring vertex with |E| = {np.max(abs_e):.3g}")
    return EpRing(verts, branch, c)


def min_gap(params: ModelParams) -> float:
    """Minimum of |E+| over the zone, in closed form.

    With u = cos kx + cos ky, a = Bx = 2 J u + T and r = Re By, the gap is
    |E|^2 = |a - gamma + i r| |a + gamma - i r|, which grows with |r|.  At
    fixed u the least |cos kx cos ky| is max(0, |u| - 1), so the minimum is
    taken over a in [T - 4|J|, T + 4|J|] with |r| = 2 |t/J| max(0, |a - T| -
    2|J|): r vanishes on the middle piece and is linear in a on the outer
    two.  The candidates are the piece ends, a = +-gamma, and the real roots
    of the derivative of |E|^4 on each outer piece.
    """
    j, big_t, g = abs(params.J), params.T, params.gamma
    slope = 2.0 * abs(params.t) / j
    cands = [g, -g]
    for inner, outer in ((big_t - 2.0 * j, big_t - 4.0 * j), (big_t + 2.0 * j, big_t + 4.0 * j)):
        r = slope * np.poly1d([1.0, -inner])
        quartic = (np.poly1d([1.0, -g]) ** 2 + r**2) * (np.poly1d([1.0, g]) ** 2 + r**2)
        roots = quartic.deriv().roots.real
        cands.extend([inner, outer, *np.clip(roots, min(inner, outer), max(inner, outer))])
    a = np.clip(np.array(cands), big_t - 4.0 * j, big_t + 4.0 * j)
    r = slope * np.maximum(0.0, np.abs(a - big_t) - 2.0 * j)
    return float(np.min(np.sqrt(np.hypot(a - g, r) * np.hypot(a + g, r))))
