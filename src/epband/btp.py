"""Locating and classifying band-touching points (BTPs), with their closed-form charges.

For t != 0 every band touching is isolated and sits on one of the lines
kx = +-pi/2 or ky = +-pi/2: solving Bx = +-gamma, By = +-i Bx gives
|k_c| = arccos((-T + s*gamma)/(2J)) per branch s, with points at
(+-k_c, +-pi/2) and (+-pi/2, +-k_c).  Each valid branch contributes eight
points generically and four when k_c hits {0, pi/2, pi} (pair mergers).
At t = 0 with gamma != 0 a branch's touchings form the ring
cos kx + cos ky = c_s instead, or the single point (pi, pi) or (0, 0) at
|c_s| = 2; a ring on either branch makes the whole census a ring regime.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .bloch import ModelParams, Momentum, bloch_field_grid, energy, in_units_of_j, wrap_angle

__all__ = ["DIRAC_POINT", "SEMI_DIRAC_POINT", "NORMAL_EP", "HYBRID_EP", "TRIVIAL_ISOLATED_EP",
           "KINDS", "Btp", "EpRing", "Face", "RingRegimeError", "branch_level", "merger_level",
           "face", "locate_btps", "trace_ep_ring", "min_gap"]

DIRAC_POINT = "DiracPoint"
SEMI_DIRAC_POINT = "SemiDiracPoint"
NORMAL_EP = "NormalEP"
HYBRID_EP = "HybridEP"
TRIVIAL_ISOLATED_EP = "TrivialIsolatedEP"
# kind -> (order of E^2's zero on a ray or None on a merger level, caseId stem)
KINDS = {
    DIRAC_POINT: (2, "dirac"),
    SEMI_DIRAC_POINT: (None, "semidirac"),
    NORMAL_EP: (1, "normal"),
    HYBRID_EP: (None, "hybrid"),
    TRIVIAL_ISOLATED_EP: (None, "trivial"),
}

MERGER_TOL = 1e-9
_T_ZERO = 1e-12
_RING_LEVELS = (-2.0, 2.0)  # t = 0: a trivial EP on either, a ring between them
_MERGER_LEVELS = (-1.0, 0.0, 1.0)  # t != 0: the touchings pair up into merged points
_GAMMA_MARKS = (0.0,)  # gamma / 2|J|: the two branches coincide
_HALF_PI = 0.5 * math.pi


class RingRegimeError(ValueError):
    """Raised when isolated-point search is asked about a ring configuration."""


@dataclass(frozen=True)
class Btp:
    """One band-touching point and its charges (w_I, w_II), as :func:`locate_btps` sets them.

    branch is +1 or -1 for the two gamma branches and 0 when they coincide
    (gamma = 0).
    """

    k: Momentum
    branch: int
    kind: str
    w_i: float
    w_ii: float


def branch_level(params: ModelParams, s: int) -> float:
    """The level c_s = (-T + s*gamma) / (2J) of branch s."""
    return (-params.T + s * params.gamma) / (2.0 * params.J)


def merger_level(c: float, levels=_MERGER_LEVELS) -> float | None:
    """The level of ``levels`` within MERGER_TOL of branch level c, or None: where c snaps.

    Both outer levels clamp a c up to MERGER_TOL past them first, so fl(1 + 1e-9) snaps
    onto 1 and fl(2 + 1e-9) onto 2.
    """
    lo, hi = levels[0], levels[-1]
    if lo - MERGER_TOL <= c <= hi + MERGER_TOL:
        c = min(hi, max(lo, c))
    return next((m for m in levels if abs(c - m) <= MERGER_TOL), None)


class Face(NamedTuple):
    """Where a parameter point sits among the candidate lines, as :func:`face` places it."""

    gamma: int
    plus: int
    minus: int
    levels: tuple  # the marks of both branch levels

    @property
    def on_line(self) -> bool:
        """An odd entry: some value sits on its mark, where touchings merge or split."""
        return any(place % 2 for place in self[:3])

    @property
    def at_t_zero(self) -> bool:
        return self.levels == _RING_LEVELS

    def level(self, place: int) -> float | None:
        """The mark an odd ``place`` sits on, or None between two marks."""
        return self.levels[place // 2] if place % 2 else None

    def lines_to(self, other: Face) -> tuple:
        """(entry, mark) per candidate line between two off-line faces: an entry that moves
        from 2i to 2j crosses the marks i..j-1 of its value."""
        marks = (_GAMMA_MARKS, self.levels, self.levels)
        return tuple((entry, mark) for entry, m, a, b in zip(self._fields, marks, self, other)
                     for mark in m[min(a, b) // 2:max(a, b) // 2])


def face(params: ModelParams) -> Face:
    """The one rule for where gamma and the branch levels c_+, c_- sit.

    Each entry is 2i + 1 where :func:`merger_level` snaps the value onto the i-th mark,
    else 2i for the open interval below it.  The marks of c_+ and c_- are -2 and 2 at
    t = 0 (|t| < 1e-12 |J|) and -1, 0 and 1 otherwise.  gamma/2|J| is placed against 0:
    |gamma| <= 2|J| MERGER_TOL is gamma = 0, as is a gamma just past it that rounding
    leaves with both branches on one mark.  Both branch entries are then those of -T/2J,
    so no two branches share a mark.  An odd entry puts the point on a candidate line;
    points with equal faces lie in one face of the lines, where no touching merges.
    """
    levels = _RING_LEVELS if abs(params.t) < _T_ZERO * abs(params.J) else _MERGER_LEVELS

    def place(c, marks):
        m = merger_level(c, marks)
        return 2 * bisect.bisect(marks, c) if m is None else 2 * marks.index(m) + 1

    g = place(params.gamma / (2.0 * abs(params.J)), _GAMMA_MARKS)
    plus, minus = (place(branch_level(params, s), levels) for s in (1, -1))
    if g == 1 or (plus == minus and plus % 2):
        g, plus = 1, place(branch_level(params, 0), levels)
        minus = plus
    return Face(g, plus, minus, levels)


def _t_zero_points(f: Face, place: int):
    """The touchings (kx, ky) of a t = 0 branch at ``place`` in ``f``, or None for a ring.

    Between -2 and 2 the branch is a ring; on -2 or 2 it is the one trivial EP, at
    (pi, pi) or (0, 0); past them it is gapped, with no touching.
    """
    level = f.level(place)
    if level is not None:
        k = math.pi if level < 0.0 else 0.0
        return ((k, k),)
    return None if place == 2 else ()


def _sorted_btps(btps):
    return sorted(btps, key=lambda b: (round(b.k.kx, 12), round(b.k.ky, 12), b.branch))


def locate_btps(params: ModelParams) -> list[Btp]:
    """All isolated band-touching points, closed form, read off :func:`face`.

    The branches are s = 0 on gamma = 0 and s = +-1 otherwise.  For t != 0 a
    branch with |c_s| <= 1 touches at |k_c| = arccos(c_s); on -1, 0 or 1 the
    points pair up into four merged ones.  At t = 0 a branch on -2 or 2 is the
    trivial EP at (pi, pi) or (0, 0), and any branch between them is a ring,
    which raises RingRegimeError.  A gapped system returns an empty list.  Each touching
    carries its charges (w_I, w_II) in closed form, from the sign q of the Jacobian
    det d(Bx, Re By)/d(kx, ky) = 8 J t sin kx sin ky (cos kx - cos ky) at it: (q, 0) on a
    Dirac point, (q/2, s q/2) on a normal EP of branch s, and (+0.0, +0.0) on the rest.
    """
    f = face(params)
    branches = (0,) if f.gamma == 1 else (1, -1)
    if f.at_t_zero and branches == (0,):
        raise ValueError(
            "t = gamma = 0 degenerates the band touchings to nodal lines; "
            "no isolated-point description exists there"
        )
    btps, rings = [], []
    for s, place in zip(branches, (f.plus, f.minus)):
        if f.at_t_zero:
            pts = _t_zero_points(f, place)
            if pts is None:
                rings.append(s)
            btps.extend(Btp(Momentum(*xy), s, TRIVIAL_ISOLATED_EP, 0.0, 0.0) for xy in pts or ())
            continue
        if not 0 < place < 2 * len(f.levels):
            continue  # past the outer marks: gapped
        level = f.level(place)
        kc = math.acos(branch_level(params, s) if level is None else level)
        kcs = (kc,) if kc == math.pi else (kc, -kc)  # -pi is pi; -0.0 == 0.0 is one point
        u = 0.0 if level is not None else 1.0 if s == 0 else 0.5  # |w_I|
        kinds = (DIRAC_POINT, SEMI_DIRAC_POINT) if s == 0 else (NORMAL_EP, HYBRID_EP)
        # the set holds each point once, where a merger repeats it.  w_I = q |w_I|, with q the
        # Jacobian's sign (t / J never underflows, J t may), and + 0.0 turns a -0.0 into +0.0
        for x, y in {xy for k in kcs for h in (_HALF_PI, -_HALF_PI) for xy in ((k, h), (h, k))}:
            w = u * math.copysign(1.0, params.t / params.J * math.sin(x) * math.sin(y)
                                  * (math.cos(x) - math.cos(y)))
            btps.append(Btp(Momentum(x, y), s, kinds[level is not None], w + 0.0, s * w + 0.0))
    if rings:
        raise RingRegimeError(
            "t = 0 with gamma != 0 puts the band touchings on rings "
            f"(branches {rings}); use trace_ep_ring"
        )
    return _sorted_btps(btps)


@dataclass(frozen=True)
class EpRing:
    """Closed polyline of exceptional points at t = 0 (level set of cos kx + cos ky)."""

    vertices: np.ndarray  # (m, 2), canonical coordinates
    branch: int
    level: float


def trace_ep_ring(params: ModelParams, branch: int) -> EpRing:
    """Trace the branch's EP ring cos kx + cos ky = c_s.

    The level set is solved in closed form, ky = +-arccos(c - cos kx), while
    kx marches over the admissible arc in 256 steps; the two half-arcs are stitched
    into one closed polyline.  A level that snaps onto +-2 is the one-vertex
    trivial EP, and a level past it is gapped, with no vertex.
    """
    f = face(params)
    if not f.at_t_zero:
        raise ValueError("EP rings exist only at t = 0")
    if f.gamma == 1:
        raise ValueError("gamma must be nonzero for exceptional rings")
    if branch not in (1, -1):
        raise ValueError("branch must be +1 or -1")
    c = branch_level(params, branch)
    pts = _t_zero_points(f, f.plus if branch == 1 else f.minus)  # as locate_btps reads it
    if pts is not None:  # the trivial EP or gapped
        return EpRing(np.array(pts).reshape(-1, 2), branch, c)

    # Admissible kx arc: cos ky = c - cos kx must land in [-1, 1].
    if c > 0.0:
        half = math.acos(c - 1.0)
        lo, hi = -half, half
    else:
        half = math.acos(c + 1.0)
        lo, hi = half, 2.0 * math.pi - half
    kxs = np.linspace(lo, hi, 256)
    kys = np.arccos(np.clip(c - np.cos(kxs), -1.0, 1.0))
    top = np.column_stack([kxs, kys])
    bottom = np.column_stack([kxs[::-1], -kys[::-1]])
    verts = np.vstack([top, bottom])
    verts = np.column_stack([wrap_angle(verts[:, 0]), wrap_angle(verts[:, 1])])
    # Drop a vertex that repeats the one before it (the two arcs meet at ky = 0
    # or pi) and a closing vertex that repeats vertex 0.
    step = verts - np.roll(verts, 1, axis=0)  # row 0 steps from the last vertex
    keep = np.hypot(wrap_angle(step[:, 0]), wrap_angle(step[:, 1])) > 1e-12
    keep[-1] &= keep[0]
    keep[0] = True
    verts = verts[keep]

    level_err = np.max(np.abs(np.cos(verts[:, 0]) + np.cos(verts[:, 1]) - c))
    if level_err >= 1e-8:
        raise RuntimeError(f"ring vertex off the level set by {level_err:.3g}")
    unit = in_units_of_j(params)  # |E| in units of |J|
    bx, by = bloch_field_grid(unit, verts[:, 0], verts[:, 1])
    worst = np.max(np.abs(energy(bx, by)))
    # on the ring |E|^2 = |8i gamma t cx cy + 16 t^2 (cx cy)^2|, which 0 < |t| < _T_ZERO |J| lifts
    lift = math.sqrt(8.0 * abs(unit.gamma * unit.t) + 16.0 * unit.t**2)
    if not worst < 1e-6 + lift:  # a NaN fails too
        raise RuntimeError(f"ring vertex with |E| = {worst:.3g} |J|")
    return EpRing(verts, branch, c)


def min_gap(params: ModelParams) -> float:
    """Minimum of |E+| over the zone, in closed form.

    With u = cos kx + cos ky, a = Bx = 2 J u + T and r = Re By, the gap is
    |E|^2 = |a - gamma + i r| |a + gamma - i r|, which grows with |r|.  At
    fixed u the least |cos kx cos ky| is max(0, |u| - 1), so the minimum is
    taken over a in [T - 4|J|, T + 4|J|] with |r| = 2 |t/J| max(0, |a - T| -
    2|J|): r vanishes on the middle piece and is linear in a on the outer
    two.  The candidates are the piece ends, a = +-gamma, and the real roots
    of the derivative of |E|^4 on each outer piece, taken in units of |J| and scaled back.
    """
    unit = in_units_of_j(params)
    big_t, g, slope = unit.T, unit.gamma, 2.0 * abs(unit.t)
    cands = [g, -g]
    for inner, outer in ((big_t - 2.0, big_t - 4.0), (big_t + 2.0, big_t + 4.0)):
        r = slope * np.poly1d([1.0, -inner])
        quartic = (np.poly1d([1.0, -g]) ** 2 + r**2) * (np.poly1d([1.0, g]) ** 2 + r**2)
        roots = quartic.deriv().roots.real
        cands.extend([inner, outer, *np.clip(roots, min(inner, outer), max(inner, outer))])
    a = np.clip(np.array(cands), big_t - 4.0, big_t + 4.0)
    r = slope * np.maximum(0.0, np.abs(a - big_t) - 2.0)
    return abs(params.J) * float(np.min(np.sqrt(np.hypot(a - g, r) * np.hypot(a + g, r))))
