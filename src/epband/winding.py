"""Winding numbers of the spin texture and of the complex energy.

Both invariants are angle accumulations along a small counterclockwise loop:
w_I follows F = (<sigma_x>, <sigma_z>) of one continuously tracked
eigenbranch, w_II follows (Re E, Im E) of its eigenvalue.  Chiral symmetry,
sigma_y h sigma_y = -h, makes sigma_y v the -E eigenvector of the +E
eigenvector v, with F(sigma_y v) = -F(v).  Tracking picks, sample by sample,
v or sigma_y v by the larger overlap magnitude against the previous one;
encircling an exceptional point swaps the branch after one turn and the
winding lands on a half-odd value.
Results are snapped to the nearest half-integer and the snap residual is
reported.  :func:`wind_loops` winds many loops and both kinds in one pass
over a (loops, samples) array; :func:`winding_number` is its one-loop case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bloch import (ModelParams, Momentum, bloch_field_grid, principal_sqrt, right_eigvec,
                    torus_distance)

__all__ = ["Loop", "WindingResult", "WindingError", "LoopThroughDefectError",
           "DegenerateTrackingError", "NonQuantizedLoopError", "UnresolvedLoopError", "make_loop",
           "winding_number", "wind_loops", "winding_additivity_check"]

MAX_SAMPLES = 2**16
_FIELD_FLOOR = 1e-10
_TIE_TOL = 1e-12


class WindingError(RuntimeError):
    pass


class LoopThroughDefectError(WindingError):
    """The field magnitude vanished on the loop; a touching point sits on it."""


class DegenerateTrackingError(WindingError):
    """Branch overlaps tied; the loop passes through a degeneracy."""


class UnresolvedLoopError(WindingError):
    """No loop resolves a touching: its partner is too close, or its winding breaks its kind."""


class NonQuantizedLoopError(WindingError):
    """Refinement cap reached without a quantized angle total."""

    def __init__(self, raw_angle: float):
        super().__init__(f"winding failed to quantize, raw angle {raw_angle:.6f} turns")
        self.raw_angle = raw_angle


@dataclass(frozen=True)
class Loop:
    """Counterclockwise circle on the Brillouin torus."""

    center: Momentum
    radius: float
    samples: int = 512

    def __post_init__(self):
        if not (self.radius > 0.0) or not math.isfinite(self.radius):
            raise ValueError(f"loop radius must be positive, got {self.radius!r}")
        if self.samples < 256:
            raise ValueError("loops need at least 256 samples")


def make_loop(center: Momentum, all_btps, samples: int = 512) -> Loop:
    """Loop around ``center`` sized off the nearest other band touching.

    radius = min(0.4 * distance to the nearest listed BTP other than the
    center itself, 0.1).  The center's own entry is the nearest one within
    1e-9, and only it is skipped: a partner EP as close counts.  A radius
    below 1e-4 means two touchings are about to merge and no loop separates
    them: an :class:`UnresolvedLoopError`.  A loop that runs through a
    touching fails when it is wound, with a :class:`LoopThroughDefectError`.
    """
    dists = sorted(torus_distance(center, b.k) for b in all_btps)
    if dists and dists[0] <= 1e-9:
        del dists[0]
    radius = min(0.4 * dists[0], 0.1) if dists else 0.1
    if radius < 1e-4:
        raise UnresolvedLoopError(
            f"loop radius {radius:.2e} below 1e-4: band touchings too close to separate"
        )
    return Loop(center=center, radius=radius, samples=samples)


@dataclass(frozen=True)
class WindingResult:
    value: float
    raw_angle: float
    residual: float
    field_kind: str
    branch_swapped: bool
    center: Momentum
    radius: float
    samples: int

    def __post_init__(self):
        if self.residual >= 0.05:
            raise ValueError(f"unquantized winding: residual {self.residual:.3g}")
        half_odd = abs(round(2.0 * self.value)) % 2 == 1
        if half_odd != self.branch_swapped:
            raise ValueError("branch swap flag inconsistent with half-integer value")

    def to_json_dict(self):
        return {
            "value": self.value,
            "rawAngle": self.raw_angle,
            "residual": self.residual,
            "fieldKind": self.field_kind,
            "branchSwapped": self.branch_swapped,
            "center": {"kx": self.center.kx, "ky": self.center.ky},
            "radius": self.radius,
            "samples": self.samples,
        }


def _wrap_steps(d):
    """pi - (pi - d) % 2 pi of steps d in [-2 pi, 2 pi], bit for bit, in place: unlike
    :func:`~epband.bloch.wrap_angle`, -pi one ulp above pi, a step refined either way."""
    # a = pi - d lies in [-pi, 3 pi]; mod 2 pi it is a - 2 pi from 2 pi on, a + 2 pi below 0
    np.subtract(np.pi, d, out=d)
    np.subtract(d, 2.0 * np.pi, out=d, where=d >= 2.0 * np.pi)
    np.add(d, 2.0 * np.pi, out=d, where=d < 0.0)  # may round onto 2 pi, as the remainder does
    return np.subtract(np.pi, d, out=d)


def _kind_outcomes(loops, kind: str, m: int, fx, fy, swapped, shared):
    """Per-loop outcomes of winding one field, given as (loops, samples + 1) arrays.

    A loop whose ``shared`` entry is set already failed or needs refining
    for every kind and keeps that outcome.
    """
    collapsed = (np.min(fx * fx + fy * fy, axis=1) < _FIELD_FLOOR**2).tolist()
    d = _wrap_steps(np.diff(np.arctan2(fy, fx, out=fx), axis=1))  # fx is scratch
    raws = (np.sum(d, axis=1) / (2.0 * np.pi)).tolist()
    coarse = (np.max(np.abs(d, out=d), axis=1) > 0.5 * np.pi).tolist()
    outcomes = []
    for i, loop in enumerate(loops):
        if shared[i] is not None:
            outcomes.append(shared[i])
            continue
        if collapsed[i]:
            outcomes.append(LoopThroughDefectError(f"{kind} field magnitude collapses on the loop"))
            continue
        raw = raws[i]
        value = round(2.0 * raw) / 2.0
        residual = abs(raw - value)
        if coarse[i] or residual >= 0.05 or (abs(round(2.0 * value)) % 2 == 1) != swapped[i]:
            outcomes.append(raw)
            continue
        outcomes.append(
            WindingResult(
                value=value,
                raw_angle=raw,
                residual=residual,
                field_kind=kind,
                branch_swapped=swapped[i],
                center=loop.center,
                radius=loop.radius,
                samples=m,
            )
        )
    return outcomes


def _attempt(params: ModelParams, loops, m: int, kinds):
    """One tracked pass at ``m`` samples over all loops, fused across kinds.

    Returns one tuple per loop with one outcome per kind: a WindingResult,
    the WindingError the loop hit, or a float, the raw angle of a pass that
    needs more samples.
    """
    theta = 2.0 * np.pi * np.arange(m + 1) / m
    theta[m] = 0.0  # close each loop on the same matrix as its first sample
    cx, cy, r = np.array([[lp.center.kx, lp.center.ky, lp.radius] for lp in loops]).T[..., None]
    bx, by = bloch_field_grid(params, cx + r * np.cos(theta), cy + r * np.sin(theta))
    # A loop through a defect gets 0/0 in its own rows only; its outcome is
    # the defect error, whatever those rows hold.
    with np.errstate(invalid="ignore", divide="ignore"):
        h_small = (np.min(bx * bx + by.real**2 + by.imag**2, axis=1) < 1e-24).tolist()
        e = principal_sqrt(bx * bx + by * by)
        e_min = np.min(np.abs(e), axis=1).tolist()
        a, b, norm = right_eigvec(bx, by, e)
        a /= norm
        b /= norm
        del bx, by, norm  # keeps the peak low on refined loops
        ac, bc = a.conj(), b.conj()
        # |<v_n|v_n+1>| against |<v_n|sigma_y v_n+1>|; sigma_y is unitary, so
        # the same pair serves a loop that currently runs on the minus branch.
        x, y = ac[:, :-1] * a[:, 1:], bc[:, :-1] * b[:, 1:]
        stay = np.abs(np.add(x, y, out=x))
        np.multiply(ac[:, :-1], b[:, 1:], out=x)
        np.multiply(bc[:, :-1], a[:, 1:], out=y)
        flip = np.abs(np.subtract(x, y, out=x))
        del x, y, bc  # F needs only a, b and ac
        parity = np.logical_xor.accumulate(flip > stay, axis=1)
        sign = np.ones((len(loops), m + 1))
        sign[:, 1:][parity] = -1.0
        stay -= flip
        margin_min = np.min(np.abs(stay, out=stay), axis=1).tolist()
        del stay, flip
        shared = []
        for i in range(len(loops)):
            if h_small[i]:
                shared.append(LoopThroughDefectError("h(k) vanishes on the loop"))
            elif e_min[i] < _FIELD_FLOOR:
                shared.append(LoopThroughDefectError("eigenvalue collapses on the loop"))
            elif margin_min[i] < _TIE_TOL:
                shared.append(DegenerateTrackingError("eigenbranch overlaps tied on the loop"))
            else:
                shared.append(None)
        swapped = parity[:, -1].tolist()
        per_kind = []
        for kind in kinds:
            if kind == "F":
                fx, fy = 2.0 * (ac * b).real, np.abs(a) ** 2
                fy -= np.abs(b) ** 2
            else:
                fx, fy = e.real.copy(), e.imag.copy()
            fx *= sign
            fy *= sign
            per_kind.append(_kind_outcomes(loops, kind, m, fx, fy, swapped, shared))
    return list(zip(*per_kind))


def _refine(params: ModelParams, loop: Loop, kind: str, outcome):
    """Double this loop's samples, on its own, until ``outcome`` settles."""
    m = loop.samples
    while isinstance(outcome, float):
        if m >= MAX_SAMPLES:
            return NonQuantizedLoopError(outcome)
        m *= 2
        ((outcome,),) = _attempt(params, [loop], m, (kind,))
    return outcome


def wind_loops(params: ModelParams, loops, kinds=("F", "E")):
    """Windings of every loop for each field kind, from one fused pass.

    The field, the eigenvector and the branch tracking are evaluated once on
    a (loops, samples + 1) array and shared by all kinds.  Only that first
    pass is batched: a loop and kind that need more samples double them on
    their own, up to 2^16, as in :func:`winding_number`.

    Returns a list with, per loop and in order, a tuple with one outcome per
    kind: the :class:`WindingResult`, or the :class:`WindingError` that loop
    and kind ran into.
    """
    for kind in kinds:
        if kind not in ("F", "E"):
            raise ValueError(f"field_kind must be 'F' or 'E', got {kind!r}")
    loops = list(loops)
    if not loops:
        return []
    if len({loop.samples for loop in loops}) > 1:
        raise ValueError("loops wound together must share a sample count")
    first = _attempt(params, loops, loops[0].samples, kinds)
    return [
        tuple(_refine(params, loop, kind, outcome) for kind, outcome in zip(kinds, outcomes))
        for loop, outcomes in zip(loops, first)
    ]


def _settled(outcome) -> WindingResult:
    if isinstance(outcome, WindingError):
        raise outcome
    return outcome


def winding_number(params: ModelParams, loop: Loop, field_kind: str = "F") -> WindingResult:
    """Winding of the chosen field along the loop, in half-integer units.

    Parameters
    ----------
    field_kind : "F" or "E"
        "F" winds the planar spin texture (w_I); "E" winds the complex
        eigenvalue (w_II).  Tracking starts on the +E branch; starting on
        the -E branch would flip the sign of F and E everywhere, which
        leaves every winding unchanged.

    The sample count doubles (up to 2^16) whenever some wrapped angle step
    exceeds pi/2; if the total still fails to quantize, the raw angle is
    reported in a :class:`NonQuantizedLoopError`.
    """
    ((outcome,),) = wind_loops(params, [loop], (field_kind,))
    return _settled(outcome)


def winding_additivity_check(params: ModelParams, btps, big_loop: Loop) -> bool:
    """Does the big loop's winding equal the sum over enclosed touchings?

    Checked for both field kinds.  Every listed touching must clear the loop
    path by more than 1e-3 so that enclosure is unambiguous.
    """
    enclosed = []
    for b in btps:
        d = torus_distance(big_loop.center, b.k)
        if abs(d - big_loop.radius) <= 1e-3:
            raise ValueError(f"band touching at {b.k.xy} sits on the loop path")
        if d < big_loop.radius:
            enclosed.append(b)
    loops, failure = [], None
    for b in enclosed:
        try:
            loops.append(make_loop(b.k, btps))
        except UnresolvedLoopError as exc:
            failure = exc  # raised during the F comparison, after the parts before it
            break
    totals = wind_loops(params, [big_loop])[0]
    parts = wind_loops(params, loops)
    for i in range(2):  # F, then E
        total = _settled(totals[i]).value
        part_sum = sum(_settled(p[i]).value for p in parts)
        if failure is not None:
            raise failure
        if abs(total - part_sum) > 1e-9:
            return False
    return True
