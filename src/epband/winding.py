"""Winding numbers of the spin texture and of the complex energy.

Both invariants are angle accumulations along a small counterclockwise loop:
w_I follows F = (<sigma_x>, <sigma_z>) of one continuously tracked
eigenbranch, w_II follows (Re E, Im E) of its eigenvalue.  Tracking picks,
sample by sample, the candidate eigenvector with the larger overlap
magnitude against the previous one; encircling an exceptional point swaps
the branch after one turn and the winding lands on a half-odd value.
Results are snapped to the nearest half-integer and the snap residual is
reported.  :func:`wind_loops` winds many loops and both kinds in one pass
over a (loops, samples) array; :func:`winding_number` is its one-loop case.
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
    right_eigvec,
    torus_distance,
    wrap_angle,
)

__all__ = [
    "Loop",
    "WindingResult",
    "WindingError",
    "LoopThroughDefectError",
    "DegenerateTrackingError",
    "NonQuantizedLoopError",
    "make_loop",
    "winding_number",
    "wind_loops",
    "winding_additivity_check",
]

MAX_SAMPLES = 2**16
_FIELD_FLOOR = 1e-10
_TIE_TOL = 1e-12


class WindingError(RuntimeError):
    pass


class LoopThroughDefectError(WindingError):
    """The field magnitude vanished on the loop; a touching point sits on it."""


class DegenerateTrackingError(WindingError):
    """Branch overlaps tied; the loop passes through a degeneracy."""


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
    orientation: str = "ccw"

    def __post_init__(self):
        if not (self.radius > 0.0) or not math.isfinite(self.radius):
            raise ValueError(f"loop radius must be positive, got {self.radius!r}")
        if self.samples < 256:
            raise ValueError("loops need at least 256 samples")
        if self.orientation != "ccw":
            raise ValueError("only counterclockwise loops are defined")


def make_loop(center: Momentum, params: ModelParams, all_btps, samples: int = 512) -> Loop:
    """Loop around ``center`` sized off the nearest other band touching.

    radius = min(0.4 * distance to the nearest listed BTP other than the
    center itself, 0.1).  A radius below 1e-4 means two touchings are about
    to merge and no loop separates them.  As a cheap guard the sampled loop
    is also rejected if |E| collapses on it.
    """
    dmin = None
    for b in all_btps:
        d = torus_distance(center, b.k)
        if d > 1e-9:
            dmin = d if dmin is None else min(dmin, d)
    radius = 0.1 if dmin is None else min(0.4 * dmin, 0.1)
    if radius < 1e-4:
        raise ValueError(
            f"loop radius {radius:.2e} below 1e-4: band touchings too close to separate"
        )
    loop = Loop(center=center, radius=radius, samples=samples)
    theta = 2.0 * np.pi * np.arange(64) / 64
    bx, by = bloch_field_grid(
        params, center.kx + radius * np.cos(theta), center.ky + radius * np.sin(theta)
    )
    if np.min(np.abs(bx * bx + by * by)) < _FIELD_FLOOR**2:
        raise LoopThroughDefectError("a band touching lies on the proposed loop")
    return loop


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


def _overlap(u, v):
    """|<u_n|v_n+1>| between consecutive samples of every loop."""
    a, b = u[:, :-1].conj(), v[:, 1:]
    return np.abs(a[..., 0] * b[..., 0] + a[..., 1] * b[..., 1])


def _kind_outcomes(loops, kind: str, m: int, fx, fy, swapped, shared):
    """Per-loop outcomes of winding one field, given as (loops, samples + 1) arrays.

    A loop whose ``shared`` entry is set already failed or needs refining
    for every kind and keeps that outcome.
    """
    collapsed = np.min(np.hypot(fx, fy), axis=1) < _FIELD_FLOOR
    d = wrap_angle(np.diff(np.arctan2(fy, fx), axis=1))
    raws = (np.sum(d, axis=1) / (2.0 * np.pi)).tolist()
    coarse = np.max(np.abs(d), axis=1) > 0.5 * np.pi
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


def _attempt(params: ModelParams, loops, m: int, kinds, start_branch: str):
    """One tracked pass at ``m`` samples over all loops, fused across kinds.

    Returns one tuple per loop with one outcome per kind: a WindingResult,
    the WindingError the loop hit, or a float, the raw angle of a pass that
    needs more samples (nan when the branch tracking was ambiguous).
    """
    theta = 2.0 * np.pi * np.arange(m) / m
    radius = np.array([[loop.radius] for loop in loops])
    kx = np.array([[loop.center.kx] for loop in loops]) + radius * np.cos(theta)
    ky = np.array([[loop.center.ky] for loop in loops]) + radius * np.sin(theta)
    kx = np.concatenate([kx, kx[:, :1]], axis=1)  # close each loop on the same matrix
    ky = np.concatenate([ky, ky[:, :1]], axis=1)
    bx, by = bloch_field_grid(params, kx, ky)
    # A loop through a defect gets 0/0 in its own rows only; its outcome is
    # the defect error, whatever those rows hold.
    with np.errstate(invalid="ignore", divide="ignore"):
        e = principal_sqrt(bx * bx + by * by)
        plus, minus = right_eigvec(bx, by, e), right_eigvec(bx, by, -e)
        for v in (plus, minus):
            v /= np.linalg.norm(v, axis=-1)[..., None]
        o_pp, o_pm = _overlap(plus, plus), _overlap(plus, minus)
        o_mp, o_mm = _overlap(minus, plus), _overlap(minus, minus)
        flip_from_plus = o_pm > o_pp
        ambiguous = np.any(flip_from_plus != (o_mp > o_mm), axis=1)
        parity = np.cumsum(flip_from_plus, axis=1) % 2
        parity = np.concatenate([np.zeros((len(loops), 1), parity.dtype), parity], axis=1)
        on_plus = parity == 0 if start_branch == "plus" else parity == 1
        margins = np.where(on_plus[:, :-1], np.abs(o_pp - o_pm), np.abs(o_mm - o_mp))
        h_min = np.min(np.hypot(np.abs(bx), np.abs(by)), axis=1)
        e_min = np.min(np.abs(e), axis=1)
        margin_min = np.min(margins, axis=1)

        shared = []
        for i in range(len(loops)):
            if h_min[i] < 1e-12:
                shared.append(LoopThroughDefectError("h(k) vanishes on the loop"))
            elif e_min[i] < _FIELD_FLOOR:
                shared.append(LoopThroughDefectError("eigenvalue collapses on the loop"))
            elif ambiguous[i]:
                shared.append(math.nan)  # ambiguous tracking, resolve by refining
            elif margin_min[i] < _TIE_TOL:
                shared.append(DegenerateTrackingError("eigenbranch overlaps tied on the loop"))
            else:
                shared.append(None)
        swapped = (on_plus[:, -1] != on_plus[:, 0]).tolist()
        per_kind = []
        for kind in kinds:
            if kind == "F":
                a = np.where(on_plus, plus[..., 0], minus[..., 0])
                b = np.where(on_plus, plus[..., 1], minus[..., 1])
                cross = a.conj() * b
                fx, fy = 2.0 * cross.real, np.abs(a) ** 2 - np.abs(b) ** 2
            else:
                e_tr = np.where(on_plus, e, -e)
                fx, fy = e_tr.real, e_tr.imag
            per_kind.append(_kind_outcomes(loops, kind, m, fx, fy, swapped, shared))
    return list(zip(*per_kind))


def _refine(params: ModelParams, loop: Loop, kind: str, start_branch: str, outcome):
    """Double this loop's samples, on its own, until ``outcome`` settles."""
    m = loop.samples
    raw = math.nan
    while isinstance(outcome, float):
        if not math.isnan(outcome):
            raw = outcome
        if m >= MAX_SAMPLES:
            return NonQuantizedLoopError(raw)
        m *= 2
        ((outcome,),) = _attempt(params, [loop], m, (kind,), start_branch)
    return outcome


def wind_loops(params: ModelParams, loops, kinds=("F", "E"), start_branch: str = "plus"):
    """Windings of every loop for each field kind, from one fused pass.

    The field, the candidate eigenvectors and the branch tracking are
    evaluated once on a (loops, samples + 1) array and shared by all kinds.
    Only that first pass is batched: a loop and kind that need more samples
    double them on their own, up to 2^16, as in :func:`winding_number`.

    Returns an iterator that yields, per loop and in order, a tuple with one
    outcome per kind: the :class:`WindingResult`, or the
    :class:`WindingError` that loop and kind ran into.  Refinement runs as
    the iterator reaches each loop, so a caller that stops at the first
    error does not refine the loops after it.
    """
    for kind in kinds:
        if kind not in ("F", "E"):
            raise ValueError(f"field_kind must be 'F' or 'E', got {kind!r}")
    if start_branch not in ("plus", "minus"):
        raise ValueError(f"start_branch must be 'plus' or 'minus', got {start_branch!r}")
    loops = list(loops)
    if not loops:
        return iter(())
    if len({loop.samples for loop in loops}) > 1:
        raise ValueError("loops wound together must share a sample count")
    first = _attempt(params, loops, loops[0].samples, kinds, start_branch)
    return (
        tuple(
            _refine(params, loop, kind, start_branch, outcome)
            for kind, outcome in zip(kinds, outcomes)
        )
        for loop, outcomes in zip(loops, first)
    )


def _settled(outcome) -> WindingResult:
    if isinstance(outcome, WindingError):
        raise outcome
    return outcome


def winding_number(
    params: ModelParams, loop: Loop, field_kind: str = "F", start_branch: str = "plus"
) -> WindingResult:
    """Winding of the chosen field along the loop, in half-integer units.

    Parameters
    ----------
    field_kind : "F" or "E"
        "F" winds the planar spin texture (w_I); "E" winds the complex
        eigenvalue (w_II).
    start_branch : "plus" or "minus"
        Eigenbranch the tracking starts from; the winding value does not
        depend on it.

    The sample count doubles (up to 2^16) whenever some wrapped angle step
    exceeds pi/2; if the total still fails to quantize, the raw angle is
    reported in a :class:`NonQuantizedLoopError`.
    """
    ((outcome,),) = wind_loops(params, [loop], (field_kind,), start_branch)
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
            loops.append(make_loop(b.k, params, btps))
        except (ValueError, WindingError) as exc:
            failure = exc  # raised during the F comparison, after the parts before it
            break
    totals = next(wind_loops(params, [big_loop]))
    parts = list(wind_loops(params, loops))
    for i in range(2):  # F, then E
        total = _settled(totals[i]).value
        part_sum = sum(_settled(p[i]).value for p in parts)
        if failure is not None:
            raise failure
        if abs(total - part_sum) > 1e-9:
            return False
    return True
