"""Winding numbers of the spin texture and of the complex energy.

Both invariants are angle accumulations along a small counterclockwise loop:
w_I follows F = (<sigma_x>, <sigma_z>) of one continuously tracked
eigenbranch, w_II follows (Re E, Im E) of its eigenvalue.  Chiral symmetry,
sigma_y h sigma_y = -h, makes sigma_y v the -E eigenvector of the +E
eigenvector v, with F(sigma_y v) = -F(v).  The branch follows its eigenvalue,
which stays 2|E| from its partner where the eigenvectors coalesce: it swaps
where two consecutive principal roots of E^2 point apart.  Encircling an
exceptional point swaps it after one turn, and the winding lands on a half-odd
value.  At gamma = 0 no branch swaps, and none is tracked.
Results are snapped to the nearest half-integer and the snap residual is
reported.  :func:`wind_loops` winds many loops and both kinds in fused passes
over (loops, samples) arrays; :func:`winding_number` is its one-loop case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bloch import (ModelParams, Momentum, bloch_field_grid, energy, in_units_of_j, right_eigvec,
                    torus_distance)
from .btp import face

__all__ = ["Loop", "WindingResult", "WindingError", "LoopThroughDefectError",
           "NonQuantizedLoopError", "UnresolvedLoopError", "make_loop", "settled",
           "winding_number", "wind_loops", "winding_additivity_check"]

START_SAMPLES = 512
MAX_SAMPLES = 2**16
_FIELD_FLOOR = 1e-10


class WindingError(RuntimeError):
    pass


class LoopThroughDefectError(WindingError):
    """The field fell below its floor on the loop: a touching sits on it, or the loop is too
    small to resolve the touching it encloses."""


class UnresolvedLoopError(WindingError):
    """A touching's loop winds off its charges."""


class NonQuantizedLoopError(WindingError):
    """Refinement cap reached without a quantized angle total."""

    def __init__(self, raw_angle: float):
        super().__init__(f"winding failed to quantize, raw angle {raw_angle:.6f} turns")
        self.raw_angle = raw_angle


@dataclass(frozen=True)
class Loop:
    """Counterclockwise circle on the Brillouin torus.  Its radius lies in (0, pi): a
    wider circle wraps the 2 pi torus and encloses no region of it."""

    center: Momentum
    radius: float

    def __post_init__(self):
        if not 0.0 < self.radius < math.pi:
            raise ValueError(f"loop radius must lie in (0, pi), got {self.radius!r}")


def make_loop(center: Momentum, all_btps) -> Loop:
    """Loop around ``center`` sized off the nearest other band touching.

    radius = min(0.4 * distance to the nearest listed BTP other than the
    center itself, 0.1), so the loop encloses no other touching.  The center's
    own entry is the nearest one within 1e-9, and only it is skipped: a
    partner EP as close counts.  No radius is too small to build: whether a
    loop resolves its touching is judged when it is wound, where a field
    below its floor raises :class:`LoopThroughDefectError`.
    """
    dists = sorted(torus_distance(center, b.k) for b in all_btps)
    if dists and dists[0] <= 1e-9:
        del dists[0]
    return Loop(center=center, radius=min(0.4 * dists[0], 0.1) if dists else 0.1)


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


def _wrap_steps(d):
    """pi - (pi - d) % 2 pi of steps d in [-2 pi, 2 pi], bit for bit, in place: unlike
    :func:`~epband.bloch.wrap_angle`, -pi one ulp above pi, a step refined either way."""
    # a = pi - d lies in [-pi, 3 pi]; mod 2 pi it is a - 2 pi from 2 pi on, a + 2 pi below 0
    np.subtract(np.pi, d, out=d)
    np.subtract(d, 2.0 * np.pi, out=d, where=d >= 2.0 * np.pi)
    np.add(d, 2.0 * np.pi, out=d, where=d < 0.0)  # may round onto 2 pi, as the remainder does
    return np.subtract(np.pi, d, out=d)


def _kind_outcomes(loops, kind: str, m: int, fx, fy, swapped, shared, witness):
    """Per-loop outcomes of winding one field, given as (loops, samples + 1) arrays, and
    whether each loop's field turns past pi/2 in a step; a field below ``_FIELD_FLOOR`` in
    magnitude somewhere on a loop collapses there.

    A loop whose ``shared`` entry is set already failed for every kind and
    keeps that outcome; one whose ``witness`` entry is set needs refining.
    """
    collapsed = (np.min(fx * fx + fy * fy, axis=1) < _FIELD_FLOOR * _FIELD_FLOOR).tolist()
    d = _wrap_steps(np.diff(np.arctan2(fy, fx, out=fx), axis=1))  # fx is scratch
    raws = (np.sum(d, axis=1) / (2.0 * np.pi)).tolist()
    coarse = np.max(np.abs(d, out=d), axis=1) > 0.5 * np.pi
    refine = (coarse | witness).tolist()
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
        if refine[i] or residual >= 0.05 or (abs(round(2.0 * value)) % 2 == 1) != swapped[i]:
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
    return outcomes, coarse


def _attempt(params: ModelParams, loops, m: int, kinds):
    """One tracked pass at ``m`` samples over the given loops, fused across kinds.

    Where :func:`~epband.btp.face` puts gamma off 0, the branch swaps where
    Re(E_n+1 conj E_n) < 0, and F, wound even when only E is asked for, is the
    tracking's witness: a loop whose F turns past pi/2 in a step refines its E too.

    Returns one tuple per loop with one outcome per kind: a WindingResult,
    the WindingError the loop hit, or a float, the raw angle of a pass that
    needs more samples.  The couplings come in units of |J|, as :func:`wind_loops` passes
    them, so |E| below 1e-10 anywhere on a loop is below 1e-10 |J|: a LoopThroughDefectError
    for every kind, which covers h = 0 too, since |E|^2 <= |h|^2.
    """
    theta = 2.0 * np.pi * np.arange(m + 1) / m
    theta[m] = 0.0  # close each loop on the same matrix as its first sample
    cx, cy, r = np.array([[lp.center.kx, lp.center.ky, lp.radius] for lp in loops]).T[..., None]
    bx, by = bloch_field_grid(params, cx + r * np.cos(theta), cy + r * np.sin(theta))
    # A loop through a defect gets 0/0 in its own rows only, and one whose field overflows
    # inf in its own rows; its outcome is that error, whatever those rows hold.
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        e = energy(bx, by)
        abs_e = np.abs(e)
        e_min = abs_e.min(axis=1).tolist()
        e_max = abs_e.max(axis=1)
        del abs_e
        a, b, norm = right_eigvec(bx, by, e)
        # inf or NaN where E^2 overflows, or an eigenvector's norm does while E stays finite
        finite = (np.isfinite(e_max) & np.isfinite(norm.max(axis=1))).tolist()
        a /= norm
        b /= norm
        del bx, by, norm  # keeps the peak low on refined loops
        # where face puts gamma on 0, h is real symmetric and E >= 0: +E is one global branch
        track = face(params).gamma != 1
        parity = track & np.logical_xor.accumulate((e[:, 1:] * e[:, :-1].conj()).real < 0.0, axis=1)
        shared = []
        for i in range(len(loops)):
            if not finite[i]:
                shared.append(WindingError("eigenvalue is not finite on the loop"))
            elif e_min[i] < _FIELD_FLOOR:
                shared.append(LoopThroughDefectError("eigenvalue collapses on the loop"))
            else:
                shared.append(None)
        swapped = parity[:, -1].tolist()
        outcomes, witness = {}, False
        # where a branch is tracked, F is wound before E, asked for or not: it is the witness
        for kind in ("F", "E") if track and "E" in kinds else kinds:
            if kind == "F":
                fx, fy = 2.0 * (a.conj() * b).real, np.abs(a) ** 2
                fy -= np.abs(b) ** 2
            else:
                fx, fy = e.real.copy(), e.imag.copy()
            for f in (fx, fy):  # the -E branch's field is the opposite of the +E one's
                np.negative(f[:, 1:], out=f[:, 1:], where=parity)
            outcomes[kind], coarse = _kind_outcomes(loops, kind, m, fx, fy, swapped, shared,
                                                    witness)
            witness = track & coarse
    return list(zip(*(outcomes[kind] for kind in kinds)))


def wind_loops(params: ModelParams, loops, kinds=("F", "E")):
    """Windings of every loop for each field kind, from fused passes over all loops.

    Every loop starts at ``START_SAMPLES`` = 512: the field, the eigenvector and the branch
    tracking are evaluated once on a (loops, 512 + 1) array and shared by all kinds.  Each loop
    with a kind still at a raw angle is then wound again at twice the samples, for the kinds
    still open, never past 2^16; at m samples, max(1, loops * 512 // m) loops to a pass, so
    none outgrows the first or a loop.

    Returns a list with, per loop and in order, a tuple with one outcome per
    kind: the :class:`WindingResult`, or the :class:`WindingError` that loop
    and kind ran into.
    """
    if not kinds or any(kind not in ("F", "E") for kind in kinds):
        raise ValueError(f"field kinds must each be 'F' or 'E', at least one, got {kinds!r}")
    loops = list(loops)
    if not loops:
        return []
    params = in_units_of_j(params)  # windings are scale-free
    m = START_SAMPLES
    rows = [list(row) for row in _attempt(params, loops, m, kinds)]
    while 2 * m <= MAX_SAMPLES and (unsettled := [i for i, r in enumerate(rows)
                                                  if float in map(type, r)]):
        m *= 2
        size = max(1, len(loops) * START_SAMPLES // m)
        for group in (unsettled[s:s + size] for s in range(0, len(unsettled), size)):
            cols = [c for c in range(len(kinds)) if any(type(rows[i][c]) is float for i in group)]
            fresh = _attempt(params, [loops[i] for i in group], m, tuple(kinds[c] for c in cols))
            for i, row in zip(group, fresh):
                for c, outcome in zip(cols, row):
                    if type(rows[i][c]) is float:  # a settled outcome is kept
                        rows[i][c] = outcome
    # past the 2^16 cap, an outcome still at a raw angle failed to quantize
    return [tuple(NonQuantizedLoopError(o) if type(o) is float else o for o in row) for row in rows]


def settled(outcome) -> WindingResult:
    """The result of one wound outcome, or the :class:`WindingError` it holds, raised."""
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

    Where :func:`~epband.btp.face` puts gamma on 0, no branch is tracked: F is then the
    field's own direction (Bx, By) / E.  Elsewhere the branch follows its eigenvalue.  The
    sample count doubles, to at most 2^16, whenever some wrapped angle step exceeds pi/2,
    and off gamma = 0 E's count doubles too where F's step does; if a step still does, or
    the total fails to quantize, the raw angle is reported in a :class:`NonQuantizedLoopError`.
    """
    ((outcome,),) = wind_loops(params, [loop], (field_kind,))
    return settled(outcome)


def winding_additivity_check(params: ModelParams, btps, big_loop: Loop) -> bool:
    """Does the big loop's winding equal the sum of the enclosed touchings' charges?

    Checked for both field kinds, against the (w_I, w_II) that
    :func:`~epband.btp.locate_btps` sets on each touching.  Every listed touching must
    clear the loop path by more than 1e-3 so that enclosure is unambiguous.
    """
    enclosed = []
    for b in btps:
        d = torus_distance(big_loop.center, b.k)
        if abs(d - big_loop.radius) <= 1e-3:
            raise ValueError(f"band touching at {b.k.xy} sits on the loop path")
        if d < big_loop.radius:
            enclosed.append(b)
    charges = (sum(b.w_i for b in enclosed), sum(b.w_ii for b in enclosed))
    totals = wind_loops(params, [big_loop])[0]  # F, then E
    return all(settled(total).value == charge for total, charge in zip(totals, charges))
