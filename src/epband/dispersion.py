"""Low-energy dispersion along rays from a band touching, and its power law.

The exact |E+| is sampled on a short ray and fitted to C * q^alpha in log-log
space; the Taylor jet of E^2 along the ray gives the expected (alpha, |C|).
Ray distance q is arc length along a unit direction, so a law quoted against
one momentum component picks up its direction factor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .bloch import (ModelParams, Momentum, bloch_field_grid, energy, in_scale, in_units_of_j,
                    scale_exponent, times_pow2)
from .btp import KINDS, MERGER_TOL, branch_level, face

__all__ = ["DispersionSample", "PowerLawFit", "ExpectedDispersion", "sample_dispersion",
           "fit_power_law", "expected_dispersion"]

Q_MIN = 1e-4
# every sample's 16 ray distances, log-spaced in [Q_MIN, 10 Q_MIN]: larger q bias the free fit
QS = np.logspace(math.log10(Q_MIN), math.log10(10.0 * Q_MIN), 16)
QS.setflags(write=False)
_DIR_TOL = 1e-9
_ORDER_NAMES = (None, "sqrt", "linear", "threehalves", "quadratic")  # the jet runs through q^4


@dataclass(frozen=True)
class DispersionSample:
    """|E+| at each ray distance of QS along a unit direction from a touching."""

    direction: tuple
    abs_e: np.ndarray

    def __post_init__(self):
        if np.shape(self.abs_e) != QS.shape:
            raise ValueError(f"|E| samples must have the shape {QS.shape} of QS")
        if not np.all(np.isfinite(self.abs_e)) or np.any(np.asarray(self.abs_e) < 0):
            raise ValueError("|E| samples must be finite and non-negative")


class PowerLawFit(NamedTuple):
    alpha: float
    c: float
    r2: float


class ExpectedDispersion(NamedTuple):
    alpha: float
    c: float
    case_id: str


def _unit(direction) -> tuple:
    dx, dy = float(direction[0]), float(direction[1])
    norm = math.hypot(dx, dy)
    if norm == 0.0 or not math.isfinite(norm):
        raise ValueError(f"bad ray direction {direction!r}")
    return (dx / norm, dy / norm)


def sample_dispersion(params: ModelParams, origin: Momentum, direction) -> DispersionSample:
    """Exact |E+| at origin + q * unit(direction) for each q of QS, scaled from units of |J|.

    Rounding moves E^2 = Bx^2 + By^2 by about eps (|Bx|^2 + |By|^2): where that exceeds
    1e-3 |E|^2, as where |T| and |gamma| far above |J| cancel, the samples cannot resolve
    the law, and a ValueError says so.
    """
    u = _unit(direction)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused below
        bx, by = bloch_field_grid(in_units_of_j(params), origin.kx + QS * u[0],
                                  origin.ky + QS * u[1])
        abs_e = np.abs(energy(bx, by))
        noise = np.finfo(float).eps * (np.abs(bx) ** 2 + np.abs(by) ** 2)
        resolved = np.all(noise <= 1e-3 * abs_e**2)  # False on NaN
    if np.any(abs_e < 1e-14):
        raise ValueError("ray collides with another band touching")
    if not resolved:
        raise ValueError("|E| on the ray is lost to rounding: Bx^2 + By^2 cancels, so the "
                         "samples cannot resolve a law")
    return DispersionSample(direction=u, abs_e=abs(params.J) * abs_e)


def fit_power_law(sample: DispersionSample) -> PowerLawFit:
    """Least-squares line through (log q, log |E|) over the q of QS."""
    if np.any(sample.abs_e <= 0):
        raise ValueError("cannot take log of a vanishing |E| sample")
    lx, ly = np.log(QS), np.log(sample.abs_e)
    slope, intercept = np.polyfit(lx, ly, 1)
    resid = ly - (slope * lx + intercept)
    ss_tot = float(np.sum((ly - ly.mean()) ** 2))
    r2 = 1.0 - float(np.sum(resid**2)) / ss_tot if ss_tot > 0 else 1.0
    return PowerLawFit(alpha=float(slope), c=float(math.exp(intercept)), r2=r2)


def _cos_jet(k: float, v: float) -> np.ndarray:
    """cos(k + q v) = sum_n cos(k + n pi/2) (q v)^n / n!, n = 0..4, read off cos k and sin k."""
    c, s = math.cos(k), math.sin(k)
    return np.array([c, -s * v, -c * v**2 / 2.0, s * v**3 / 6.0, c * v**4 / 24.0])


def _e2_jet(params: ModelParams, origin: Momentum, u) -> np.ndarray:
    """Coefficients of E^2 = Bx^2 + By^2 at origin + q u in q, orders 0 to 4."""
    cx, cy = _cos_jet(origin.kx, u[0]), _cos_jet(origin.ky, u[1])
    bx = 2.0 * params.J * (cx + cy) + np.array([params.T, 0.0, 0.0, 0.0, 0.0])
    by = 4.0 * params.t * np.convolve(cx, cy)[:5] + np.array([1j * params.gamma, 0, 0, 0, 0])
    return (np.convolve(bx, bx) + np.convolve(by, by))[:5]


def expected_dispersion(kind: str, origin: Momentum, direction, params: ModelParams):
    """(alpha, |C|) of |E| = |C| q^alpha on the ray, from the jet of E^2, in arc length.

    The leading order n >= 1 of the jet (the origin is a touching) gives alpha = n/2 and
    |C| = sqrt|coef_n|.  A kind with an order in :data:`epband.btp.KINDS` (a simple zero)
    takes it; the other kinds the first coefficient above MERGER_TOL (largest coupling)^2.
    The jet is taken in units of |J|, and |C| scaled back, where :func:`epband.btp.face`
    snaps the point: gamma on 0 when it snaps there, and T moved by at most 2 |J| MERGER_TOL
    onto the level of the branch nearest cos kx + cos ky.  None for an unknown kind, off a
    touching (order 0 above that zero test), or when orders 1 to 4 all vanish.
    """
    if kind not in KINDS:
        return None
    n, stem = KINDS[kind]
    u, f, unit = _unit(direction), face(params), in_units_of_j(params)
    snapped = unit if f.gamma != 1 else replace(unit, gamma=0.0)
    if n is None:
        here = math.cos(origin.kx) + math.cos(origin.ky)
        s = min((1, -1), key=lambda s: abs(branch_level(params, s) - here))
        level = f.level(f.plus if s == 1 else f.minus)
        if level is not None:
            snapped = replace(snapped, T=s * snapped.gamma - 2.0 * unit.J * level)
    # in units of |J| 2^exponent, the exact scale of the unsnapped couplings: no rounding
    # moves, and no square overflows
    exponent = scale_exponent(unit)
    coefs = _e2_jet(in_scale(snapped, exponent), origin, u)
    zero = MERGER_TOL * times_pow2(max(abs(x) for x in vars(unit).values()), -exponent) ** 2
    if abs(coefs[0]) > zero:
        return None  # E^2 does not vanish at the origin: no touching there
    if n is None:
        n = next((n for n in range(1, 5) if abs(coefs[n]) > zero), None)
        if n is None:
            return None
        # diagonal runs along (sign kx, sign ky), a sign of +1 for k > 0 and -1 otherwise
        vx, vy = (u_k if k > 0 else -u_k for k, u_k in zip(origin.xy, u))
        classes = ((min(abs(vx), abs(vy)), "axis"), (abs(vx - vy), "diagonal"),
                   (abs(vx + vy), "antidiagonal"))
        stem += next((f"-{name}" for d, name in classes if d < _DIR_TOL), "-oblique")
    c = abs(params.J) * times_pow2(math.sqrt(abs(coefs[n])), exponent)
    return ExpectedDispersion(n / 2.0, c, f"{stem}-{_ORDER_NAMES[n]}")
