"""Low-energy dispersion along rays from a band touching, and its power law.

The exact |E+| is sampled on a short ray and fitted to C * q^alpha in
log-log space; the closed-form expansions near each kind of touching give
the expected (alpha, |C|) for comparison.  Ray distance q is arc length
along a unit direction, so a coefficient quoted against a single momentum
component picks up the corresponding direction factor (for example a
diagonal linear law in q_x becomes C/sqrt(2) in arc length).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .bloch import ModelParams, Momentum, bloch_field_grid, principal_sqrt, wrap_angle
from .btp import (
    DIRAC_POINT,
    HYBRID_EP,
    NORMAL_EP,
    SEMI_DIRAC_POINT,
    TRIVIAL_ISOLATED_EP,
)

__all__ = [
    "DispersionSample",
    "PowerLawFit",
    "ExpectedDispersion",
    "default_qs",
    "sample_dispersion",
    "fit_power_law",
    "expected_dispersion",
]

Q_MIN = 1e-4
Q_MAX = 1e-2
_DIR_TOL = 1e-9


@dataclass(frozen=True)
class DispersionSample:
    """|E+| along origin + q * direction for strictly increasing small q."""

    origin: Momentum
    direction: tuple
    q: np.ndarray
    abs_e: np.ndarray

    def __post_init__(self):
        q = np.asarray(self.q, dtype=float)
        if q.size and (
            np.any(np.diff(q) <= 0) or q[0] < Q_MIN * (1 - 1e-9) or q[-1] > Q_MAX * (1 + 1e-9)
        ):
            raise ValueError(f"q values must increase strictly within [{Q_MIN}, {Q_MAX}]")
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


def default_qs(n: int = 16) -> np.ndarray:
    """Log-spaced ray distances in the lower decade of the allowed window.

    Samples anywhere in [Q_MIN, Q_MAX] are accepted; the default stops at
    1e-3 because the subleading corrections near the top of the window bias
    a free two-parameter fit by more than the prefactor tolerance.
    """
    return np.logspace(math.log10(Q_MIN), math.log10(10.0 * Q_MIN), n)


def _unit(direction) -> tuple:
    dx, dy = float(direction[0]), float(direction[1])
    norm = math.hypot(dx, dy)
    if norm == 0.0 or not math.isfinite(norm):
        raise ValueError(f"bad ray direction {direction!r}")
    return (dx / norm, dy / norm)


def sample_dispersion(params: ModelParams, origin: Momentum, direction, q) -> DispersionSample:
    """Exact |E+| at origin + q * unit(direction)."""
    u = _unit(direction)
    q = np.asarray(q, dtype=float)
    bx, by = bloch_field_grid(params, origin.kx + q * u[0], origin.ky + q * u[1])
    abs_e = np.abs(principal_sqrt(bx * bx + by * by))
    if np.any(abs_e[q > 0] < 1e-14):
        raise ValueError("ray collides with another band touching")
    return DispersionSample(origin=origin, direction=u, q=q, abs_e=abs_e)


def fit_power_law(sample: DispersionSample) -> PowerLawFit:
    """Least-squares line through (log q, log |E|)."""
    if sample.q.size < 8:
        raise ValueError("need at least 8 samples for a power-law fit")
    if np.any(sample.abs_e <= 0):
        raise ValueError("cannot take log of a vanishing |E| sample")
    lx = np.log(sample.q)
    ly = np.log(sample.abs_e)
    slope, intercept = np.polyfit(lx, ly, 1)
    resid = ly - (slope * lx + intercept)
    ss_tot = float(np.sum((ly - ly.mean()) ** 2))
    r2 = 1.0 - float(np.sum(resid**2)) / ss_tot if ss_tot > 0 else 1.0
    return PowerLawFit(alpha=float(slope), c=float(math.exp(intercept)), r2=r2)


def _is_half_pi(x: float) -> bool:
    return abs(abs(wrap_angle(x)) - 0.5 * math.pi) < 1e-9


def _near(x: float, v: float) -> bool:
    return abs(wrap_angle(x - v)) < 1e-9


def expected_dispersion(kind: str, origin: Momentum, direction, params: ModelParams):
    """Closed-form (alpha, |C|) for the given touching kind and ray.

    Returns an :class:`ExpectedDispersion`, or None when no closed form
    covers this (kind, direction) combination.  |C| is quoted in arc-length
    units of the unit ray direction.
    """
    u = _unit(direction)
    j, big_t, t, gamma = params.J, params.T, params.t, params.gamma
    if kind == TRIVIAL_ISOLATED_EP:
        return None

    half_x = _is_half_pi(origin.kx)
    half_y = _is_half_pi(origin.ky)

    if half_x and half_y:
        lam1 = 1.0 if wrap_angle(origin.kx) > 0 else -1.0
        lam2 = 1.0 if wrap_angle(origin.ky) > 0 else -1.0
        on_diag = abs(lam1 * u[0] - lam2 * u[1]) < _DIR_TOL
        on_anti = abs(lam1 * u[0] + lam2 * u[1]) < _DIR_TOL
        if kind == HYBRID_EP:
            if on_diag:
                amp = 2.0 * math.sqrt(abs(2.0 * j * big_t))
                return ExpectedDispersion(0.5, amp * math.sqrt(abs(u[0])), "hybrid-diagonal-sqrt")
            if on_anti:
                amp = 2.0 * math.sqrt(2.0 * abs(gamma * t))
                return ExpectedDispersion(1.0, amp * abs(u[0]), "hybrid-antidiagonal-linear")
            return None
        if kind == SEMI_DIRAC_POINT:
            if on_diag:
                amp = 4.0 * abs(j) * abs(u[0])
                return ExpectedDispersion(1.0, amp, "semidirac-diagonal-linear")
            if on_anti:
                amp = 4.0 * abs(t) * u[0] ** 2
                return ExpectedDispersion(2.0, amp, "semidirac-antidiagonal-quadratic")
            return None
        return None

    # Normalize the (+-pi/2, k_c) family onto (k_c, sigma*pi/2) by swapping axes.
    if half_y and not half_x:
        k_c, sigma, vx, vy = origin.kx, (1.0 if wrap_angle(origin.ky) > 0 else -1.0), u[0], u[1]
    elif half_x and not half_y:
        k_c, sigma, vx, vy = origin.ky, (1.0 if wrap_angle(origin.kx) > 0 else -1.0), u[1], u[0]
    else:
        return None

    at_zero = _near(k_c, 0.0)
    at_pi = _near(k_c, math.pi)
    axis_x = abs(vy) < _DIR_TOL
    axis_y = abs(vx) < _DIR_TOL

    if kind == HYBRID_EP and (at_zero or at_pi):
        if axis_y:
            inside = j * big_t + 2.0 * j * j + 2.0j * gamma * t
            if at_pi:
                inside = j * big_t - 2.0 * j * j - 2.0j * gamma * t
            amp = 2.0 * math.sqrt(abs(inside))
            return ExpectedDispersion(0.5, amp * math.sqrt(abs(vy)), "hybrid-axis-sqrt")
        if axis_x:
            lin = -2.0 * j * big_t - 4.0 * j * j if at_zero else 2.0 * j * big_t - 4.0 * j * j
            return ExpectedDispersion(1.0, math.sqrt(abs(lin)) * abs(vx), "hybrid-axis-linear")
        return None

    if kind == SEMI_DIRAC_POINT and (at_zero or at_pi):
        if axis_y:
            amp = 2.0 * math.sqrt(j * j + 4.0 * t * t)
            return ExpectedDispersion(1.0, amp * abs(vy), "semidirac-axis-linear")
        if axis_x:
            return ExpectedDispersion(2.0, abs(j) * vx**2, "semidirac-axis-quadratic")
        return None

    # Generic point of either family: linear combination sin(k_c)*v_par +
    # sigma*v_perp controls the branch-point term, v_perp alone the
    # imaginary one.  v_par runs along the k_c coordinate.
    sin_c = math.sin(k_c)
    cos_c = math.cos(k_c)
    mix = sin_c * vx + sigma * vy
    if kind == NORMAL_EP:
        inside = -j * (big_t + 2.0 * j * cos_c) * mix - 2.0j * sigma * gamma * t * vy * cos_c
        return ExpectedDispersion(0.5, 2.0 * math.sqrt(abs(inside)), "normal-sqrt")

    if kind == DIRAC_POINT:
        amp = 2.0 * math.sqrt(j * j * mix * mix + 4.0 * t * t * vy * vy * cos_c * cos_c)
        return ExpectedDispersion(1.0, amp, "dirac-linear")

    return None
