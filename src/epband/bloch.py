"""Momentum-space core of the non-Hermitian bilayer square-lattice model.

The model carries four couplings: nearest-neighbor hopping J, an interlayer
coupling T, a diagonal hopping t with checkerboard-staggered signs, and a
balanced on-site gain/loss rate gamma.  In the two-sublattice momentum basis
the Bloch Hamiltonian is

    h(k) = Bx(k) sigma_x + By(k) sigma_z,
    Bx   = 2 J (cos kx + cos ky) + T,
    By   = 4 t cos kx cos ky + i gamma,

laid out as [[By, Bx], [Bx, -By]].  h is traceless and anticommutes with
sigma_y for every k, so its spectrum comes in +/- pairs.  Everything in this
module is a closed-form evaluation of a 2x2 problem; no iterative eigensolver
is involved.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ModelParams",
    "Momentum",
    "SYMMETRY_RELATIONS",
    "wrap_angle",
    "torus_distance",
    "principal_sqrt",
    "bloch_field_grid",
    "right_eigvec",
    "observables_grid",
    "symmetry_residuals",
    "spectral_reality",
]


def wrap_angle(k):
    """Wrap an angle (scalar or array) onto the canonical interval (-pi, pi]."""
    return np.pi - (np.pi - k) % (2.0 * np.pi)


def torus_distance(k1, k2):
    """Euclidean distance between two momenta on the Brillouin torus."""
    dx = wrap_angle(k1.kx - k2.kx)
    dy = wrap_angle(k1.ky - k2.ky)
    return math.hypot(dx, dy)


def principal_sqrt(w):
    """Principal complex square root: Re >= 0, and Im >= 0 on the cut Re = 0.

    Works on scalars and arrays.  numpy's sqrt already picks Re >= 0 except
    for the sign-of-zero ambiguity on the negative real axis, which is fixed
    here so that sqrt(-x) = +i sqrt(x) for x > 0 regardless of the sign of
    the imaginary zero.
    """
    e = np.sqrt(np.asarray(w, dtype=complex))
    flip = (e.real < 0) | ((e.real == 0) & (e.imag < 0))
    e = np.where(flip, -e, e)
    if np.ndim(w) == 0:
        return complex(e)
    return e


@dataclass(frozen=True)
class ModelParams:
    """Coupling constants. J is the energy unit and must be nonzero."""

    J: float = 1.0
    T: float = 0.0
    t: float = 0.0
    gamma: float = 0.0

    def __post_init__(self):
        for name in ("J", "T", "t", "gamma"):
            v = float(getattr(self, name))
            if not math.isfinite(v):
                raise ValueError(f"ModelParams.{name} must be finite, got {v!r}")
            object.__setattr__(self, name, v)
        if self.J == 0.0:
            raise ValueError("ModelParams.J must be nonzero")


@dataclass(frozen=True)
class Momentum:
    """A point on the Brillouin torus, stored canonically in (-pi, pi]^2."""

    kx: float
    ky: float

    def __post_init__(self):
        for name in ("kx", "ky"):
            v = float(getattr(self, name))
            if not math.isfinite(v):
                raise ValueError(f"Momentum.{name} must be finite, got {v!r}")
            object.__setattr__(self, name, float(wrap_angle(v)))

    @property
    def xy(self):
        return (self.kx, self.ky)


def bloch_field_grid(params: ModelParams, kx, ky):
    """Vectorized (Bx, By) on arrays of momenta. By is complex."""
    cx = np.cos(kx)
    cy = np.cos(ky)
    bx = 2.0 * params.J * (cx + cy) + params.T
    by = 4.0 * params.t * cx * cy + 1j * params.gamma
    return bx, by


def right_eigvec(bx, by, e):
    """Right eigenvector of h = [[By, Bx], [Bx, -By]] for eigenvalue ``e``, unnormalized.

    (Bx, e - By) and (e + By, Bx) both span the kernel of h - e; the one with
    the larger norm is returned, so the Bx = 0 and By = 0 corners are both
    safe.  At an exceptional point both collapse onto the Jordan vector; at
    h = 0 the result is the zero vector.  bx, by and e share one shape; the
    result has that shape + (2,).
    """
    v1 = np.stack([bx, e - by], axis=-1)
    v2 = np.stack([e + by, bx], axis=-1)
    use1 = np.linalg.norm(v1, axis=-1) >= np.linalg.norm(v2, axis=-1)
    return np.where(use1[..., None], v1, v2)


def observables_grid(params: ModelParams, kx, ky):
    """Plus-branch (<sigma_x>, <sigma_z>, <sigma_y>) on momentum arrays.

    Expectation values of the right eigenvector under the plain Hermitian
    inner product <psi|sigma|psi> / <psi|psi>.  At exact touching points the
    kernel vector is the Jordan vector, so the in-plane components vanish
    there instead of blowing up; at h = 0 all three are 0.
    """
    bx, by = bloch_field_grid(params, kx, ky)
    v = right_eigvec(bx, by, principal_sqrt(bx * bx + by * by))
    a, b = v[..., 0], v[..., 1]
    norm = np.abs(a) ** 2 + np.abs(b) ** 2
    norm = np.where(norm == 0.0, 1.0, norm)
    cross = np.conj(a) * b
    fx = 2.0 * cross.real / norm
    fy = (np.abs(a) ** 2 - np.abs(b) ** 2) / norm
    sy = 2.0 * cross.imag / norm
    return fx, fy, sy


# The eight momentum relations h(kx, ky) = h(. , .) implied by the C4/mirror
# structure of Bx and By (both even in each component and swap-symmetric).
SYMMETRY_RELATIONS = (
    ("(-kx,-ky)", lambda kx, ky: (-kx, -ky)),
    ("(-kx,+ky)", lambda kx, ky: (-kx, ky)),
    ("(+kx,-ky)", lambda kx, ky: (kx, -ky)),
    ("(+ky,+kx)", lambda kx, ky: (ky, kx)),
    ("(-ky,-kx)", lambda kx, ky: (-ky, -kx)),
    ("(+ky,-kx)", lambda kx, ky: (ky, -kx)),
    ("(-ky,+kx)", lambda kx, ky: (-ky, kx)),
    ("identity", lambda kx, ky: (kx, ky)),
)


def symmetry_residuals(params: ModelParams, grid_n: int = 128, field_fn=None):
    """Max entrywise deviation |h(k) - h(rel(k))| for each momentum relation.

    Returns a list of (relation_id, residual) pairs: the eight coordinate
    relations followed by a "chiral" row measuring ||sigma_y h sigma_y + h||.
    ``field_fn(params, kx, ky) -> (Bx, By)`` may be injected to test a
    deliberately corrupted field (negative control).
    """
    if grid_n < 4:
        raise ValueError("grid_n must be at least 4")
    if field_fn is None:
        field_fn = bloch_field_grid
    k = wrap_angle(2.0 * np.pi * np.arange(grid_n) / grid_n)
    kx, ky = np.meshgrid(k, k, indexing="ij")
    bx, by = field_fn(params, kx, ky)
    rows = []
    for name, rel in SYMMETRY_RELATIONS:
        kx2, ky2 = rel(kx, ky)
        bx2, by2 = field_fn(params, kx2, ky2)
        res = max(np.max(np.abs(bx - bx2)), np.max(np.abs(by - by2)))
        rows.append((name, float(res)))
    # sigma_y h sigma_y + h has entries [[h11+h00, h01-h10], [h10-h01, h00+h11]]
    h00, h01, h10, h11 = by, bx + 0j, bx + 0j, -by
    chi = max(np.max(np.abs(h11 + h00)), np.max(np.abs(h01 - h10)))
    rows.append(("chiral", float(chi)))
    return rows


def spectral_reality(params: ModelParams, grid_n: int = 128, tol: float = 1e-12) -> bool:
    """True iff every grid eigenvalue is purely real or purely imaginary.

    At t = 0 the model has PT- and CT-like products that force E^2 real, so
    this holds on the whole zone; any t != 0 generically breaks it.
    """
    if grid_n < 4:
        raise ValueError("grid_n must be at least 4")
    k = wrap_angle(2.0 * np.pi * np.arange(grid_n) / grid_n)
    kx, ky = np.meshgrid(k, k, indexing="ij")
    bx, by = bloch_field_grid(params, kx, ky)
    e = principal_sqrt(bx * bx + by * by)
    return bool(np.all(np.minimum(np.abs(e.real), np.abs(e.imag)) < tol))
