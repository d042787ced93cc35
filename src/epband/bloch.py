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
import operator
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ModelParams",
    "Momentum",
    "in_units_of_j",
    "scale_exponent",
    "in_scale",
    "times_pow2",
    "integer",
    "SYMMETRY_RELATIONS",
    "wrap_angle",
    "torus_distance",
    "principal_sqrt",
    "bloch_field_grid",
    "energy",
    "right_eigvec",
    "observables_grid",
    "zone_grid",
    "symmetry_residuals",
    "field_scale",
    "spectral_reality",
]


def wrap_angle(k):
    """Wrap an angle (scalar or array) onto the canonical interval (-pi, pi]."""
    return np.pi - (np.pi - k) % math.tau % math.tau  # the first remainder may round onto 2 pi


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
    if flip.any():
        e = np.where(flip, -e, e)
    if np.ndim(w) == 0:
        return complex(e)
    return e


def integer(value, what: str) -> int:
    """``value`` as an int: an integer of any kind, np.int64 included, but not 6.0."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{what} must be an integer, got {value!r}") from None


def _set_finite(record, convert=float):
    """Set each field of the frozen dataclass ``record`` to convert(its float), which is finite."""
    for name in record.__dataclass_fields__:  # dataclasses.fields's source, with no copy
        v = float(getattr(record, name))
        if not math.isfinite(v):
            raise ValueError(f"{type(record).__name__}.{name} must be finite, got {v!r}")
        object.__setattr__(record, name, convert(v))


@dataclass(frozen=True)
class ModelParams:
    """Coupling constants. J is the energy unit and must be nonzero."""

    J: float = 1.0
    T: float = 0.0
    t: float = 0.0
    gamma: float = 0.0

    def __post_init__(self):
        _set_finite(self)
        if self.J == 0.0:
            raise ValueError("ModelParams.J must be nonzero")


def in_units_of_j(params: ModelParams) -> ModelParams:
    """The couplings over |J|, each clamped to the float range: scale-free results are computed
    from these, and one with units is multiplied back by |J|.  At |J| = 1 no float moves."""
    j, top = abs(params.J), np.finfo(float).max
    return ModelParams(*(min(max(x / j, -top), top) for x in vars(params).values()))


def scale_exponent(params: ModelParams) -> int:
    """The exponent e of 2^e, the power of two just above the largest coupling: the exact scale.

    A coupling, a field or a block of H times 2^-e (:func:`in_scale`, :func:`times_pow2`) is
    below about 10 in modulus, so its square stays finite, and a residue judged against 2^e
    is judged against the couplings' own rounding.  It is e, not 2^e, since 2^1024 is no float.
    """
    return math.frexp(max(abs(x) for x in vars(params).values()))[1]


def times_pow2(x, e: int):
    """x times 2^e, exact while the result stays normal: a float, or an array of floats or of
    complexes, whose real and imaginary parts are scaled alike."""
    if np.ndim(x) == 0:
        return math.ldexp(x, e)
    x = np.ascontiguousarray(x, dtype=np.result_type(x, float))  # complex as its float pairs
    return np.ldexp(x.view(float), e).view(x.dtype)


def in_scale(params: ModelParams, e: int) -> ModelParams:
    """The couplings times 2^-e, with e from :func:`scale_exponent`: exact, bar a coupling
    below 2^-1022 of the largest, which rounds to the subnormal range."""
    return ModelParams(*(times_pow2(x, -e) for x in vars(params).values()))


@dataclass(frozen=True)
class Momentum:
    """A point on the Brillouin torus, stored canonically in (-pi, pi]^2."""

    kx: float
    ky: float

    def __post_init__(self):
        _set_finite(self, wrap_angle)

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


def energy(bx, by):
    """E = sqrt(Bx^2 + By^2), the principal root, on the field of :func:`bloch_field_grid`: the
    eigenvalue +E of h, on scalars or arrays.  The one place where E^2 is formed."""
    return principal_sqrt(bx * bx + by * by)


def right_eigvec(bx, by, e):
    """Right eigenvector (a, b) of h = [[By, Bx], [Bx, -By]] for eigenvalue ``e``, and its norm.

    (Bx, e - By) and (e + By, Bx) both span the kernel of h - e; the one with
    the larger norm, sqrt(Bx^2 + |w|^2) summed in numpy's 2-norm float order,
    is returned unnormalized, so the Bx = 0 and By = 0 corners are both safe.
    At an exceptional point both collapse onto the Jordan vector; at h = 0 the
    result is the zero vector.  bx, by, e, a, b and norm share one shape.
    """
    w1, w2 = np.asarray(e - by), np.asarray(e + by)  # scalar complex products round otherwise
    bx2 = bx * bx
    n1, n2 = (np.sqrt(bx2 + (np.conj(w) * w).real) for w in (w1, w2))
    use1 = n1 >= n2
    return np.where(use1, bx, w2), np.where(use1, w1, bx), np.where(use1, n1, n2)


def observables_grid(params: ModelParams, kx, ky):
    """Plus-branch (<sigma_x>, <sigma_z>, <sigma_y>) on momentum arrays.

    Expectation values of the right eigenvector under the plain Hermitian
    inner product <psi|sigma|psi> / <psi|psi>.  At exact touching points the
    kernel vector is the Jordan vector, so the in-plane components vanish
    there instead of blowing up; at h = 0 all three are 0.  The texture is scale-free, so it
    is read off the field in the exact scale (:func:`scale_exponent`), whose squares neither
    overflow nor vanish at any scale of the couplings.
    """
    scaled = in_scale(params, scale_exponent(params))
    bx, by = bloch_field_grid(scaled, *np.atleast_1d(kx, ky))  # scalar products round otherwise
    a, b, _ = right_eigvec(bx, by, energy(bx, by))
    norm = np.abs(a) ** 2 + np.abs(b) ** 2
    norm = np.where(norm == 0.0, 1.0, norm)
    cross = np.conj(a) * b
    fx = 2.0 * cross.real / norm
    fy = (np.abs(a) ** 2 - np.abs(b) ** 2) / norm
    sy = 2.0 * cross.imag / norm
    return (fx[0], fy[0], sy[0]) if np.ndim(kx) == np.ndim(ky) == 0 else (fx, fy, sy)


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


def zone_grid(grid_n: int):
    """(kx, ky) meshes of the n x n zone grid 2 pi (i, j) / n, wrapped, with n >= 4: the one
    grid that the symmetry table, the spectral checks and the real-space oracle read."""
    grid_n = integer(grid_n, "grid_n")
    if grid_n < 4:
        raise ValueError("grid_n must be at least 4")
    k = wrap_angle(2.0 * np.pi * np.arange(grid_n) / grid_n)
    return np.meshgrid(k, k, indexing="ij")


def symmetry_residuals(params: ModelParams, grid_n: int = 128):
    """Max entrywise deviation |h(k) - h(rel(k))| for each momentum relation.

    Returns a list of (relation_id, residual) pairs: the eight coordinate
    relations followed by a "chiral" row, ||sigma_y h sigma_y + h||.  That row is
    structural, not a measurement: h is assembled as [[By, Bx], [Bx, -By]], so it
    is exactly 0 for any field.  Chirality against the real-space Hamiltonian is
    tested by :func:`epband.lattice.block_check`.
    """
    kx, ky = zone_grid(grid_n)
    bx, by = bloch_field_grid(params, kx, ky)
    rows = []
    for name, rel in SYMMETRY_RELATIONS:
        kx2, ky2 = rel(kx, ky)
        bx2, by2 = bloch_field_grid(params, kx2, ky2)
        res = max(np.max(np.abs(bx - bx2)), np.max(np.abs(by - by2)))
        rows.append((name, float(res)))
    # sigma_y h sigma_y + h has entries [[h11+h00, h01-h10], [h10-h01, h00+h11]]
    h00, h01, h10, h11 = by, bx + 0j, bx + 0j, -by
    chi = max(np.max(np.abs(h11 + h00)), np.max(np.abs(h01 - h10)))
    rows.append(("chiral", float(chi)))
    return rows


def field_scale(params: ModelParams, grid_n: int = 128) -> float:
    """Largest |Bx| or |By| on the zone grid of :func:`symmetry_residuals`: the scale its
    residuals are judged against, since they are rounding errors relative to |h|."""
    bx, by = bloch_field_grid(params, *zone_grid(grid_n))
    return float(max(np.max(np.abs(bx)), np.max(np.abs(by))))


def spectral_reality(params: ModelParams) -> bool:
    """True iff every eigenvalue is purely real or purely imaginary, up to 1e-12 |J|.

    At t = 0 the model has PT- and CT-like products that force E^2 real, so this holds on
    the whole zone; any t != 0 generically breaks it.  E is read on the 128 x 128 zone grid.
    """
    e = energy(*bloch_field_grid(in_units_of_j(params), *zone_grid(128)))
    return bool(np.all(np.minimum(np.abs(e.real), np.abs(e.imag)) < 1e-12))
