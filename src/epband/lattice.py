"""Finite real-space Hamiltonian of the bilayer lattice and its block test.

Sites are labeled (lam, j, l) with layer lam in {1, 2} and 0-based cell
indices j, l in [0, N); boundaries are periodic.  The Hamiltonian per layer
has nearest-neighbor hopping J, diagonal hoppings t(-1)^(lam+j+l) to
(j+1, l+-1), and on-site gain/loss i*gamma*(-1)^(lam+j+l); the layers are
tied site-by-site with T.  The momentum basis built here block-diagonalizes
all of it into the 2x2 Bloch matrices of :mod:`epband.bloch`, which is the
cross-check between the lattice and the closed-form field.  Both builders
return read-only arrays, so the O(N^6) transform is formed once per lattice;
copy H or U before editing it.  The dense working set is H, U and one row
block of U^dag H U: H is filled in place, and the transform keeps only the
2x2 diagonal blocks of each row block it forms.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass

import numpy as np

from .bloch import ModelParams, Momentum, bloch_field_grid, principal_sqrt, wrap_angle

__all__ = [
    "LatticeSize",
    "MomentumBasis",
    "BlockCheckResult",
    "site_index",
    "build_realspace",
    "build_momentum_basis",
    "block_check",
    "block_spectrum",
    "expected_spectrum",
    "spectral_mismatch",
]


@dataclass(frozen=True)
class LatticeSize:
    """Linear size N of the N x N bilayer; even so the staggering closes."""

    n: int

    def __post_init__(self):
        if self.n < 4 or self.n % 2 != 0:
            raise ValueError(f"lattice size must be even and >= 4, got {self.n}")

    @property
    def dim(self) -> int:
        return 2 * self.n * self.n


def site_index(lam: int, j: int, l: int, n: int) -> int:
    """Flat index of site (lam, j, l); layer-major, then row-major in (j, l)."""
    if lam not in (1, 2):
        raise ValueError(f"layer must be 1 or 2, got {lam}")
    return (lam - 1) * n * n + (j % n) * n + (l % n)


def build_realspace(params: ModelParams, size: LatticeSize) -> np.ndarray:
    """Dense Hamiltonian of the periodic bilayer.

    The Hermitian part collects J, t and T hoppings; the anti-Hermitian part
    is the diagonal i*gamma*(-1)^(lam+j+l) staggering.  It is read-only.
    """
    n = size.n
    dim = size.dim
    # Site arrays in site_index order: layer 0/1 for lam = 1/2, then (j, l).
    layer, j, l = np.indices((2, n, n)).reshape(3, dim)
    here = np.arange(dim)
    sign = np.where((layer + 1 + j + l) % 2, -1.0, 1.0)  # (-1)^(lam+j+l)

    def to(dj, dl):
        return layer * n * n + (j + dj) % n * n + (l + dl) % n

    # For N >= 4 every hopping and its Hermitian partner have entries of their own, so
    # entries are set, not summed.  The hoppings are real; v + 0.0 stores a zero coupling
    # (t = -0.0 included) as +0.0, like every other zero of H.
    h = np.zeros((dim, dim), dtype=complex)
    layer1 = here[: n * n]
    for rows, cols, v in ((here, to(1, 0), params.J), (here, to(0, 1), params.J),
                          (here, to(1, 1), params.t * sign), (here, to(1, -1), params.t * sign),
                          (layer1, layer1 + n * n, params.T)):
        h[rows, cols] = h[cols, rows] = v + 0.0
    h[np.diag_indices(dim)] += 1j * params.gamma * sign
    h.flags.writeable = False
    return h


@dataclass(frozen=True)
class MomentumBasis:
    """Unitary momentum-space basis; column 2i is (k_i, A), column 2i+1 is (k_i, B)."""

    u: np.ndarray
    momenta: tuple
    n: int


def build_momentum_basis(size: LatticeSize) -> MomentumBasis:
    """Plane-wave sublattice basis that block-diagonalizes the Hamiltonian.

    Sublattice A collects layer-2 sites on even j+l and layer-1 sites on odd
    j+l; B is the complement.  Columns are (1/N) exp(i(kx j + ky l)) on the
    corresponding sublattice support, with kx, ky on the 2*pi*m/N grid.
    ``u`` is read-only.
    """
    n = size.n
    dim = size.dim
    k = wrap_angle(2.0 * np.pi * np.arange(n) / n)
    js, ls = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    even = (js + ls) % 2 == 0
    lam_a = np.where(even, 2, 1)
    lam_b = np.where(even, 1, 2)
    flat_a = (lam_a - 1) * n * n + js * n + ls
    flat_b = (lam_b - 1) * n * n + js * n + ls
    u = np.zeros((dim, dim), dtype=complex)
    # One kx row of momenta at a time, over (ky, j, l): freed (N^2, N^2)
    # temporaries stay resident on the heap and raised the peak RSS of an
    # N = 6..24 sweep by 17 %.  U is the one dense array made here; with H
    # and a row block of the transform it is the whole dense working set.
    for mx in range(n):
        phase = (np.exp(1j * (k[mx] * js + k[:, None, None] * ls)) / n).reshape(n, -1).T
        cols = 2 * (mx * n + np.arange(n))
        u[flat_a.reshape(-1, 1), cols] = phase
        u[flat_b.reshape(-1, 1), cols + 1] = phase
    u.flags.writeable = False
    momenta = tuple(Momentum(x, y) for x in k.tolist() for y in k.tolist())
    return MomentumBasis(u=u, momenta=momenta, n=n)


@dataclass(frozen=True)
class BlockCheckResult:
    """Deviations of U^dag H U from the direct sum of Bloch blocks."""

    offblock: float
    blockdev: float
    ordering: str

    @property
    def passed(self) -> bool:
        return max(self.offblock, self.blockdev) < 1e-10


# The last transform's diagonal blocks and off-block maximum, with weak references to the
# read-only H and U it came from: block_check and spectral_mismatch on one lattice share one
# O(N^6) product, and a freed array's reference is dead, so a new array reusing its id is not it.
_last_transform = (None, None, None, None)


# Rows of U^dag H U formed at a time.  Even, so no 2x2 block is split, and at least
# 2N^2 = 72, so the N = 6 transform is the whole product in one.  At N = 24 it cuts the
# 1152 rows into four blocks whose temporaries take a quarter of a dense matrix each;
# 256 rows left a ragged 128-row block and ran 2-3 % slower, 128 rows slower still.
_ROW_BLOCK = 288


def _transform(h: np.ndarray, u: np.ndarray):
    """The 2x2 diagonal blocks of U^dag H U, shape (N^2, 2, 2), and the largest
    modulus of an entry outside them.

    The product is formed one block of ``_ROW_BLOCK`` rows at a time, so H, U
    and one row block are all it holds."""
    dim = u.shape[0]
    nk = dim // 2
    blocks = np.empty((nk, 2, 2), dtype=complex)
    peaks = []
    for start in range(0, dim, _ROW_BLOCK):
        m = u[:, start : start + _ROW_BLOCK].conj().T @ h @ u
        local = np.arange(len(m) // 2)
        i = start // 2 + local  # the momenta of these rows
        blocks[i] = m.reshape(-1, 2, nk, 2)[local, :, i, :]
        m.reshape(-1, 2, nk, 2)[local, :, i, :] = 0.0
        peaks.append(np.max(np.abs(m)))
    return blocks, float(np.max(peaks))


def _blocks(h: np.ndarray, basis: MomentumBasis):
    """:func:`_transform` of H and ``basis.u``, reused while both are the same read-only arrays."""
    global _last_transform
    u = basis.u
    if h.shape != u.shape:
        raise ValueError(f"H has shape {h.shape}, basis expects {u.shape}")
    # a writeable array, or a view whose base may be made writeable, is transformed every call
    frozen = all(a.flags.owndata and not a.flags.writeable for a in (h, u))
    last_h, last_u, blocks, offblock = _last_transform
    if not (frozen and last_h is not None and last_h() is h and last_u() is u):
        blocks, offblock = _transform(h, u)
        blocks.flags.writeable = False  # shared by every caller with this H and U
        if frozen:
            _last_transform = (weakref.ref(h), weakref.ref(u), blocks, offblock)
    return blocks, offblock


def _basis_field(params: ModelParams, basis: MomentumBasis):
    kx, ky = np.array([k.xy for k in basis.momenta]).T
    return bloch_field_grid(params, kx, ky)


def block_check(h: np.ndarray, basis: MomentumBasis, params: ModelParams) -> BlockCheckResult:
    """Transform H to the momentum basis and compare against h(k) blocks.

    offblock is the largest matrix element outside the 2x2 diagonal blocks;
    blockdev is the largest entrywise deviation of the blocks from the
    analytic Bloch matrices, minimized over the two possible sublattice
    orderings (reported as "AB" or "BA").
    """
    blocks, offblock = _blocks(h, basis)
    bx, by = _basis_field(params, basis)
    hk = np.moveaxis(np.array([[by, bx + 0j], [bx + 0j, -by]]), -1, 0)
    dev_ab = float(np.max(np.abs(blocks - hk)))
    dev_ba = float(np.max(np.abs(blocks - hk[:, ::-1, ::-1])))
    if dev_ab <= dev_ba:
        return BlockCheckResult(offblock=offblock, blockdev=dev_ab, ordering="AB")
    return BlockCheckResult(offblock=offblock, blockdev=dev_ba, ordering="BA")


def block_spectrum(h: np.ndarray, basis: MomentumBasis) -> np.ndarray:
    """All 2N^2 eigenvalues read off the transformed 2x2 blocks analytically.

    Entries 2i and 2i+1 are the pair of the block at ``basis.momenta[i]``.
    """
    blocks, _ = _blocks(h, basis)
    a, b, c, d = blocks[:, 0, 0], blocks[:, 0, 1], blocks[:, 1, 0], blocks[:, 1, 1]
    mean = 0.5 * (a + d)
    root = principal_sqrt(mean * mean - (a * d - b * c))
    return np.column_stack([mean + root, mean - root]).ravel()


def expected_spectrum(params: ModelParams, basis: MomentumBasis) -> np.ndarray:
    """+-E(k) over the finite momentum grid, in the order of :func:`block_spectrum`."""
    bx, by = _basis_field(params, basis)
    e = principal_sqrt(bx * bx + by * by)
    return np.column_stack([e, -e]).ravel()


def spectral_mismatch(h: np.ndarray, basis: MomentumBasis, params: ModelParams) -> float:
    """Max distance between each block's eigenvalue pair and +-E(k) at its momentum.

    Each pair is matched to (E, -E) in the better of its two orders: a sort
    is unstable when a +-E pair is purely imaginary up to rounding noise.
    """
    got = block_spectrum(h, basis).reshape(-1, 2)
    e = expected_spectrum(params, basis)[0::2]
    direct = np.maximum(np.abs(got[:, 0] - e), np.abs(got[:, 1] + e))
    crossed = np.maximum(np.abs(got[:, 0] + e), np.abs(got[:, 1] - e))
    return float(np.max(np.minimum(direct, crossed)))
