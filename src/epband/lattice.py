"""Finite real-space Hamiltonian of the bilayer lattice and its block test.

Sites are labeled (lam, j, l) with layer lam in {1, 2} and 0-based cell
indices j, l in [0, N); boundaries are periodic.  The Hamiltonian per layer
has nearest-neighbor hopping J, diagonal hoppings t(-1)^(lam+j+l) to
(j+1, l+-1), and on-site gain/loss i*gamma*(-1)^(lam+j+l); the layers are
tied site-by-site with T.  The momentum basis built here block-diagonalizes
all of it into the 2x2 Bloch matrices of :mod:`epband.bloch`, which is the
cross-check between the lattice and the closed-form field.
"""

from __future__ import annotations

import hashlib
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
    is the diagonal i*gamma*(-1)^(lam+j+l) staggering.
    """
    n = size.n
    dim = size.dim
    # Site arrays in site_index order: layer 0/1 for lam = 1/2, then (j, l).
    layer, j, l = np.indices((2, n, n)).reshape(3, dim)
    here = np.arange(dim)
    sign = np.where((layer + 1 + j + l) % 2, -1.0, 1.0)  # (-1)^(lam+j+l)

    def to(dj, dl):
        return layer * n * n + (j + dj) % n * n + (l + dl) % n

    # For N >= 4 every hopping has an entry of its own, so entries are set, not summed.
    hop = np.zeros((dim, dim), dtype=complex)
    hop[here, to(1, 0)] = params.J
    hop[here, to(0, 1)] = params.J
    hop[here, to(1, 1)] = params.t * sign
    hop[here, to(1, -1)] = params.t * sign
    hop[here[: n * n], here[: n * n] + n * n] = params.T
    h = hop + hop.conj().T
    h[np.diag_indices(dim)] += 1j * params.gamma * sign
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
    # N = 6..24 sweep by 17 %.
    for mx in range(n):
        phase = (np.exp(1j * (k[mx] * js + k[:, None, None] * ls)) / n).reshape(n, -1).T
        cols = 2 * (mx * n + np.arange(n))
        u[flat_a.reshape(-1, 1), cols] = phase
        u[flat_b.reshape(-1, 1), cols + 1] = phase
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


# The last transform's diagonal blocks and off-block maximum, keyed on the
# content of H and U: block_check and spectral_mismatch on the same lattice
# then share one O(N^6) product.  Neither matrix is referenced or copied.
_last_transform = (None, None, None)


def _content_key(*arrays) -> bytes:
    digest = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        digest.update(f"{a.shape}{a.dtype.str};".encode())
        digest.update(memoryview(a).cast("B"))
    return digest.digest()


def _transform(h: np.ndarray, u: np.ndarray):
    """The 2x2 diagonal blocks of U^dag H U, shape (N^2, 2, 2), and the largest
    modulus of an entry outside them."""
    m = u.conj().T @ h @ u
    nk = u.shape[0] // 2
    i = np.arange(nk)
    blocks = m.reshape(nk, 2, nk, 2)[i, :, i, :]  # a copy
    m.reshape(nk, 2, nk, 2)[i, :, i, :] = 0.0
    return blocks, float(np.max(np.abs(m)))


def _blocks(h: np.ndarray, basis: MomentumBasis):
    """:func:`_transform` of H and ``basis.u``, reused while both keep their content."""
    global _last_transform
    dim = basis.u.shape[0]
    if h.shape != (dim, dim):
        raise ValueError(f"H has shape {h.shape}, basis expects {(dim, dim)}")
    key = _content_key(h, basis.u)
    last_key, blocks, offblock = _last_transform
    if key != last_key:
        blocks, offblock = _transform(h, basis.u)
        blocks.flags.writeable = False  # shared by every caller with this H and U
        _last_transform = (key, blocks, offblock)
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
