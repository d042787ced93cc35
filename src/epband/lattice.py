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
    hop = np.zeros((dim, dim), dtype=complex)
    onsite = np.zeros(dim, dtype=complex)
    for lam in (1, 2):
        for j in range(n):
            for l in range(n):
                here = site_index(lam, j, l, n)
                parity = -1.0 if (lam + j + l) % 2 else 1.0
                hop[here, site_index(lam, j + 1, l, n)] += params.J
                hop[here, site_index(lam, j, l + 1, n)] += params.J
                for nu in (1, -1):
                    hop[here, site_index(lam, j + 1, l + nu, n)] += params.t * parity
                onsite[here] = 1j * params.gamma * parity
    for j in range(n):
        for l in range(n):
            hop[site_index(1, j, l, n), site_index(2, j, l, n)] += params.T
    h = hop + hop.conj().T
    h[np.diag_indices(dim)] += onsite
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
    u = np.zeros((dim, dim), dtype=complex)
    momenta = []
    js, ls = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    even = (js + ls) % 2 == 0
    lam_a = np.where(even, 2, 1)
    lam_b = np.where(even, 1, 2)
    flat_a = (lam_a - 1) * n * n + js * n + ls
    flat_b = (lam_b - 1) * n * n + js * n + ls
    col = 0
    for mx in range(n):
        for my in range(n):
            kx = float(wrap_angle(2.0 * np.pi * mx / n))
            ky = float(wrap_angle(2.0 * np.pi * my / n))
            momenta.append(Momentum(kx, ky))
            phase = np.exp(1j * (kx * js + ky * ls)) / n
            u[flat_a.ravel(), col] = phase.ravel()
            u[flat_b.ravel(), col + 1] = phase.ravel()
            col += 2
    return MomentumBasis(u=u, momenta=tuple(momenta), n=n)


@dataclass(frozen=True)
class BlockCheckResult:
    """Deviations of U^dag H U from the direct sum of Bloch blocks."""

    offblock: float
    blockdev: float
    ordering: str

    @property
    def passed(self) -> bool:
        return max(self.offblock, self.blockdev) < 1e-10


def _blocks(h: np.ndarray, basis: MomentumBasis):
    """The 2x2 diagonal blocks of U^dag H U, shape (N^2, 2, 2), and U^dag H U without them."""
    dim = basis.u.shape[0]
    if h.shape != (dim, dim):
        raise ValueError(f"H has shape {h.shape}, basis expects {(dim, dim)}")
    m = basis.u.conj().T @ h @ basis.u
    nk = len(basis.momenta)
    i = np.arange(nk)
    blocks = m.reshape(nk, 2, nk, 2)[i, :, i, :]  # a copy
    m.reshape(nk, 2, nk, 2)[i, :, i, :] = 0.0
    return blocks, m


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
    blocks, off = _blocks(h, basis)
    offblock = float(np.max(np.abs(off)))
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
