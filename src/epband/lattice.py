"""Finite real-space Hamiltonian of the bilayer lattice and its block test.

Sites are labeled (lam, j, l) with layer lam in {1, 2} and 0-based cell
indices j, l in [0, N); boundaries are periodic.  The Hamiltonian per layer
has nearest-neighbor hopping J, diagonal hoppings t(-1)^(lam+j+l) to
(j+1, l+-1), and on-site gain/loss i*gamma*(-1)^(lam+j+l); the layers are
tied site-by-site with T.  The momentum basis built here block-diagonalizes
all of it into the 2x2 Bloch matrices of :mod:`epband.bloch`, which is the
cross-check between the lattice and the closed-form field.  H is returned
read-only, so the O(N^6) transform is formed once per lattice; copy H before
editing it.  The basis is the lattice size, and U is never held whole: the dense
working set is H plus one row block of U^dag H and one column block of U.
H is filled in place, and the transform keeps only the 2x2 diagonal blocks
of the products it forms.  Every block is compared in the basis's own
sublattice order, and every tolerance is in units of |J|.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass

import numpy as np

from .bloch import ModelParams, bloch_field_grid, principal_sqrt, zone_grid

__all__ = [
    "LatticeSize",
    "BlockCheckResult",
    "site_index",
    "build_realspace",
    "build_momentum_basis",
    "block_check",
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


def build_momentum_basis(size: LatticeSize) -> LatticeSize:
    """Plane-wave sublattice basis that block-diagonalizes the Hamiltonian.

    Sublattice A collects layer-2 sites on even j+l and layer-1 sites on odd
    j+l; B is the complement.  Columns are (1/N) exp(i(kx j + ky l)) on the
    corresponding sublattice support: column 2i is (k_i, A) and 2i+1 is (k_i, B), with k_i
    the i-th point of :func:`~epband.bloch.zone_grid` (N) in row-major order.  N is all
    the basis holds, so it is the size itself: the transform makes the columns of U from it.
    """
    return size


@dataclass(frozen=True)
class BlockCheckResult:
    """Deviations of U^dag H U from the direct sum of Bloch blocks, and the tolerance
    1e-10 |J| they are judged against: they are rounding errors relative to the couplings."""

    offblock: float
    blockdev: float
    tol: float

    @property
    def passed(self) -> bool:
        return max(self.offblock, self.blockdev) < self.tol


# The last transform's diagonal blocks and off-block maximum, with a weak reference to the
# read-only H they came from: block_check and spectral_mismatch on one lattice share one
# O(N^6) product, and a freed array's reference is dead, so a new array reusing its id is not it.
_last_transform = (None, None, None)


# Rows of U^dag H U formed at a time, and columns of U made at a time.  Even, so no 2x2
# block is split, and at least 2N^2 = 72, so the N = 6 transform is the whole product in
# one.  At N = 24 it cuts the 1152 rows into four blocks that take a quarter of a dense
# matrix each; 256 rows left a ragged 128-row block and ran 2-3 % slower, 128 rows slower still.
_ROW_BLOCK = 288


def _column_maker(n: int):
    """``columns(start, stop)``: columns start..stop of U as a fresh C-ordered array, for
    even start and stop, filled from one (N^2, N^2) table of exp(i(kx j + ky l)) / N
    whose rows are the momenta in basis order and whose columns are the sites (j, l)."""
    dim = 2 * n * n
    kx, ky = (k[:, :, None, None] for k in zone_grid(n))
    js, ls = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    table = np.empty((n, n, n * n), dtype=complex)
    # One kx row of momenta at a time, over (ky, j, l): freed (N^2, N^2) temporaries stay
    # resident on the heap and raise the peak RSS of an N = 6..24 sweep.
    for mx in range(n):
        table[mx] = (np.exp(1j * (kx[mx] * js + ky[mx] * ls)) / n).reshape(n, -1)
    table = table.reshape(n * n, n * n)
    even = ((js + ls) % 2 == 0).ravel()
    site = (js * n + ls).ravel()
    rows_a = np.where(even, n * n, 0) + site  # layer 2 on even j+l, layer 1 on odd
    rows_b = np.where(even, 0, n * n) + site

    def columns(start, stop):
        block = np.zeros((dim, stop - start), dtype=complex)
        phase = table[start // 2 : stop // 2].T
        block[rows_a, 0::2] = phase
        block[rows_b, 1::2] = phase
        return block

    return columns


def _transform(h: np.ndarray, n: int):
    """The 2x2 diagonal blocks of U^dag H U, shape (N^2, 2, 2), and the largest
    modulus of an entry outside them.

    U is never held whole: its columns are made ``_ROW_BLOCK`` at a time.  Each row
    block of U^dag H is formed once and multiplied by every column block in turn, so
    H, the phase table, one row block and one column block are all it holds."""
    dim = 2 * n * n
    columns = _column_maker(n)
    spans = [(start, min(start + _ROW_BLOCK, dim)) for start in range(0, dim, _ROW_BLOCK)]
    blocks = np.empty((n * n, 2, 2), dtype=complex)
    peaks = []
    for row in spans:
        # U's columns for these rows, conjugated in place and transposed: an F-ordered
        # operand, which keeps the printed residues bit for bit at every even N up to 24
        left = columns(*row)
        left = np.conj(left, out=left).T @ h
        for col in spans:
            m = left @ columns(*col)
            if col == row:
                local = np.arange(len(m) // 2)
                i = row[0] // 2 + local  # the momenta of these rows
                blocks[i] = m.reshape(-1, 2, len(local), 2)[local, :, local, :]
                m.reshape(-1, 2, len(local), 2)[local, :, local, :] = 0.0
            peaks.append(np.max(np.abs(m)))
    return blocks, float(np.max(peaks))


def _blocks(h: np.ndarray, basis: LatticeSize):
    """:func:`_transform` of H, reused while H is the same read-only array."""
    global _last_transform
    dim = basis.dim
    if h.shape != (dim, dim):
        raise ValueError(f"H has shape {h.shape}, basis expects {(dim, dim)}")
    # a writeable array, or a view whose base may be made writeable, is transformed every call
    frozen = h.flags.owndata and not h.flags.writeable
    last_h, blocks, offblock = _last_transform
    if not (frozen and last_h is not None and last_h() is h):
        blocks, offblock = _transform(h, basis.n)
        blocks.flags.writeable = False  # shared by every caller with this H
        if frozen:
            _last_transform = (weakref.ref(h), blocks, offblock)
    return blocks, offblock


def _basis_field(params: ModelParams, n: int):
    """(Bx, By) at the momenta of the basis, in its order."""
    return bloch_field_grid(params, *(k.ravel() for k in zone_grid(n)))


def block_check(h: np.ndarray, basis: LatticeSize, params: ModelParams) -> BlockCheckResult:
    """Transform H to the momentum basis and compare against h(k) blocks.

    offblock is the largest matrix element outside the 2x2 diagonal blocks;
    blockdev is the largest entrywise deviation of the blocks from the
    analytic [[By, Bx], [Bx, -By]], in the basis's own sublattice order.
    """
    blocks, offblock = _blocks(h, basis)
    bx, by = _basis_field(params, basis.n)
    hk = np.moveaxis(np.array([[by, bx + 0j], [bx + 0j, -by]]), -1, 0)
    blockdev = float(np.max(np.abs(blocks - hk)))
    return BlockCheckResult(offblock=offblock, blockdev=blockdev, tol=1e-10 * abs(params.J))


def spectral_mismatch(h: np.ndarray, basis: LatticeSize, params: ModelParams) -> float:
    """Max distance between each block's eigenvalue pair and +-E(k) at its momentum.

    The pair is read off the block analytically, mean +- sqrt(mean^2 - det), and
    matched to (E, -E) in the better of its two orders: a sort is unstable when a
    +-E pair is purely imaginary up to rounding noise.  Blocks and field are squared in
    units of |J|, so no scale of the couplings overflows them, and the distance is scaled back.
    """
    blocks = _blocks(h, basis)[0] / abs(params.J)
    a, b, c, d = blocks[:, 0, 0], blocks[:, 0, 1], blocks[:, 1, 0], blocks[:, 1, 1]
    mean = 0.5 * (a + d)
    root = principal_sqrt(mean * mean - (a * d - b * c))
    plus, minus = mean + root, mean - root
    bx, by = (f / abs(params.J) for f in _basis_field(params, basis.n))
    e = principal_sqrt(bx * bx + by * by)
    direct = np.maximum(np.abs(plus - e), np.abs(minus + e))
    crossed = np.maximum(np.abs(plus + e), np.abs(minus - e))
    return float(np.max(np.minimum(direct, crossed))) * abs(params.J)
