"""Finite real-space Hamiltonian of the bilayer lattice and its block test.

Sites are labeled (lam, j, l) with layer lam in {1, 2} and 0-based cell
indices j, l in [0, N); boundaries are periodic.  The Hamiltonian per layer
has nearest-neighbor hopping J, diagonal hoppings t(-1)^(lam+j+l) to
(j+1, l+-1), and on-site gain/loss i*gamma*(-1)^(lam+j+l); the layers are
tied site-by-site with T.  The momentum basis built here block-diagonalizes
all of it into the 2x2 Bloch matrices of :mod:`epband.bloch`, which is the
cross-check between the lattice and the closed-form field.  H is never dense: it is a value,
its 10 entries per row in immutable arrays, that forms its O(N^6) transform on first use and
keeps it; edit a copy (``dataclasses.replace``), which forms its own.  Copies and pickles are
rebuilt through the constructor.  The basis is the lattice size, and U is never formed: each
of its columns lives on one sublattice, so the transform scatters each sublattice pair of H
from the entries and multiplies it by plane-wave tables, holding one table, one pair of H and
one chunk of products, and keeps only the 2x2 diagonal blocks.  Every block is compared
in the basis's own sublattice order; every tolerance is in units of |J|.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .bloch import (ModelParams, bloch_field_grid, in_units_of_j, integer, principal_sqrt,
                    zone_grid)

__all__ = [
    "LatticeSize",
    "RealSpaceH",
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
        object.__setattr__(self, "n", integer(self.n, "lattice size"))
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


@dataclass(frozen=True, eq=False)
class RealSpaceH:
    """H as its entries H[rows[i], cols[i]] = vals[i], each (row, col) once, in immutable arrays.

    Records compare and hash by identity, since each caches its own transform: two built
    from equal entries are unequal."""

    size: LatticeSize
    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray

    def __post_init__(self):
        entries = rows, cols, vals = [np.asarray(a) for a in (self.rows, self.cols, self.vals)]
        if any(a.ndim != 1 for a in entries) or not len(rows) == len(cols) == len(vals):
            raise ValueError("rows, cols and vals must be 1-D arrays of one length")
        if not all(np.issubdtype(a.dtype, np.integer) for a in (rows, cols)):
            raise ValueError(f"rows and cols must be integers, got {rows.dtype}, {cols.dtype}")
        dim = self.size.dim
        if len(rows) and not 0 <= min(rows.min(), cols.min()) <= max(rows.max(), cols.max()) < dim:
            raise ValueError(f"an entry lies outside the {dim} x {dim} H of {self.size!r}")
        at = rows.astype(np.int64, copy=False) * dim + cols.astype(np.int64, copy=False)
        at.sort(kind="stable")
        if np.any(at[1:] == at[:-1]):
            raise ValueError("an entry (row, col) is repeated")
        for name, a in zip(("rows", "cols", "vals"), entries):
            object.__setattr__(self, name, _immutable(a))

    def __reduce__(self):  # copies and pickles are rebuilt, and carry no transform
        return RealSpaceH, (self.size, self.rows, self.cols, self.vals)

    @property
    def nbytes(self) -> int:
        return self.rows.nbytes + self.cols.nbytes + self.vals.nbytes

    @cached_property
    def transform(self):
        """:func:`_transform` of H, formed on first use and kept: its blocks and offblock."""
        blocks, offblock = _transform(self, self.size.n)
        return _immutable(blocks), offblock


def _immutable(a: np.ndarray) -> np.ndarray:
    """A copy of ``a`` over a bytes buffer: no flag, view or base makes it writeable again."""
    return np.frombuffer(a.tobytes(), a.dtype).reshape(a.shape)


def build_realspace(params: ModelParams, size: LatticeSize) -> RealSpaceH:
    """Hamiltonian of the periodic bilayer as its 10 entries per row: the J, t and T hoppings
    (the Hermitian part) and the diagonal i*gamma*(-1)^(lam+j+l) staggering (anti-Hermitian)."""
    n = size.n
    # Site arrays in site_index order: layer 0/1 for lam = 1/2, then (j, l).
    layer, j, l = np.indices((2, n, n)).reshape(3, -1)
    here = np.arange(size.dim)
    sign = np.where((layer + 1 + j + l) % 2, -1.0, 1.0)  # (-1)^(lam+j+l)

    def to(dj, dl):
        return layer * n * n + (j + dj) % n * n + (l + dl) % n

    # For N >= 4 every hopping and its Hermitian partner have entries of their own.  The
    # hoppings are real; v + 0.0 stores a zero coupling (t = -0.0 included) as +0.0.
    rows, cols, vals = [here], [here], [0j + 1j * params.gamma * sign]
    for r, c, v in ((here, to(1, 0), params.J), (here, to(0, 1), params.J),
                    (here, to(1, 1), params.t * sign), (here, to(1, -1), params.t * sign),
                    (here[: n * n], here[n * n :], params.T)):
        rows, cols, vals = rows + [r, c], cols + [c, r], vals + 2 * [np.full(r.shape, v + 0.0)]
    return RealSpaceH(size, *(np.concatenate(a) for a in (rows, cols, vals)))


def build_momentum_basis(size: LatticeSize) -> LatticeSize:
    """Plane-wave sublattice basis that block-diagonalizes the Hamiltonian.

    Sublattice A collects layer-2 sites on even j+l and layer-1 sites on odd
    j+l; B is the complement.  Columns are (1/N) exp(i(kx j + ky l)) on the
    corresponding sublattice support: column 2i is (k_i, A) and 2i+1 is (k_i, B), with k_i
    the i-th point of :func:`~epband.bloch.zone_grid` (N) in row-major order.  N is all
    the basis holds, so it is the size itself: the transform makes its plane-wave tables from it.
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


# Momenta transformed at a time.  At N = 6 one chunk is the whole product; at N = 24 it cuts
# the 576 momenta into four, so a chunk's products take 1/16 of a dense matrix each.
_CHUNK = 144


def _sublattices(n: int):
    """Rows of H on sublattice A and on B, each in increasing row order, and the (N^2, N^2)
    table of exp(i(kx j + ky l)) / N whose rows are A's sites (j, l) in that order and whose
    columns are the momenta in basis order.  B's sites are A's with their halves swapped."""
    j, l = np.divmod(np.arange(n * n), n)
    sites = np.argsort((j + l + 1) % 2, kind="stable")  # odd j + l, then even
    layer = np.repeat([0, n * n], n * n // 2)  # the layer-1 rows come first
    rows = (layer + sites, layer + np.roll(sites, n * n // 2))
    kx, ky = zone_grid(n)
    table = np.empty((n * n, n * n), dtype=complex)
    # One kx row of momenta at a time: freed (N^2, N^2) temporaries stay resident on the heap
    # and raise the peak RSS of an N = 6..24 sweep.
    for mx in range(n):
        table[:, mx * n : (mx + 1) * n] = np.exp(1j * (kx[mx] * j[sites, None]
                                                        + ky[mx] * l[sites, None])) / n
    return rows, table


def _chunk(hab: np.ndarray, table: np.ndarray, shift: int, start: int, out: np.ndarray):
    """Rows start.. of Phi_a^dag H_ab Phi_b, with Phi_b the table and Phi_a it with its sites
    rolled by ``shift``: the diagonal goes into ``out``; the largest modulus off it is returned.
    A call of its own, so one chunk's products are freed before the next chunk's are made."""
    stop = min(start + _CHUNK, len(table))
    left = np.roll(table[:, start:stop], shift, axis=0)
    # conjugated in place and transposed: an F-ordered operand, which keeps the printed
    # residues bit for bit at N = 4, 6 and 8
    m = np.conj(left, out=left).T @ hab @ table
    i = np.arange(start, stop)  # the momenta of this chunk
    out[i] = m[i - start, i]
    m[i - start, i] = 0.0
    return np.max(np.abs(m))


def _transform(h: RealSpaceH, n: int):
    """The 2x2 diagonal blocks of U^dag H U, shape (N^2, 2, 2), and the largest modulus of an
    entry outside them: block (a, b) is Phi_a^dag H[rows_a, rows_b] Phi_b, over the rows where
    U's columns are nonzero, for the four sublattice pairs, ``_CHUNK`` momenta at a time."""
    nk = n * n
    rows, table = _sublattices(n)
    sub, at = np.divmod(np.argsort(np.concatenate(rows)), nk)  # each site's sublattice, row in it
    blocks = np.empty((nk, 2, 2), dtype=complex)
    peaks = []
    for b in (0, 1):
        if b:
            table = np.roll(table, nk // 2, axis=0)  # A's sites into B's order
        for a in (0, 1):
            hab = np.zeros((nk, nk), dtype=complex)
            pair = (sub[h.rows] == a) & (sub[h.cols] == b)
            hab[at[h.rows[pair]], at[h.cols[pair]]] = h.vals[pair]
            peaks += [_chunk(hab, table, nk // 2 * (a != b), start, blocks[:, a, b])
                      for start in range(0, nk, _CHUNK)]
            del hab  # not held beside two tables
    return blocks, float(np.max(peaks))


def _blocks(h: RealSpaceH, basis: LatticeSize):
    """H's transform, which block_check and spectral_mismatch on one record share."""
    if h.size != basis:
        raise ValueError(f"H is of {h.size!r}, basis is of {basis!r}")
    return h.transform


def _basis_field(params: ModelParams, n: int):
    """(Bx, By) at the momenta of the basis, in its order."""
    return bloch_field_grid(params, *(k.ravel() for k in zone_grid(n)))


def block_check(h: RealSpaceH, basis: LatticeSize, params: ModelParams) -> BlockCheckResult:
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


def spectral_mismatch(h: RealSpaceH, basis: LatticeSize, params: ModelParams) -> float:
    """Max distance between each block's eigenvalue pair and +-E(k) at its momentum.

    The pair is read off the block analytically, mean +- sqrt(mean^2 - det), and
    matched to (E, -E) in the better of its two orders: a sort is unstable when a
    +-E pair is purely imaginary up to rounding noise.  Blocks and field are squared in
    units of |J|, the field of :func:`~epband.bloch.in_units_of_j` couplings and the blocks,
    H's data rather than couplings, over |J|: no scale overflows them, and the distance is
    scaled back.
    """
    blocks = _blocks(h, basis)[0] / abs(params.J)
    a, b, c, d = blocks[:, 0, 0], blocks[:, 0, 1], blocks[:, 1, 0], blocks[:, 1, 1]
    mean = 0.5 * (a + d)
    root = principal_sqrt(mean * mean - (a * d - b * c))
    plus, minus = mean + root, mean - root
    bx, by = _basis_field(in_units_of_j(params), basis.n)
    e = principal_sqrt(bx * bx + by * by)
    direct = np.maximum(np.abs(plus - e), np.abs(minus + e))
    crossed = np.maximum(np.abs(plus + e), np.abs(minus - e))
    return float(np.max(np.minimum(direct, crossed))) * abs(params.J)
