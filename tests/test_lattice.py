"""Real-space bilayer Hamiltonian against its momentum-space blocks.

ModelParams rejects J = 0, so the single-coupling patterns are isolated by
linearity: the builder is affine in each coupling and H(J, 0, 0, 0) serves
as the subtractable J-only reference.  The builder returns H's entries; the
dense H made from them here is the reference at N <= 12.
"""

import cmath
import dataclasses
import math
import tracemalloc
import weakref

import numpy as np
import pytest

from epband import (
    LatticeSize,
    ModelParams,
    block_check,
    build_momentum_basis,
    build_realspace,
    spectral_mismatch,
)
from epband import lattice
from epband.bloch import Momentum, bloch_field_grid, principal_sqrt, wrap_angle, zone_grid
from epband.lattice import site_index

ANCHOR = ModelParams(J=1.0, T=-1.5, t=0.5, gamma=0.5)


def _dense(h):
    # the dense reference: H from its entries, each (row, col) set once, every other entry 0
    dim = h.size.dim
    assert len(np.unique(h.rows * dim + h.cols)) == len(h.vals)
    out = np.zeros((dim, dim), dtype=complex)
    out[h.rows, h.cols] = h.vals
    return out


def test_size_validation():
    assert LatticeSize(4).dim == 32
    assert LatticeSize(6).dim == 72
    with pytest.raises(ValueError):
        LatticeSize(2)
    with pytest.raises(ValueError):
        LatticeSize(5)


def test_size_must_be_an_integer():
    # LatticeSize(6.0) was built with dim 72.0, and build_realspace then raised a bare
    # TypeError ("'float' object cannot be interpreted as an integer")
    for bad in (6.0, np.float64(6.0), "6", None):
        with pytest.raises(ValueError, match="must be an integer"):
            LatticeSize(bad)
    size = LatticeSize(np.int64(6))  # any integer type is taken, and stored as an int
    assert size == LatticeSize(6) and type(size.n) is int and size.dim == 72
    assert _dense(build_realspace(ANCHOR, size)).tobytes() \
        == _dense(build_realspace(ANCHOR, LatticeSize(6))).tobytes()


def test_builder_affine_in_couplings():
    # H(J,T,t,g) - H(J,0,0,0) carries no J term; doubling every coupling
    # doubles the matrix.  Together these pin the all-zero limit to 0.
    size = LatticeSize(4)
    h1 = _dense(build_realspace(ANCHOR, size))
    h2 = _dense(build_realspace(ModelParams(2.0, -3.0, 1.0, 1.0), size))
    np.testing.assert_allclose(h2, 2.0 * h1, atol=1e-14)


def test_nearest_neighbour_hopping_only():
    # J alone: four planar neighbours per site, all within the same layer
    n = 4
    h = _dense(build_realspace(ModelParams(1.0, 0.0, 0.0, 0.0), LatticeSize(n)))
    np.testing.assert_allclose(h, h.conj().T, atol=1e-15)
    for row in range(2 * n * n):
        nz = np.flatnonzero(np.abs(h[row]) > 1e-15)
        assert len(nz) == 4
        np.testing.assert_allclose(h[row, nz], 1.0, atol=1e-15)
        layer = row // (n * n)
        assert np.all(nz // (n * n) == layer)


def test_gain_loss_staggering():
    n = 4
    gamma = 0.5
    base = _dense(build_realspace(ModelParams(1.0, 0.0, 0.0, 0.0), LatticeSize(n)))
    h = _dense(build_realspace(ModelParams(1.0, 0.0, 0.0, gamma), LatticeSize(n))) - base
    assert np.count_nonzero(h - np.diag(np.diag(h))) == 0
    for lam in (1, 2):
        for j in range(n):
            for l in range(n):
                want = 1j * gamma * (-1.0 if (lam + j + l) % 2 else 1.0)
                assert h[site_index(lam, j, l, n), site_index(lam, j, l, n)] == want


def test_interlayer_coupling_pairs_sites():
    n = 4
    base = _dense(build_realspace(ModelParams(1.0, 0.0, 0.0, 0.0), LatticeSize(n)))
    h = _dense(build_realspace(ModelParams(1.0, 2.0, 0.0, 0.0), LatticeSize(n))) - base
    assert np.count_nonzero(h) == 2 * n * n
    for j in range(n):
        for l in range(n):
            assert h[site_index(1, j, l, n), site_index(2, j, l, n)] == 2.0
            assert h[site_index(2, j, l, n), site_index(1, j, l, n)] == 2.0


def test_anti_hermitian_part_is_gain_loss_diagonal():
    h = _dense(build_realspace(ANCHOR, LatticeSize(6)))
    anti = 0.5 * (h - h.conj().T)
    assert np.count_nonzero(anti - np.diag(np.diag(anti))) == 0
    np.testing.assert_allclose(np.abs(np.diag(anti)), ANCHOR.gamma, atol=1e-15)


def _sublattice_tables(n):
    # each sublattice's rows of H and its plane-wave table: A's is the transform's table, and
    # B's is A's with its sites rolled, as the transform rolls it
    rows, table = lattice._sublattices(n)
    return rows, (table, np.roll(table, n * n // 2, axis=0))


def _dense_u(n):
    # U from the transform's tables: column 2i + a is table a's column i on sublattice a's rows
    rows, tables = _sublattice_tables(n)
    u = np.zeros((2 * n * n, 2 * n * n), dtype=complex)
    for a in (0, 1):
        u[rows[a], a::2] = tables[a]
    return u


def test_basis_unitary():
    u = _dense_u(4)
    np.testing.assert_allclose(u.conj().T @ u, np.eye(u.shape[0]), atol=1e-12)


def test_basis_holds_no_array():
    # no array and no labels: the transform makes U's columns, and the checks the zone grid,
    # from n, so the basis is the size itself
    size = LatticeSize(24)
    assert build_momentum_basis(size) is size and vars(size) == {"n": 24}


def test_basis_zero_momentum_column():
    # k = 0, sublattice A: amplitude 1/N on even-(j+l) sites of layer 2 and
    # odd-(j+l) sites of layer 1, zero elsewhere
    n = 4
    kx, ky = (k.ravel() for k in zone_grid(n))
    (k0,) = np.flatnonzero((kx == 0.0) & (ky == 0.0))
    col = _dense_u(n)[:, 2 * k0]
    for lam in (1, 2):
        for j in range(n):
            for l in range(n):
                on_a = ((j + l) % 2 == 0) == (lam == 2)
                want = 1.0 / n if on_a else 0.0
                assert col[site_index(lam, j, l, n)] == pytest.approx(want, abs=1e-14)


def test_basis_rejects_small_lattice():
    with pytest.raises(ValueError):
        build_momentum_basis(LatticeSize(2))


def test_block_check_anchor():
    size = LatticeSize(6)
    h = build_realspace(ANCHOR, size)
    basis = build_momentum_basis(size)
    res = block_check(h, basis, ANCHOR)
    assert res.offblock < 1e-10
    assert res.blockdev < 1e-10
    assert res.passed


def test_spectral_multiset_matches_bloch():
    size = LatticeSize(6)
    h = build_realspace(ANCHOR, size)
    basis = build_momentum_basis(size)
    assert spectral_mismatch(h, basis, ANCHOR) < 1e-10


# N divisible by 4 puts the hybrid-EP momenta (0, +-pi/2) on the grid, where
# the block eigenvalues are only accurate to sqrt(eps): spectralMismatch is
# about 1e-8 against the 1e-10 gate.  ROADMAP item 3 asks for a fix in the
# program (compare trace and determinant), not in the gate.
_EP_ON_GRID = pytest.mark.xfail(reason="ROADMAP item 3: EP momenta on the grid at N = 0 (mod 4)")


@pytest.mark.parametrize(
    "n", [pytest.param(4, marks=_EP_ON_GRID), 6, pytest.param(8, marks=_EP_ON_GRID), 10,
          pytest.param(12, marks=_EP_ON_GRID)]
)
def test_anchor_oracle_passes(n):
    size = LatticeSize(n)
    h = build_realspace(ANCHOR, size)
    basis = build_momentum_basis(size)
    assert block_check(h, basis, ANCHOR).passed
    assert spectral_mismatch(h, basis, ANCHOR) < 1e-10


def test_vectorized_blocks_match_loop_reference():
    # one block, one momentum at a time, with the scalar math module and a numerical
    # eigensolver; the blocks are compared in the A-then-B order the basis fixes
    rng = np.random.default_rng(12)
    p = ModelParams(1.0, rng.uniform(-3, 3), rng.uniform(-1, 1), rng.uniform(-2, 2))
    size = LatticeSize(6)
    h = build_realspace(p, size)
    basis = build_momentum_basis(size)
    u, momenta = _loop_basis(6)
    m = u.conj().T @ _dense(h) @ u
    outside = np.abs(m)
    blockdev = mismatch = 0.0
    for i, k in enumerate(momenta):
        block = m[2 * i : 2 * i + 2, 2 * i : 2 * i + 2]
        outside[2 * i : 2 * i + 2, 2 * i : 2 * i + 2] = 0.0
        cx, cy = math.cos(k.kx), math.cos(k.ky)
        bx = 2.0 * p.J * (cx + cy) + p.T
        by = 4.0 * p.t * cx * cy + 1j * p.gamma
        blockdev = max(blockdev, np.max(np.abs(block - np.array([[by, bx], [bx, -by]]))))
        e = cmath.sqrt(bx * bx + by * by)
        pair = np.linalg.eigvals(block)
        mismatch = max(mismatch, min(max(abs(pair[0] - e), abs(pair[1] + e)),
                                     max(abs(pair[0] + e), abs(pair[1] - e))))
    res = block_check(h, basis, p)
    assert res.offblock == np.max(outside)
    assert res.blockdev == pytest.approx(blockdev, abs=1e-14)
    assert spectral_mismatch(h, basis, p) == pytest.approx(mismatch, abs=1e-12)


def _zone_energies(p, n):
    # E(k) on the n x n zone grid
    bx, by = bloch_field_grid(p, *zone_grid(n))
    return principal_sqrt(bx * bx + by * by)


def test_spectral_mismatch_is_per_momentum():
    # J -> -J moves every block to k + (pi, pi): the spectrum is the same multiset, but
    # each block meets the wrong +-E(k).  Both checks must see it, also when the transform
    # of the same H is already at hand from a passing check
    size = LatticeSize(6)
    flipped = ModelParams(-ANCHOR.J, ANCHOR.T, ANCHOR.t, ANCHOR.gamma)
    np.testing.assert_allclose(np.roll(_zone_energies(flipped, 6), (3, 3), axis=(0, 1)),
                               _zone_energies(ANCHOR, 6), rtol=0, atol=1e-14)
    h = build_realspace(flipped, size)
    basis = build_momentum_basis(size)
    assert block_check(h, basis, flipped).passed
    assert spectral_mismatch(h, basis, flipped) < 1e-10
    assert spectral_mismatch(h, basis, ANCHOR) > 1.0
    assert not block_check(h, basis, ANCHOR).passed


@pytest.mark.parametrize("n", [6, 10])
def test_block_check_compares_in_the_basis_sublattice_order(n):
    # (t, gamma) -> (-t, -gamma) flips By, which swapping A and B would undo: a check that
    # tried both orders let this lattice pass against the anchor
    flipped = ModelParams(ANCHOR.J, ANCHOR.T, -ANCHOR.t, -ANCHOR.gamma)
    h = build_realspace(flipped, LatticeSize(n))
    basis = build_momentum_basis(LatticeSize(n))
    assert block_check(h, basis, flipped).passed
    res = block_check(h, basis, ANCHOR)
    assert res.offblock < 1e-10 and res.blockdev > 1.0 and not res.passed


def _loop_realspace(p, n):
    # reference: one site at a time
    dim = 2 * n * n
    hop = np.zeros((dim, dim), dtype=complex)
    onsite = np.zeros(dim, dtype=complex)
    for lam in (1, 2):
        for j in range(n):
            for l in range(n):
                here = site_index(lam, j, l, n)
                parity = -1.0 if (lam + j + l) % 2 else 1.0
                hop[here, site_index(lam, j + 1, l, n)] += p.J
                hop[here, site_index(lam, j, l + 1, n)] += p.J
                for nu in (1, -1):
                    hop[here, site_index(lam, j + 1, l + nu, n)] += p.t * parity
                onsite[here] = 1j * p.gamma * parity
    for j in range(n):
        for l in range(n):
            hop[site_index(1, j, l, n), site_index(2, j, l, n)] += p.T
    h = hop + hop.conj().T
    h[np.diag_indices(dim)] += onsite
    return h


def _loop_basis(n):
    # reference: one momentum at a time
    dim = 2 * n * n
    u = np.zeros((dim, dim), dtype=complex)
    momenta = []
    js, ls = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    even = (js + ls) % 2 == 0
    flat_a = (np.where(even, 2, 1) - 1) * n * n + js * n + ls
    flat_b = (np.where(even, 1, 2) - 1) * n * n + js * n + ls
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
    return u, tuple(momenta)


@pytest.mark.parametrize("n", [4, 6, 8, 10, 12])
def test_builders_byte_identical_to_site_loops(n):
    # byte equality also pins the sign of every zero, which t = -0.0 and
    # gamma = -0.0 put into the hoppings and the diagonal
    rng = np.random.default_rng(100 + n)
    draws = [ModelParams(rng.uniform(-2, 2), rng.uniform(-3, 3), rng.uniform(-1, 1),
                         rng.uniform(-2, 2)) for _ in range(3)]
    draws.append(ModelParams(-1.0, 0.0, -0.0, -0.0))
    for p in draws:
        assert _dense(build_realspace(p, LatticeSize(n))).tobytes() \
            == _loop_realspace(p, n).tobytes()
    u, momenta = _loop_basis(n)
    assert _dense_u(n).tobytes() == u.tobytes()
    # the zone grid the checks read labels the columns as the loop does, bit for bit
    kx, ky = (k.ravel().tolist() for k in zone_grid(n))
    assert list(zip(kx, ky)) == [m.xy for m in momenta]
    # each sublattice's table is U's columns of that sublattice restricted to its rows, which
    # are in increasing order, bit for bit
    rows, tables = _sublattice_tables(n)
    for a in (0, 1):
        assert np.all(np.diff(rows[a]) > 0)
        assert tables[a].tobytes() == u[rows[a], a::2].tobytes()


def _dense_peak(fn):
    # peak of the heap traced while fn runs, in dense (2N^2)^2 complex matrices at N = 24
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        start, _ = tracemalloc.get_traced_memory()
        fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return (peak - start) / (LatticeSize(24).dim ** 2 * 16)


def test_builder_holds_no_dense_matrix():
    # H is its 10 entries per row: 11,520 of them at N = 24, 1.7 % of a dense matrix
    assert _dense_peak(lambda: build_realspace(ANCHOR, LatticeSize(24))) < 0.05


def test_transform_holds_one_table_and_one_sublattice_pair(monkeypatch):
    # the builder, the basis and both oracles together hold H's entries, one quarter-size
    # table, one quarter-size sublattice pair of H and three 1/16-size chunk products: about
    # 0.71 of a dense matrix.  Neither H nor U is ever dense, and B's table never sits beside
    # a pair of H
    monkeypatch.setattr(lattice, "_last_transform", (None, None, None))
    size = LatticeSize(24)

    def oracle():
        h = build_realspace(ANCHOR, size)
        basis = build_momentum_basis(size)
        return block_check(h, basis, ANCHOR), spectral_mismatch(h, basis, ANCHOR)

    assert _dense_peak(oracle) < 0.75


@pytest.mark.parametrize("p", [ANCHOR, ModelParams(1.0, 0.0, -0.0, 0.0),
                               ModelParams(-2.0, 1.3, -0.7, -0.3)])
@pytest.mark.parametrize("n", [4, 6, 24])
def test_entries_are_each_set_once_ten_per_row(n, p):
    # each (row, col) once, zero couplings included as explicit +0.0 entries, and nbytes
    # counts the three arrays
    h = build_realspace(p, LatticeSize(n))
    dim = LatticeSize(n).dim
    assert h.size == LatticeSize(n) and len(h.vals) == 10 * dim
    assert np.array_equal(np.bincount(h.rows, minlength=dim), np.full(dim, 10))
    assert len(np.unique(h.rows * dim + h.cols)) == len(h.vals)
    parts = np.concatenate([h.vals.real, h.vals.imag])
    assert not np.signbit(parts[parts == 0.0]).any()
    assert h.nbytes == h.rows.nbytes + h.cols.nbytes + h.vals.nbytes == 10 * dim * 32


def test_basis_of_another_size_is_refused():
    h = build_realspace(ANCHOR, LatticeSize(6))
    with pytest.raises(ValueError, match=r"of LatticeSize\(n=6\), basis is of LatticeSize\(n=4"):
        block_check(h, build_momentum_basis(LatticeSize(4)), ANCHOR)


@pytest.mark.parametrize("chunk", [None, 48, 45])
@pytest.mark.parametrize("n", [10, 12, 14])
def test_row_blocks_match_dense_transform(monkeypatch, n, chunk):
    # the module's chunk of momenta splits N = 14 in two, the last chunk short; 48 momenta split
    # N = 12 evenly and N = 10 and 14 unevenly, 45 split every N^2 unevenly
    if chunk is not None:
        monkeypatch.setattr(lattice, "_CHUNK", chunk)
    rng = np.random.default_rng(200 + n)
    p = ModelParams(1.0, rng.uniform(-3, 3), rng.uniform(-1, 1), rng.uniform(-2, 2))
    h = build_realspace(p, LatticeSize(n))
    u, _ = _loop_basis(n)
    m = u.conj().T @ _dense(h) @ u
    nk = n * n
    i = np.arange(nk)
    want = m.reshape(nk, 2, nk, 2)[i, :, i, :]
    m.reshape(nk, 2, nk, 2)[i, :, i, :] = 0.0
    blocks, offblock = lattice._transform(h, n)
    np.testing.assert_allclose(blocks, want, rtol=0, atol=1e-13)
    assert offblock == pytest.approx(np.max(np.abs(m)), abs=1e-13)


def _counted_transforms(monkeypatch):
    calls = []
    transform = lattice._transform

    def counted(h, n):
        calls.append(h.size)
        return transform(h, n)

    monkeypatch.setattr(lattice, "_transform", counted)
    monkeypatch.setattr(lattice, "_last_transform", (None, None, None))
    return calls


def _flip_bond(h, a, b):
    # negate the entries (a, b) and (b, a) of H in place: its vals must be writeable
    at = ((h.rows == a) & (h.cols == b)) | ((h.rows == b) & (h.cols == a))
    assert np.count_nonzero(at) == 2
    h.vals[at] = -h.vals[at]


def _writeable_copy(h):
    return dataclasses.replace(h, vals=h.vals.copy())


def _bent(h, a, b):
    # a read-only copy of H with one bond flipped
    bent = _writeable_copy(h)
    _flip_bond(bent, a, b)
    bent.vals.flags.writeable = False
    return bent


def _bond(n):
    return site_index(1, 2, 3, n), site_index(1, 2, 4, n)


def test_one_transform_per_lattice(monkeypatch):
    calls = _counted_transforms(monkeypatch)
    size = LatticeSize(6)
    h = build_realspace(ANCHOR, size)
    basis = build_momentum_basis(size)
    check = block_check(h, basis, ANCHOR)
    mismatch = spectral_mismatch(h, basis, ANCHOR)
    assert len(calls) == 1
    # a copy with writeable entries is transformed on its own and leaves the lattice's
    # transform in place
    assert block_check(_writeable_copy(h), basis, ANCHOR) == check
    assert len(calls) == 2
    assert spectral_mismatch(h, basis, ANCHOR) == mismatch
    assert len(calls) == 2
    # the transform is H's alone: a basis built again shares it
    assert block_check(h, build_momentum_basis(size), ANCHOR) == check
    assert len(calls) == 2
    # a new lattice is a new transform, and the old one is then formed again
    block_check(build_realspace(ANCHOR, LatticeSize(4)), build_momentum_basis(LatticeSize(4)),
                ANCHOR)
    assert len(calls) == 3
    assert spectral_mismatch(h, basis, ANCHOR) == mismatch
    assert len(calls) == 4
    # the memo holds no lattice alive
    held = weakref.ref(h)
    del h
    assert held() is None


def test_builder_outputs_are_read_only():
    size = LatticeSize(4)
    h = build_realspace(ANCHOR, size)
    for entries in (h.rows, h.cols, h.vals):
        with pytest.raises(ValueError, match="read-only"):
            entries[0] = 1
        with pytest.raises(ValueError, match="read-only"):
            entries *= 2
        with pytest.raises(ValueError):
            entries[:].flags.writeable = True  # nor through a view
    with pytest.raises(dataclasses.FrozenInstanceError):
        h.vals = h.vals.copy()  # nor by swapping an array
    assert _dense(build_realspace(ANCHOR, size)).tobytes() == _dense(h).tobytes()


def test_transform_follows_in_place_changes(monkeypatch):
    calls = _counted_transforms(monkeypatch)
    size = LatticeSize(6)
    a, b = _bond(size.n)
    h = build_realspace(ANCHOR, size)
    basis = build_momentum_basis(size)
    check = block_check(h, basis, ANCHOR)
    mismatch = spectral_mismatch(h, basis, ANCHOR)
    bent = _bent(h, a, b)
    bent_check = block_check(bent, basis, ANCHOR)
    bent_mismatch = spectral_mismatch(bent, basis, ANCHOR)
    assert check.passed and mismatch < 1e-10
    assert bent_check.offblock > 1e-3 and bent_mismatch != mismatch
    assert len(calls) == 2
    # writeable entries changed in place between calls: a fresh transform on every call
    w = _writeable_copy(h)
    assert block_check(w, basis, ANCHOR) == check
    _flip_bond(w, a, b)
    assert spectral_mismatch(w, basis, ANCHOR) == bent_mismatch
    assert block_check(w, basis, ANCHOR) == bent_check
    _flip_bond(w, a, b)
    assert spectral_mismatch(w, basis, ANCHOR) == mismatch
    assert len(calls) == 6
    # a read-only view of them follows its base
    view = w.vals[:]
    view.flags.writeable = False
    v = dataclasses.replace(w, vals=view)
    assert block_check(v, basis, ANCHOR) == check
    _flip_bond(w, a, b)
    assert block_check(v, basis, ANCHOR) == bent_check
    # the builder's own entries with their writes enabled again
    assert block_check(h, basis, ANCHOR) == check
    h.vals.flags.writeable = True
    _flip_bond(h, a, b)
    assert spectral_mismatch(h, basis, ANCHOR) == bent_mismatch
    assert block_check(h, basis, ANCHOR) == bent_check
    _flip_bond(h, a, b)
    assert block_check(h, basis, ANCHOR) == check
    # and the columns: an entry moved to another column, then moved back
    h.vals.flags.writeable = False
    assert block_check(h, basis, ANCHOR) == check
    h.cols.flags.writeable = True
    assert (h.rows[0], h.cols[0]) == (0, 0) and not np.any((h.rows == 0) & (h.cols == 2))
    h.cols[0] = 2  # row 0's diagonal entry to (0, 2), which holds no coupling
    assert not block_check(h, basis, ANCHOR).passed
    h.cols[0] = 0
    assert block_check(h, basis, ANCHOR) == check


def test_rebuilt_lattice_gets_its_own_transform(monkeypatch):
    # a read-only lattice freed and rebuilt with other couplings at the same N; the new record
    # here mostly takes the freed one's id, which must not bring back the freed transform
    calls = _counted_transforms(monkeypatch)
    size = LatticeSize(6)
    couplings = (ANCHOR, ModelParams(J=1.0, T=0.7, t=-0.3, gamma=1.1))
    basis = build_momentum_basis(size)
    built = [build_realspace(p, size) for p in couplings]
    want = [(block_check(_writeable_copy(h), basis, p),
             spectral_mismatch(_writeable_copy(h), basis, p))
            for h, p in zip(built, couplings)]
    assert len(calls) == 4 and want[0] != want[1] and all(c.passed for c, _ in want)
    for i in (0, 1, 0, 1, 1, 0, 1, 0):
        src = built[i]
        h = lattice.RealSpaceH(size, *(np.array(x) for x in (src.rows, src.cols, src.vals)))
        for x in (h.rows, h.cols, h.vals):
            x.flags.writeable = False
        assert (block_check(h, basis, couplings[i]), spectral_mismatch(h, basis, couplings[i])) \
            == want[i]
        del h
    assert len(calls) == 4 + 8


def test_corrupted_hopping_detected():
    # one J bond flipped: the defect leaks into every momentum block with
    # weight 2J/N^2, so N = 4 keeps it above the 0.1 bar
    size = LatticeSize(4)
    h = _bent(build_realspace(ANCHOR, size), site_index(1, 0, 0, size.n),
              site_index(1, 1, 0, size.n))
    res = block_check(h, build_momentum_basis(size), ANCHOR)
    assert res.offblock > 0.1
    assert not res.passed


def test_corrupted_hopping_detected_n6():
    size = LatticeSize(6)
    h = _bent(build_realspace(ANCHOR, size), *_bond(size.n))
    res = block_check(h, build_momentum_basis(size), ANCHOR)
    assert not res.passed
    assert res.offblock > 1e-3


@pytest.mark.parametrize("n", [4, 6, 8])
def test_block_check_random_params(n):
    rng = np.random.default_rng(n)
    p = ModelParams(
        J=1.0,
        T=rng.uniform(-3, 3),
        t=rng.uniform(-1, 1),
        gamma=rng.uniform(-2, 2),
    )
    size = LatticeSize(n)
    h = build_realspace(p, size)
    basis = build_momentum_basis(size)
    assert block_check(h, basis, p).passed
    assert spectral_mismatch(h, basis, p) < 1e-10
