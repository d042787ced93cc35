"""Real-space bilayer Hamiltonian against its momentum-space blocks.

ModelParams rejects J = 0, so the single-coupling patterns are isolated by
linearity: the builder is affine in each coupling and H(J, 0, 0, 0) serves
as the subtractable J-only reference.
"""

import cmath
import math
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
from epband.bloch import Momentum, wrap_angle
from epband.lattice import MomentumBasis, block_spectrum, expected_spectrum, site_index

ANCHOR = ModelParams(J=1.0, T=-1.5, t=0.5, gamma=0.5)


def test_size_validation():
    assert LatticeSize(4).dim == 32
    assert LatticeSize(6).dim == 72
    with pytest.raises(ValueError):
        LatticeSize(2)
    with pytest.raises(ValueError):
        LatticeSize(5)


def test_builder_affine_in_couplings():
    # H(J,T,t,g) - H(J,0,0,0) carries no J term; doubling every coupling
    # doubles the matrix.  Together these pin the all-zero limit to 0.
    size = LatticeSize(4)
    h1 = build_realspace(ANCHOR, size)
    h2 = build_realspace(ModelParams(2.0, -3.0, 1.0, 1.0), size)
    np.testing.assert_allclose(h2, 2.0 * h1, atol=1e-14)


def test_nearest_neighbour_hopping_only():
    # J alone: four planar neighbours per site, all within the same layer
    n = 4
    h = build_realspace(ModelParams(1.0, 0.0, 0.0, 0.0), LatticeSize(n))
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
    base = build_realspace(ModelParams(1.0, 0.0, 0.0, 0.0), LatticeSize(n))
    h = build_realspace(ModelParams(1.0, 0.0, 0.0, gamma), LatticeSize(n)) - base
    assert np.count_nonzero(h - np.diag(np.diag(h))) == 0
    for lam in (1, 2):
        for j in range(n):
            for l in range(n):
                want = 1j * gamma * (-1.0 if (lam + j + l) % 2 else 1.0)
                assert h[site_index(lam, j, l, n), site_index(lam, j, l, n)] == want


def test_interlayer_coupling_pairs_sites():
    n = 4
    base = build_realspace(ModelParams(1.0, 0.0, 0.0, 0.0), LatticeSize(n))
    h = build_realspace(ModelParams(1.0, 2.0, 0.0, 0.0), LatticeSize(n)) - base
    assert np.count_nonzero(h) == 2 * n * n
    for j in range(n):
        for l in range(n):
            assert h[site_index(1, j, l, n), site_index(2, j, l, n)] == 2.0
            assert h[site_index(2, j, l, n), site_index(1, j, l, n)] == 2.0


def test_anti_hermitian_part_is_gain_loss_diagonal():
    h = build_realspace(ANCHOR, LatticeSize(6))
    anti = 0.5 * (h - h.conj().T)
    assert np.count_nonzero(anti - np.diag(np.diag(anti))) == 0
    np.testing.assert_allclose(np.abs(np.diag(anti)), ANCHOR.gamma, atol=1e-15)


def test_basis_unitary():
    basis = build_momentum_basis(LatticeSize(4))
    u = basis.u
    np.testing.assert_allclose(u.conj().T @ u, np.eye(u.shape[0]), atol=1e-12)


def test_basis_zero_momentum_column():
    # k = 0, sublattice A: amplitude 1/N on even-(j+l) sites of layer 2 and
    # odd-(j+l) sites of layer 1, zero elsewhere
    n = 4
    basis = build_momentum_basis(LatticeSize(n))
    k0 = next(
        i for i, m in enumerate(basis.momenta) if abs(m.kx) < 1e-12 and abs(m.ky) < 1e-12
    )
    col = basis.u[:, 2 * k0]
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
_EP_ON_GRID = pytest.mark.xfail(
    strict=True, reason="ROADMAP item 3: EP momenta on the grid at N = 0 (mod 4)"
)


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
    # one block, one momentum at a time, with the scalar math module
    rng = np.random.default_rng(12)
    p = ModelParams(1.0, rng.uniform(-3, 3), rng.uniform(-1, 1), rng.uniform(-2, 2))
    size = LatticeSize(6)
    h = build_realspace(p, size)
    basis = build_momentum_basis(size)
    m = basis.u.conj().T @ h @ basis.u
    got, want = block_spectrum(h, basis), expected_spectrum(p, basis)
    outside = np.abs(m)
    dev_ab = dev_ba = mismatch = 0.0
    for i, k in enumerate(basis.momenta):
        block = m[2 * i : 2 * i + 2, 2 * i : 2 * i + 2]
        outside[2 * i : 2 * i + 2, 2 * i : 2 * i + 2] = 0.0
        cx, cy = math.cos(k.kx), math.cos(k.ky)
        bx = 2.0 * p.J * (cx + cy) + p.T
        by = 4.0 * p.t * cx * cy + 1j * p.gamma
        hk = np.array([[by, bx], [bx, -by]])
        dev_ab = max(dev_ab, np.max(np.abs(block - hk)))
        dev_ba = max(dev_ba, np.max(np.abs(block - hk[::-1, ::-1])))
        e = cmath.sqrt(bx * bx + by * by)
        np.testing.assert_allclose(np.abs(want[2 * i : 2 * i + 2]), abs(e), atol=1e-14)
        assert want[2 * i] == -want[2 * i + 1]
        pair = np.sort_complex(got[2 * i : 2 * i + 2])
        np.testing.assert_allclose(pair, np.sort_complex(np.linalg.eigvals(block)), atol=1e-12)
        mismatch = max(mismatch, min(max(abs(pair[0] - e), abs(pair[1] + e)),
                                     max(abs(pair[0] + e), abs(pair[1] - e))))
    res = block_check(h, basis, p)
    assert res.offblock == np.max(outside)
    assert res.blockdev == pytest.approx(min(dev_ab, dev_ba), abs=1e-14)
    assert res.ordering == ("AB" if dev_ab <= dev_ba else "BA")
    assert spectral_mismatch(h, basis, p) == pytest.approx(mismatch, abs=1e-14)


def test_spectral_mismatch_is_per_momentum():
    # relabelling the momenta keeps the spectrum as a multiset but pairs each
    # block with the wrong +-E(k); both checks must see it, also when the
    # transform of the same H and U is already at hand from a passing check
    size = LatticeSize(6)
    h = build_realspace(ANCHOR, size)
    basis = build_momentum_basis(size)
    assert block_check(h, basis, ANCHOR).passed
    shuffled = MomentumBasis(u=basis.u, momenta=basis.momenta[1:] + basis.momenta[:1], n=6)
    assert spectral_mismatch(h, shuffled, ANCHOR) > 0.1
    assert not block_check(h, shuffled, ANCHOR).passed


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
        assert build_realspace(p, LatticeSize(n)).tobytes() == _loop_realspace(p, n).tobytes()
    basis = build_momentum_basis(LatticeSize(n))
    u, momenta = _loop_basis(n)
    assert basis.u.tobytes() == u.tobytes()
    assert basis.momenta == momenta


def _counted_transforms(monkeypatch):
    calls = []
    transform = lattice._transform

    def counted(h, u):
        calls.append(h.shape)
        return transform(h, u)

    monkeypatch.setattr(lattice, "_transform", counted)
    monkeypatch.setattr(lattice, "_last_transform", (None, None, None, None))
    return calls


def _flip_bond(h, n):
    a, b = site_index(1, 2, 3, n), site_index(1, 2, 4, n)
    h[a, b] = -h[a, b]
    h[b, a] = -h[b, a]


def test_one_transform_per_lattice(monkeypatch):
    calls = _counted_transforms(monkeypatch)
    size = LatticeSize(6)
    h = build_realspace(ANCHOR, size)
    basis = build_momentum_basis(size)
    check = block_check(h, basis, ANCHOR)
    mismatch = spectral_mismatch(h, basis, ANCHOR)
    assert block_spectrum(h, basis).shape == (72,)
    assert len(calls) == 1
    # a writeable copy is transformed on its own and leaves the lattice's transform in place
    assert block_check(h.copy(), basis, ANCHOR) == check
    assert len(calls) == 2
    assert spectral_mismatch(h, basis, ANCHOR) == mismatch
    assert len(calls) == 2
    # H with another read-only U is another transform: one column's sign flips its block
    u = basis.u.copy()
    u[:, 0] = -u[:, 0]
    u.flags.writeable = False
    assert block_check(h, MomentumBasis(u=u, momenta=basis.momenta, n=6), ANCHOR).blockdev > 0.1
    assert len(calls) == 3
    # a new lattice is a new transform, and the old one is then formed again
    block_check(build_realspace(ANCHOR, LatticeSize(4)), build_momentum_basis(LatticeSize(4)),
                ANCHOR)
    assert len(calls) == 4
    assert spectral_mismatch(h, basis, ANCHOR) == mismatch
    assert len(calls) == 5
    # the memo holds no lattice alive
    held = weakref.ref(h), weakref.ref(basis.u)
    del h, basis
    assert [r() for r in held] == [None, None]


def test_builder_outputs_are_read_only():
    size = LatticeSize(4)
    h = build_realspace(ANCHOR, size)
    basis = build_momentum_basis(size)
    for a in (h, basis.u):
        with pytest.raises(ValueError, match="read-only"):
            a[0, 0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            a *= 2.0
        with pytest.raises(ValueError):
            a[:].flags.writeable = True  # nor through a view
    assert build_realspace(ANCHOR, size).tobytes() == h.tobytes()
    assert build_momentum_basis(size).u.tobytes() == basis.u.tobytes()


def test_transform_follows_in_place_changes(monkeypatch):
    calls = _counted_transforms(monkeypatch)
    size = LatticeSize(6)
    h = build_realspace(ANCHOR, size)
    basis = build_momentum_basis(size)
    check = block_check(h, basis, ANCHOR)
    mismatch = spectral_mismatch(h, basis, ANCHOR)
    bent = h.copy()
    _flip_bond(bent, size.n)
    bent.flags.writeable = False
    bent_check = block_check(bent, basis, ANCHOR)
    bent_mismatch = spectral_mismatch(bent, basis, ANCHOR)
    assert check.passed and mismatch < 1e-10
    assert bent_check.offblock > 1e-3 and bent_mismatch != mismatch
    assert len(calls) == 2
    # a writeable copy changed in place between calls: a fresh transform on every call
    w = h.copy()
    assert block_check(w, basis, ANCHOR) == check
    _flip_bond(w, size.n)
    assert spectral_mismatch(w, basis, ANCHOR) == bent_mismatch
    assert block_check(w, basis, ANCHOR) == bent_check
    _flip_bond(w, size.n)
    assert spectral_mismatch(w, basis, ANCHOR) == mismatch
    assert len(calls) == 6
    # a read-only view of it follows its base
    v = w[:]
    v.flags.writeable = False
    assert block_check(v, basis, ANCHOR) == check
    _flip_bond(w, size.n)
    assert block_check(v, basis, ANCHOR) == bent_check
    # the builder's own H with its writes enabled again
    assert block_check(h, basis, ANCHOR) == check
    h.flags.writeable = True
    _flip_bond(h, size.n)
    assert spectral_mismatch(h, basis, ANCHOR) == bent_mismatch
    assert block_check(h, basis, ANCHOR) == bent_check
    _flip_bond(h, size.n)
    assert block_check(h, basis, ANCHOR) == check
    # the basis too: flipping the sign of one column flips the off-diagonal entries of its
    # block, in a writeable copy of U and in the builder's U with its writes enabled again
    h = build_realspace(ANCHOR, size)
    for u in (basis.u.copy(), basis.u):
        changed = MomentumBasis(u=u, momenta=basis.momenta, n=size.n)
        assert block_check(h, changed, ANCHOR) == check
        u.flags.writeable = True
        u[:, 0] = -u[:, 0]
        assert block_check(h, changed, ANCHOR).blockdev > 0.1
        assert spectral_mismatch(h, changed, ANCHOR) == mismatch  # the pair keeps its values
        u[:, 0] = -u[:, 0]
        assert block_check(h, changed, ANCHOR) == check


def test_rebuilt_lattice_gets_its_own_transform(monkeypatch):
    # a read-only lattice freed and rebuilt with other couplings at the same N; the new array
    # here mostly takes the freed one's id, which must not bring back the freed transform
    calls = _counted_transforms(monkeypatch)
    size = LatticeSize(6)
    couplings = (ANCHOR, ModelParams(J=1.0, T=0.7, t=-0.3, gamma=1.1))
    basis = build_momentum_basis(size)
    built = [build_realspace(p, size) for p in couplings]
    want = [(block_check(h.copy(), basis, p), spectral_mismatch(h.copy(), basis, p))
            for h, p in zip(built, couplings)]
    assert len(calls) == 4 and want[0] != want[1] and all(c.passed for c, _ in want)
    for i in (0, 1, 0, 1, 1, 0, 1, 0):
        h = np.array(built[i])
        h.flags.writeable = False
        assert (block_check(h, basis, couplings[i]), spectral_mismatch(h, basis, couplings[i])) \
            == want[i]
        del h
    assert len(calls) == 4 + 8


def test_corrupted_hopping_detected():
    # one J bond flipped: the defect leaks into every momentum block with
    # weight 2J/N^2, so N = 4 keeps it above the 0.1 bar
    size = LatticeSize(4)
    h = build_realspace(ANCHOR, size).copy()
    a = site_index(1, 0, 0, size.n)
    b = site_index(1, 1, 0, size.n)
    h[a, b] = -h[a, b]
    h[b, a] = -h[b, a]
    res = block_check(h, build_momentum_basis(size), ANCHOR)
    assert res.offblock > 0.1
    assert not res.passed


def test_corrupted_hopping_detected_n6():
    size = LatticeSize(6)
    h = build_realspace(ANCHOR, size).copy()
    a = site_index(1, 2, 3, size.n)
    b = site_index(1, 2, 4, size.n)
    h[a, b] = -h[a, b]
    h[b, a] = -h[b, a]
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
