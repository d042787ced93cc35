"""Bloch field, 2x2 eigenproblem, spin texture and symmetry checks."""

import math

import numpy as np
import pytest

from epband import (
    ModelParams,
    principal_sqrt,
    spectral_reality,
    symmetry_residuals,
    wrap_angle,
)
from epband.bloch import bloch_field_grid, observables_grid, right_eigvec

ANCHOR = ModelParams(J=1.0, T=-1.5, t=0.5, gamma=0.5)

# Pauli matrices in the (A, B) sublattice basis; the library keeps none.
SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


def _h(bx, by):
    """h = Bx sigma_x + By sigma_z, assembled here as the independent reference."""
    return complex(bx) * SIGMA_X + complex(by) * SIGMA_Z


def _unit(v):
    return v / np.linalg.norm(v)


def _eig_state(h, e):
    """numpy's unit eigenvector of h for the eigenvalue closest to e."""
    vals, vecs = np.linalg.eig(h)
    i = int(np.argmin(np.abs(vals - e)))
    return vals[i], vecs[:, i] / np.linalg.norm(vecs[:, i])


def _expectations(psi):
    psi = _unit(psi)
    return tuple(np.vdot(psi, s @ psi).real for s in (SIGMA_X, SIGMA_Z, SIGMA_Y))


def _random_params(rng):
    return ModelParams(
        J=1.0,
        T=rng.uniform(-3.0, 3.0),
        t=rng.uniform(-1.0, 1.0),
        gamma=rng.uniform(-2.0, 2.0),
    )


# ---------------------------------------------------------------- field


def test_field_at_origin():
    bx, by = bloch_field_grid(ANCHOR, 0.0, 0.0)
    assert bx == pytest.approx(2.5, abs=1e-15)
    assert by == pytest.approx(2.0 + 0.5j, abs=1e-15)


def test_field_at_bz_center_of_quadrant():
    # both cosines vanish: only the interlayer and gain/loss terms survive
    for p in (ANCHOR, ModelParams(1.0, 0.7, -0.3, 1.1)):
        bx, by = bloch_field_grid(p, math.pi / 2, math.pi / 2)
        assert bx == pytest.approx(p.T, abs=1e-15)
        assert by == pytest.approx(1j * p.gamma, abs=1e-15)


def test_field_vanishing_discriminant():
    # minus-branch touching: Bx^2 + By^2 = 0 although neither component is 0
    bx, by = bloch_field_grid(ANCHOR, math.pi / 3, -math.pi / 2)
    assert bx == pytest.approx(-0.5, abs=1e-12)
    assert by == pytest.approx(0.5j, abs=1e-12)
    assert abs(bx**2 + by**2) < 1e-12


def test_field_grid_matches_pointwise():
    # arrays agree with scalar calls and with the model's definition
    rng = np.random.default_rng(3)
    p = _random_params(rng)
    kx = rng.uniform(-np.pi, np.pi, size=17)
    ky = rng.uniform(-np.pi, np.pi, size=17)
    bx, by = bloch_field_grid(p, kx, ky)
    assert bx.shape == by.shape == (17,)
    for i in range(17):
        cx, cy = math.cos(kx[i]), math.cos(ky[i])
        bx1, by1 = bloch_field_grid(p, float(kx[i]), float(ky[i]))
        assert bx[i] == pytest.approx(bx1, abs=1e-14)
        assert by[i] == pytest.approx(by1, abs=1e-14)
        assert bx[i] == pytest.approx(2.0 * p.J * (cx + cy) + p.T, abs=1e-14)
        assert by[i] == pytest.approx(4.0 * p.t * cx * cy + 1j * p.gamma, abs=1e-14)


def test_wrap_angle_range():
    k = wrap_angle(np.array([0.0, np.pi, -np.pi, 3 * np.pi, -2.5 * np.pi]))
    assert np.all(k > -np.pi - 1e-15) and np.all(k <= np.pi + 1e-15)
    assert wrap_angle(np.pi) == pytest.approx(np.pi)
    assert wrap_angle(-np.pi) == pytest.approx(np.pi)


# ---------------------------------------------------------------- matrix


def test_matrix_zero():
    # h = 0: E = 0 and the kernel claims no direction (both candidates vanish)
    for e in (0.0, principal_sqrt(0.0)):
        v = right_eigvec(0.0, 0j, e)
        assert v.shape == (2,) and np.all(v == 0.0)
    np.testing.assert_array_equal(np.linalg.eigvals(_h(0.0, 0j)), [0.0, 0.0])


def test_matrix_layout():
    # the kernel's vectors are eigenvectors of [[By, Bx], [Bx, -By]], whose
    # spectrum is +-principal_sqrt(Bx^2 + By^2)
    for bx, by, want in ((1.0, 1.0j, [[1.0j, 1.0], [1.0, -1.0j]]),
                         (2.5, 2.0 + 0.5j, [[2.0 + 0.5j, 2.5], [2.5, -2.0 - 0.5j]])):
        h = np.array(want, dtype=complex)
        np.testing.assert_allclose(_h(bx, by), h, atol=1e-15)
        assert abs(np.trace(h)) == 0.0
        e = principal_sqrt(bx * bx + by * by)
        vals = np.sort_complex(np.linalg.eigvals(h))
        np.testing.assert_allclose(vals, np.sort_complex(np.array([e, -e])), atol=1e-14)
        for s in (e, -e):
            v = right_eigvec(bx, by, s)
            assert np.linalg.norm(h @ v - s * v) < 1e-14 * np.linalg.norm(v)


def test_matrix_is_sigma_combination():
    # eigenvectors of Bx sigma_x + By sigma_z, for random complex fields
    rng = np.random.default_rng(5)
    for _ in range(20):
        bx = rng.normal()
        by = rng.normal() + 1j * rng.normal()
        h = bx * SIGMA_X + by * SIGMA_Z
        e = principal_sqrt(bx * bx + by * by)
        for s in (e, -e):
            v = right_eigvec(bx, by, s)
            assert np.linalg.norm(h @ v - s * v) < 1e-13 * np.linalg.norm(v)


def test_principal_sqrt_branch():
    assert principal_sqrt(4.0) == pytest.approx(2.0)
    assert principal_sqrt(-1.0 + 0.0j) == pytest.approx(1.0j)
    z = principal_sqrt(-3.0 - 4.0j)
    assert z.real >= 0.0 and z * z == pytest.approx(-3.0 - 4.0j)


# ---------------------------------------------------------------- eigenvector kernel


def test_eigensystem_hermitian_point():
    bx, by = 4.0, 1.0 + 0.0j
    e = principal_sqrt(bx * bx + by * by)
    assert e == pytest.approx(math.sqrt(17.0), abs=1e-14)
    vals = np.sort(np.linalg.eigvals(_h(bx, by)).real)
    np.testing.assert_allclose(vals, [-math.sqrt(17.0), math.sqrt(17.0)], atol=1e-14)
    # not defective: the two branch vectors are orthonormal
    u, w = _unit(right_eigvec(bx, by, e)), _unit(right_eigvec(bx, by, -e))
    assert abs(np.vdot(u, w)) < 1e-14


def test_eigensystem_defective_point():
    # the touching of test_field_vanishing_discriminant is a Jordan block
    bx, by = -0.5, 0.5j
    h = _h(bx, by)
    e = principal_sqrt(bx * bx + by * by)
    assert e == pytest.approx(0.0, abs=1e-12)
    np.testing.assert_allclose(h @ h, 0.0, atol=1e-15)  # nilpotent and h != 0
    assert np.max(np.abs(h)) == 0.5
    plus, minus = right_eigvec(bx, by, e), right_eigvec(bx, by, -e)
    target = np.array([1.0, 1.0j]) / math.sqrt(2.0)
    assert abs(np.vdot(target, _unit(plus))) == pytest.approx(1.0, abs=1e-12)
    np.testing.assert_allclose(plus, minus, atol=1e-15)
    np.testing.assert_allclose(h @ plus, 0.0, atol=1e-15)


def test_eigensystem_zero_matrix_not_defective():
    # h = 0 is diagonal, not a Jordan block: E = 0 and no direction is preferred
    assert principal_sqrt(0.0) == 0.0
    vals, vecs = np.linalg.eig(_h(0.0, 0j))
    np.testing.assert_array_equal(vals, [0.0, 0.0])
    assert abs(np.linalg.det(vecs)) == pytest.approx(1.0)
    assert np.all(right_eigvec(0.0, 0j, 0.0) == 0.0)
    assert observables_grid(ModelParams(1.0, -4.0, 0.0, 0.0), 0.0, 0.0) == (0.0, 0.0, 0.0)


def test_eigensystem_residual_invariant():
    # against numpy.linalg.eig of the assembled matrix, on vectorized draws
    rng = np.random.default_rng(11)
    for _ in range(200):
        p = _random_params(rng)
        kx, ky = rng.uniform(-np.pi, np.pi, size=2)
        bx, by = bloch_field_grid(p, kx, ky)
        h = _h(bx, by)
        scale = max(1.0, np.max(np.abs(h)))
        e = principal_sqrt(bx * bx + by * by)
        for s in (e, -e):
            v = right_eigvec(bx, by, s)
            # the better-conditioned candidate is never small
            floor = math.sqrt(abs(bx) ** 2 + abs(by) ** 2 + abs(s) ** 2)
            assert np.linalg.norm(v) >= floor * (1.0 - 1e-12)
            u = _unit(v)
            assert np.linalg.norm(h @ u - s * u) < 1e-12 * scale
            assert _eig_state(h, s)[0] == pytest.approx(s, abs=1e-12 * scale)
    # the kernel broadcasts over any array shape
    bx, by = bloch_field_grid(ANCHOR, rng.uniform(-3, 3, (3, 4)), rng.uniform(-3, 3, (3, 4)))
    e = principal_sqrt(bx * bx + by * by)
    v = right_eigvec(bx, by, e)
    assert v.shape == (3, 4, 2)
    np.testing.assert_array_equal(v[1, 2], right_eigvec(bx[1, 2], by[1, 2], e[1, 2]))


# ---------------------------------------------------------------- observables


def test_observables_vanish_at_defective_point():
    # t = 0 puts an exact EP with field (-0.5, 0.5i) at k = (0, pi)
    p = ModelParams(1.0, -0.5, 0.0, 0.5)
    bx, by = bloch_field_grid(p, 0.0, math.pi)
    assert (bx, by) == (-0.5, 0.5j)
    fx, fy, sy = observables_grid(p, 0.0, math.pi)
    assert fx == pytest.approx(0.0, abs=1e-12)
    assert fy == pytest.approx(0.0, abs=1e-12)
    # psi = (1, i)/sqrt2 is the +1 eigenvector of sigma_y
    assert sy == pytest.approx(1.0, abs=1e-12)


def test_observables_hermitian_alignment():
    # field (4, 1) at k = 0
    fx, fy, _ = observables_grid(ModelParams(1.0, 0.0, 0.25, 0.0), 0.0, 0.0)
    np.testing.assert_allclose([fx, fy], np.array([4.0, 1.0]) / math.sqrt(17.0), atol=1e-12)


def test_observables_sigma_z_eigenstate():
    psi = np.array([1.0, 0.0], dtype=complex)
    assert _expectations(psi)[:2] == (0.0, 1.0)
    # the same through the kernel: field (0, 1) at k = 0, whose plus state is (1, 0)
    fx, fy, _ = observables_grid(ModelParams(1.0, -4.0, 0.25, 0.0), 0.0, 0.0)
    assert fx == pytest.approx(0.0, abs=1e-12)
    assert fy == pytest.approx(1.0, abs=1e-12)


def test_observables_hermitian_unit_length():
    # for gamma = 0 the texture is a unit planar vector away from touchings
    rng = np.random.default_rng(17)
    p = ModelParams(1.0, -0.7, 0.4, 0.0)
    kx = rng.uniform(-np.pi, np.pi, size=50)
    ky = rng.uniform(-np.pi, np.pi, size=50)
    bx, by = bloch_field_grid(p, kx, ky)
    away = np.abs(principal_sqrt(bx * bx + by * by)) >= 1e-6
    assert np.count_nonzero(away) > 40
    fx, fy, sy = observables_grid(p, kx, ky)
    np.testing.assert_allclose(np.hypot(fx, fy)[away], 1.0, atol=1e-10)
    np.testing.assert_allclose(sy[away], 0.0, atol=1e-10)


def test_observables_grid_matches_pointwise():
    # reference: expectation values of numpy.linalg.eig's plus-branch vector
    rng = np.random.default_rng(23)
    p = _random_params(rng)
    kx = rng.uniform(-np.pi, np.pi, size=25)
    ky = rng.uniform(-np.pi, np.pi, size=25)
    fx, fy, sy = observables_grid(p, kx, ky)
    bx, by = bloch_field_grid(p, kx, ky)
    for i in range(25):
        e = principal_sqrt(bx[i] ** 2 + by[i] ** 2)
        _, psi = _eig_state(_h(bx[i], by[i]), e)
        ref = _expectations(psi)
        assert fx[i] == pytest.approx(ref[0], abs=1e-10)
        assert fy[i] == pytest.approx(ref[1], abs=1e-10)
        assert sy[i] == pytest.approx(ref[2], abs=1e-10)


# ---------------------------------------------------------------- symmetries


def test_symmetry_residuals_tiny():
    rows = symmetry_residuals(ANCHOR, grid_n=64)
    assert len(rows) == 9
    assert {name for name, _ in rows} >= {"chiral"}
    for name, res in rows:
        assert res < 1e-12, name


def test_symmetry_residuals_random_params():
    rng = np.random.default_rng(29)
    for _ in range(5):
        rows = symmetry_residuals(_random_params(rng), grid_n=64)
        assert max(res for _, res in rows) < 1e-12


def test_symmetry_negative_control():
    # flip the sign of t on one factor: the swap kx <-> ky relation must break
    def corrupted(params, kx, ky):
        bx = 2.0 * params.J * (np.cos(kx) + np.cos(ky)) + params.T
        by = 4.0 * params.t * np.sin(kx) * np.sin(ky) + 1j * params.gamma
        return bx, by

    rows = symmetry_residuals(
        ModelParams(1.0, -1.5, 0.7, 0.5), grid_n=64, field_fn=corrupted
    )
    assert max(res for _, res in rows) > 0.1


def test_chiral_anticommutation_pointwise():
    # sigma_y h sigma_y = -h, so sigma_y maps the +E kernel vector onto the -E one
    rng = np.random.default_rng(31)
    for _ in range(20):
        p = _random_params(rng)
        kx, ky = rng.uniform(-np.pi, np.pi, size=2)
        bx, by = bloch_field_grid(p, kx, ky)
        h = _h(bx, by)
        np.testing.assert_allclose(SIGMA_Y @ h @ SIGMA_Y, -h, atol=1e-12)
        e = principal_sqrt(bx * bx + by * by)
        plus, minus = _unit(right_eigvec(bx, by, e)), _unit(right_eigvec(bx, by, -e))
        assert abs(np.vdot(minus, SIGMA_Y @ plus)) == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------- reality at t=0


def test_spectral_reality_true_at_t_zero():
    assert spectral_reality(ModelParams(1.0, 1.0, 0.0, 0.5), grid_n=64)


def test_spectral_reality_false_generic():
    assert not spectral_reality(ANCHOR, grid_n=64)


def test_spectral_reality_hermitian():
    assert spectral_reality(ModelParams(1.0, 1.0, 0.0, 0.0), grid_n=64)
