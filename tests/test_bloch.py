"""Bloch field, 2x2 eigenproblem, spin texture and symmetry checks."""

import math

import numpy as np
import pytest

import epband
from epband import (
    ModelParams,
    Momentum,
    principal_sqrt,
    spectral_reality,
    symmetry_residuals,
    wrap_angle,
)
from epband.bloch import bloch_field_grid, field_scale, observables_grid, right_eigvec, zone_grid

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


def stacked_eigvec(bx, by, e):
    """``right_eigvec``'s components stacked into (..., 2) vectors.

    The norm it returns must be numpy's 2-norm of that vector, bit for bit.
    """
    a, b, norm = right_eigvec(bx, by, e)
    v = np.stack([a, b], axis=-1)
    np.testing.assert_array_equal(
        np.asarray(norm).view(np.uint64), np.asarray(np.linalg.norm(v, axis=-1)).view(np.uint64)
    )
    return v


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


def test_wrap_angle_keeps_pi_one_ulp_above_it():
    # the float remainder (pi - k) % 2 pi of -4.4e-16 rounds up onto 2 pi, which used to give -pi
    above = np.nextafter(np.pi, 4.0)
    assert wrap_angle(above) == np.pi
    assert wrap_angle(float(above)) == np.pi
    np.testing.assert_array_equal(wrap_angle(np.array([above, np.pi, -np.pi])), np.pi)
    assert Momentum(above, 0.0).kx == Momentum(np.pi, 0.0).kx == np.pi
    assert Momentum(0.0, above).ky == np.pi


def test_wrap_angle_moves_only_the_input_rounded_onto_two_pi():
    rng = np.random.default_rng(42)
    edges = np.pi * np.arange(-7.0, 8.0, 2.0)
    k = np.concatenate([rng.uniform(-20.0, 20.0, 10**6), edges, np.nextafter(edges, 30.0),
                        np.nextafter(edges, -30.0), np.array([0.0, -0.0])])
    got = wrap_angle(k)
    assert np.all(got > -np.pi) and np.all(got <= np.pi)
    remainder = np.pi - (np.pi - k) % (2.0 * np.pi)
    moved = got.view(np.uint64) != remainder.view(np.uint64)
    np.testing.assert_array_equal(remainder[moved], -np.pi)
    np.testing.assert_array_equal(got[moved], np.pi)
    assert moved[k == np.nextafter(np.pi, 4.0)].all()


# ---------------------------------------------------------------- matrix


def test_matrix_zero():
    # h = 0: E = 0 and the kernel claims no direction (both candidates vanish)
    for e in (0.0, principal_sqrt(0.0)):
        v = stacked_eigvec(0.0, 0j, e)
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
            v = stacked_eigvec(bx, by, s)
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
            v = stacked_eigvec(bx, by, s)
            assert np.linalg.norm(h @ v - s * v) < 1e-13 * np.linalg.norm(v)


def test_principal_sqrt_branch():
    assert principal_sqrt(4.0) == pytest.approx(2.0)
    assert principal_sqrt(-1.0 + 0.0j) == pytest.approx(1.0j)
    z = principal_sqrt(-3.0 - 4.0j)
    assert z.real >= 0.0 and z * z == pytest.approx(-3.0 - 4.0j)


def test_principal_sqrt_ignores_the_sign_of_a_zero_imaginary_part():
    # numpy's sqrt of -4 - 0j is -2j; the principal root is +2j for both signs of zero
    w = complex(-4.0, -0.0)
    for e in (principal_sqrt(w), principal_sqrt(np.array([w]))[0]):
        assert e.real >= 0.0 and e.imag == 2.0


# ---------------------------------------------------------------- eigenvector kernel


def test_eigensystem_hermitian_point():
    bx, by = 4.0, 1.0 + 0.0j
    e = principal_sqrt(bx * bx + by * by)
    assert e == pytest.approx(math.sqrt(17.0), abs=1e-14)
    vals = np.sort(np.linalg.eigvals(_h(bx, by)).real)
    np.testing.assert_allclose(vals, [-math.sqrt(17.0), math.sqrt(17.0)], atol=1e-14)
    # not defective: the two branch vectors are orthonormal
    u, w = _unit(stacked_eigvec(bx, by, e)), _unit(stacked_eigvec(bx, by, -e))
    assert abs(np.vdot(u, w)) < 1e-14


def test_eigensystem_defective_point():
    # the touching of test_field_vanishing_discriminant is a Jordan block
    bx, by = -0.5, 0.5j
    h = _h(bx, by)
    e = principal_sqrt(bx * bx + by * by)
    assert e == pytest.approx(0.0, abs=1e-12)
    np.testing.assert_allclose(h @ h, 0.0, atol=1e-15)  # nilpotent and h != 0
    assert np.max(np.abs(h)) == 0.5
    plus, minus = stacked_eigvec(bx, by, e), stacked_eigvec(bx, by, -e)
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
    assert np.all(stacked_eigvec(0.0, 0j, 0.0) == 0.0)
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
            v = stacked_eigvec(bx, by, s)
            # the better-conditioned candidate is never small
            floor = math.sqrt(abs(bx) ** 2 + abs(by) ** 2 + abs(s) ** 2)
            assert np.linalg.norm(v) >= floor * (1.0 - 1e-12)
            u = _unit(v)
            assert np.linalg.norm(h @ u - s * u) < 1e-12 * scale
            assert _eig_state(h, s)[0] == pytest.approx(s, abs=1e-12 * scale)
    # the kernel broadcasts over any array shape
    bx, by = bloch_field_grid(ANCHOR, rng.uniform(-3, 3, (3, 4)), rng.uniform(-3, 3, (3, 4)))
    e = principal_sqrt(bx * bx + by * by)
    v = stacked_eigvec(bx, by, e)
    assert v.shape == (3, 4, 2)
    np.testing.assert_array_equal(v[1, 2], stacked_eigvec(bx[1, 2], by[1, 2], e[1, 2]))


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


def test_observables_grid_scalar_calls_match_the_array_call():
    # numpy's scalar complex product rounds otherwise than its array loop; a scalar call must
    # still return the array call's elements bit for bit
    rng = np.random.default_rng(5)
    kx, ky = rng.uniform(-np.pi, np.pi, (2, 2000))
    grid = observables_grid(ANCHOR, kx, ky)
    for i in range(kx.size):
        got = observables_grid(ANCHOR, float(kx[i]), float(ky[i]))
        assert all(type(g) is np.float64 for g in got)
        assert [g.tobytes() for g in got] == [v[i].tobytes() for v in grid]
    # a scalar broadcast against an array takes the array path as before
    fx, _, _ = observables_grid(ANCHOR, 0.25, ky[:3])
    assert fx.shape == (3,)


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


def test_zone_grid_size_must_be_an_integer():
    # zone_grid(6.5) gave a 7 x 7 grid spaced 2 pi / 6.5, which the symmetry table, field_scale
    # and spectral_reality then judged as the zone
    for bad in (6.5, 8.0, np.float64(8.0)):
        with pytest.raises(ValueError, match="grid_n must be an integer"):
            zone_grid(bad)
    for got, want in zip(zone_grid(np.int64(8)), zone_grid(8)):
        assert got.shape == (8, 8) and got.tobytes() == want.tobytes()
    with pytest.raises(ValueError, match="grid_n must be an integer"):
        field_scale(ANCHOR, 6.5)


def test_symmetry_residuals_tiny():
    rows = symmetry_residuals(ANCHOR, grid_n=64)
    assert len(rows) == 9
    assert {name for name, _ in rows} >= {"chiral"}
    for name, res in rows:
        assert res < 1e-12, name
    # the CLI judges --tol relative to the largest |Bx|, |By|: |2J(cx + cy) + T| at (pi, pi)
    assert field_scale(ANCHOR, 64) == 5.5


def test_symmetry_residuals_random_params():
    rng = np.random.default_rng(29)
    for _ in range(5):
        rows = symmetry_residuals(_random_params(rng), grid_n=64)
        assert max(res for _, res in rows) < 1e-12


def test_symmetry_negative_control(monkeypatch):
    # flip the sign of t on one factor: the swap kx <-> ky relation must break
    def corrupted(params, kx, ky):
        bx = 2.0 * params.J * (np.cos(kx) + np.cos(ky)) + params.T
        by = 4.0 * params.t * np.sin(kx) * np.sin(ky) + 1j * params.gamma
        return bx, by

    params = ModelParams(1.0, -1.5, 0.7, 0.5)
    monkeypatch.setattr(epband.bloch, "bloch_field_grid", corrupted)
    rows = symmetry_residuals(params, grid_n=64)
    assert max(res for _, res in rows) > 0.1
    assert max(res for _, res in rows) > 1e-9 * field_scale(params, 64)  # the CLI's judgment


def test_chiral_row_is_structural(monkeypatch):
    # h is assembled as [[By, Bx], [Bx, -By]], so sigma_y h sigma_y + h is exactly 0 for any
    # field: a shifted field breaks a mirror and not this row (block_check tests chirality)
    def shifted(params, kx, ky):
        return bloch_field_grid(params, kx + 0.3, ky)

    monkeypatch.setattr(epband.bloch, "bloch_field_grid", shifted)
    rows = dict(symmetry_residuals(ANCHOR, grid_n=64))
    assert rows["(-kx,+ky)"] > 0.1
    assert rows["chiral"] == 0.0


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
        plus, minus = _unit(stacked_eigvec(bx, by, e)), _unit(stacked_eigvec(bx, by, -e))
        assert abs(np.vdot(minus, SIGMA_Y @ plus)) == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------- reality at t=0


# the verdict is scale-free: an absolute tol of 1e-12 read the anchor scaled by 1e-13 as real,
# and E^2 overflowed to NaN at 1e200, where the t = 0 spectrum read as not real
_SCALES = (1.0, 1e-13, 1e200)


def test_spectral_reality_true_at_t_zero():
    for scale in _SCALES:
        assert spectral_reality(ModelParams(scale, scale, 0.0, 0.5 * scale))


def test_spectral_reality_false_generic():
    for scale in _SCALES:
        scaled = ModelParams(scale, -1.5 * scale, 0.5 * scale, 0.5 * scale)
        assert not spectral_reality(scaled)


def test_spectral_reality_hermitian():
    assert spectral_reality(ModelParams(1.0, 1.0, 0.0, 0.0))
