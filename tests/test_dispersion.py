"""Ray sampling of |E|, log-log power-law fits, closed-form expansions."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from epband import ModelParams, Momentum, expected_dispersion, fit_power_law, sample_dispersion
from epband.bloch import wrap_angle
from epband.btp import (
    DIRAC_POINT,
    HYBRID_EP,
    NORMAL_EP,
    SEMI_DIRAC_POINT,
    TRIVIAL_ISOLATED_EP,
    branch_level,
    locate_btps,
)
from epband.dispersion import Q_MIN, QS, DispersionSample

ANCHOR = ModelParams(J=1.0, T=-1.5, t=0.5, gamma=0.5)
HALF_PI = math.pi / 2


def test_qs_cover_lower_decade():
    assert QS.shape == (16,)
    assert np.all(np.diff(QS) > 0)
    assert QS[0] == pytest.approx(Q_MIN)
    assert QS[-1] == pytest.approx(10 * Q_MIN)
    with pytest.raises(ValueError, match="read-only"):
        QS[0] = 0.5  # every sample shares the one array


def test_sample_normalizes_direction_and_keeps_grid():
    s = sample_dispersion(ANCHOR, Momentum(0.0, -HALF_PI), (0.0, 2.0))
    assert s.direction == (0.0, 1.0)
    assert s.abs_e.shape == QS.shape
    assert np.all(s.abs_e > 0)
    # |E| ~ sqrt(q) near this touching, so the samples must grow with q.
    assert np.all(np.diff(s.abs_e) > 0)


def test_sample_rejects_zero_direction():
    with pytest.raises(ValueError, match="direction"):
        sample_dispersion(ANCHOR, Momentum(0.0, -HALF_PI), (0.0, 0.0))


@pytest.mark.parametrize("abs_e", [np.sqrt(QS[:5]), np.sqrt(QS)[None, :], np.sqrt(QS[0])])
def test_sample_has_one_abs_e_per_q_of_qs(abs_e):
    # every sample lies at the q of QS: a record of another shape names no ray distances
    with pytest.raises(ValueError, match="shape"):
        DispersionSample((1.0, 0.0), abs_e)


def test_ray_through_second_touching_is_rejected():
    # gamma = 0 makes h itself vanish at the Dirac point, so the collision
    # floor (1e-14 |J|) is actually reachable there; start one q of QS short of it so
    # that sample lands on the defect.
    p = ModelParams(J=1.0, T=-1.0, t=0.5, gamma=0.0)
    origin = Momentum(math.pi / 3 - QS[3], HALF_PI)
    with pytest.raises(ValueError, match="collides"):
        sample_dispersion(p, origin, (1.0, 0.0))


def test_fit_recovers_synthetic_sqrt_law():
    fit = fit_power_law(DispersionSample((1.0, 0.0), 3.0 * np.sqrt(QS)))
    assert fit.alpha == pytest.approx(0.5, abs=1e-12)
    assert fit.c == pytest.approx(3.0, rel=1e-12)
    assert fit.r2 == pytest.approx(1.0, abs=1e-12)


def test_fit_recovers_synthetic_quadratic_law():
    fit = fit_power_law(DispersionSample((1.0, 0.0), 2.0 * QS**2))
    assert fit.alpha == pytest.approx(2.0, abs=1e-12)
    assert fit.c == pytest.approx(2.0, rel=1e-12)


def test_fit_rejects_vanishing_samples():
    with pytest.raises(ValueError, match="vanishing"):
        fit_power_law(DispersionSample((1.0, 0.0), np.zeros_like(QS)))


@pytest.mark.parametrize("kind, origin, p", [
    ("HybridEP", (HALF_PI, HALF_PI), (1.0, -1.0, 0.5, 1.0)),
    ("NormalEP", (math.pi / 3, HALF_PI), (1.0, -1.5, 0.5, 0.5)),
])
def test_expected_dispersion_is_scale_free(kind, origin, p):
    # the jet's coefficients are squares of the couplings: at 1e-200 they underflowed, the
    # hybrid EP read as no touching (None) and the normal EP's C as 0.0; at 1e200 the zero
    # test's square raised a raw OverflowError
    want = expected_dispersion(kind, Momentum(*origin), (1.0, 1.0), ModelParams(*p))
    assert want.c > 0.0
    for s in (1e-200, 1e200):
        got = expected_dispersion(kind, Momentum(*origin), (1.0, 1.0),
                                  ModelParams(*(s * x for x in p)))
        assert (got.alpha, got.case_id) == (want.alpha, want.case_id)
        assert got.c == pytest.approx(s * want.c, rel=1e-12)


def test_expected_dispersion_takes_t_and_gamma_far_above_j():
    # branch +'s hybrid EP at (pi/2, pi/2), T = gamma = x
    def law(x):
        return expected_dispersion(HYBRID_EP, Momentum(HALF_PI, HALF_PI), (1.0, 0.0),
                                   ModelParams(1.0, x, 0.5, x))

    # the jet is taken in units of a power of two, which moves no rounding
    assert law(1e3) == (0.5, 2.0 * math.sqrt(1e3), "hybrid-axis-sqrt")
    # at 1e160 the zero test squared the largest coupling into a raw OverflowError
    for x in (1e160, 1e300):
        law(x)


def _assert_jet_matches_fit(params, kind, origin, direction):
    exp = expected_dispersion(kind, origin, direction, params)
    fit = fit_power_law(sample_dispersion(params, origin, direction))
    assert fit.alpha == pytest.approx(exp.alpha, abs=0.02)
    assert fit.r2 > 0.999
    return exp


def test_trivial_touching_jet_matches_fit():
    # c_- = -2 is the trivial EP at (pi, pi) and c_+ = -3 is gapped; E^2 starts at q^2
    p = ModelParams(J=1.0, T=5.0, t=0.0, gamma=-1.0)
    (btp,) = locate_btps(p)
    assert btp.kind == TRIVIAL_ISOLATED_EP
    exp = _assert_jet_matches_fit(p, btp.kind, btp.k, (1, 0))
    assert exp == (1.0, pytest.approx(math.sqrt(2.0)), "trivial-axis-linear")


def test_generic_direction_jet_matches_fit():
    exp = _assert_jet_matches_fit(ANCHOR, HYBRID_EP, Momentum(0.0, -HALF_PI), (1, 1))
    assert exp.case_id == "hybrid-diagonal-sqrt"
    p = ModelParams(J=1.0, T=0.0, t=0.5, gamma=0.0)
    exp = _assert_jet_matches_fit(p, SEMI_DIRAC_POINT, Momentum(HALF_PI, HALF_PI), (1, 3))
    assert exp.case_id == "semidirac-oblique-linear"


@pytest.mark.parametrize("kind", [NORMAL_EP, DIRAC_POINT, HYBRID_EP, TRIVIAL_ISOLATED_EP])
@pytest.mark.parametrize("origin", [(1.0, 1.0), (1.0, HALF_PI), (0.3, -HALF_PI)])
def test_no_expected_law_off_a_touching(kind, origin):
    assert expected_dispersion(kind, Momentum(*origin), (1, 0), ANCHOR) is None


def test_hybrid_axis_closed_forms_at_anchor():
    origin = Momentum(0.0, -HALF_PI)
    soft = expected_dispersion(HYBRID_EP, origin, (0, 1), ANCHOR)
    assert soft.alpha == pytest.approx(0.5)
    # 2 sqrt|J T + 2 J^2 + 2i gamma t| with the anchor couplings.
    assert soft.c == pytest.approx(2.0 * math.sqrt(abs(complex(0.5, 0.5))))
    hard = expected_dispersion(HYBRID_EP, origin, (1, 0), ANCHOR)
    assert hard.alpha == pytest.approx(1.0)
    assert hard.c == pytest.approx(1.0)  # |-2 J T - 4 J^2| = 1 exactly here


def test_semidirac_merger_closed_forms():
    p = ModelParams(J=1.0, T=0.0, t=0.5, gamma=0.0)
    origin = Momentum(HALF_PI, HALF_PI)
    lin = expected_dispersion(SEMI_DIRAC_POINT, origin, (1, 1), p)
    assert (lin.alpha, lin.c) == (pytest.approx(1.0), pytest.approx(4.0 / math.sqrt(2)))
    quad = expected_dispersion(SEMI_DIRAC_POINT, origin, (1, -1), p)
    assert quad.alpha == pytest.approx(2.0)
    assert quad.c == pytest.approx(4.0 * p.t * 0.5)


FIT_CASES = [
    (ANCHOR, HYBRID_EP, Momentum(0.0, -HALF_PI), (0, 1)),
    (ANCHOR, HYBRID_EP, Momentum(0.0, -HALF_PI), (1, 0)),
    (ANCHOR, NORMAL_EP, Momentum(math.pi / 3, -HALF_PI), (1, 0)),
    (ANCHOR, NORMAL_EP, Momentum(math.pi / 3, -HALF_PI), (0, 1)),
    (ModelParams(1.0, -1.0, 0.5, 0.0), DIRAC_POINT, Momentum(math.pi / 3, HALF_PI), (1, 0)),
    (ModelParams(1.0, -1.0, 0.5, 0.0), DIRAC_POINT, Momentum(math.pi / 3, HALF_PI), (0, 1)),
    (ModelParams(1.0, -2.0, 0.5, 0.0), SEMI_DIRAC_POINT, Momentum(0.0, HALF_PI), (0, 1)),
    (ModelParams(1.0, -2.0, 0.5, 0.0), SEMI_DIRAC_POINT, Momentum(0.0, HALF_PI), (1, 0)),
    (ModelParams(1.0, 0.0, 0.5, 0.0), SEMI_DIRAC_POINT, Momentum(HALF_PI, HALF_PI), (1, 1)),
    (ModelParams(1.0, 0.0, 0.5, 0.0), SEMI_DIRAC_POINT, Momentum(HALF_PI, HALF_PI), (1, -1)),
]


@pytest.mark.parametrize("params, kind, origin, direction", FIT_CASES)
def test_fitted_law_matches_closed_form(params, kind, origin, direction):
    exp = expected_dispersion(kind, origin, direction, params)
    fit = fit_power_law(sample_dispersion(params, origin, direction))
    assert fit.alpha == pytest.approx(exp.alpha, abs=0.05)
    assert fit.c == pytest.approx(exp.c, rel=5e-3)
    assert fit.r2 > 0.999


def test_off_axis_normal_ep_prefactor():
    # Mixed direction exercises the interference between the branch-point
    # and the imaginary term in the generic square-root law.
    origin = Momentum(math.pi / 3, -HALF_PI)
    direction = (1.0, 1.0)
    exp = expected_dispersion(NORMAL_EP, origin, direction, ANCHOR)
    assert exp.case_id == "normal-sqrt"
    fit = fit_power_law(sample_dispersion(ANCHOR, origin, direction))
    assert fit.alpha == pytest.approx(0.5, abs=0.05)
    assert fit.c == pytest.approx(exp.c, rel=5e-3)


# ---------------------------------------------------------------------------
# The jet against the closed-form table it replaced

def _is_half_pi(x):
    return abs(abs(wrap_angle(x)) - 0.5 * math.pi) < 1e-9


def _near(x, v):
    return abs(wrap_angle(x - v)) < 1e-9


def _table_reference(kind, origin, direction, params):
    """The hand table of (alpha, |C|, caseId) by kind, line pattern and direction class.

    It covers the merged kinds only along the axes and diagonals, and returns
    None elsewhere and for the trivial EP.
    """
    norm = math.hypot(*direction)
    u = (direction[0] / norm, direction[1] / norm)
    j, big_t, t, gamma = params.J, params.T, params.t, params.gamma
    if kind == TRIVIAL_ISOLATED_EP:
        return None
    half_x, half_y = _is_half_pi(origin.kx), _is_half_pi(origin.ky)
    if half_x and half_y:
        lam1 = 1.0 if wrap_angle(origin.kx) > 0 else -1.0
        lam2 = 1.0 if wrap_angle(origin.ky) > 0 else -1.0
        on_diag = abs(lam1 * u[0] - lam2 * u[1]) < 1e-9
        on_anti = abs(lam1 * u[0] + lam2 * u[1]) < 1e-9
        if kind == HYBRID_EP and on_diag:
            amp = 2.0 * math.sqrt(abs(2.0 * j * big_t))
            return (0.5, amp * math.sqrt(abs(u[0])), "hybrid-diagonal-sqrt")
        if kind == HYBRID_EP and on_anti:
            amp = 2.0 * math.sqrt(2.0 * abs(gamma * t))
            return (1.0, amp * abs(u[0]), "hybrid-antidiagonal-linear")
        if kind == SEMI_DIRAC_POINT and on_diag:
            return (1.0, 4.0 * abs(j) * abs(u[0]), "semidirac-diagonal-linear")
        if kind == SEMI_DIRAC_POINT and on_anti:
            return (2.0, 4.0 * abs(t) * u[0] ** 2, "semidirac-antidiagonal-quadratic")
        return None
    # Normalize the (+-pi/2, k_c) family onto (k_c, sigma*pi/2) by swapping axes.
    if half_y and not half_x:
        k_c, sigma, vx, vy = origin.kx, (1.0 if wrap_angle(origin.ky) > 0 else -1.0), u[0], u[1]
    elif half_x and not half_y:
        k_c, sigma, vx, vy = origin.ky, (1.0 if wrap_angle(origin.kx) > 0 else -1.0), u[1], u[0]
    else:
        return None
    at_zero, at_pi = _near(k_c, 0.0), _near(k_c, math.pi)
    axis_x, axis_y = abs(vy) < 1e-9, abs(vx) < 1e-9
    if kind == HYBRID_EP and (at_zero or at_pi):
        if axis_y:
            inside = j * big_t + 2.0 * j * j + 2.0j * gamma * t
            if at_pi:
                inside = j * big_t - 2.0 * j * j - 2.0j * gamma * t
            amp = 2.0 * math.sqrt(abs(inside))
            return (0.5, amp * math.sqrt(abs(vy)), "hybrid-axis-sqrt")
        if axis_x:
            lin = -2.0 * j * big_t - 4.0 * j * j if at_zero else 2.0 * j * big_t - 4.0 * j * j
            return (1.0, math.sqrt(abs(lin)) * abs(vx), "hybrid-axis-linear")
        return None
    if kind == SEMI_DIRAC_POINT and (at_zero or at_pi):
        if axis_y:
            return (1.0, 2.0 * math.sqrt(j * j + 4.0 * t * t) * abs(vy), "semidirac-axis-linear")
        if axis_x:
            return (2.0, abs(j) * vx**2, "semidirac-axis-quadratic")
        return None
    sin_c, cos_c = math.sin(k_c), math.cos(k_c)
    mix = sin_c * vx + sigma * vy
    if kind == NORMAL_EP:
        inside = -j * (big_t + 2.0 * j * cos_c) * mix - 2.0j * sigma * gamma * t * vy * cos_c
        return (0.5, 2.0 * math.sqrt(abs(inside)), "normal-sqrt")
    if kind == DIRAC_POINT:
        amp = 2.0 * math.sqrt(j * j * mix * mix + 4.0 * t * t * vy * vy * cos_c * cos_c)
        return (1.0, amp, "dirac-linear")
    return None


_EDGE_RAYS = [(1, 0), (0, 1), (1, 1), (1, -1), (2, 1)]


@pytest.mark.parametrize("gamma", [0.0, 0.7])
@pytest.mark.parametrize("offset", [0.0, 9e-10, -9e-10, 1e-9, -1e-9, 1.1e-9, -1.1e-9])
@pytest.mark.parametrize("merger", [-1.0, 0.0, 1.0])
def test_jet_matches_table_at_merger_edges(merger, offset, gamma):
    # the levels of test_locate_merger_edges: merged kinds are snapped, the
    # others are simple zeros just off a merger whose leading coefficient is tiny
    p = ModelParams(1.0, gamma - 2.0 * (merger + offset), 0.5, gamma)
    btps, covered = locate_btps(p), 0
    for btp in btps:
        for ray in _EDGE_RAYS:
            jet = expected_dispersion(btp.kind, btp.k, ray, p)
            table = _table_reference(btp.kind, btp.k, ray, p)
            assert jet is not None
            if table is not None:
                covered += 1
                assert (jet.alpha, jet.case_id) == (table[0], table[2])
                assert jet.c == pytest.approx(table[1], rel=1e-6)
    assert covered or not btps  # |c| > 1 + 1e-9 is gapped


def _ray(angle):
    return (math.cos(angle), math.sin(angle))


@settings(max_examples=60, deadline=None)
@given(
    j=st.floats(0.2, 2.0),
    t=st.floats(0.2, 1.5),
    gamma=st.one_of(st.just(0.0), st.floats(0.2, 2.0)),
    signs=st.tuples(*[st.sampled_from((1, -1))] * 4),
    level=st.sampled_from((-2.0, -1.0, 0.0, 1.0, 2.0)),
    octant=st.integers(0, 7),
    tilt=st.floats(0.1, math.pi / 4 - 0.1),
)
def test_jet_fills_the_table_gaps(j, t, gamma, signs, level, octant, tilt):
    # a branch on a merger (or, at t = 0, on the trivial level) and rays at least
    # 0.1 rad from the axes and diagonals, which the table left None
    sj, st_, sg, s = signs
    j, t, gamma = sj * j, (st_ * t if abs(level) < 2.0 else 0.0), sg * gamma
    assume(gamma != 0.0 or t != 0.0)
    p = ModelParams(j, s * gamma - 2.0 * j * level, t, gamma)
    dist = [min(abs(branch_level(p, b) - m) for m in (-2.0, -1.0, 0.0, 1.0, 2.0)) for b in (1, -1)]
    assume(all(d < 1e-12 or d >= 1e-6 for d in dist))
    if t == 0.0:  # the other branch must be gapped, not a ring
        assume(abs(branch_level(p, -s)) > 2.0 + 1e-6)
    direction = _ray(octant * math.pi / 4 + (-1) ** octant * tilt)
    gaps = [b for b in locate_btps(p) if _table_reference(b.kind, b.k, direction, p) is None]
    assert gaps
    for btp in gaps:
        _assert_jet_matches_fit(p, btp.kind, btp.k, direction)


def test_jet_matches_table_on_seeded_draws():
    # J and t of both signs; three of four draws put one branch on a merger level
    rng = np.random.default_rng(2017)
    covered = 0
    for i in range(200):
        j, t = rng.choice((1, -1), 2) * rng.uniform((0.3, 0.05), (2.0, 1.5))
        gamma = 0.0 if i % 5 == 0 else rng.choice((1, -1)) * rng.uniform(0.05, 2.0)
        merger = i % 4 - 1.0  # -1, 0, 1, or none at 2
        big_t = rng.uniform(-3, 3) if merger > 1 else rng.choice((1, -1)) * gamma - 2 * j * merger
        p = ModelParams(j, big_t, t, gamma)
        for btp in locate_btps(p):
            for ray in _EDGE_RAYS + [(1, -2), _ray(rng.uniform(0, 2 * math.pi))]:
                table = _table_reference(btp.kind, btp.k, ray, p)
                if table is not None:
                    covered += 1
                    jet = expected_dispersion(btp.kind, btp.k, ray, p)
                    assert (jet.alpha, jet.case_id) == (table[0], table[2])
                    assert jet.c == pytest.approx(table[1], rel=1e-9)
    assert covered > 5000
