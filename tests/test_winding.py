"""Loop windings of the spin texture (F) and the complex energy (E)."""

import math
import warnings

import numpy as np
import pytest

from epband import (
    Loop,
    LoopThroughDefectError,
    ModelParams,
    Momentum,
    WindingError,
    locate_btps,
    make_loop,
    signature,
    wind_loops,
    winding_additivity_check,
    winding_number,
)
from epband.bloch import bloch_field_grid, torus_distance, wrap_angle
from epband.phase import candidate_line_distance

ANCHOR = ModelParams(J=1.0, T=-1.5, t=0.5, gamma=0.5)
HALF_PI = math.pi / 2


def _wind(params, center, kind, radius=0.1, **kw):
    loop = Loop(center=Momentum(*center), radius=radius)
    return winding_number(params, loop, kind, **kw)


def _diamond_draw(rng):
    """Couplings inside the two-branch diamond, off the candidate lines."""
    while True:
        gamma = rng.uniform(-2.0, 2.0)
        big_t = rng.uniform(-2.0, 2.0)
        if abs(big_t + gamma) > 2.0 or abs(big_t - gamma) > 2.0:
            continue
        if candidate_line_distance(gamma, big_t, 1.0)[1] < 0.02:
            continue
        return ModelParams(J=1.0, T=big_t, t=rng.uniform(0.2, 0.8), gamma=gamma)


def _hermitian_draw(rng):
    """Eight Dirac points: gamma = 0, T clear of the mergers at T in {0, +-2J}."""
    big_t = rng.choice([-1.0, 1.0]) * rng.uniform(0.05, 1.95)
    return ModelParams(J=1.0, T=big_t, t=rng.uniform(0.2, 0.8), gamma=0.0)


def _untracked_winding(params, loop, planar):
    """Turns of ``planar(Bx, By) -> (x, y)`` around the loop; no branch tracking.

    Samples double until no step turns by more than pi/4.
    """
    m = 1024
    while True:
        theta = 2.0 * np.pi * np.arange(m + 1) / m
        bx, by = bloch_field_grid(
            params,
            loop.center.kx + loop.radius * np.cos(theta),
            loop.center.ky + loop.radius * np.sin(theta),
        )
        x, y = planar(bx, by)
        d = wrap_angle(np.diff(np.arctan2(y, x)))
        if np.max(np.abs(d)) < 0.25 * np.pi:
            return float(np.sum(d) / (2.0 * np.pi))
        assert m < 2**20, "field turns too fast to sample"
        m *= 2


def _discriminant(bx, by):
    w = bx * bx + by * by
    return w.real, w.imag


def _hermitian_field(bx, by):
    return bx, by.real


# ---------------------------------------------------------------- loop sizing


def test_make_loop_radius_cap():
    btps = locate_btps(ANCHOR)
    center = Momentum(math.pi / 3, -HALF_PI)
    loop = make_loop(center, ANCHOR, btps)
    # nearest neighbour is the hybrid at (0, -pi/2): 0.4*(pi/3) caps at 0.1
    assert loop.radius == pytest.approx(0.1)


def test_make_loop_single_point():
    center = Momentum(1.0, 2.0)
    loop = make_loop(center, ANCHOR, [])
    assert loop.radius == pytest.approx(0.1)


def test_make_loop_rejects_unresolved_pair():
    a = Momentum(1.0, 1.0)
    b = Momentum(1.0 + 1e-5, 1.0)
    fake = [type("B", (), {"k": b})()]
    with pytest.raises(ValueError):
        make_loop(a, ANCHOR, fake)


def test_loop_validation():
    with pytest.raises(ValueError):
        Loop(center=Momentum(0, 0), radius=-1.0)
    with pytest.raises(ValueError):
        Loop(center=Momentum(0, 0), radius=0.1, samples=16)


# ---------------------------------------------------------------- pinned values


def test_normal_ep_half_charges():
    r = _wind(ANCHOR, (-math.pi / 3, -HALF_PI), "F")
    assert r.value == pytest.approx(0.5, abs=1e-9)
    assert r.residual < 0.05
    assert r.branch_swapped
    r = _wind(ANCHOR, (-math.pi / 3, -HALF_PI), "E")
    assert r.value == pytest.approx(-0.5, abs=1e-9)


def test_hybrid_ep_zero_charges():
    for kind in ("F", "E"):
        r = _wind(ANCHOR, (0.0, -HALF_PI), kind)
        assert r.value == pytest.approx(0.0, abs=1e-9)
        assert not r.branch_swapped


def test_empty_loop_zero():
    for kind in ("F", "E"):
        assert _wind(ANCHOR, (1.0, 1.0), kind).value == 0.0


def test_charge_pattern_on_half_pi_line():
    # the three touchings on ky = -pi/2 with kx <= 0, ordered by kx:
    # wI = (+1/2, 0, -1/2), wII the negative
    kxs = (-math.pi / 3, 0.0, math.pi / 3)
    wi = [_wind(ANCHOR, (kx, -HALF_PI), "F").value for kx in kxs]
    wii = [_wind(ANCHOR, (kx, -HALF_PI), "E").value for kx in kxs]
    assert wi == pytest.approx([0.5, 0.0, -0.5], abs=1e-9)
    assert wii == pytest.approx([-0.5, 0.0, 0.5], abs=1e-9)


def test_dirac_point_unit_charge():
    p = ModelParams(1.0, -1.0, 0.5, 0.0)
    values = set()
    for b in locate_btps(p):
        loop = make_loop(b.k, p, locate_btps(p))
        values.add(round(winding_number(p, loop, "F").value, 6))
    assert values == {1.0, -1.0}


# ---------------------------------------------------------------- invariants


def test_independence_of_discretization():
    center = (-math.pi / 3, -HALF_PI)
    base = _wind(ANCHOR, center, "F").value
    assert _wind(ANCHOR, center, "F", radius=0.05).value == base
    r = winding_number(
        ANCHOR, Loop(center=Momentum(*center), radius=0.1, samples=1024), "F"
    )
    assert r.value == base
    assert _wind(ANCHOR, center, "F", start_branch="minus").value == base


def test_quantization_random_draws():
    rng = np.random.default_rng(41)
    checked = 0
    for _ in range(12):
        while True:
            gamma = rng.uniform(-2.0, 2.0)
            big_t = rng.uniform(-3.0, 3.0)
            if abs(big_t + gamma) <= 2.0 and abs(big_t - gamma) <= 2.0:
                break
        p = ModelParams(1.0, big_t, rng.uniform(0.1, 1.0), gamma)
        btps = locate_btps(p)
        total = 0.0
        for b in btps:
            r = winding_number(p, make_loop(b.k, p, btps), "F")
            assert abs(2.0 * r.value - round(2.0 * r.value)) < 1e-9
            assert r.residual < 0.05
            total += r.value
            checked += 1
        assert total == pytest.approx(0.0, abs=1e-9)
    assert checked > 40


def test_gamma_flip_laws():
    p = ModelParams(1.0, -1.5, 0.5, 0.5)
    q = ModelParams(1.0, -1.5, 0.5, -0.5)
    bp, bq = locate_btps(p), locate_btps(q)
    assert len(bp) == len(bq)
    for b in bp:
        partner = min(bq, key=lambda o: torus_distance(b.k, o.k))
        assert torus_distance(b.k, partner.k) < 1e-9
        wi_p = winding_number(p, make_loop(b.k, p, bp), "F").value
        wi_q = winding_number(q, make_loop(partner.k, q, bq), "F").value
        wii_p = winding_number(p, make_loop(b.k, p, bp), "E").value
        wii_q = winding_number(q, make_loop(partner.k, q, bq), "E").value
        assert wi_q == pytest.approx(wi_p, abs=1e-9)
        assert wii_q == pytest.approx(-wii_p, abs=1e-9)


def test_normal_ep_chirality_pairing():
    # convention-free: wII = -wI at every normal EP of the anchor set
    btps = locate_btps(ANCHOR)
    for b in btps:
        if b.kind != "NormalEP":
            continue
        wi = winding_number(ANCHOR, make_loop(b.k, ANCHOR, btps), "F").value
        wii = winding_number(ANCHOR, make_loop(b.k, ANCHOR, btps), "E").value
        assert wii == pytest.approx(-wi, abs=1e-9)
        assert abs(wi) == pytest.approx(0.5, abs=1e-9)


# ---------------------------------------------------------------- batched kernel


def test_batched_windings_match_single_loops():
    rng = np.random.default_rng(617)
    checked = 0
    for _ in range(12):
        p = _diamond_draw(rng)
        btps = locate_btps(p)
        loops = [make_loop(b.k, p, btps) for b in btps]
        for loop, windings in zip(loops, wind_loops(p, loops)):
            for kind, batched in zip(("F", "E"), windings):
                single = winding_number(p, loop, kind)
                assert batched.to_json_dict() == single.to_json_dict()
                checked += 1
    assert checked > 150


def test_mixed_batch_refines_only_the_loop_that_needs_it():
    p = ModelParams(1.0, -2.0 + 1e-5, 0.5, 0.0)
    btps = locate_btps(p)
    near = make_loop(btps[0].k, p, btps)
    far = Loop(center=Momentum(math.pi, math.pi), radius=0.1)
    results = list(wind_loops(p, [near, far]))
    for loop, windings in zip((near, far), results):
        for kind, batched in zip(("F", "E"), windings):
            assert batched.to_json_dict() == winding_number(p, loop, kind).to_json_dict()
    assert results[0][1].samples > 512  # the E winding near the merger refines
    assert [r.samples for r in results[1]] == [512, 512]


def test_wind_loops_reports_errors_per_loop():
    p = ModelParams(1.0, -1.0, 0.5, 0.0)
    dp = Momentum(math.acos(0.5), HALF_PI)
    through = Loop(center=Momentum(dp.kx + 0.1, dp.ky), radius=0.1)
    clear = Loop(center=Momentum(1.0, 1.0), radius=0.1)
    (f_bad, e_bad), (f_ok, e_ok) = wind_loops(p, [through, clear])
    assert isinstance(f_bad, LoopThroughDefectError)
    assert isinstance(e_bad, LoopThroughDefectError)
    assert f_ok.value == 0.0 and e_ok.value == 0.0


def test_wind_loops_validation():
    loop = Loop(center=Momentum(1.0, 1.0), radius=0.1)
    with pytest.raises(ValueError):
        wind_loops(ANCHOR, [loop, Loop(center=Momentum(1.0, 1.0), radius=0.1, samples=1024)])
    with pytest.raises(ValueError):
        wind_loops(ANCHOR, [loop], kinds=("F", "G"))
    assert list(wind_loops(ANCHOR, [])) == []


# ---------------------------------------------------------------- tracking-free cross-checks


def test_energy_vorticity_is_half_the_discriminant_winding():
    # w_II needs no eigenvector: E^2 = Bx^2 + By^2 winds twice as often as E
    rng = np.random.default_rng(2017)
    checked = 0
    for _ in range(50):
        p = _diamond_draw(rng)
        sig = signature(p)
        for b in sig.btps:
            loop = make_loop(b.k, p, sig.btps)
            assert b.w_ii == pytest.approx(0.5 * _untracked_winding(p, loop, _discriminant), abs=1e-6)
            checked += 1
    assert checked > 400


def _assert_texture_is_field_winding(params):
    sig = signature(params)
    assert sig.n_btps > 0
    for b in sig.btps:
        loop = make_loop(b.k, params, sig.btps)
        assert b.w_i == pytest.approx(_untracked_winding(params, loop, _hermitian_field), abs=1e-6)


def test_hermitian_texture_is_field_winding():
    # at gamma = 0 the tracked spin texture is (Bx, By) / |B| up to sign
    rng = np.random.default_rng(40)
    for _ in range(20):
        _assert_texture_is_field_winding(_hermitian_draw(rng))


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 1: Dirac windings alias near the semi-Dirac merger "
    "(512 samples, no guard on the untracked field's turning)",
)
def test_hermitian_texture_is_field_winding_near_merger():
    _assert_texture_is_field_winding(ModelParams(1.0, -2.0 + 2e-5, 0.5, 0.0))


# ---------------------------------------------------------------- additivity


def test_split_pair_sums_to_parent_charge():
    p = ModelParams(1.0, -1.0, 0.5, 0.01)
    btps = locate_btps(p)
    parent = Momentum(math.acos(0.5), HALF_PI)
    pair = [b for b in btps if torus_distance(b.k, parent) < 0.05]
    assert len(pair) == 2
    big = Loop(center=parent, radius=0.05)
    total = winding_number(p, big, "F").value
    assert abs(total) == pytest.approx(1.0, abs=1e-9)
    parts = sum(winding_number(p, make_loop(b.k, p, btps), "F").value for b in pair)
    assert parts == pytest.approx(total, abs=1e-9)


def test_additivity_check_passes():
    p = ModelParams(1.0, -1.0, 0.5, 0.01)
    btps = locate_btps(p)
    big = Loop(center=Momentum(math.acos(0.5), HALF_PI), radius=0.05)
    assert winding_additivity_check(p, btps, big)


def test_additivity_rejects_touching_on_path():
    p = ModelParams(1.0, -1.0, 0.5, 0.01)
    btps = locate_btps(p)
    parent = Momentum(math.acos(0.5), HALF_PI)
    d = min(torus_distance(parent, b.k) for b in btps)
    bad = Loop(center=parent, radius=max(d, 1e-3))
    near = [b for b in btps if torus_distance(b.k, parent) < 0.02]
    with pytest.raises(ValueError):
        winding_additivity_check(p, near, bad)


# ---------------------------------------------------------------- errors


def test_loop_through_defect_rejected():
    # only a Dirac point can trip the field floor in float64 (h itself
    # vanishes there); at an EP the residual |E| never drops below ~1e-8.
    # Place the theta = pi sample right on the touching.
    p = ModelParams(1.0, -1.0, 0.5, 0.0)
    dp = Momentum(math.acos(0.5), HALF_PI)
    loop = Loop(center=Momentum(dp.kx + 0.1, dp.ky), radius=0.1)
    with pytest.raises(LoopThroughDefectError):
        winding_number(p, loop, "F")


def test_winding_error_is_runtime_error():
    assert issubclass(LoopThroughDefectError, WindingError)
    assert issubclass(WindingError, RuntimeError)


def test_field_kind_validation():
    loop = Loop(center=Momentum(1.0, 1.0), radius=0.1)
    with pytest.raises(ValueError):
        winding_number(ANCHOR, loop, "G")
    with pytest.raises(ValueError):
        winding_number(ANCHOR, loop, "F", start_branch="up")


def test_result_json_shape():
    r = _wind(ANCHOR, (1.0, 1.0), "F")
    d = r.to_json_dict()
    assert set(d) == {
        "value",
        "rawAngle",
        "residual",
        "fieldKind",
        "branchSwapped",
        "center",
        "radius",
        "samples",
    }
    assert d["fieldKind"] == "F"
