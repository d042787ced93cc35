"""Loop windings of the spin texture (F) and the complex energy (E)."""

import dataclasses
import math
import warnings

import numpy as np
import pytest

from epband import (
    Loop,
    LoopThroughDefectError,
    ModelParams,
    Momentum,
    UnresolvedLoopError,
    WindingError,
    WindingResult,
    locate_btps,
    make_loop,
    signature,
    wind_loops,
    winding_additivity_check,
    winding_number,
)
from epband.bloch import bloch_field_grid, principal_sqrt, right_eigvec, torus_distance, wrap_angle
from epband.phase import candidate_line_distance
from epband.winding import (
    _FIELD_FLOOR,
    _TIE_TOL,
    DegenerateTrackingError,
    _attempt,
    _kind_outcomes,
)

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
    loop = make_loop(center, btps)
    # nearest neighbour is the hybrid at (0, -pi/2): 0.4*(pi/3) caps at 0.1
    assert loop.radius == pytest.approx(0.1)


def test_make_loop_single_point():
    center = Momentum(1.0, 2.0)
    loop = make_loop(center, [])
    assert loop.radius == pytest.approx(0.1)


def test_make_loop_rejects_unresolved_pair():
    a = Momentum(1.0, 1.0)
    b = Momentum(1.0 + 1e-5, 1.0)
    fake = [type("B", (), {"k": b})()]
    with pytest.raises(UnresolvedLoopError, match="too close to separate"):
        make_loop(a, fake)


def test_make_loop_skips_only_its_own_entry():
    center = Momentum(1.0, 1.0)
    own = type("B", (), {"k": Momentum(1.0 + 2e-16, 1.0)})()
    assert make_loop(center, [own]).radius == 0.1
    with pytest.raises(UnresolvedLoopError, match="too close to separate"):
        make_loop(center, [own, own])  # a second touching as close counts


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
        loop = make_loop(b.k, locate_btps(p))
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
            r = winding_number(p, make_loop(b.k, btps), "F")
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
        wi_p = winding_number(p, make_loop(b.k, bp), "F").value
        wi_q = winding_number(q, make_loop(partner.k, bq), "F").value
        wii_p = winding_number(p, make_loop(b.k, bp), "E").value
        wii_q = winding_number(q, make_loop(partner.k, bq), "E").value
        assert wi_q == pytest.approx(wi_p, abs=1e-9)
        assert wii_q == pytest.approx(-wii_p, abs=1e-9)


def test_normal_ep_chirality_pairing():
    # convention-free: wII = -wI at every normal EP of the anchor set
    btps = locate_btps(ANCHOR)
    for b in btps:
        if b.kind != "NormalEP":
            continue
        wi = winding_number(ANCHOR, make_loop(b.k, btps), "F").value
        wii = winding_number(ANCHOR, make_loop(b.k, btps), "E").value
        assert wii == pytest.approx(-wi, abs=1e-9)
        assert abs(wi) == pytest.approx(0.5, abs=1e-9)


# ---------------------------------------------------------------- batched kernel


def test_batched_windings_match_single_loops():
    rng = np.random.default_rng(617)
    checked = 0
    for _ in range(12):
        p = _diamond_draw(rng)
        btps = locate_btps(p)
        loops = [make_loop(b.k, btps) for b in btps]
        for loop, windings in zip(loops, wind_loops(p, loops)):
            for kind, batched in zip(("F", "E"), windings):
                single = winding_number(p, loop, kind)
                assert batched.to_json_dict() == single.to_json_dict()
                checked += 1
    assert checked > 150


def test_mixed_batch_refines_only_the_loop_that_needs_it():
    p = ModelParams(1.0, -2.0 + 1e-5, 0.5, 0.0)
    btps = locate_btps(p)
    near = make_loop(btps[0].k, btps)
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


def test_wind_loops_returns_every_loop_settled():
    loops = [Loop(center=Momentum(0.0, -HALF_PI), radius=0.1), Loop(Momentum(1.0, 1.0), 0.1)]
    results = wind_loops(ANCHOR, loops)
    assert isinstance(results, list) and len(results) == 2
    assert all(isinstance(w, (WindingResult, WindingError)) for pair in results for w in pair)


def test_wind_loops_validation():
    loop = Loop(center=Momentum(1.0, 1.0), radius=0.1)
    with pytest.raises(ValueError):
        wind_loops(ANCHOR, [loop, Loop(center=Momentum(1.0, 1.0), radius=0.1, samples=1024)])
    with pytest.raises(ValueError):
        wind_loops(ANCHOR, [loop], kinds=("F", "G"))
    assert list(wind_loops(ANCHOR, [])) == []


def _overlap(u, v):
    a, b = u[:, :-1].conj(), v[:, 1:]
    return np.abs(a[..., 0] * b[..., 0] + a[..., 1] * b[..., 1])


def _two_eigenvector_attempt(params, loops, m, kinds):
    """Reference first pass: solve for both eigenvectors and track by four overlaps.

    Returns what ``_attempt`` returns, with nan in place of the raw angle
    when the two branches disagree on where the tracking flips.
    """
    theta = 2.0 * np.pi * np.arange(m) / m
    radius = np.array([[loop.radius] for loop in loops])
    kx = np.array([[loop.center.kx] for loop in loops]) + radius * np.cos(theta)
    ky = np.array([[loop.center.ky] for loop in loops]) + radius * np.sin(theta)
    kx = np.concatenate([kx, kx[:, :1]], axis=1)
    ky = np.concatenate([ky, ky[:, :1]], axis=1)
    bx, by = bloch_field_grid(params, kx, ky)
    with np.errstate(invalid="ignore", divide="ignore"):
        e = principal_sqrt(bx * bx + by * by)
        plus, minus = right_eigvec(bx, by, e), right_eigvec(bx, by, -e)
        for v in (plus, minus):
            v /= np.linalg.norm(v, axis=-1)[..., None]
        o_pp, o_pm = _overlap(plus, plus), _overlap(plus, minus)
        o_mp, o_mm = _overlap(minus, plus), _overlap(minus, minus)
        flip_from_plus = o_pm > o_pp
        ambiguous = np.any(flip_from_plus != (o_mp > o_mm), axis=1)
        parity = np.cumsum(flip_from_plus, axis=1) % 2
        parity = np.concatenate([np.zeros((len(loops), 1), parity.dtype), parity], axis=1)
        on_plus = parity == 0
        margins = np.where(on_plus[:, :-1], np.abs(o_pp - o_pm), np.abs(o_mm - o_mp))
        h_min = np.min(np.hypot(np.abs(bx), np.abs(by)), axis=1)
        e_min = np.min(np.abs(e), axis=1)
        margin_min = np.min(margins, axis=1)
        shared = []
        for i in range(len(loops)):
            if h_min[i] < 1e-12:
                shared.append(LoopThroughDefectError("h(k) vanishes on the loop"))
            elif e_min[i] < _FIELD_FLOOR:
                shared.append(LoopThroughDefectError("eigenvalue collapses on the loop"))
            elif ambiguous[i]:
                shared.append(math.nan)
            elif margin_min[i] < _TIE_TOL:
                shared.append(DegenerateTrackingError("eigenbranch overlaps tied on the loop"))
            else:
                shared.append(None)
        swapped = (on_plus[:, -1] != on_plus[:, 0]).tolist()
        per_kind = []
        for kind in kinds:
            if kind == "F":
                a = np.where(on_plus, plus[..., 0], minus[..., 0])
                b = np.where(on_plus, plus[..., 1], minus[..., 1])
                cross = a.conj() * b
                fx, fy = 2.0 * cross.real, np.abs(a) ** 2 - np.abs(b) ** 2
            else:
                e_tr = np.where(on_plus, e, -e)
                fx, fy = e_tr.real, e_tr.imag
            per_kind.append(_kind_outcomes(loops, kind, m, fx, fy, swapped, shared))
    return list(zip(*per_kind))


def _family_draws(rng, n):
    """Generic, near-merger, small-gamma and small-t couplings, n of each."""
    for _ in range(n):
        big_t, sign = rng.uniform(-1.8, -0.2), rng.choice([-1.0, 1.0])
        yield ModelParams(1.0, rng.uniform(-3.0, 3.0), rng.uniform(-1.0, 1.0), rng.uniform(-2, 2))
        yield ModelParams(1.0, -2.0 + 10.0 ** rng.uniform(-6.0, -1.0), 0.5, 0.0)
        yield ModelParams(1.0, big_t, 0.5, sign * 10.0 ** rng.uniform(-6.0, -1.0))
        yield ModelParams(1.0, big_t, sign * 10.0 ** rng.uniform(-11.0, -1.0), 0.5)


def test_one_eigenvector_kernel_matches_two_eigenvector_reference():
    # sigma_y v is the -E eigenvector, so tracking v against sigma_y v must
    # give the outcomes of tracking both solved eigenvectors
    rng = np.random.default_rng(9)
    draws = [_diamond_draw(rng) for _ in range(12)] + list(_family_draws(rng, 30))
    compared = swapped = 0
    for p in draws:
        btps = locate_btps(p)
        loops = []
        for b in btps:
            try:
                loops.append(make_loop(b.k, btps))
            except UnresolvedLoopError:
                break
        if not loops:
            continue
        new = _attempt(p, loops, 512, ("F", "E"))
        ref = _two_eigenvector_attempt(p, loops, 512, ("F", "E"))
        for got, want in ((g, w) for row in zip(new, ref) for g, w in zip(*row)):
            if isinstance(want, WindingResult):
                assert isinstance(got, WindingResult)
                assert (got.value, got.branch_swapped, got.samples) == (
                    want.value, want.branch_swapped, want.samples
                )
                assert abs(got.raw_angle - want.raw_angle) <= 1e-15
                swapped += got.branch_swapped
            elif isinstance(want, float):  # a raw angle: this loop needs more samples
                assert isinstance(got, float) and abs(got - want) <= 1e-15
            else:
                assert type(got) is type(want)
            compared += 1
    assert compared > 1000 and swapped > 300


# ---------------------------------------------------------------- tracking-free cross-checks


def test_energy_vorticity_is_half_the_discriminant_winding():
    # w_II needs no eigenvector: E^2 = Bx^2 + By^2 winds twice as often as E
    rng = np.random.default_rng(2017)
    checked = 0
    for _ in range(50):
        p = _diamond_draw(rng)
        sig = signature(p)
        for b in sig.btps:
            loop = make_loop(b.k, sig.btps)
            field_winding = _untracked_winding(p, loop, _discriminant)
            assert b.w_ii == pytest.approx(0.5 * field_winding, abs=1e-6)
            checked += 1
    assert checked > 400


def _assert_texture_is_field_winding(params):
    sig = signature(params)
    assert sig.n_btps > 0
    for b in sig.btps:
        loop = make_loop(b.k, sig.btps)
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
    parts = sum(winding_number(p, make_loop(b.k, btps), "F").value for b in pair)
    assert parts == pytest.approx(total, abs=1e-9)


def test_additivity_check_passes():
    p = ModelParams(1.0, -1.0, 0.5, 0.01)
    btps = locate_btps(p)
    big = Loop(center=Momentum(math.acos(0.5), HALF_PI), radius=0.05)
    assert winding_additivity_check(p, btps, big)


@pytest.mark.parametrize("gamma", [1e-10, -1e-10, 5e-10])
def test_additivity_raises_when_the_partner_ep_is_within_1e_9(gamma):
    # |gamma| <= 2|J| 1e-9 snaps onto gamma = 0: one Dirac point where the partner EPs
    # lie within make_loop's 1e-9 self-match, whose loop encloses both
    big = Loop(center=Momentum(math.pi / 3, HALF_PI), radius=0.05, samples=1024)
    p = ModelParams(1.0, -1.0, 0.5, gamma)
    assert signature(p).btps == signature(dataclasses.replace(p, gamma=0.0)).btps
    assert winding_additivity_check(p, locate_btps(p), big)
    # past the snap the partner lies 3.5e-9 off and no loop separates the two
    p = ModelParams(1.0, -1.0, 0.5, math.copysign(3e-9, gamma))
    btps = locate_btps(p)
    assert {b.kind for b in btps} == {"NormalEP"}
    with pytest.raises(UnresolvedLoopError, match="too close to separate"):
        winding_additivity_check(p, btps, big)
    with pytest.raises(UnresolvedLoopError, match="too close to separate"):
        signature(p)
    p = ModelParams(1.0, -1.0, 0.5, 0.05)
    assert winding_additivity_check(p, locate_btps(p), big)


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
