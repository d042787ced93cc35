"""Loop windings of the spin texture (F) and the complex energy (E)."""

import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import epband.winding
from epband import (
    Loop,
    LoopThroughDefectError,
    ModelParams,
    Momentum,
    WindingError,
    WindingResult,
    locate_btps,
    make_loop,
    signature,
    wind_loops,
    winding_additivity_check,
    winding_number,
)
from epband.bloch import (bloch_field_grid, observables_grid, principal_sqrt, right_eigvec,
                          torus_distance, wrap_angle)
from epband.btp import face
from epband.cli import _ARROW_GRID, _centers
from epband.winding import (_FIELD_FLOOR, MAX_SAMPLES, START_SAMPLES, NonQuantizedLoopError,
                            _attempt, _wrap_steps)
from test_bloch import stacked_eigvec
from test_cli import BENCHMARK_WORKLOADS
from test_phase import line_distance

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
        if line_distance(gamma, big_t) < 0.02:
            continue
        return ModelParams(J=1.0, T=big_t, t=rng.uniform(0.2, 0.8), gamma=gamma)


def _hermitian_draw(rng):
    """Eight Dirac points: gamma = 0, T clear of the mergers at T in {0, +-2J}."""
    big_t = rng.choice([-1.0, 1.0]) * rng.uniform(0.05, 1.95)
    return ModelParams(J=1.0, T=big_t, t=rng.uniform(0.2, 0.8), gamma=0.0)


def _untracked_winding(params, loop, planar, m=1024):
    """Turns of ``planar(Bx, By) -> (x, y)`` around the loop; no branch tracking.

    Samples double from ``m`` until no step turns by more than pi/4.
    """
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


def test_make_loop_separates_a_pair_1e_5_apart():
    # no radius floor: the loop stays clear of the partner however close, and winding it
    # judges whether it resolves its touching
    a = Momentum(1.0, 1.0)
    b = Momentum(1.0 + 1e-5, 1.0)
    fake = [type("B", (), {"k": b})()]
    assert make_loop(a, fake).radius == pytest.approx(0.4e-5, rel=1e-9)


def test_make_loop_skips_only_its_own_entry():
    center = Momentum(1.0, 1.0)
    own = type("B", (), {"k": Momentum(1.0 + 2e-16, 1.0)})()
    assert make_loop(center, [own]).radius == 0.1
    # a second touching as close counts, and no circle encloses the one without the other
    with pytest.raises(ValueError, match=r"loop radius must lie in \(0, pi\)"):
        make_loop(center, [own, own])


def test_loop_validation():
    with pytest.raises(ValueError):
        Loop(center=Momentum(0, 0), radius=-1.0)
    # a circle of radius pi or more wraps the 2 pi torus and encloses no region: around the
    # touching a 0.1 loop winds to 0.5, radii 4.0 and 7.0 wound to 1.0 and 1e308 to 7.5
    for radius in (math.pi, 4.0, 7.0, 1e308):
        with pytest.raises(ValueError, match=r"loop radius must lie in \(0, pi\)"):
            Loop(center=Momentum(-math.pi / 3, -HALF_PI), radius=radius)
    assert Loop(center=Momentum(0, 0), radius=math.nextafter(math.pi, 0.0)).radius < math.pi


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
    assert _wind(ANCHOR, center, "F", radius=0.02).value == base


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
                assert batched == single
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
            assert batched == winding_number(p, loop, kind)
    # the F winding near the merger refines onto the Dirac charge; E is real there and does not
    assert (results[0][0].value, results[0][1].value) == (btps[0].w_i, btps[0].w_ii)
    assert results[0][0].samples > 512 and results[0][1].samples == 512
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
        wind_loops(ANCHOR, [loop], kinds=("F", "G"))
    # no kind asked for would drop the one tuple per loop the result promises
    with pytest.raises(ValueError):
        wind_loops(ANCHOR, [loop, Loop(center=Momentum(-1.0, 1.0), radius=0.1)], kinds=())
    assert list(wind_loops(ANCHOR, [])) == []


def _loop_sets(params):
    """The loops ``signature`` winds at ``params``."""
    btps = locate_btps(params)
    return [make_loop(b.k, btps) for b in btps]


def _loop_field(params, loops, m):
    """(Bx, By) on each loop's m samples plus its first one again, as ``_attempt`` samples it."""
    theta = 2.0 * np.pi * np.arange(m) / m
    radius = np.array([[loop.radius] for loop in loops])
    kx = np.array([[loop.center.kx] for loop in loops]) + radius * np.cos(theta)
    ky = np.array([[loop.center.ky] for loop in loops]) + radius * np.sin(theta)
    kx = np.concatenate([kx, kx[:, :1]], axis=1)
    ky = np.concatenate([ky, ky[:, :1]], axis=1)
    return bloch_field_grid(params, kx, ky)


def _eigenvalue_parity(e, track):
    """Branch parity per sample, 0 on the start branch, as a cumsum over the steps where two
    consecutive principal roots point apart; none where nothing is tracked."""
    swaps = ((e[:, 1:] * e[:, :-1].conj()).real < 0.0) & track
    return np.concatenate([np.zeros((len(e), 1), int), np.cumsum(swaps, axis=1) % 2], axis=1)


def _two_eigenvector_attempt(params, loops, m, kinds):
    """Reference first pass: solve for both eigenvectors and take F off the one on the branch
    the eigenvalue parity picks."""
    bx, by = _loop_field(params, loops, m)
    with np.errstate(invalid="ignore", divide="ignore"):
        e = principal_sqrt(bx * bx + by * by)
        plus, minus = stacked_eigvec(bx, by, e), stacked_eigvec(bx, by, -e)
        for v in (plus, minus):
            v /= np.linalg.norm(v, axis=-1)[..., None]
        # at gamma = 0 h is real symmetric and E >= 0: the +E branch is followed throughout
        track = face(params).gamma != 1
        on_plus = _eigenvalue_parity(e, track) == 0
        e_min = np.min(np.abs(e), axis=1)
        shared = []
        for i in range(len(loops)):
            if e_min[i] < _FIELD_FLOOR:
                shared.append(LoopThroughDefectError("eigenvalue collapses on the loop"))
            else:
                shared.append(None)
        swapped = (on_plus[:, -1] != on_plus[:, 0]).tolist()
        per_kind, witness = {}, False
        for kind in ("F", "E"):
            if kind not in kinds and not (track and kind == "F"):
                continue  # where a branch is tracked, F witnesses it even when not asked for
            if kind == "F":
                a = np.where(on_plus, plus[..., 0], minus[..., 0])
                b = np.where(on_plus, plus[..., 1], minus[..., 1])
                cross = a.conj() * b
                fx, fy = 2.0 * cross.real, np.abs(a) ** 2 - np.abs(b) ** 2
            else:
                e_tr = np.where(on_plus, e, -e)
                fx, fy = e_tr.real, e_tr.imag
            per_kind[kind], coarse = _stacked_outcomes(loops, kind, m, fx, fy, swapped, shared,
                                                       witness)
            witness = coarse & track  # F's steps past pi/2 refine E
    return list(zip(*(per_kind[kind] for kind in kinds)))


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
        loops = _loop_sets(p)
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


# ---------------------------------------------------------------- stacked-kernel reference
# The reference kernel: stacked (..., 2) vectors, two 2-norm passes, np.hypot guards, the
# float-remainder wrap and a cumsum parity, each the plain numpy form of its step.


def _stacked_right_eigvec(bx, by, e):
    """The eigenvector kernel in its stacked form: (..., 2) candidates picked by numpy's 2-norm."""
    v1 = np.stack([bx, e - by], axis=-1)
    v2 = np.stack([e + by, bx], axis=-1)
    use1 = np.linalg.norm(v1, axis=-1) >= np.linalg.norm(v2, axis=-1)
    return np.where(use1[..., None], v1, v2)


def _stacked_outcomes(loops, kind, m, fx, fy, swapped, shared, witness):
    """Per-loop outcomes of one field, taken with np.hypot and wrap_angle's float remainder,
    and which loops turn past pi/2 in a step; a loop set in ``witness`` needs refining."""
    collapsed = np.min(np.hypot(fx, fy), axis=1) < _FIELD_FLOOR
    d = wrap_angle(np.diff(np.arctan2(fy, fx), axis=1))
    raws = (np.sum(d, axis=1) / (2.0 * np.pi)).tolist()
    coarse = np.max(np.abs(d), axis=1) > 0.5 * np.pi
    refine = coarse | witness
    outcomes = []
    for i, loop in enumerate(loops):
        if shared[i] is not None:
            outcomes.append(shared[i])
            continue
        if collapsed[i]:
            outcomes.append(LoopThroughDefectError(f"{kind} field magnitude collapses on the loop"))
            continue
        raw = raws[i]
        value = round(2.0 * raw) / 2.0
        residual = abs(raw - value)
        if refine[i] or residual >= 0.05 or (abs(round(2.0 * value)) % 2 == 1) != swapped[i]:
            outcomes.append(raw)
            continue
        outcomes.append(WindingResult(value, raw, residual, kind, swapped[i], loop.center,
                                      loop.radius, m))
    return outcomes, coarse


def _stacked_attempt(params, loops, m, kinds):
    """Reference first pass on stacked eigenvectors, each normalized by a second 2-norm pass."""
    bx, by = _loop_field(params, loops, m)
    with np.errstate(invalid="ignore", divide="ignore"):
        e = principal_sqrt(bx * bx + by * by)
        v = _stacked_right_eigvec(bx, by, e)
        v /= np.linalg.norm(v, axis=-1)[..., None]
        a, b = v[..., 0], v[..., 1]
        track = face(params).gamma != 1  # gamma = 0: no branch swaps, and none is tracked
        sign = 1.0 - 2.0 * _eigenvalue_parity(e, track)
        e_min = np.min(np.abs(e), axis=1)
        shared = []
        for i in range(len(loops)):
            if e_min[i] < _FIELD_FLOOR:
                shared.append(LoopThroughDefectError("eigenvalue collapses on the loop"))
            else:
                shared.append(None)
        swapped = (sign[:, -1] < 0).tolist()
        per_kind, witness = {}, False
        for kind in ("F", "E"):
            if kind not in kinds and not (track and kind == "F"):
                continue  # where a branch is tracked, F witnesses it even when not asked for
            if kind == "F":
                fx, fy = 2.0 * (a.conj() * b).real, np.abs(a) ** 2 - np.abs(b) ** 2
            else:
                fx, fy = e.real, e.imag
            per_kind[kind], coarse = _stacked_outcomes(loops, kind, m, sign * fx, sign * fy,
                                                       swapped, shared, witness)
            witness = coarse & track  # F's steps past pi/2 refine E
    return list(zip(*(per_kind[kind] for kind in kinds)))


def _bits(x):
    return np.ascontiguousarray(x).view(np.uint64)


def _scan_window_loop_sets():
    """The loops every classified cell of the 11x11 t = 0.5 scan of [-2, 2]^2 winds."""
    axis = np.linspace(-2.0, 2.0, 11)
    cells = (ModelParams(1.0, float(big_t), 0.5, float(g)) for g in axis for big_t in axis)
    return [(p, loops) for p in cells if not face(p).on_line and (loops := _loop_sets(p))]


def _assert_same_attempt(params, loops, m):
    got = _attempt(params, loops, m, ("F", "E"))
    want = _stacked_attempt(params, loops, m, ("F", "E"))
    for g, w in ((g, w) for row in zip(got, want, strict=True) for g, w in zip(*row, strict=True)):
        assert type(g) is type(w)
        # a WindingResult compares every field, its raw angle and residual too, with ==
        assert str(g) == str(w) if isinstance(w, WindingError) else g == w


def test_component_kernel_is_bit_identical_to_stacked_kernel():
    # one norm per candidate, summed as numpy sums it, the same complex-by-real division,
    # squared guards and an exact wrap: every outcome equals the stacked kernel's exactly
    readme = (ANCHOR, [Loop(Momentum(-math.pi / 3, -HALF_PI), 0.1)])
    # the theta = pi sample lands on the Dirac point at (pi/3, pi/2), where h = 0: E's floor
    # fails there, for both kinds, as it does in the reference
    through = (ModelParams(1.0, -1.0, 0.5, 0.0), [Loop(Momentum(math.pi / 3 + 0.1, HALF_PI), 0.1)])
    _assert_same_attempt(*through, 512)
    assert [str(o) for o in _attempt(*through, 512, ("F", "E"))[0]] == [
        "eigenvalue collapses on the loop"] * 2
    scan = _scan_window_loop_sets()
    assert len(scan) == 72
    rng = np.random.default_rng(16)
    families = [(p, _loop_sets(p)) for p in _family_draws(rng, 6)]
    # near-merger loops are the ones that refine the most
    mergers = [(p, loops) for p, loops in families[1::4] if loops]
    sets = [readme, *scan, *((p, loops) for p, loops in families if loops)]
    # and every loop set the benchmark's points pass winds, at seeds 1-4
    points = [(label, p, loops) for seed in range(1, 5)
              for label, p in BENCHMARK_WORKLOADS.draw_points(seed) if (loops := _loop_sets(p))]
    assert len(points) > 600
    for _, p, loops in points:
        _assert_same_attempt(p, loops, 512)
    mergers += [(p, loops) for label, p, loops in points if label == "merger"][::24]
    for p, loops in sets:
        _assert_same_attempt(p, loops, 512)
        bx, by = _loop_field(p, loops, 512)
        with np.errstate(invalid="ignore", divide="ignore"):
            e = principal_sqrt(bx * bx + by * by)
            a, b, norm = right_eigvec(bx, by, e)
            v = _stacked_right_eigvec(bx, by, e)
            np.testing.assert_array_equal(_bits(norm), _bits(np.linalg.norm(v, axis=-1)))
            v /= np.linalg.norm(v, axis=-1)[..., None]
            np.testing.assert_array_equal(_bits(a / norm), _bits(v[..., 0]))
            np.testing.assert_array_equal(_bits(b / norm), _bits(v[..., 1]))
    # refinement winds the loops still open together at 1024, 2048, ... samples, fewer to a
    # pass as the count grows: at 2^16 one loop to a pass
    for p, loops in sets[::4]:
        _assert_same_attempt(p, loops, 4096)
    for p, loops in [readme, *mergers]:
        _assert_same_attempt(p, loops[:1], 65536)


def _remainder_wrap(d):
    # the float-remainder wrap the winding kernel's steps reproduce
    return math.pi - (math.pi - d) % (2.0 * math.pi)


def test_exact_wrap_equals_float_remainder_on_arctan2_steps():
    # a step between two arctan2 values lies in [-2 pi, 2 pi]; there the compare-and-subtract
    # wrap must give the float remainder bit for bit, signed zeros and ends included.  One ulp
    # above pi the remainder rounds onto -pi (wrap_angle gives pi there); the exact wrap must do
    # the same.  Either step is over pi / 2, so the loop is refined.
    ends = np.array([math.pi, -math.pi, 2.0 * math.pi, -2.0 * math.pi, 0.0, -0.0])
    near = np.concatenate([np.nextafter(ends, math.inf), np.nextafter(ends, -math.inf)])
    assert _remainder_wrap(np.nextafter(math.pi, 4.0)) == -math.pi
    assert wrap_angle(np.nextafter(math.pi, 4.0)) == math.pi
    rng = np.random.default_rng(17)
    angles = np.arctan2(rng.normal(size=(2, 10**6)), rng.normal(size=(2, 10**6)))
    for d in (ends, near[np.abs(near) <= 2.0 * math.pi], rng.uniform(-2.0, 2.0, 10**6) * math.pi,
              angles[1] - angles[0], np.diff(np.arctan2([0.0, -0.0, 0.0], [-1.0, -1.0, 1.0]))):
        np.testing.assert_array_equal(_bits(_wrap_steps(d.copy())), _bits(_remainder_wrap(d)))


def test_observables_grid_is_bit_identical_to_stacked_kernel():
    # field-export's two grids at the README couplings
    for n in (128, _ARROW_GRID):
        kx, ky = np.meshgrid(_centers(n), _centers(n), indexing="ij")
        bx, by = bloch_field_grid(ANCHOR, kx, ky)
        v = _stacked_right_eigvec(bx, by, principal_sqrt(bx * bx + by * by))
        a, b = v[..., 0], v[..., 1]
        norm = np.abs(a) ** 2 + np.abs(b) ** 2
        norm = np.where(norm == 0.0, 1.0, norm)
        cross = np.conj(a) * b
        want = (2.0 * cross.real / norm, (np.abs(a) ** 2 - np.abs(b) ** 2) / norm,
                2.0 * cross.imag / norm)
        for got, ref in zip(observables_grid(ANCHOR, kx, ky), want, strict=True):
            np.testing.assert_array_equal(_bits(got), _bits(ref))


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


def test_hermitian_texture_is_field_winding_near_merger():
    # tracked 512-sample loops once swapped branches in pairs here and wound 0 for +-1
    _assert_texture_is_field_winding(ModelParams(1.0, -2.0 + 2e-5, 0.5, 0.0))


def _small_t_hermitian_draws(seed=12):
    """gamma = 0 draws at |t/J| around 1e-3, 1e-2 and 1e-1, clear of the mergers at T in
    {0, +-2J}, and T = -2 + 2e-5 next to the semi-Dirac merger."""
    rng = np.random.default_rng(seed)
    for e in (-3.0, -2.0, -1.0):
        for _ in range(4):
            big_t = rng.choice([-1.0, 1.0]) * rng.uniform(0.05, 1.95)
            t = rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(e - 0.5, e + 0.5)
            yield ModelParams(1.0, big_t, t, 0.0)
    yield ModelParams(1.0, -2.0 + 2e-5, 0.5, 0.0)


@pytest.mark.parametrize("params", list(_small_t_hermitian_draws()))
def test_charge_rule_is_the_untracked_field_winding(params):
    # at gamma = 0, w_I of a Dirac point is the degree of (Bx, Re By) around it: the closed-form
    # charge that locate_btps sets equals the untracked winding at 2^16 samples or more
    btps = locate_btps(params)
    assert [b.kind for b in btps] == ["DiracPoint"] * 8
    for b in btps:
        turns = _untracked_winding(params, make_loop(b.k, btps), _hermitian_field, m=2**16)
        assert (b.w_i, b.w_ii) == (pytest.approx(turns, abs=1e-6), 0.0)
    # tracked loops failed the census on 6 of these 13 draws; untracked, it confirms every
    # charge save beside the merger at T = 0, where k_c lies within 0.03 of pi/2 and the
    # loops' field turns past pi/2 in a step at every sample count
    if abs(params.T) < 0.1:
        with pytest.raises(NonQuantizedLoopError):
            signature(params)
    else:
        assert list(signature(params).btps) == btps


def test_gamma_zero_loop_beside_the_t_zero_merger_raises_a_typed_error():
    # gamma = 0 and -T/2J = 0.02: k_c lies 0.02 from pi/2, and every Dirac loop's field still
    # turns past pi/2 in a step at 2^16 samples.  Its raw angle is the charge, yet F raises
    # and never returns a value; E is real and winds 0
    p = ModelParams(1.2731068227677047, -0.05096735189088856, 0.0020740942029168377, 0.0)
    btps = locate_btps(p)
    for b, (f, e) in zip(btps, wind_loops(p, [make_loop(b.k, btps) for b in btps])):
        assert type(f) is NonQuantizedLoopError and f.raw_angle == pytest.approx(b.w_i)
        assert (e.value, e.samples) == (b.w_ii, 512)
    with pytest.raises(NonQuantizedLoopError, match="raw angle -1.000000 turns"):
        signature(p)


@settings(max_examples=60, deadline=None)
@given(j=st.floats(0.3, 3.0), j_sign=st.sampled_from([1.0, -1.0]), big_t=st.floats(-2.0, 2.0),
       e=st.floats(-4.0, math.log10(3.0)), t_sign=st.sampled_from([1.0, -1.0]),
       g=st.sampled_from([0.0, 1.0, -1.0]) | st.floats(-1.0, 1.0))
def test_gamma_zero_loop_winds_its_charges_or_raises(j, j_sign, big_t, e, t_sign, g):
    # at gamma = 0 and in the band face snaps onto it, |t/J| log-uniform in [1e-4, 3]: each
    # touching's loop winds its closed-form charges or raises a WindingError, never another
    # value.  Tracked loops returned 0 for +-1 here, and +-1/2 with a made-up swap
    p = ModelParams(j_sign * j, big_t * j, t_sign * j * 10.0**e, g * 2e-9 * j)
    assume(face(p).gamma == 1)
    btps = locate_btps(p)
    for b in btps:
        loop = make_loop(b.k, btps)
        for kind, charge in (("F", b.w_i), ("E", b.w_ii)):
            try:
                assert winding_number(p, loop, kind).value == charge, (p, b, kind)
            except WindingError:
                pass


_SIGNS = st.sampled_from([1.0, -1.0])


@st.composite
def _hard_couplings(draw, family):
    """Couplings of one family, in units of a random |J|: near a pair merger, with a branch
    level just past a merger level, at small gamma, at small t, or at gamma = 0 with small
    |t/J|.  Their loops refine the most."""
    j = draw(_SIGNS) * 10.0 ** draw(st.floats(-0.3, 0.3))
    side, t_sign, g_sign = draw(_SIGNS), draw(_SIGNS), draw(_SIGNS)
    big_t, t, gamma = side * draw(st.floats(0.2, 1.8)), t_sign * draw(st.floats(0.2, 0.8)), 0.0
    if family == "merger":
        big_t = side * (2.0 - 10.0 ** draw(st.floats(-6.0, -1.0)))
    elif family == "level":  # branch `side` just past a merger level, gamma generic
        level = draw(st.sampled_from([-1.0, 0.0, 1.0]))
        offset = draw(_SIGNS) * 10.0 ** draw(st.floats(-8.9, -2.0))  # past MERGER_TOL = 1e-9
        gamma = g_sign * draw(st.floats(0.05, 1.0))
        big_t = side * gamma - 2.0 * math.copysign(1.0, j) * (level + offset)
    elif family == "small_gamma":
        gamma = g_sign * 10.0 ** draw(st.floats(-6.0, -1.0))
    elif family == "small_t":
        t, gamma = t_sign * 10.0 ** draw(st.floats(-11.0, -1.0)), g_sign * 0.5
    else:
        t = t_sign * 10.0 ** draw(st.floats(-4.0, -1.0))
    return ModelParams(j, big_t * abs(j), t * abs(j), gamma * abs(j))


@pytest.mark.parametrize("family", ["merger", "small_gamma", "small_t", "gamma_zero"])
@settings(max_examples=20, deadline=None, derandomize=True)
@given(data=st.data())
def test_hard_family_loops_wind_their_charges_or_raise(family, data):
    # ROADMAP item 2's acceptance property: every loop signature winds settles on the charges
    # locate_btps set on its touching, or raises a typed WindingError; never another value
    p = data.draw(_hard_couplings(family))
    btps = locate_btps(p)
    loops = [make_loop(b.k, btps) for b in btps]
    for b, outcomes in zip(btps, wind_loops(p, loops)):
        for kind, got, charge in zip("FE", outcomes, (b.w_i, b.w_ii)):
            assert isinstance(got, WindingError) or got.value == charge, (p, b, kind)


def _field_jacobian(params, k, h=1e-4):
    """det d(Bx, Re By)/d(kx, ky) at k by central differences of bloch_field_grid, and a bound
    on its error: each row's truncation, its third derivative times h^2 / 6, and its rounding,
    eps / h times the row's scale, 4|J| + |T| for Bx and 4|t| for Re By."""
    bx, by = bloch_field_grid(params, k.kx + h * np.array([1.0, -1.0, 0.0, 0.0]),
                              k.ky + h * np.array([0.0, 0.0, 1.0, -1.0]))
    (bx_x, bx_y), (r_x, r_y) = ((f[0::2] - f[1::2]) / (2.0 * h) for f in (bx, by.real))
    j, big_t, t, eps = abs(params.J), abs(params.T), abs(params.t), np.finfo(float).eps
    e_bx = 2.0 * j * h**2 / 6.0 + 16.0 * eps * (4.0 * j + big_t) / h
    e_r = 4.0 * t * (h**2 / 6.0 + 16.0 * eps / h)
    return bx_x * r_y - bx_y * r_x, 2.0 * (2.0 * j * e_r + 4.0 * t * e_bx + e_bx * e_r)


@pytest.mark.parametrize("family", ["merger", "level", "small_gamma", "small_t", "gamma_zero"])
@settings(max_examples=25, deadline=None, derandomize=True)
@given(data=st.data())
def test_charge_is_the_sign_of_the_field_jacobian(family, data):
    # ROADMAP item 7's law, read off the field and not off locate_btps's closed form: an
    # unmerged touching is a simple zero of (Bx, Re By), so sign(w_I) is the sign of that
    # map's Jacobian there.  Only touchings whose difference Jacobian clears its error count
    p = data.draw(_hard_couplings(family))
    checked = 0
    for b in locate_btps(p):
        if b.w_i == 0.0:
            continue  # merged: no charge
        det, err = _field_jacobian(p, b.k)
        if abs(det) > err:
            assert math.copysign(1.0, det) == math.copysign(1.0, b.w_i), (p, b, det, err)
            checked += 1
    assume(checked)


# gamma = 0 and |t/J| = 1e-3: the Dirac cone is so anisotropic that the Bloch vector turns by
# about pi within a short arc of the loop.  Overlap tracking swapped branches twice there and
# wound 0; untracked, the field's steps trip the pi/2 guard until the loop settles on -1
_SMALL_T = ModelParams(1.0, -1.0, 0.001, 0.0)
_SMALL_T_DIRAC = Momentum(-HALF_PI, -1.0471975511965983)


@pytest.mark.parametrize("radius", [0.1, 1e-3])
def test_small_t_dirac_field_winding(radius):
    loop = Loop(center=_SMALL_T_DIRAC, radius=radius)
    assert _untracked_winding(_SMALL_T, loop, _hermitian_field) == pytest.approx(-1.0, abs=1e-6)


def test_small_t_dirac_winding_is_never_silently_wrong():
    loop = Loop(center=_SMALL_T_DIRAC, radius=0.1)
    try:
        result = winding_number(_SMALL_T, loop, "F")
    except WindingError:
        return
    assert result.value == -1.0


# ---------------------------------------------------------------- gamma != 0 battery


def _factor_turns(params, loop, m=4096, cap=2**18):
    """Turns (n+, n-) of the factors z+- = Bx +- i By of E^2 around the loop, or None where no
    count up to ``cap`` certifies them.

    |dz/dtheta| <= L r with L = 2 sqrt(2) |J| + 4 |t|, so a step whose L r dtheta lies below
    |z| at its start keeps z off 0, and its principal angle difference is the true one.
    """
    lip = (2.0 * math.sqrt(2.0) * abs(params.J) + 4.0 * abs(params.t)) * loop.radius
    while m <= cap:
        bx, by = _loop_field(params, [loop], m)
        zs = (bx + 1j * by, bx - 1j * by)
        low = min(np.min(np.abs(z[:, :-1])) for z in zs)
        if low > 2.0 * np.pi * lip / m:
            return [round(np.sum(wrap_angle(np.diff(np.angle(z)))) / (2.0 * np.pi)) for z in zs]
        m = 2 * cap if low == 0.0 else 2 ** math.ceil(math.log2(2.5 * np.pi * lip / low))
    return None


def _battery_truth(params, btps, loop):
    """(w_I, w_II) around the loop, or None where unresolved: the enclosed charges where every
    touching clears the path by a tenth of the radius, else w_I = (n+ - n-)/2 and
    w_II = (n+ + n-)/2 from the factor turns."""
    dists = [torus_distance(loop.center, b.k) for b in btps]
    if all(abs(d - loop.radius) > 0.1 * loop.radius for d in dists):
        inside = [b for b, d in zip(btps, dists) if d < loop.radius]
        return sum(b.w_i for b in inside), sum(b.w_ii for b in inside)
    turns = _factor_turns(params, loop)
    return None if turns is None else ((turns[0] - turns[1]) / 2, (turns[0] + turns[1]) / 2)


def _battery_draws(rng, n):
    """n couplings at gamma != 0, |t/J| log-uniform in [1e-3, 3] and |gamma/J| in [1e-4, 2],
    each with 10 circles: 8 in 10 centred near a touching (radius 1e-3 to 0.5), so that it may
    sit on or beside the path, and the rest anywhere (radius 0.01 to 1)."""
    for _ in range(n):
        j = rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-0.3, 0.3)
        t = rng.choice([-1.0, 1.0]) * abs(j) * 10.0 ** rng.uniform(-3.0, math.log10(3.0))
        gamma = rng.choice([-1.0, 1.0]) * abs(j) * 10.0 ** rng.uniform(-4.0, math.log10(2.0))
        params = ModelParams(j, abs(j) * rng.uniform(-3.0, 3.0), t, gamma)
        btps = locate_btps(params)
        loops = []
        for _ in range(10):
            if btps and rng.random() < 0.8:
                k = btps[rng.integers(len(btps))].k
                radius = 10.0 ** rng.uniform(-3.0, math.log10(0.5))
                off, phi = radius * rng.uniform(0.0, 1.2), rng.uniform(0.0, 2.0 * math.pi)
                center = Momentum(k.kx + off * math.cos(phi), k.ky + off * math.sin(phi))
            else:
                radius = rng.uniform(0.01, 1.0)
                center = Momentum(*rng.uniform(-math.pi, math.pi, 2))
            loops.append(Loop(center, radius))
        yield params, btps, loops


def test_gamma_off_zero_loops_wind_the_truth_or_raise():
    # every WindingResult equals the truth for both kinds; overlap tracking wound a wrong F on
    # 8 of these 397 resolved loops, by cancelling two branch swaps
    checked = from_factors = 0
    for params, btps, loops in _battery_draws(np.random.default_rng(32), 40):
        for loop, outcomes in zip(loops, wind_loops(params, loops)):
            want = _battery_truth(params, btps, loop)
            if want is None:
                continue
            for kind, got, charge in zip("FE", outcomes, want):
                assert isinstance(got, WindingError) or got.value == charge, (params, loop, kind)
            checked += 1
            from_factors += any(abs(torus_distance(loop.center, b.k) - loop.radius)
                                <= 0.1 * loop.radius for b in btps)
    assert checked > 390 and from_factors > 40


def test_factor_turns_are_the_enclosed_charges():
    # the two truths agree wherever both resolve, the factors' sign convention included
    rng = np.random.default_rng(33)
    for params, btps, loops in _battery_draws(rng, 4):
        for loop in loops:
            turns = _factor_turns(params, loop)
            dists = [torus_distance(loop.center, b.k) for b in btps]
            if turns is None or min((abs(d - loop.radius) for d in dists), default=1.0) < 1e-6:
                continue
            inside = [b for b, d in zip(btps, dists) if d < loop.radius]
            assert ((turns[0] - turns[1]) / 2, (turns[0] + turns[1]) / 2) == (
                sum(b.w_i for b in inside), sum(b.w_ii for b in inside))


# two NormalEPs inside one loop, of charges (-1/2, -1/2) and (-1/2, +1/2): overlap tracking
# cancelled two branch swaps on it and printed -1/2 for F, with a swap
_EP_PAIR = ModelParams(1.0, -0.1832, 0.3493, -0.000378)
_EP_PAIR_LOOP = Loop(Momentum(-1.6318, -1.4547), 0.075)


def test_loop_around_an_ep_pair_winds_the_summed_charges():
    btps = locate_btps(_EP_PAIR)
    inside = [(b.kind, b.w_i, b.w_ii) for b in btps
              if torus_distance(b.k, _EP_PAIR_LOOP.center) < _EP_PAIR_LOOP.radius]
    assert sorted(inside) == [("NormalEP", -0.5, -0.5), ("NormalEP", -0.5, 0.5)]
    f, e = wind_loops(_EP_PAIR, [_EP_PAIR_LOOP])[0]
    assert (f.value, f.branch_swapped, e.value, e.branch_swapped) == (-1.0, False, 0.0, False)
    assert winding_additivity_check(_EP_PAIR, btps, _EP_PAIR_LOOP)


def _spy_attempts(monkeypatch):
    """(loops, samples, kinds) of every ``_attempt`` call from now on."""
    seen = []

    def spy(params, loops, m, kinds):
        seen.append((len(loops), m, tuple(kinds)))
        return _attempt(params, loops, m, kinds)

    monkeypatch.setattr(epband.winding, "_attempt", spy)
    return seen


def test_refinement_winds_the_open_kinds_of_a_loop_together(monkeypatch):
    # F and E both refine on the EP-pair loop: one pass at 1024 winds both, where refining
    # each kind on its own wound F twice, once asked for and once as E's witness
    seen = _spy_attempts(monkeypatch)
    f, e = wind_loops(_EP_PAIR, [_EP_PAIR_LOOP])[0]
    assert seen == [(1, 512, ("F", "E")), (1, 1024, ("F", "E"))]
    assert (f.value, f.samples, e.value, e.samples) == (-1.0, 1024, 0.0, 1024)


def test_no_refinement_pass_outgrows_the_first_pass_or_one_loop(monkeypatch):
    # over the benchmark's points draws (seed 1), the loops still open at m samples go
    # max(1, loops * 512 // m) to a pass
    seen = _spy_attempts(monkeypatch)
    grouped = split = 0
    for _, p in BENCHMARK_WORKLOADS.draw_points(1):
        if not (loops := _loop_sets(p)):
            continue
        del seen[:]
        wind_loops(p, loops)
        (n, m, _), refined = seen[0], seen[1:]
        assert (n, m) == (len(loops), 512)
        assert all(k * mk <= max(n * m, mk) for k, mk, _ in refined), (p, seen)
        grouped += any(k > 1 for k, _, _ in refined)
        split += len({mk for _, mk, _ in refined}) < len(refined)
    assert grouped > 10 and split > 10


def test_f_witness_refines_e_where_the_eigenvalue_parity_misses_a_swap():
    # one EP of charges (1/2, 1/2) inside, its partner 0.2 % of the radius outside.  At 512
    # samples E's raw angle is 0, which would settle as 0; F turns past pi/2 in a step there,
    # so E refines with it and settles on the enclosed 1/2 at 1024
    p = ModelParams(-1.7211918856118138, -1.380712155685991, -3.496732609332671,
                    -0.0002022556919559631)
    loop = Loop(Momentum(1.5797257961213709, 1.9732967579648282), 0.013584569544871004)
    ((first,),) = _attempt(p, [loop], 512, ("E",))
    assert first == pytest.approx(0.0, abs=1e-12)
    assert _battery_truth(p, locate_btps(p), loop) == (0.5, 0.5)
    for kind in ("F", "E"):
        r = winding_number(p, loop, kind)
        assert (r.value, r.branch_swapped, r.samples) == (0.5, True, 1024)


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
    # |gamma| <= 2|J| 1e-9 snaps onto gamma = 0: one Dirac point where the partner EPs lie
    big = Loop(center=Momentum(math.pi / 3, HALF_PI), radius=0.05)
    p = ModelParams(1.0, -1.0, 0.5, gamma)
    assert signature(p).btps == signature(dataclasses.replace(p, gamma=0.0)).btps
    assert winding_additivity_check(p, locate_btps(p), big)
    # past the snap the partner lies 3.5e-9 off, and a loop 0.4 times that small still winds
    # each touching's own charges, so the census is the located one; the big loop winds the
    # pair's summed charges, which neither touching carries alone
    p = ModelParams(1.0, -1.0, 0.5, math.copysign(3e-9, gamma))
    btps = locate_btps(p)
    assert {b.kind for b in btps} == {"NormalEP"}
    assert signature(p).btps == tuple(btps)
    pair = [b for b in btps if torus_distance(b.k, big.center) < big.radius]
    assert len(pair) == 2 and winding_additivity_check(p, btps, big)
    for left_out in pair:
        assert not winding_additivity_check(p, [b for b in btps if b is not left_out], big)
    p = ModelParams(1.0, -1.0, 0.5, 0.05)
    assert winding_additivity_check(p, locate_btps(p), big)


def test_additivity_check_fails_when_an_enclosed_touching_is_left_out():
    # with one touching of the enclosed pair left out, the charges miss half of the unit
    # charge; at gamma = 0.01 acceptance 3's pair lies 0.0115 apart
    for gamma, radius in ((0.5, 0.4), (0.01, 0.05)):
        p = ModelParams(1.0, -1.0, 0.5, gamma)
        btps = locate_btps(p)
        kx = 0.5 * (math.acos((1 + gamma) / 2) + math.acos((1 - gamma) / 2))
        big = Loop(center=Momentum(kx, HALF_PI), radius=radius)
        pair = [b for b in btps if torus_distance(b.k, big.center) < big.radius]
        assert len(pair) == 2 and winding_number(p, big, "F").value == 1.0
        assert winding_additivity_check(p, btps, big)
        for left_out in pair:
            assert not winding_additivity_check(p, [b for b in btps if b is not left_out], big)


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
    # vanishes there, and |E| with it); at an EP the residual |E| never drops below ~1e-8.
    # Place the theta = pi sample right on the touching.
    p = ModelParams(1.0, -1.0, 0.5, 0.0)
    dp = Momentum(math.acos(0.5), HALF_PI)
    loop = Loop(center=Momentum(dp.kx + 0.1, dp.ky), radius=0.1)
    with pytest.raises(LoopThroughDefectError, match="eigenvalue collapses on the loop"):
        winding_number(p, loop, "F")


def test_loop_that_grazes_a_dirac_point_reports_the_collapsed_eigenvalue():
    # the theta = pi sample passes 1e-11 from the Dirac point, where |E| falls below the field
    # floor
    p = ModelParams(1.0, -1.0, 0.5, 0.0)
    loop = Loop(Momentum(math.pi / 3 + 0.1 + 1e-11, HALF_PI), 0.1)
    with pytest.raises(LoopThroughDefectError, match="eigenvalue collapses on the loop"):
        winding_number(p, loop, "F")


# a loop at gamma = 0 that misses the Dirac point at (pi/3, pi/2) by 1e-10 and encloses no
# touching: tracked, its 512-sample pass came back swapped, at 1/2 a turn
_GRAZING = Loop(Momentum(1.1471975512965977, HALF_PI), 0.1)


@pytest.mark.parametrize("kind", ["F", "E"])
def test_swap_at_gamma_zero_never_settles_as_a_half_winding(kind):
    # at gamma = 0 h is real symmetric and no loop swaps branches, so none is tracked.  F
    # turns past pi/2 in one step beside the Dirac point at every sample count and never
    # settles; E is real and >= 0 and settles on 0 at once
    p = ModelParams(1.0, -1.0, 0.5, 0.0)
    ((first,),) = _attempt(p, [_GRAZING], START_SAMPLES, (kind,))
    if kind == "E":
        assert (first.value, first.branch_swapped, first.samples) == (0.0, False, 512)
        assert winding_number(p, _GRAZING, kind) == first
        return
    assert first == pytest.approx(0.0, abs=1e-12)  # a raw angle: a step past pi/2
    with pytest.raises(NonQuantizedLoopError, match="raw angle -0.000000 turns") as info:
        winding_number(p, _GRAZING, kind)
    assert info.value.raw_angle == pytest.approx(0.0, abs=1e-12)


def test_refinement_never_passes_max_samples(monkeypatch):
    # the grazing loop's F never settles: it doubles from 512 up to the 2^16 cap and no further
    seen = []

    def spy(params, loops, m, kinds):
        seen.append(m)
        return _attempt(params, loops, m, kinds)

    monkeypatch.setattr(epband.winding, "_attempt", spy)
    with pytest.raises(NonQuantizedLoopError):
        winding_number(ModelParams(1.0, -1.0, 0.5, 0.0), _GRAZING, "F")
    assert seen == [START_SAMPLES * 2**i for i in range(8)] and seen[-1] == MAX_SAMPLES


def test_overflowing_field_is_a_winding_error():
    # E^2 overflows on the loop at T = 1e300: F used to reach round() as a NaN raw angle and
    # raise a bare "cannot convert float NaN to integer", while E wound an infinite field.  At
    # T = 1e154 E stays finite but an eigenvector's norm overflows
    loop = Loop(center=Momentum(1.0, 1.0), radius=0.1)
    with np.errstate(over="ignore", invalid="ignore"):
        outcomes = [o for p in (ModelParams(1.0, 1e300, 0.5, 1e-300),
                                ModelParams(1.0, 1e154, 0.5, 0.5))
                    for o in wind_loops(p, [loop])[0]]
        with pytest.raises(WindingError, match="eigenvalue is not finite on the loop"):
            winding_number(ModelParams(1.0, 1e300, 0.5, 1e-300), loop, "F")
    assert {type(o) for o in outcomes} == {WindingError}
    assert {str(o) for o in outcomes} == {"eigenvalue is not finite on the loop"}


@pytest.mark.parametrize("base, scale", [(ANCHOR, 1e300), (ANCHOR, 1e-200),
                                         (ModelParams(1.0, 3.0, 0.5, 0.5), 2e153)],
                         ids=["anchor-1e300", "anchor-1e-200", "gapped-2e153"])
def test_windings_are_scale_free(base, scale):
    # loops are wound in units of |J|.  The anchor scaled by 1e300 overflowed E^2 on every
    # loop ("eigenvalue is not finite"), where E read 0.0 around every touching before; at
    # 1e-200 |E| fell below its floor ("eigenvalue collapses"); and at 2e153 the gapped base
    # kept E finite but overflowed an eigenvector's norm
    scaled = ModelParams(*(scale * x for x in dataclasses.astuple(base)))
    btps = locate_btps(ANCHOR)
    loops = [make_loop(b.k, btps) for b in btps] + [Loop(center=Momentum(1.0, 1.0), radius=0.1)]
    want = [[(w.value, w.branch_swapped) for w in pair] for pair in wind_loops(base, loops)]
    if base == ANCHOR:
        assert {abs(pair[1][0]) for pair in want} == {0.0, 0.5}
    got = [[(w.value, w.branch_swapped) for w in pair] for pair in wind_loops(scaled, loops)]
    assert got == want


def test_winding_error_is_runtime_error():
    assert issubclass(LoopThroughDefectError, WindingError)
    assert issubclass(WindingError, RuntimeError)


def test_field_kind_validation():
    loop = Loop(center=Momentum(1.0, 1.0), radius=0.1)
    with pytest.raises(ValueError):
        winding_number(ANCHOR, loop, "G")
