"""Band-touching locations: closed form, numeric cross-check, rings, gaps."""

import contextlib
import io
import itertools
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from epband import (
    ModelParams,
    RingRegimeError,
    branch_level,
    locate_btps,
    min_gap,
    trace_ep_ring,
)
from epband.bloch import Momentum, bloch_field_grid, principal_sqrt, torus_distance, wrap_angle
from epband.btp import (
    _T_ZERO,
    DIRAC_POINT,
    HYBRID_EP,
    NORMAL_EP,
    SEMI_DIRAC_POINT,
    TRIVIAL_ISOLATED_EP,
    Btp,
    _sorted_btps,
    face,
    merger_level,
)
from epband.cli import main as cli_main

ANCHOR = ModelParams(J=1.0, T=-1.5, t=0.5, gamma=0.5)
HALF_PI = math.pi / 2


def _positions(btps):
    return {(round(b.k.kx, 9), round(b.k.ky, 9)) for b in btps}


def _kinds(btps):
    out = {}
    for b in btps:
        out[b.kind] = out.get(b.kind, 0) + 1
    return out


# ---------------------------------------------------------------- levels


def test_branch_level_arithmetic():
    assert branch_level(ANCHOR, 1) == pytest.approx(1.0)
    assert branch_level(ANCHOR, -1) == pytest.approx(0.5)
    p = ModelParams(2.0, -1.0, 0.3, 0.6)
    assert branch_level(p, 1) == pytest.approx((1.0 + 0.6) / 4.0)


# ---------------------------------------------------------------- locate


def test_locate_anchor_configuration():
    btps = locate_btps(ANCHOR)
    assert len(btps) == 12
    kinds = _kinds(btps)
    assert kinds == {HYBRID_EP: 4, NORMAL_EP: 8}
    pos = _positions(btps)
    # merged plus-branch: k_c = 0
    for p in [(0.0, HALF_PI), (0.0, -HALF_PI), (HALF_PI, 0.0), (-HALF_PI, 0.0)]:
        assert any(abs(x - p[0]) < 1e-9 and abs(y - p[1]) < 1e-9 for x, y in pos)
    # generic minus-branch: k_c = pi/3
    kc = math.pi / 3
    for sx in (1, -1):
        assert any(
            abs(x - sx * kc) < 1e-9 and abs(y + HALF_PI) < 1e-9 for x, y in pos
        )


def test_locate_sixteen_points():
    btps = locate_btps(ModelParams(1.0, -1.0, 0.5, 0.5))
    assert len(btps) == 16
    assert _kinds(btps) == {NORMAL_EP: 16}


@pytest.mark.parametrize("gamma", [1e-5, 3e-5])
def test_locate_keeps_close_partner_eps(gamma):
    # each of the eight Dirac points of gamma = 0 splits into two EPs about
    # gamma apart; all sixteen are distinct touchings
    btps = locate_btps(ModelParams(1.0, -1.0, 0.5, gamma))
    assert len(btps) == 16
    assert len(_positions(btps)) == 16
    assert _kinds(btps) == {NORMAL_EP: 16}


def test_locate_merged_dirac_points():
    btps = locate_btps(ModelParams(1.0, 0.0, 0.5, 0.0))
    assert len(btps) == 4
    assert _kinds(btps) == {SEMI_DIRAC_POINT: 4}
    assert _positions(btps) == {
        (round(sx * HALF_PI, 9), round(sy * HALF_PI, 9))
        for sx in (1, -1)
        for sy in (1, -1)
    }


_MERGED = {
    1.0: {(0.0, HALF_PI), (0.0, -HALF_PI), (HALF_PI, 0.0), (-HALF_PI, 0.0)},
    0.0: {(sx * HALF_PI, sy * HALF_PI) for sx in (1, -1) for sy in (1, -1)},
    -1.0: {(math.pi, HALF_PI), (math.pi, -HALF_PI), (HALF_PI, math.pi), (-HALF_PI, math.pi)},
}


@pytest.mark.parametrize("gamma", [0.0, 0.7])
@pytest.mark.parametrize("offset", [0.0, 9e-10, -9e-10, 1e-9, -1e-9, 1.1e-9, -1.1e-9])
@pytest.mark.parametrize("merger", [-1.0, 0.0, 1.0])
def test_locate_merger_edges(merger, offset, gamma):
    # A level within MERGER_TOL of -1, 0 or 1 gives the four merged points
    # exactly; just outside it gives eight generic ones.  |c| in (1, 1 + 1e-9]
    # is clamped onto the merger instead of failing in arccos.
    p = ModelParams(1.0, gamma - 2.0 * (merger + offset), 0.5, gamma)
    c = branch_level(p, 1)
    assert c == pytest.approx(merger + offset, abs=1e-15)
    branch = 1 if gamma else 0
    btps = [b for b in locate_btps(p) if b.branch == branch]
    merged_kind, kind = (SEMI_DIRAC_POINT, DIRAC_POINT) if branch == 0 else (HYBRID_EP, NORMAL_EP)
    if abs(c) > 1.0 + 1e-9:
        assert btps == []
    elif abs(min(1.0, max(-1.0, c)) - merger) <= 1e-9:
        assert abs(offset) < 1.1e-9
        assert {(b.k.kx, b.k.ky) for b in btps} == _MERGED[merger]
        assert {b.kind for b in btps} == {merged_kind}
        assert len(btps) == 4
    else:
        assert abs(offset) > 9e-10
        assert len({(b.k.kx, b.k.ky) for b in btps}) == len(btps) == 8
        assert {b.kind for b in btps} == {kind}
        for b in btps:
            bx, by = bloch_field_grid(p, b.k.kx, b.k.ky)
            assert abs(bx**2 + by**2) < 1e-12


def test_locate_eight_dirac_points():
    btps = locate_btps(ModelParams(1.0, -1.0, 0.5, 0.0))
    assert len(btps) == 8
    assert _kinds(btps) == {DIRAC_POINT: 8}


def test_locate_gapped_empty():
    assert locate_btps(ModelParams(1.0, 5.0, 0.5, 0.5)) == []
    assert locate_btps(ModelParams(1.0, 5.0, 0.0, 0.5)) == []


def test_locate_trivial_isolated_point():
    # c_- = -2 is the trivial EP at (pi, pi); c_+ = -3 is gapped
    btps = locate_btps(ModelParams(1.0, 5.0, 0.0, -1.0))
    assert len(btps) == 1
    b = btps[0]
    assert b.kind == TRIVIAL_ISOLATED_EP
    assert abs(abs(b.k.kx) - math.pi) < 1e-12 and abs(abs(b.k.ky) - math.pi) < 1e-12


def test_locate_rejects_nodal_lines():
    with pytest.raises(ValueError):
        locate_btps(ModelParams(1.0, 0.5, 0.0, 0.0))


def test_locate_ring_regime_raises():
    with pytest.raises(RingRegimeError):
        locate_btps(ModelParams(1.0, 0.0, 0.0, 1.0))


def test_locate_ring_beside_trivial_point_raises():
    # c_- = -2 degenerates to the trivial EP at (pi, pi), but c_+ = -1 rings:
    # |E| vanishes at (pi, pi/2), which a lone trivial EP would leave out
    p = ModelParams(1.0, 3.0, 0.0, 1.0)
    assert (branch_level(p, 1), branch_level(p, -1)) == (-1.0, -2.0)
    bx, by = bloch_field_grid(p, math.pi, HALF_PI)
    assert abs(principal_sqrt(bx * bx + by * by)) < 1e-7
    with pytest.raises(RingRegimeError, match=r"branches \[1\]"):
        locate_btps(p)


def test_locate_points_really_touch():
    for p in (ANCHOR, ModelParams(1.0, -1.0, 0.5, 0.5), ModelParams(1.0, 0.3, 0.4, 0.9)):
        for b in locate_btps(p):
            bx, by = bloch_field_grid(p, b.k.kx, b.k.ky)
            assert abs(bx**2 + by**2) < 1e-12


# ---------------------------------------------------------------- numeric refiner

# An independent numeric reference for locate_btps: grid minima of |E^2|
# polished by Newton, sharing none of the closed-form location code.


def _dedup_btps(btps, tol: float = 1e-4):
    kept: list[Btp] = []
    for b in btps:
        if all(torus_distance(b.k, o.k) > tol for o in kept):
            kept.append(b)
    return kept


def _kind_from_level(params: ModelParams, c: float, level_tol: float) -> str:
    merged = min(abs(c), abs(c - 1.0), abs(c + 1.0)) < level_tol
    if abs(params.gamma) < _T_ZERO:
        return SEMI_DIRAC_POINT if merged else DIRAC_POINT
    if abs(params.t) < _T_ZERO:
        return TRIVIAL_ISOLATED_EP
    return HYBRID_EP if merged else NORMAL_EP


def refine_btps_numeric(params: ModelParams, coarse_n: int = 64, tol: float = 1e-12) -> list[Btp]:
    """Independent numeric search: coarse grid minima of |E^2| plus Newton.

    Newton runs on k -> (Re E^2, Im E^2) with the analytic Jacobian (falling
    back to Bx = By = 0 when gamma = 0 makes Im E^2 vanish identically);
    minima whose seeds fail to converge in 50 steps are dropped with a
    warning.  Converged points are deduplicated on the torus (1e-4) and
    tagged with the branch and kind inferred from cos kx + cos ky; their charges are left
    NaN.  An empty result simply means a gapped spectrum.
    """
    if coarse_n < 32:
        raise ValueError("coarse_n must be at least 32")
    j, t = params.J, params.t
    real_field = abs(params.gamma) < _T_ZERO
    k = wrap_angle(2.0 * np.pi * np.arange(coarse_n) / coarse_n)
    kx, ky = np.meshgrid(k, k, indexing="ij")
    bx, by = bloch_field_grid(params, kx, ky)
    a = np.abs(bx * bx + by * by)
    local_min = np.ones_like(a, dtype=bool)
    for dx in (-1, 0, 1):
        for dy in (-1, 0, 1):
            if dx == 0 and dy == 0:
                continue
            local_min &= a <= np.roll(np.roll(a, dx, axis=0), dy, axis=1)
    # Two touchings closer than ~2 cells can shadow each other's grid minimum,
    # so every cell within 2 of a minimum seeds Newton as well.  Only the
    # minima themselves count as dropped when they fail to converge.
    basin = local_min.copy()
    for dx in range(-2, 3):
        for dy in range(-2, 3):
            basin |= np.roll(np.roll(local_min, dx, axis=0), dy, axis=1)
    seeds = np.column_stack([kx[basin], ky[basin], local_min[basin]])

    converged = []
    dropped = 0
    for x0, y0, primary in seeds:
        x, y = float(x0), float(y0)
        best = None
        for _ in range(50):
            cx, cy, sx, sy = math.cos(x), math.cos(y), math.sin(x), math.sin(y)
            bx1 = 2.0 * j * (cx + cy) + params.T
            r = 4.0 * t * cx * cy
            by1 = r + 1j * params.gamma
            w = bx1 * bx1 + by1 * by1
            if abs(w) <= tol:
                # Keep polishing: at a degenerate touching |E^2| <= tol is met
                # on a whole sliver, and only the fixed point of the iteration
                # is the actual root.
                best = (x, y)
            if real_field:
                # Im E^2 vanishes identically here, so the (Re, Im) system is
                # singular; E^2 = 0 is then equivalent to Bx = By = 0.
                jac = np.array(
                    [
                        [-2.0 * j * sx, -2.0 * j * sy],
                        [-4.0 * t * sx * cy, -4.0 * t * cx * sy],
                    ]
                )
                rhs = np.array([bx1, r])
            else:
                dwx = 2.0 * bx1 * (-2.0 * j * sx) + 2.0 * by1 * (-4.0 * t * sx * cy)
                dwy = 2.0 * bx1 * (-2.0 * j * sy) + 2.0 * by1 * (-4.0 * t * cx * sy)
                jac = np.array([[dwx.real, dwy.real], [dwx.imag, dwy.imag]])
                rhs = np.array([w.real, w.imag])
            det = jac[0, 0] * jac[1, 1] - jac[0, 1] * jac[1, 0]
            if abs(det) < 1e-14:
                break
            step = np.linalg.solve(jac, -rhs)
            x, y = x + step[0], y + step[1]
            if best is not None and math.hypot(step[0], step[1]) < 1e-12:
                break
        if best is not None:
            converged.append(Momentum(*best))
        elif primary:
            dropped += 1
    if dropped:
        warnings.warn(
            f"refine_btps_numeric: dropped {dropped} non-converged Newton seeds",
            RuntimeWarning,
            stacklevel=2,
        )

    level_tol = 1e-6
    out = []
    for m in converged:
        c = math.cos(m.kx) + math.cos(m.ky)
        branch = 0
        if abs(params.gamma) >= _T_ZERO:
            matches = [s for s in (1, -1) if abs(c - branch_level(params, s)) < level_tol]
            branch = matches[0] if len(matches) == 1 else 0
        out.append(Btp(m, branch, _kind_from_level(params, c, level_tol), math.nan, math.nan))
    return _dedup_btps(_sorted_btps(out))




def _assert_same_point_set(p, tag=""):
    ana = locate_btps(p)
    num = refine_btps_numeric(p)
    assert len(ana) == len(num), (tag, len(ana), len(num))
    for a in ana:
        d = min(torus_distance(a.k, b.k) for b in num)
        assert d < 1e-6, (tag, a.k, d)


def test_refine_matches_anchor():
    _assert_same_point_set(ANCHOR)


def test_refine_matches_merged_dirac():
    _assert_same_point_set(ModelParams(1.0, 0.0, 0.5, 0.0))


def test_refine_agreement_battery():
    # fifty draws across the touching-bearing diamond
    rng = np.random.default_rng(20260819)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        for i in range(50):
            while True:
                gamma = rng.uniform(-2.0, 2.0)
                big_t = rng.uniform(-3.0, 3.0)
                if abs(big_t + gamma) <= 2.0 and abs(big_t - gamma) <= 2.0:
                    break
            p = ModelParams(1.0, big_t, rng.uniform(0.1, 1.0), gamma)
            _assert_same_point_set(p, f"draw {i}")


def test_refine_close_families_not_masked():
    # two touchings ~1.7 coarse cells apart at the default grid; regression
    # for seed shadowing
    p = ModelParams(1.0, -0.3267610468833084, 0.38513586619965495, -0.571684984069425)
    _assert_same_point_set(p)


def test_refine_gapped_empty():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        assert refine_btps_numeric(ModelParams(1.0, 5.0, 0.0, 0.5)) == []


def test_refine_rejects_small_grid():
    with pytest.raises(ValueError):
        refine_btps_numeric(ANCHOR, coarse_n=16)


# ---------------------------------------------------------------- rings at t=0


def test_ring_through_known_point():
    p = ModelParams(1.0, 0.0, 0.0, 1.0)
    ring = trace_ep_ring(p, 1)
    assert ring.level == pytest.approx(0.5)
    # kx = 0 is no vertex, so measure to the polyline: the distance to each edge segment
    a = ring.vertices
    b = np.roll(a, -1, axis=0)
    target = np.array([0.0, 2.0 * math.pi / 3.0])
    w = np.clip(np.sum((target - a) * (b - a), axis=1) / np.sum((b - a) ** 2, axis=1), 0.0, 1.0)
    d = np.min(np.hypot(*(a + w[:, None] * (b - a) - target).T))
    assert d < 1e-4


def test_ring_vertices_on_level_set():
    p = ModelParams(1.0, 0.0, 0.0, 1.0)
    for branch in (1, -1):
        ring = trace_ep_ring(p, branch)
        c = ring.level
        verts = ring.vertices
        assert len(verts) > 64
        level_err = np.abs(np.cos(verts[:, 0]) + np.cos(verts[:, 1]) - c)
        assert np.max(level_err) < 1e-8
        for kx, ky in verts:
            bx, by = bloch_field_grid(p, kx, ky)
            e = abs(np.sqrt(complex(bx) ** 2 + by**2))
            assert e < 1e-6
        # closed: uniform-kx marching leaves its widest step where the arc
        # turns vertical (ky ~ sqrt near the ends), so allow a few grid steps
        rolled = np.roll(verts, -1, axis=0)
        gaps = np.hypot(
            np.angle(np.exp(1j * (verts[:, 0] - rolled[:, 0]))),
            np.angle(np.exp(1j * (verts[:, 1] - rolled[:, 1]))),
        )
        assert np.max(gaps) < 0.35


@pytest.mark.parametrize("t", [1e-13, -1e-13])
@pytest.mark.parametrize("branch", [1, -1])
def test_ring_gate_just_above_t_zero(t, branch):
    # 0 < |t| < _T_ZERO traces the t = 0 ring, where |E|^2 = |8i gamma t cx cy + 16 t^2 (cx cy)^2|
    # reaches 8 |gamma t| = 1.6e-12, so |E| = 1.26e-6 sits above a flat 1e-6 gate
    p = ModelParams(1.0, -2.0, t, 2.0)
    ring = trace_ep_ring(p, branch)
    bx, by = bloch_field_grid(p, ring.vertices[:, 0], ring.vertices[:, 1])
    abs_e = np.abs(principal_sqrt(bx * bx + by * by))
    assert np.max(abs_e) <= math.sqrt(8.0 * abs(p.gamma * t) + 16.0 * t * t) + 1e-6
    if branch == -1:  # c_- = 0: the ring passes through cx cy = +-1/4
        assert np.max(abs_e) > 1e-6


def test_merger_level_snaps_within_merger_tol():
    assert merger_level(1.0 + 1e-9) == 1.0  # rounds to 1 + 1.00000008e-9, clamped first
    assert merger_level(-1e-9) == 0.0 and merger_level(1.1e-9) is None
    assert merger_level(0.5) is None and merger_level(1.5) is None
    assert merger_level(-2.0 + 9e-10, (-2.0, 2.0)) == -2.0
    assert merger_level(2.0 + 1e-9, (-2.0, 2.0)) == 2.0  # both ends are clamped alike


def test_ring_degenerate_point():
    ring = trace_ep_ring(ModelParams(1.0, 3.0, 0.0, 1.0), -1)
    assert ring.level == pytest.approx(-2.0)
    np.testing.assert_allclose(ring.vertices, [[math.pi, math.pi]], atol=1e-12)


def test_ring_empty_level_set():
    ring = trace_ep_ring(ModelParams(1.0, 6.0, 0.0, 1.0), -1)
    assert ring.vertices.shape == (0, 2)


def test_ring_preconditions():
    with pytest.raises(ValueError):
        trace_ep_ring(ANCHOR, 1)  # t != 0
    with pytest.raises(ValueError):
        trace_ep_ring(ModelParams(1.0, 0.0, 0.0, 1.0), 0)
    with pytest.raises(ValueError):
        trace_ep_ring(ModelParams(1.0, 0.0, 0.0, 0.0), 1)


# ---------------------------------------------------------------- one level rule

_PAST_TWO = ModelParams(J=-1.0, T=-5.661200375591189, t=-5e-13, gamma=-1.6612003735911895)


def _btps_ring(p):
    """``epband btps --ring`` in process: exit code and JSON report."""
    argv = ["btps", "--J", repr(p.J), "--T", repr(p.T), "--t", repr(p.t),
            "--gamma", repr(p.gamma), "--ring"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli_main(argv)
    return code, json.loads(out.getvalue())


def test_trivial_level_rounded_past_two_is_one_touching_everywhere():
    # c_+ = -fl(2 + 1e-9), 1.00000008e-9 past -2: every caller snaps it onto -2, the
    # trivial EP, and none reads the branch as gapped
    assert branch_level(_PAST_TWO, 1) == -(2.0 + 1e-9)
    (b,) = locate_btps(_PAST_TWO)
    assert (b.k.xy, b.branch, b.kind) == ((math.pi, math.pi), 1, TRIVIAL_ISOLATED_EP)
    np.testing.assert_array_equal(trace_ep_ring(_PAST_TWO, 1).vertices, [[math.pi, math.pi]])
    code, report = _btps_ring(_PAST_TWO)
    assert code == 0 and report["count"] == 1 and report["rings"] == []
    assert report["btps"][0]["kind"] == TRIVIAL_ISOLATED_EP


def _verdict(n_vertices):
    return ("gapped", "point")[n_vertices] if n_vertices < 2 else "ring"


_OFFSETS = st.sampled_from([0.0, 1e-10, -1e-10, 9e-10, -9e-10, 1e-9, -1e-9, 1.1e-9, -1.1e-9,
                            2e-9, -2e-9]) | st.floats(-2e-9, 2e-9)


@settings(max_examples=300, deadline=None)
@given(
    j=st.sampled_from([1.0, -1.0]) | st.floats(0.3, 2.0) | st.floats(-2.0, -0.3),
    at_zero=st.booleans(),
    t=st.sampled_from([0.0, 5e-13, -5e-13]),
    t_big=st.sampled_from([1e-3, -1e-3, 0.5, -0.5]) | st.floats(-1.0, 1.0).filter(
        lambda t: abs(t) > 1e-6),
    s=st.sampled_from([1, -1]),
    gamma=st.floats(0.05, 2.0) | st.floats(-2.0, -0.05),
    level_index=st.integers(0, 2),
    offset=_OFFSETS,
)
def test_one_level_rule_per_branch(j, at_zero, t, t_big, s, gamma, level_index, offset):
    """Per branch, locate_btps, trace_ep_ring and btps --ring agree at t = 0, and at t != 0
    locate_btps merges exactly the branches whose place in the face (the boundary flag's)
    is on a level."""
    levels = (-2.0, 2.0) if at_zero else (-1.0, 0.0, 1.0)
    level = levels[level_index % len(levels)]
    # at_zero draws t = 0 or |t| = 5e-13 |J|, under the t = 0 floor 1e-12 |J| of face
    p = ModelParams(J=j, T=s * gamma - 2.0 * j * (level + offset),
                    t=t * abs(j) if at_zero else t_big, gamma=gamma)
    try:
        found, rings = locate_btps(p), []
    except RingRegimeError as exc:
        found, rings = None, json.loads(str(exc).split("branches ")[1].split(")")[0])
    if not at_zero:
        for b, place in zip((1, -1), face(p)[1:3]):
            kinds = {x.kind for x in found if x.branch == b}
            want = {HYBRID_EP} if place % 2 else ({NORMAL_EP} if place in (2, 4) else set())
            assert kinds == want, (p, b)
        return
    code, report = _btps_ring(p)
    assert code == 0
    listed = {r["branch"]: len(r["vertices"]) for r in report["rings"]}
    for b in (1, -1):
        traced = _verdict(len(trace_ep_ring(p, b).vertices))
        if found is None:
            assert report["note"] == "ring regime"
            assert _verdict(listed.get(b, 0)) == traced, (p, b)
            assert (b in rings) == (traced == "ring"), (p, b)
        else:
            assert listed == {}
            on_b = [x for x in found if x.branch == b]
            assert _verdict(len(on_b)) == traced, (p, b)
            assert [x["branch"] for x in report["btps"]].count(b) == len(on_b)


# ---------------------------------------------------------------- one face per point


def _census(p):
    """The (branch, kind) multiset locate_btps lists, or the class of the error it raises."""
    try:
        return sorted((b.branch, b.kind) for b in locate_btps(p))
    except ValueError as exc:  # a ring, or t = gamma = 0
        return type(exc).__name__


_SNAP_RATIO = st.sampled_from([0.0, 0.5, 1.0, 1.0 + 1e-8, 1.0 + 1e-6, 1.5, 2.0]) | st.floats(0, 3)
_LEVEL_OFFSET = st.sampled_from([0.0, 1e-9, -1e-9, 2e-9, -2e-9]) | st.floats(-3e-9, 3e-9)


@settings(max_examples=300, deadline=None)
@given(
    j=st.sampled_from([1.0, -1.0]) | st.floats(0.3, 2.0) | st.floats(-2.0, -0.3),
    t=st.sampled_from([5e-13, -5e-13, 0.5, -0.5]) | st.floats(-1.5, 1.5).filter(
        lambda t: abs(t) > 1e-6),
    level=st.sampled_from([-2.0, -1.0, 0.0, 1.0, 2.0]),
    points=st.lists(st.tuples(st.sampled_from([1, -1]), _SNAP_RATIO, _LEVEL_OFFSET),
                    min_size=2, max_size=2),
)
def test_one_face_one_census_near_the_gamma_snap(j, t, level, points):
    """With |gamma| near 2|J| 1e-9 and -T/2J near a level, equal faces list the same
    (branch, kind) multiset, and no census lists two touchings within 1e-9 of each other."""
    ps = [ModelParams(J=j, T=-2.0 * j * (level + offset), t=t, gamma=sign * ratio * 2e-9 * abs(j))
          for sign, ratio, offset in points]
    for p in ps:
        try:
            found = locate_btps(p)
        except ValueError:
            continue
        for i, a in enumerate(found):
            assert all(torus_distance(a.k, b.k) > 1e-9 for b in found[:i]), (p, a)
    if face(ps[0]) == face(ps[1]):
        assert _census(ps[0]) == _census(ps[1]), ps


# ---------------------------------------------------------------- gap probe


def test_min_gap_gapped_regime():
    assert min_gap(ModelParams(1.0, 5.0, 0.0, 0.5)) > 0.1


def test_min_gap_vanishes_at_touchings():
    # 2e-8, not 1e-8: at an EP, |E| ~ sqrt(|2 gamma dBx|) and one ulp of
    # momentum already moves Bx by ~4e-16, so the float64 floor is ~1.4e-8
    assert min_gap(ANCHOR) < 2e-8
    assert min_gap(ModelParams(1.0, 0.0, 0.5, 0.0)) < 1e-8


def _grid_min_abs_e(p, n=401):
    k = np.linspace(-np.pi, np.pi, n)
    kx, ky = np.meshgrid(k, k, indexing="ij")
    bx, by = bloch_field_grid(p, kx, ky)
    return float(np.min(np.abs(principal_sqrt(bx * bx + by * by))))


# min_gap may land on a grid point itself, where the two evaluations of the
# same |E| can differ in the last bits.
_ROUNDING = 1.0 + 1e-12


@pytest.mark.parametrize("p", [(1.0, 5.0, 0.0, 0.5), (1.0, 3.5, 0.7, 0.2), (-2.0, 1.0, 0.3, 0.1)])
def test_min_gap_is_scale_free(p):
    # the quartic's coefficients underflowed: at 1e-200 the gapped (1, 5, 0, 0.5) read 0.0 and
    # at 1e-160 (1, 3.5, 0.7, 0.2) read 1.476 s for 1.215 s; from 1e160 on they overflowed
    # into numpy's LinAlgError
    want = min_gap(ModelParams(*p))
    for s in (1e160, 1e-160, 1e200, 1e-200, 1e300, 1e-300):
        got = min_gap(ModelParams(*(s * x for x in p)))
        assert got == pytest.approx(s * want, rel=1e-12, abs=0.0), s


def test_min_gap_closes_at_eight_touchings():
    # the gap closes at 8 touchings; a grid seed plus Nelder-Mead reads 0.0096
    p = ModelParams(1.0, 2.9, 1e-3, 1.0)
    assert len(locate_btps(p)) == 8
    assert min_gap(p) <= 1e-8


def test_min_gap_gapped_below_grid_minimum():
    # the minimum, sqrt(4e-5) at u = 1.1, lies off the grid; a local search
    # from the best grid point stops at 0.00857
    p = ModelParams(1.0, -2.7, 1e-4, 0.5)
    assert locate_btps(p) == []
    gap = min_gap(p)
    assert 0.0 < gap <= _grid_min_abs_e(p) * _ROUNDING
    assert gap == pytest.approx(math.sqrt(4e-5), rel=1e-3)


def test_min_gap_random_draws():
    rng = np.random.default_rng(43)
    touching = 0
    for _ in range(40):
        p = ModelParams(
            J=rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 1.5),
            T=rng.uniform(-4.0, 4.0),
            t=rng.uniform(-1.0, 1.0),
            gamma=rng.uniform(-2.0, 2.0),
        )
        gap = min_gap(p)
        has_touchings = bool(locate_btps(p))
        touching += has_touchings
        assert (gap <= 1e-8) == has_touchings, p
        assert gap <= _grid_min_abs_e(p, 201) * _ROUNDING, p
    assert 10 <= touching <= 30


# ---------------------------------------------------------------- splitting


def test_dp_to_ep_splitting_scale():
    eps = 0.01
    p = ModelParams(1.0, -1.0, 0.5, eps)
    btps = [b for b in locate_btps(p) if abs(b.k.ky + HALF_PI) < 1e-9 and b.k.kx > 0]
    assert len(btps) == 2
    sep = abs(btps[0].k.kx - btps[1].k.kx)
    kc = math.acos(0.5)
    want = eps / (p.J * math.sin(kc))
    assert sep == pytest.approx(want, rel=0.01)


# ---------------------------------------------------------------- transition law


def _assigned_charges(on, off):
    """Summed (w_I, w_II) of the ``off`` touchings nearest to each ``on`` touching."""
    sums = [[0.0, 0.0] for _ in on]
    for b in off:
        nearest = min(range(len(on)), key=lambda i: torus_distance(on[i].k, b.k))
        sums[nearest][0] += b.w_i
        sums[nearest][1] += b.w_ii
    return [tuple(s) for s in sums]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(j=st.floats(0.5, 2.0), j_sign=st.sampled_from([1.0, -1.0]),
       e=st.floats(-2.0, math.log10(3.0)), t_sign=st.sampled_from([1.0, -1.0]),
       line=st.sampled_from(["gamma", -1.0, 0.0, 1.0]), x=st.floats(-2.5, 2.5),
       s=st.sampled_from([1, -1]), side=st.sampled_from([1.0, -1.0]))
def test_touchings_move_merge_and_split_by_the_transition_law(j, j_sign, e, t_sign, line, x, s,
                                                               side):
    """ROADMAP item 8's law, from locate_btps alone: on gamma = 0 (T = x |J|) or with branch
    s's level on -1, 0 or 1 (gamma = x |J|), each touching found 1e-6 |J| off the line goes to
    its nearest touching on it, whose charges are the sum of those it gets."""
    big_j, t = j_sign * j, t_sign * j * 10.0**e
    if line == "gamma":
        on = ModelParams(big_j, x * j, t, 0.0)
        off = ModelParams(big_j, on.T, t, side * 1e-6 * j)
    else:
        on = ModelParams(big_j, s * x * j - 2.0 * big_j * line, t, x * j)
        off = ModelParams(big_j, on.T + side * 1e-6 * j, t, on.gamma)
    assume(face(on).on_line and not face(off).on_line)
    at_line, beside = locate_btps(on), locate_btps(off)
    # nearest is only the parent where the line's own touchings lie far apart, which they do
    # save beside a second line
    assume(all(torus_distance(a.k, b.k) > 1e-2 for a, b in itertools.combinations(at_line, 2)))
    assert at_line or not beside, (on, off)
    assert _assigned_charges(at_line, beside) == [(b.w_i, b.w_ii) for b in at_line], (on, off)
