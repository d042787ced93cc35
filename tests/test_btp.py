"""Band-touching locations: closed form, numeric cross-check, rings, gaps."""

import math
import warnings

import numpy as np
import pytest

from epband import (
    ModelParams,
    RingRegimeError,
    branch_level,
    classify_btp,
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
)

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


def test_locate_eight_dirac_points():
    btps = locate_btps(ModelParams(1.0, -1.0, 0.5, 0.0))
    assert len(btps) == 8
    assert _kinds(btps) == {DIRAC_POINT: 8}


def test_locate_gapped_empty():
    assert locate_btps(ModelParams(1.0, 5.0, 0.5, 0.5)) == []
    assert locate_btps(ModelParams(1.0, 5.0, 0.0, 0.5)) == []


def test_locate_trivial_isolated_point():
    btps = locate_btps(ModelParams(1.0, 3.0, 0.0, 1.0))
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
    tagged with the branch and kind inferred from cos kx + cos ky.  An empty
    result simply means a gapped spectrum.
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
        out.append(Btp(m, branch, _kind_from_level(params, c, level_tol)))
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


# ---------------------------------------------------------------- classification


def test_classify_from_winding():
    b = locate_btps(ANCHOR)[0]
    assert classify_btp(ModelParams(1.0, -1.5, 0.5, 0.5), b, -0.5) == NORMAL_EP
    assert classify_btp(ModelParams(1.0, -1.0, 0.5, 0.0), b, 1.0) == DIRAC_POINT
    assert classify_btp(ModelParams(1.0, -1.5, 0.5, 0.5), b, 0.0) == HYBRID_EP
    assert classify_btp(ModelParams(1.0, -1.0, 0.5, 0.0), b, 0.0) == SEMI_DIRAC_POINT


def test_classify_rejects_unquantized():
    b = locate_btps(ANCHOR)[0]
    with pytest.raises(ValueError):
        classify_btp(ANCHOR, b, 0.3)


# ---------------------------------------------------------------- rings at t=0


def test_ring_through_known_point():
    p = ModelParams(1.0, 0.0, 0.0, 1.0)
    ring = trace_ep_ring(p, 1, samples=130)  # odd arc count puts kx=0 on the grid
    assert ring.level == pytest.approx(0.5)
    target = np.array([0.0, 2.0 * math.pi / 3.0])
    d = np.min(np.hypot(ring.vertices[:, 0] - target[0], ring.vertices[:, 1] - target[1]))
    assert d < 1e-9


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


def test_btp_json_shape():
    d = locate_btps(ANCHOR)[0].to_json_dict()
    assert {"kx", "ky", "branch", "kind"} <= set(d)
