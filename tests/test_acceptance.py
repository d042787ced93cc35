"""Acceptance gate: the nine headline claims of the model, one verdict each.

Every test prints a single "ACCEPTANCE <n> PASS|FAIL" line on the real
terminal (bypassing capture) and then asserts, so a red criterion still
reports which sub-checks failed.  Criteria 1, 6 and 8 carry wall-clock
budgets of 5, 20 and 60 seconds.
"""

import dataclasses
import math
import sys
import time

import numpy as np
import pytest

import epband
from epband import (
    Loop,
    ModelParams,
    Momentum,
    block_check,
    branch_level,
    build_momentum_basis,
    build_realspace,
    detect_boundaries,
    expected_dispersion,
    fit_power_law,
    locate_btps,
    make_loop,
    min_gap,
    sample_dispersion,
    scan_phase_diagram,
    signature,
    spectral_mismatch,
    spectral_reality,
    symmetry_residuals,
    census_type,
    trace_ep_ring,
    winding_additivity_check,
    winding_number,
)
from epband.bloch import bloch_field_grid, principal_sqrt
from epband.btp import DIRAC_POINT, HYBRID_EP, NORMAL_EP, SEMI_DIRAC_POINT, TRIVIAL_ISOLATED_EP
from test_phase import line_distance

ANCHOR = ModelParams(J=1.0, T=-1.5, t=0.5, gamma=0.5)
HALF_PI = math.pi / 2


def _verdict(capfd, num: int, failures: list) -> None:
    status = "PASS" if not failures else "FAIL"
    with capfd.disabled():
        sys.stdout.write(f"ACCEPTANCE {num} {status}\n")
        sys.stdout.flush()
    assert not failures, f"criterion {num}: " + "; ".join(failures)


def _counts(sig) -> tuple:
    return (sig.counts_wi[0.0], sig.counts_wi[0.5], sig.counts_wi[1.0])


# ---------------------------------------------------------------------------
# 1. five stated (gamma, T) rows at t = 0.5 give the exact |w_I| census

TABLE_ROWS = [
    ((0.0, 0.0), (4, 0, 0), "I"),
    ((0.0, -1.0), (0, 0, 8), "II"),
    ((0.5, -1.0), (0, 16, 0), "III"),
    ((0.5, -1.5), (4, 8, 0), "IV"),
    ((-1.0, -1.0), (8, 0, 0), "V"),
]


def test_criterion_1_census_rows(capfd):
    bad = []
    t0 = time.perf_counter()
    for (gamma, big_t), want, label in TABLE_ROWS:
        sig = signature(ModelParams(J=1.0, T=big_t, t=0.5, gamma=gamma))
        got = _counts(sig)
        if got != want:
            bad.append(f"(gamma={gamma}, T={big_t}) counts {got} != {want}")
        if census_type(sig) != label:
            bad.append(f"(gamma={gamma}, T={big_t}) type {census_type(sig)!r} != {label!r}")
    elapsed = time.perf_counter() - t0
    if elapsed >= 5.0:
        bad.append(f"runtime {elapsed:.1f}s >= 5s")
    _verdict(capfd, 1, bad)


# ---------------------------------------------------------------------------
# 2. the three touchings along ky = -pi/2 carry the advertised charge pattern


def test_criterion_2_charge_pattern_on_line(capfd):
    bad = []
    sig = signature(ANCHOR)
    line = sorted(
        (b for b in sig.btps if abs(b.k.ky + HALF_PI) < 1e-9), key=lambda b: b.k.kx
    )
    if [b.kind for b in line] != [NORMAL_EP, HYBRID_EP, NORMAL_EP]:
        bad.append(f"kinds along the line: {[b.kind for b in line]}")
    if [b.w_i for b in line] != [0.5, 0.0, -0.5]:
        bad.append(f"wI pattern {[b.w_i for b in line]} != [0.5, 0.0, -0.5]")
    if [b.w_ii for b in line] != [-0.5, 0.0, 0.5]:
        bad.append(f"wII pattern {[b.w_ii for b in line]} != [-0.5, 0.0, 0.5]")
    # convention-free relations
    for b in line:
        if b.kind == NORMAL_EP and (b.w_ii != -b.w_i or abs(b.w_i) != 0.5):
            bad.append(f"normal EP at kx={b.k.kx:+.3f}: wI={b.w_i}, wII={b.w_ii}")
        if b.kind == HYBRID_EP and (b.w_i != 0.0 or b.w_ii != 0.0):
            bad.append(f"hybrid EP charges ({b.w_i}, {b.w_ii}) != (0, 0)")
    for b in line:
        loop = make_loop(b.k, sig.btps)
        for field in ("F", "E"):
            res = winding_number(ANCHOR, loop, field_kind=field)
            if res.residual >= 0.05:
                bad.append(f"residual {res.residual:.3f} at kx={b.k.kx:+.3f} field {field}")
    _verdict(capfd, 2, bad)


# ---------------------------------------------------------------------------
# 3. quantization, gamma-flip laws, zero sum, and split-pair additivity


def _diamond_draw(rng) -> ModelParams:
    while True:
        gamma = rng.uniform(-2.0, 2.0)
        big_t = rng.uniform(-2.0, 2.0)
        if abs(big_t + gamma) > 2.0 or abs(big_t - gamma) > 2.0:
            continue
        # stay off the measure-zero merger/boundary lines, where loops
        # separating the touchings stop existing
        if line_distance(gamma, big_t) < 0.02:
            continue
        return ModelParams(J=1.0, T=big_t, t=rng.uniform(0.2, 0.8), gamma=gamma)


def test_criterion_3_winding_laws(capfd):
    bad = []
    rng = np.random.default_rng(617)
    checked = 0
    for _ in range(50):
        p = _diamond_draw(rng)
        sig = signature(p)
        flipped = signature(ModelParams(J=p.J, T=p.T, t=p.t, gamma=-p.gamma))
        for b in sig.btps:
            for w in (b.w_i, b.w_ii):
                if abs(2.0 * w - round(2.0 * w)) > 1e-9:
                    bad.append(f"{p}: winding {w} not half-integer")
        if abs(sum(b.w_i for b in sig.btps)) > 1e-9:
            bad.append(f"{p}: sum wI = {sum(b.w_i for b in sig.btps)}")
        key = lambda b: (round(b.k.kx, 6), round(b.k.ky, 6))
        a_map = {key(b): b for b in sig.btps}
        b_map = {key(b): b for b in flipped.btps}
        if set(a_map) != set(b_map):
            bad.append(f"{p}: gamma flip moved the touchings")
        else:
            for k, b1 in a_map.items():
                b2 = b_map[k]
                if abs(b1.w_i - b2.w_i) > 1e-9:
                    bad.append(f"{p}: wI changed under gamma flip at {k}")
                if abs(b1.w_ii + b2.w_ii) > 1e-9:
                    bad.append(f"{p}: wII not negated under gamma flip at {k}")
        checked += len(sig.btps)
    if checked < 400:
        bad.append(f"only {checked} touchings exercised")

    # additivity: a loop around a freshly split EP pair carries the parent
    # Dirac charge, and the pair's individual windings sum to it
    split = ModelParams(J=1.0, T=-1.0, t=0.5, gamma=0.01)
    btps = locate_btps(split)
    pair = [b for b in btps if abs(b.k.ky - HALF_PI) < 1e-9 and abs(b.k.kx - math.pi / 3) < 0.1]
    big = Loop(center=Momentum(math.pi / 3, HALF_PI), radius=0.05)
    if len(pair) != 2:
        bad.append(f"expected a split pair, found {len(pair)} points")
    elif not winding_additivity_check(split, pair, big):
        bad.append("winding_additivity_check failed on the split pair")
    else:
        total = winding_number(split, big, field_kind="F").value
        parts = sum(
            winding_number(split, make_loop(b.k, btps), field_kind="F").value
            for b in pair
        )
        parent = winding_number(
            ModelParams(J=1.0, T=-1.0, t=0.5, gamma=0.0), big, field_kind="F"
        ).value
        if abs(total) != 1.0:
            bad.append(f"enclosing winding {total} is not a unit charge")
        if parts != total:
            bad.append(f"split parts {parts} != enclosing {total}")
        if parent != total:
            bad.append(f"parent Dirac charge {parent} != enclosing {total}")
    _verdict(capfd, 3, bad)


# ---------------------------------------------------------------------------
# 4. momentum-relation residuals stay at rounding level; a planted defect is seen


def _corrupt_field(params, kx, ky):
    bx, _ = bloch_field_grid(params, kx, ky)
    by = 4.0 * params.t * np.sin(kx) * np.sin(ky) + 1j * params.gamma
    return bx, by


def test_criterion_4_symmetry_suite(capfd, monkeypatch):
    bad = []
    rng = np.random.default_rng(41)
    worst = 0.0
    for _ in range(100):
        p = ModelParams(
            J=rng.uniform(0.5, 2.0),
            T=rng.uniform(-2.0, 2.0),
            t=rng.uniform(-1.0, 1.0),
            gamma=rng.uniform(-2.0, 2.0),
        )
        worst = max(worst, max(r for _, r in symmetry_residuals(p, grid_n=64)))
    if worst >= 1e-12:
        bad.append(f"max residual {worst:.3e} >= 1e-12 over 100 draws")
    monkeypatch.setattr(epband.bloch, "bloch_field_grid", _corrupt_field)
    control = max(r for _, r in symmetry_residuals(ANCHOR, grid_n=64))
    if control <= 0.1:
        bad.append(f"planted defect residual {control:.3e} <= 0.1")
    _verdict(capfd, 4, bad)


# ---------------------------------------------------------------------------
# 5. the t = 0 regime: real/imaginary spectrum, rings, trivial point, gap


def test_criterion_5_t_zero_regime(capfd):
    bad = []
    rng = np.random.default_rng(50)
    for _ in range(20):
        p = ModelParams(J=1.0, T=rng.uniform(-3, 3), t=0.0, gamma=rng.uniform(-3, 3))
        if not spectral_reality(p):
            bad.append(f"{p}: spectrum neither real nor imaginary")

    traced = 0
    while traced < 6:
        gamma = rng.uniform(0.1, 1.8)
        big_t = rng.uniform(-1.8, 1.8)
        p = ModelParams(J=1.0, T=big_t, t=0.0, gamma=gamma)
        for s in (1, -1):
            c = branch_level(p, s)
            if abs(c) > 1.9:
                continue
            ring = trace_ep_ring(p, s)
            kx, ky = ring.vertices[:, 0], ring.vertices[:, 1]
            level_err = np.max(np.abs(np.cos(kx) + np.cos(ky) - c))
            bx, by = bloch_field_grid(p, kx, ky)
            abs_e = np.max(np.abs(principal_sqrt(bx * bx + by * by)))
            if level_err > 1e-8:
                bad.append(f"{p} branch {s}: ring level error {level_err:.2e}")
            if abs_e > 1e-6:
                bad.append(f"{p} branch {s}: ring |E| {abs_e:.2e}")
            traced += 1

    p_triv = ModelParams(J=1.0, T=5.0, t=0.0, gamma=-1.0)  # c_- = -2, c_+ = -3 (gapped)
    pts = locate_btps(p_triv)
    if len(pts) != 1 or pts[0].kind != TRIVIAL_ISOLATED_EP:
        bad.append(f"(-1, 5): expected one trivial EP, got {[b.kind for b in pts]}")
    else:
        k = pts[0].k
        if abs(k.kx - math.pi) > 1e-9 or abs(k.ky - math.pi) > 1e-9:
            bad.append(f"trivial EP at ({k.kx:.6f}, {k.ky:.6f}) != (pi, pi)")
        loop = Loop(center=k, radius=0.1)
        for field in ("F", "E"):
            w = winding_number(p_triv, loop, field_kind=field).value
            if w != 0.0:
                bad.append(f"trivial EP w_{field} = {w} != 0")

    p_gap = ModelParams(J=1.0, T=5.0, t=0.0, gamma=0.5)
    if locate_btps(p_gap) != []:
        bad.append("(0.5, 5) is not recognized as gapped")
    gap = min_gap(p_gap)
    if gap <= 0.1:
        bad.append(f"(0.5, 5) min |E| = {gap:.3f} <= 0.1")
    _verdict(capfd, 5, bad)


# ---------------------------------------------------------------------------
# 6. every closed-form dispersion case is recovered by fits on exact bands


def _unit_dirs(rng, n):
    phis = rng.uniform(0.0, 2.0 * math.pi, size=n)
    return [(math.cos(f), math.sin(f)) for f in phis]


def test_criterion_6_dispersion_battery(capfd):
    bad = []
    t0 = time.perf_counter()
    rng = np.random.default_rng(6)

    cases = []
    # normal EP: square root along ANY direction
    origin = Momentum(math.pi / 3, -HALF_PI)
    for d in [(1, 0), (0, 1), (1, 1), (1, -1)] + _unit_dirs(rng, 8):
        cases.append((ANCHOR, NORMAL_EP, origin, d))
    # hybrid EP, k_c = 0 merger: soft/hard axes
    cases.append((ANCHOR, HYBRID_EP, Momentum(0.0, -HALF_PI), (0, 1)))
    cases.append((ANCHOR, HYBRID_EP, Momentum(0.0, -HALF_PI), (1, 0)))
    # hybrid EP, k_c = pi merger
    p_pi = ModelParams(J=1.0, T=2.5, t=0.5, gamma=0.5)
    cases.append((p_pi, HYBRID_EP, Momentum(math.pi, HALF_PI), (0, 1)))
    cases.append((p_pi, HYBRID_EP, Momentum(math.pi, HALF_PI), (1, 0)))
    # hybrid EP, k_c = pi/2 merger: diagonal pair
    p_half = ModelParams(J=1.0, T=0.5, t=0.5, gamma=0.5)
    cases.append((p_half, HYBRID_EP, Momentum(HALF_PI, HALF_PI), (1, 1)))
    cases.append((p_half, HYBRID_EP, Momentum(HALF_PI, HALF_PI), (1, -1)))
    # semi-Dirac: linear/quadratic pairs at both merger geometries
    p_axis = ModelParams(J=1.0, T=-2.0, t=0.5, gamma=0.0)
    cases.append((p_axis, SEMI_DIRAC_POINT, Momentum(0.0, HALF_PI), (0, 1)))
    cases.append((p_axis, SEMI_DIRAC_POINT, Momentum(0.0, HALF_PI), (1, 0)))
    p_diag = ModelParams(J=1.0, T=0.0, t=0.5, gamma=0.0)
    cases.append((p_diag, SEMI_DIRAC_POINT, Momentum(HALF_PI, HALF_PI), (1, 1)))
    cases.append((p_diag, SEMI_DIRAC_POINT, Momentum(HALF_PI, HALF_PI), (1, -1)))
    # Dirac point: linear along ANY direction
    p_dp = ModelParams(J=1.0, T=-1.0, t=0.5, gamma=0.0)
    origin = Momentum(math.pi / 3, HALF_PI)
    for d in [(1, 0), (0, 1), (1, 1), (1, -1)] + _unit_dirs(rng, 8):
        cases.append((p_dp, DIRAC_POINT, origin, d))

    for params, kind, origin, direction in cases:
        tag = (
            f"{kind} at ({origin.kx:.3f},{origin.ky:.3f})"
            f" dir ({direction[0]:+.2f},{direction[1]:+.2f})"
        )
        exp = expected_dispersion(kind, origin, direction, params)
        if exp is None:
            bad.append(f"{tag}: no closed form")
            continue
        fit = fit_power_law(sample_dispersion(params, origin, direction))
        alpha_tol = 0.05 if exp.alpha == 2.0 else 0.02
        if abs(fit.alpha - exp.alpha) > alpha_tol:
            bad.append(f"{tag}: alpha {fit.alpha:.4f} vs {exp.alpha}")
        if abs(fit.c - exp.c) > 0.01 * exp.c:
            bad.append(f"{tag}: C {fit.c:.5f} vs {exp.c:.5f}")
        if fit.r2 < 0.999:
            bad.append(f"{tag}: r2 {fit.r2:.5f}")
    elapsed = time.perf_counter() - t0
    if elapsed >= 20.0:
        bad.append(f"runtime {elapsed:.1f}s >= 20s")
    _verdict(capfd, 6, bad)


# ---------------------------------------------------------------------------
# 7. finite lattice at N = 6 reproduces the momentum blocks and spectrum


def test_criterion_7_realspace_oracle(capfd):
    bad = []
    from epband import LatticeSize

    size = LatticeSize(6)
    h = build_realspace(ANCHOR, size)
    basis = build_momentum_basis(size)
    check = block_check(h, basis, ANCHOR)
    if check.offblock >= 1e-10:
        bad.append(f"off-block residual {check.offblock:.3e}")
    if check.blockdev >= 1e-10:
        bad.append(f"block deviation {check.blockdev:.3e}")
    mismatch = spectral_mismatch(h, basis, ANCHOR)
    if mismatch >= 1e-10:
        bad.append(f"spectral mismatch {mismatch:.3e}")

    vals = h.vals.copy()
    vals[np.flatnonzero(np.abs(vals - ANCHOR.J) < 1e-12)[0]] += 0.1  # one J entry detuned
    broken = block_check(dataclasses.replace(h, vals=vals), basis, ANCHOR)
    if broken.passed or broken.offblock <= 1e-3:
        bad.append("detuned bond was not detected by the block check")
    _verdict(capfd, 7, bad)


# ---------------------------------------------------------------------------
# 8. the 41 x 41 sweep: one census per face of the lines, mirror law, outer 8s


def test_criterion_8_parameter_sweep(capfd):
    bad = []
    t0 = time.perf_counter()
    base = ModelParams(J=1.0, T=0.0, t=0.5, gamma=0.0)
    grid = scan_phase_diagram((-2.0, 2.0), (-2.0, 2.0), 41, base)
    elapsed = time.perf_counter() - t0
    if elapsed >= 60.0:
        bad.append(f"runtime {elapsed:.1f}s >= 60s")

    # every line passes through grid points here, so no classified edge crosses one: the
    # census changes only between faces, and each classified cell is checked against its face
    report = detect_boundaries(grid)
    if report.violations:
        bad.append(f"{len(report.violations)} cells whose census is not their face's")
    classified = [c for row in grid.cells for c in row if c.classified]
    compared = len(classified) - len({c.face for c in classified})  # all but each face's first
    if compared < 1400:
        bad.append(f"only {compared} classified cells compared with their face's census")

    res = len(grid.gammas)
    mirror_pairs = 0
    for i in range(res):
        for j in range(res):
            a, b = grid.cells[i][j], grid.cells[res - 1 - i][j]
            if a.boundary != b.boundary or (a.sig is None) != (b.sig is None):
                bad.append(f"mirror asymmetry at gamma={a.gamma:+.2f}, T={a.big_t:+.2f}")
                continue
            if a.sig is None or i >= res - 1 - i:
                continue
            mirror_pairs += 1
            if _counts(a.sig) != _counts(b.sig):
                bad.append(f"wI counts differ across gamma flip at T={a.big_t:+.2f}")
            wa = sorted(w for _, _, w in a.sig.signed_wii)
            wb = sorted(-w for _, _, w in b.sig.signed_wii)
            if wa != wb:
                bad.append(f"signed wII not flipped at gamma={a.gamma:+.2f}, T={a.big_t:+.2f}")
    if mirror_pairs < 300:
        bad.append(f"only {mirror_pairs} mirror pairs compared")

    outer = 0
    for row in grid.cells:
        for cell in row:
            if cell.sig is None:
                continue
            params = ModelParams(1.0, cell.big_t, 0.5, cell.gamma)
            levels = [branch_level(params, s) for s in (1, -1)]
            live = sum(1 for c in levels if abs(c) < 1.0 - 1e-9)
            dead = sum(1 for c in levels if abs(c) > 1.0 + 1e-9)
            if live == 1 and dead == 1:
                outer += 1
                if cell.sig.n_btps != 8:
                    bad.append(
                        f"single-branch cell gamma={cell.gamma:+.2f}, T={cell.big_t:+.2f}: "
                        f"{cell.sig.n_btps} touchings != 8"
                    )
    if outer < 100:
        bad.append(f"only {outer} single-branch cells seen")
    _verdict(capfd, 8, bad)


# ---------------------------------------------------------------------------
# 9. a small gain/loss splits each Dirac point by gamma / (J sin k_c)


def test_criterion_9_splitting_rate(capfd):
    bad = []
    eps = 0.01
    p = ModelParams(J=1.0, T=-1.0, t=0.5, gamma=eps)
    pts = locate_btps(p)
    pair = sorted(
        (b.k.kx for b in pts if abs(b.k.ky + HALF_PI) < 1e-9 and b.k.kx > 0)
    )
    if len(pair) != 2:
        bad.append(f"expected two flanking EPs, found {len(pair)}")
    else:
        k_c = math.acos(0.5)
        if not pair[0] < k_c < pair[1]:
            bad.append(f"EPs {pair} do not flank the parent at {k_c:.4f}")
        want = eps / (p.J * math.sin(k_c))
        got = pair[1] - pair[0]
        if abs(got - want) > 0.01 * want:
            bad.append(f"separation {got:.6f} vs {want:.6f} (>1%)")
    _verdict(capfd, 9, bad)
