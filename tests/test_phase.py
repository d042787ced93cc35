"""Winding census per parameter point and the deterministic phase scan."""

import dataclasses
import math

import numpy as np
import pytest

import epband.phase
from epband import (
    ModelParams,
    RingRegimeError,
    UnresolvedLoopError,
    WindingError,
    detect_boundaries,
    locate_btps,
    make_loop,
    scan_phase_diagram,
    signature,
    census_type,
    winding_number,
)
from epband.phase import candidate_line_distance

T05 = 0.5


def _sig(gamma, big_t, t=T05):
    return signature(ModelParams(1.0, big_t, t, gamma))


def _counts(sig):
    return (sig.counts_wi[0.0], sig.counts_wi[0.5], sig.counts_wi[1.0])


# ---------------------------------------------------------------- signatures


@pytest.mark.parametrize(
    "gamma,big_t,counts,label",
    [
        (0.0, 0.0, (4, 0, 0), "I"),
        (0.0, -1.0, (0, 0, 8), "II"),
        (0.5, -1.0, (0, 16, 0), "III"),
        (0.5, -1.5, (4, 8, 0), "IV"),
        (-1.0, -1.0, (8, 0, 0), "V"),
    ],
)
def test_census_rows(gamma, big_t, counts, label):
    sig = _sig(gamma, big_t)
    assert _counts(sig) == counts
    assert census_type(sig) == label
    assert sig.n_btps == sum(counts)


def test_single_branch_regime_unlisted():
    # exactly one valid branch outside the diamond: eight normal EPs, no type
    sig = _sig(1.5, -1.0)
    assert _counts(sig) == (0, 8, 0)
    assert sig.n_btps == 8
    assert census_type(sig) is None


def test_signature_wii_values():
    sig = _sig(0.5, -1.5)
    wiis = sorted(w for _, _, w in sig.signed_wii)
    assert wiis[:4] == [-0.5] * 4 and wiis[-4:] == [0.5] * 4
    assert all(w == 0.0 for w in wiis[4:8])
    assert sum(wiis) == 0.0


def test_signature_sum_rule():
    for gamma, big_t in [(0.5, -1.5), (0.5, -1.0), (-1.0, -1.0), (0.7, 0.3)]:
        sig = _sig(gamma, big_t)
        total = sum(b.w_i for b in sig.btps)
        assert total == pytest.approx(0.0, abs=1e-12)


def test_boundary_flag():
    assert _sig(0.5, -1.5).boundary_flag  # c_plus = 1 exactly
    assert _sig(0.0, -1.0).boundary_flag  # gamma = 0
    assert not _sig(0.5, -1.0).boundary_flag
    assert not _sig(0.7, 0.3).boundary_flag


def test_signature_ring_regime_raises():
    with pytest.raises(RingRegimeError):
        signature(ModelParams(1.0, 0.0, 0.0, 1.0))


def test_signature_ring_beside_trivial_point_raises():
    # branch -1 is the trivial EP at (pi, pi) while branch +1 rings
    with pytest.raises(RingRegimeError):
        signature(ModelParams(1.0, 3.0, 0.0, 1.0))


def test_signature_trivial_point_at_t_zero():
    sig = signature(ModelParams(1.0, 5.0, 0.0, -1.0))
    assert sig.n_btps == 1
    b = sig.btps[0]
    assert b.w_i == 0.0 and b.w_ii == 0.0


def test_signature_gapped_empty():
    sig = signature(ModelParams(1.0, 5.0, 0.5, 0.5))
    assert sig.n_btps == 0
    assert _counts(sig) == (0, 0, 0)
    assert census_type(sig) is None


# ---------------------------------------------------------------- failures


def _first_sequential_error(params):
    """The error of treating each touching in turn: loop, F, E, then kind law."""
    law = {"DiracPoint": 1.0, "NormalEP": 0.5}
    btps = locate_btps(params)
    try:
        for b in btps:
            loop = make_loop(b.k, btps)
            wi = winding_number(params, loop, "F").value
            winding_number(params, loop, "E")
            if abs(wi) != law.get(b.kind, 0.0):
                msg = f"w_I = {wi:+g} at {b.k.xy} contradicts its kind {b.kind}"
                return UnresolvedLoopError(msg)
    except WindingError as exc:
        return exc
    return None


@pytest.mark.parametrize(
    "params",
    [
        ModelParams(1.0, -2.0 + 2e-4, T05, 0.0),  # Dirac windings alias to +-1/2
        ModelParams(1.0, -1.0, T05, 1e-5),  # partner EPs 1e-5 apart
    ],
)
def test_signature_raises_first_sequential_error(params):
    expected = _first_sequential_error(params)
    assert isinstance(expected, UnresolvedLoopError)
    with pytest.raises(UnresolvedLoopError) as info:
        signature(params)
    assert type(info.value) is type(expected)
    assert str(info.value) == str(expected)


@pytest.mark.parametrize("big_t", [-2.0 + 2e-5, -2.0 + 2e-4])
def test_signature_rejects_winding_against_kind(big_t):
    # near the semi-Dirac merger the 512-sample loops around the Dirac
    # points alias to w_I = 0 or +-1/2; the census must not relabel them
    params = ModelParams(1.0, big_t, T05, 0.0)
    assert {b.kind for b in locate_btps(params)} == {"DiracPoint"}
    with pytest.raises(UnresolvedLoopError, match="contradicts its kind DiracPoint"):
        signature(params)


@pytest.mark.parametrize("failing, message", [(0, "planted"), (2, "contradicts its kind")])
def test_signature_loop_error_waits_for_earlier_touchings(monkeypatch, failing, message):
    # Every touching here breaks its kind's winding law; a loop that cannot
    # be built for touching ``failing`` must only win when it comes first.
    params = ModelParams(1.0, -2.0 + 2e-4, T05, 0.0)
    btps = locate_btps(params)
    real = epband.phase.make_loop

    def make_loop_failing(center, *args, **kwargs):
        if center == btps[failing].k:
            raise UnresolvedLoopError("planted")
        return real(center, *args, **kwargs)

    monkeypatch.setattr(epband.phase, "make_loop", make_loop_failing)
    with pytest.raises(UnresolvedLoopError, match=message):
        signature(params)


@pytest.mark.parametrize("kind", [0, 1])  # w_I, w_II
def test_signature_rejects_a_census_that_is_not_charge_neutral(monkeypatch, kind):
    # the indices on the torus sum to 0: one planted sign flip must not pass as a census
    params = ModelParams(1.0, -1.5, T05, 0.5)
    sig = signature(params)
    assert sum(b.w_i for b in sig.btps) == sum(b.w_ii for b in sig.btps) == 0.0
    real = epband.phase.wind_loops

    def wind_loops_flipping_one(*args, **kwargs):
        windings = [list(w) for w in real(*args, **kwargs)]
        flipped = next(w for w in windings if w[kind].value != 0.0)
        flipped[kind] = dataclasses.replace(flipped[kind], value=-flipped[kind].value)
        return [tuple(w) for w in windings]

    monkeypatch.setattr(epband.phase, "wind_loops", wind_loops_flipping_one)
    with pytest.raises(UnresolvedLoopError, match="do not sum to 0"):
        signature(params)


@pytest.mark.parametrize("gamma", [1e-5, 3e-5])
def test_signature_reports_unseparated_partner_eps(gamma):
    # the partner EPs of each split Dirac point sit about gamma apart: no
    # loop separates them, and the census must say so instead of merging them
    with pytest.raises(UnresolvedLoopError, match="too close to separate"):
        signature(ModelParams(1.0, -1.0, T05, gamma))


def test_key_stable_within_open_region():
    # positions move with the parameters; the phase identity must not
    a = _sig(0.45, -0.95)
    b = _sig(0.55, -1.05)
    assert a.key() == b.key()


def test_key_changes_across_candidate_line():
    a = _sig(0.5, 0.45)  # T < gamma
    b = _sig(0.5, 0.55)  # T > gamma
    assert a.key() != b.key()


def test_wii_hash_format():
    h = _sig(0.5, -1.5).wii_hash()
    assert len(h) == 12
    assert all(c in "0123456789abcdef" for c in h)
    assert h == _sig(0.5, -1.5).wii_hash()


def test_json_shape():
    d = _sig(0.5, -1.5).to_json_dict()
    assert set(d) == {"nBtps", "countsWI", "signedWII", "boundaryFlag", "btps"}
    assert d["countsWI"] == {"0": 4, "1/2": 8, "1": 0}
    assert len(d["signedWII"]) == 12


def test_candidate_line_distance():
    name, d = candidate_line_distance(0.0, 1.3, 1.0)
    assert name == "gamma=0" and d == pytest.approx(0.0)
    name, d = candidate_line_distance(0.7, 0.7, 1.0)
    assert name == "T=gamma" and d == pytest.approx(0.0)
    name, d = candidate_line_distance(0.5, -1.5, 1.0)
    assert name == "T-gamma=-2J" and d == pytest.approx(0.0)


# ---------------------------------------------------------------- scanning


def test_scan_degenerate_single_point():
    grid = scan_phase_diagram((0.5, 0.5), (-1.0, -1.0), 8, ModelParams(1.0, 0.0, T05, 0.0))
    assert len(grid.gammas) == 1 and len(grid.big_ts) == 1
    cell = grid.cells[0][0]
    assert cell.classified
    assert _counts(cell.sig) == (0, 16, 0)


def test_scan_skips_candidate_line_cells():
    # gamma = 0 row lies exactly on a candidate line: flagged, not classified
    grid = scan_phase_diagram((-0.2, 0.2), (-1.2, -0.8), 9, ModelParams(1.0, 0.0, T05, 0.0))
    mid = grid.cells[4]  # gamma = 0 exactly
    assert all(c.boundary and not c.classified for c in mid)
    others = [c for row in (grid.cells[0], grid.cells[8]) for c in row]
    assert all(c.classified for c in others)


def test_scan_mirror_symmetry():
    grid = scan_phase_diagram((-1.1, 1.1), (-1.6, -0.4), 12, ModelParams(1.0, 0.0, T05, 0.0))
    gammas = np.asarray(grid.gammas)
    for i, g in enumerate(gammas):
        mi = int(np.argmin(np.abs(gammas + g)))
        if abs(gammas[mi] + g) > 1e-12:
            continue
        for j in range(len(grid.big_ts)):
            a, b = grid.cells[i][j], grid.cells[mi][j]
            if not (a.classified and b.classified):
                continue
            assert a.sig.counts_wi == b.sig.counts_wi
            wa = sorted(round(w, 6) for _, _, w in a.sig.signed_wii)
            wb = sorted(round(-w, 6) for _, _, w in b.sig.signed_wii)
            assert wa == wb


def test_scan_boundaries_straddling_diagonal():
    base = ModelParams(1.0, 0.0, T05, 0.0)
    grid = scan_phase_diagram((0.305, 0.605), (0.31, 0.61), 8, base)
    report = detect_boundaries(grid)
    assert len(report.segments) > 0
    assert all(s.nearest_line == "T=gamma" for s in report.segments)
    assert report.violations == ()


def _line_sides(cell, j=1.0):
    """Which side of each of the seven candidate lines the cell lies on."""
    g, bt = cell.gamma, cell.big_t
    values = (g, bt - g, bt + g, bt + g - 2 * j, bt + g + 2 * j, bt - g - 2 * j, bt - g + 2 * j)
    return tuple(v > 0 for v in values)


@pytest.fixture(scope="module")
def off_lattice_grid():
    # step 5/18: the lines T +- gamma = +-2J miss every grid point, so classified cells
    # sit on both sides of them and the edges between those cells cross a line
    return scan_phase_diagram((-2.5, 2.5), (-2.5, 2.5), 19, ModelParams(1.0, 0.0, -0.7, 0.0))


def test_boundary_check_off_lattice_every_segment_crosses_a_line(off_lattice_grid):
    grid = off_lattice_grid
    report = detect_boundaries(grid)
    assert len(report.segments) == 66
    for seg in report.segments:
        a, b = (grid.cells[i][j] for i, j in (seg.cell_a, seg.cell_b))
        assert _line_sides(a) != _line_sides(b)
    assert report.violations == ()


def test_boundary_check_flags_a_differing_census_within_one_face(off_lattice_grid):
    # two same-face cells within one cell width of a line, one of them given another
    # cell's census: a test by distance to the nearest line would let that edge pass
    grid = off_lattice_grid
    width = float(grid.gammas[1] - grid.gammas[0])
    cells = [list(row) for row in grid.cells]
    flat = [c for row in cells for c in row if c.classified]
    n = len(grid.gammas)
    pairs = [((i, j), (i + di, j + dj)) for i in range(n) for j in range(n)
             for di, dj in ((1, 0), (0, 1)) if i + di < n and j + dj < n]
    for (i, j), (i2, j2) in pairs:
        a, b = cells[i][j], cells[i2][j2]
        mid = (0.5 * (a.gamma + b.gamma), 0.5 * (a.big_t + b.big_t))
        if (a.classified and b.classified and _line_sides(a) == _line_sides(b)
                and candidate_line_distance(*mid, 1.0)[1] < width):
            break
    else:
        pytest.fail("no same-face pair near a line")
    other = next(c for c in flat if c.sig.key() != a.sig.key())
    cells[i2][j2] = dataclasses.replace(b, sig=other.sig)
    planted = dataclasses.replace(grid, cells=tuple(map(tuple, cells)))
    report = detect_boundaries(planted)
    assert ((i, j), (i2, j2)) in [(s.cell_a, s.cell_b) for s in report.violations]
    assert all((i2, j2) in (s.cell_a, s.cell_b) for s in report.violations)


@pytest.mark.parametrize("offset,flag", [(0.0, True), (9e-10, True), (-9e-10, True),
                                         (1e-9, True), (1.1e-9, False), (2e-9, False)])
def test_boundary_flag_is_the_merger_snap(offset, flag):
    # c_+ = 1 + offset at gamma = 0.5; the flag and locate_btps' merged kind share the snap
    p = ModelParams(1.0, -1.5 - 2.0 * offset, 0.5, 0.5)
    sig = signature(p)
    assert sig.boundary_flag == flag
    merged = {b.kind for b in sig.btps if b.branch == 1} == {"HybridEP"}
    assert merged == flag


def test_boundary_flag_at_t_zero_is_the_trivial_ep_level():
    # c_- = 2 at t = 0, where the trivial EP appears; the flag once read -1, 0 and 1 there
    sig = signature(ModelParams(1.0, -5.0, 0.0, 1.0))
    assert [b.kind for b in sig.btps] == ["TrivialIsolatedEP"]
    assert sig.boundary_flag


def test_t_zero_scan_flags_the_trivial_ep_line():
    # at t = 0 the lines are c_+- = +-2; here T + gamma = -4J crosses the grid at 5 cells
    grid = scan_phase_diagram((0.5, 1.5), (-6.0, -4.0), 11, ModelParams(1.0, 0.0, 0.0, 0.0))
    flagged = [(c.gamma, c.big_t) for row in grid.cells for c in row if c.boundary]
    assert len(flagged) == 5
    assert all(abs(big_t + gamma + 4.0) < 1e-12 for gamma, big_t in flagged)


def test_scan_uniform_region_no_boundaries():
    grid = scan_phase_diagram((0.4, 0.6), (-1.2, -0.9), 8, ModelParams(1.0, 0.0, T05, 0.0))
    report = detect_boundaries(grid)
    assert report.segments == () and report.violations == ()


def test_scan_single_branch_regime_eight_eps():
    # exactly one branch valid: |T - gamma| <= 2 < |T + gamma|
    grid = scan_phase_diagram((1.45, 1.55), (0.95, 1.05), 8, ModelParams(1.0, 0.0, T05, 0.0))
    for row in grid.cells:
        for cell in row:
            if cell.classified:
                assert cell.sig.n_btps == 8


def test_scan_rejects_tiny_resolution():
    with pytest.raises(ValueError):
        scan_phase_diagram((-2.0, 2.0), (-2.0, 2.0), 4, ModelParams(1.0, 0.0, T05, 0.0))
