"""Winding census per parameter point and the deterministic phase scan."""

import math

import numpy as np
import pytest

import epband.phase
from epband import (
    ModelParams,
    RingRegimeError,
    WindingError,
    classify_btp,
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


def test_signature_trivial_point_at_t_zero():
    sig = signature(ModelParams(1.0, 3.0, 0.0, 1.0))
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
    """The error of treating each touching in turn: loop, F, E, then kind."""
    btps = locate_btps(params)
    try:
        for b in btps:
            loop = make_loop(b.k, params, btps)
            wi = winding_number(params, loop, "F").value
            winding_number(params, loop, "E")
            classify_btp(params, b, wi)
    except (ValueError, WindingError) as exc:
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
    assert expected is not None
    with pytest.raises(type(expected)) as info:
        signature(params)
    assert type(info.value) is type(expected)
    assert str(info.value) == str(expected)


@pytest.mark.parametrize("failing, message", [(0, "planted"), (2, "half-integer winding")])
def test_signature_loop_error_waits_for_earlier_touchings(monkeypatch, failing, message):
    # Every touching here fails its classification; a loop that cannot be
    # built for touching ``failing`` must only win when it comes first.
    params = ModelParams(1.0, -2.0 + 2e-4, T05, 0.0)
    btps = locate_btps(params)
    real = epband.phase.make_loop

    def make_loop_failing(center, *args, **kwargs):
        if center == btps[failing].k:
            raise ValueError("planted")
        return real(center, *args, **kwargs)

    monkeypatch.setattr(epband.phase, "make_loop", make_loop_failing)
    with pytest.raises(ValueError, match=message):
        signature(params)


@pytest.mark.parametrize("gamma", [1e-5, 3e-5])
def test_signature_reports_unseparated_partner_eps(gamma):
    # the partner EPs of each split Dirac point sit about gamma apart: no
    # loop separates them, and the census must say so instead of merging them
    with pytest.raises(ValueError, match="too close to separate"):
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
