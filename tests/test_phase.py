"""Winding census per parameter point and the deterministic phase scan."""

import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import epband.phase
from epband import (
    ModelParams,
    RingRegimeError,
    UnresolvedLoopError,
    WindingError,
    detect_boundaries,
    face,
    locate_btps,
    make_loop,
    scan_phase_diagram,
    signature,
    census_type,
    winding_number,
)
from epband.bloch import SYMMETRY_RELATIONS, Momentum, torus_distance
from test_cli import BENCHMARK_WORKLOADS

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


def test_census_lists_touchings_in_locator_order():
    # signature keeps the order locate_btps gives, over every family of the points benchmark
    censuses = {}
    for label, p in BENCHMARK_WORKLOADS.draw_points(1):
        try:
            sig = signature(p)
        except (ValueError, WindingError):
            continue
        assert [(b.k, b.branch) for b in sig.btps] == [(b.k, b.branch) for b in locate_btps(p)]
        censuses[label] = censuses.get(label, 0) + 1
    assert len(censuses) == 4 and min(censuses.values()) > 10, censuses


def _on_line(gamma, big_t, t=T05):
    return face(ModelParams(1.0, big_t, t, gamma)).on_line


def test_boundary_flag():
    assert _on_line(0.5, -1.5)  # c_plus = 1 exactly
    assert _on_line(0.0, -1.0)  # gamma = 0
    assert not _on_line(0.5, -1.0)
    assert not _on_line(0.7, 0.3)


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
    """The error of building every loop, then treating each touching in turn: F, E, charges."""
    btps = locate_btps(params)
    try:
        loops = [make_loop(b.k, btps) for b in btps]
        for b, loop in zip(btps, loops):
            wi = winding_number(params, loop, "F").value
            wii = winding_number(params, loop, "E").value
            if (wi, wii) != (b.w_i, b.w_ii):
                msg = (f"windings ({wi:+g}, {wii:+g}) at {b.k.xy} contradict its {b.kind} "
                       f"charges ({b.w_i:+g}, {b.w_ii:+g})")
                return UnresolvedLoopError(msg)
    except WindingError as exc:
        return exc
    return None


@pytest.mark.parametrize(
    "params",
    [
        # gamma = 0 beside the merger at T = 0: Dirac points 1.3e-4 apart, and |E| on their
        # loops below its floor
        ModelParams(1.1525466266029498, 0.00021055998584752834, 0.013225014747116985, 0.0),
        # gamma = 0 at |t/J| = 1.6e-3: a Dirac loop still turns too fast at 2^16 samples
        ModelParams(1.2731068227677047, -0.05096735189088856, 0.0020740942029168377, 0.0),
    ],
)
def test_signature_raises_first_sequential_error(params):
    expected = _first_sequential_error(params)
    assert isinstance(expected, WindingError)
    with pytest.raises(WindingError) as info:
        signature(params)
    assert type(info.value) is type(expected)
    assert str(info.value) == str(expected)


@pytest.mark.parametrize("big_t", [-1.9996454409691105, -1.9998471017538408, -2.0 + 2e-4,
                                   -2.0 + 2e-5])
def test_gamma_zero_merger_draw_becomes_a_census(big_t):
    # two merger draws of the points benchmark (seed 1) and two points nearer the semi-Dirac
    # merger.  Tracked 512-sample Dirac loops made up branch swaps here and wound +-1/2 or, at
    # 2e-5, 0; at gamma = 0 no branch is tracked, and each loop winds its charge +-1
    params = ModelParams(1.0, big_t, T05, 0.0)
    btps = signature(params).btps
    assert BENCHMARK_WORKLOADS.law_failure(params, btps) is None
    assert {b.kind for b in btps} == {"DiracPoint"}
    assert [abs(b.w_i) for b in btps] == [1.0] * 8 and sum(b.w_i for b in btps) == 0
    # btp.face puts 0 < |gamma| <= 2|J| 1e-9 on gamma = 0, and so does the winding pass
    for gamma in (5e-10, -5e-10, 1e-9):
        assert signature(ModelParams(1.0, big_t, T05, gamma)).btps == btps


# 12 draws per family of the points benchmark; this seed gives censuses, and errors from
# make_loop and from the tracking
_POINTS_DRAWS = BENCHMARK_WORKLOADS.draw_points(23, per_family=12)


@pytest.mark.parametrize("params", [p for _, p in _POINTS_DRAWS],
                         ids=[f"{label}-{i}" for i, (label, _) in enumerate(_POINTS_DRAWS)])
def test_signature_raises_first_sequential_error_on_points_draws(params):
    # a census exactly when one loop per touching, wound on its own, winds its charges
    expected = _first_sequential_error(params)
    if expected is None:
        assert [b.k for b in signature(params).btps] == [b.k for b in locate_btps(params)]
        return
    with pytest.raises(WindingError) as info:
        signature(params)
    assert type(info.value) is type(expected)
    assert str(info.value) == str(expected)


@pytest.mark.parametrize("failing", [0, 2])
def test_signature_raises_a_loop_error_before_winding(monkeypatch, failing):
    # A loop that cannot be built for touching ``failing`` (Loop refuses a radius outside
    # (0, pi)) raises before any loop is wound: every loop is built first.
    params = ModelParams(1.0, -2.0 + 2e-5, T05, 0.0)
    btps = locate_btps(params)
    real = epband.phase.make_loop

    def make_loop_failing(center, *args, **kwargs):
        if center == btps[failing].k:
            raise ValueError("planted")
        return real(center, *args, **kwargs)

    def wind_loops_unreachable(*args, **kwargs):
        raise AssertionError("a loop was wound before every loop was built")

    monkeypatch.setattr(epband.phase, "make_loop", make_loop_failing)
    monkeypatch.setattr(epband.phase, "wind_loops", wind_loops_unreachable)
    with pytest.raises(ValueError, match="planted"):
        signature(params)


def _plant_flips(monkeypatch, flips):
    """Make signature's loops wind -value for each (touching index, 0 for w_I or 1 for w_II)."""
    real = epband.phase.wind_loops

    def wind_loops_flipping(*args, **kwargs):
        windings = [list(w) for w in real(*args, **kwargs)]
        for i, kind in flips:
            w = windings[i][kind]
            windings[i][kind] = dataclasses.replace(w, value=-w.value)
        return [tuple(w) for w in windings]

    monkeypatch.setattr(epband.phase, "wind_loops", wind_loops_flipping)


def _contradicts_at(b):
    return re.escape(f"at {b.k.xy} contradict its {b.kind} charges")


@pytest.mark.parametrize("kind", [0, 1])  # w_I, w_II
def test_signature_rejects_a_census_that_is_not_charge_neutral(monkeypatch, kind):
    # the indices on the torus sum to 0: one planted sign flip must not pass as a census
    params = ModelParams(1.0, -1.5, T05, 0.5)
    btps = signature(params).btps
    assert sum(b.w_i for b in btps) == sum(b.w_ii for b in btps) == 0.0
    i = next(i for i, b in enumerate(btps) if (b.w_i, b.w_ii)[kind] != 0.0)
    _plant_flips(monkeypatch, [(i, kind)])
    with pytest.raises(UnresolvedLoopError, match=_contradicts_at(btps[i])):
        signature(params)


# normal EPs (+-1/2, -+1/2) beside hybrid EPs (0, 0), and eight Dirac points (+-1, 0)
_FLIPPED_CENSUSES = [ModelParams(1.0, -1.5, T05, 0.5), ModelParams(1.0, -1.0, T05, 0.0)]


@pytest.mark.parametrize("params", _FLIPPED_CENSUSES, ids=["normal", "dirac"])
def test_signature_rejects_any_one_flipped_loop(monkeypatch, params):
    # each loop must wind its own touching's charges: a flip of any one nonzero w_I or w_II
    # raises at that touching
    btps = signature(params).btps
    flips = [(i, kind) for i, b in enumerate(btps) for kind in (0, 1) if (b.w_i, b.w_ii)[kind]]
    assert len(flips) in (8, 16)
    for i, kind in flips:
        with monkeypatch.context() as m:
            _plant_flips(m, [(i, kind)])
            with pytest.raises(UnresolvedLoopError, match=_contradicts_at(btps[i])):
                signature(params)


@pytest.mark.parametrize("params", _FLIPPED_CENSUSES, ids=["normal", "dirac"])
def test_signature_rejects_sign_flips_that_keep_both_sums(monkeypatch, params):
    # two touchings of opposite charges, both flipped: every |w_I| still fits its kind and
    # both sums stay 0, so only the per-touching law catches it, at the first of the two
    btps = signature(params).btps
    pairs = [(i, j) for i, a in enumerate(btps) for j, b in enumerate(btps)
             if i < j and a.w_i and (a.w_i, a.w_ii) == (-b.w_i, -b.w_ii)]
    assert len(pairs) == 16
    for i, j in pairs:
        with monkeypatch.context() as m:
            _plant_flips(m, [(x, kind) for x in (i, j) for kind in (0, 1)])
            with pytest.raises(UnresolvedLoopError, match=_contradicts_at(btps[i])):
                signature(params)


@pytest.mark.parametrize("gamma", [1e-5, 3e-5])
def test_signature_reports_unseparated_partner_eps(gamma):
    # the partner EPs of each split Dirac point sit about gamma apart: the census keeps both,
    # where locate_btps puts them, and does not merge them into the Dirac point
    params = ModelParams(1.0, -1.0, T05, gamma)
    btps = signature(params).btps
    assert btps == tuple(locate_btps(params))
    assert [b.kind for b in btps] == ["NormalEP"] * 16
    for dirac in signature(dataclasses.replace(params, gamma=0.0)).btps:
        pair = [b for b in btps if torus_distance(b.k, dirac.k) < 2.0 * gamma]
        assert len(pair) == 2 and {b.branch for b in pair} == {-1, 1}
        assert 0.5 * gamma < torus_distance(pair[0].k, pair[1].k) < 1.5 * gamma


def test_key_stable_within_open_region():
    # positions move with the parameters; the phase identity must not
    a = _sig(0.45, -0.95)
    b = _sig(0.55, -1.05)
    assert a.key() == b.key()


def test_key_changes_across_candidate_line():
    a = _sig(0.5, 0.45)  # T < gamma
    b = _sig(0.5, 0.55)  # T > gamma
    assert a.key() != b.key()


def test_key_is_blind_to_the_sign_of_gamma_next_to_zero():
    # gamma -> -gamma swaps the (branch, w_II) labels of the two touchings at each sign
    # pattern, which the key cannot tell apart: only wii_hash sees the step across gamma = 0
    a, b = _sig(0.005, 1.3), _sig(-0.005, 1.3)
    assert a.key() == b.key()
    assert (a.wii_hash(), b.wii_hash()) == ("8c5a86a5e8c3", "92dce9a88389")
    grid = scan_phase_diagram((-0.01, 0.01), (1.3, 1.3), 8, ModelParams(1.0, 0.0, T05, 0.0))
    below, above = (grid.cells[i][0] for i in (3, 4))
    assert below.gamma < 0 < above.gamma and below.classified and above.classified
    assert below.face.lines_to(above.face) == (("gamma", 0.0),)
    assert below.sig.wii_hash() != above.sig.wii_hash()
    assert detect_boundaries(grid).segments == ()


def test_wii_hash_format():
    h = _sig(0.5, -1.5).wii_hash()
    assert len(h) == 12
    assert all(c in "0123456789abcdef" for c in h)
    assert h == _sig(0.5, -1.5).wii_hash()


def test_segment_lines_are_read_off_faces():
    # the faces a step (dgamma, dT) either side of a point on one line differ by that line
    for (gamma, big_t), (dg, dt), line in [
        ((0.0, 1.3), (0.01, 0.0), ("gamma", 0.0)),  # gamma = 0
        ((0.7, 0.7), (0.01, -0.01), ("plus", 0.0)),  # T = gamma: c_+ = 0
        ((0.5, -1.5), (0.01, -0.01), ("plus", 1.0)),  # T - gamma = -2J: c_+ = 1
    ]:
        assert face(ModelParams(1.0, big_t, T05, gamma)).on_line
        a, b = (face(ModelParams(1.0, big_t + s * dt, T05, gamma + s * dg)) for s in (-1, 1))
        assert a.lines_to(b) == b.lines_to(a) == (line,)


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


# ---------------------------------------------------------------- the census's symmetry group


def _labelled_census(p):
    """(k, branch, kind, w_I, w_II) per touching, or the class of the error signature raises."""
    try:
        return [(b.k, b.branch, b.kind, b.w_i, b.w_ii) for b in signature(p).btps]
    except (ValueError, WindingError) as exc:  # what a scan cell records
        return type(exc).__name__


def _same_census(got, want, tol=1e-12):
    # one to one, with positions to tol and every label exact
    if isinstance(got, str) or isinstance(want, str):
        return got == want
    free = list(want)
    for k, *labels in got:
        match = next((w for w in free
                      if torus_distance(k, w[0]) <= tol and list(w[1:]) == labels), None)
        if match is None:
            return False
        free.remove(match)
    return not free


# (the image of the couplings, the image of one touching (k, s, kind, w_I, w_II))
_PARAMETER_RELATIONS = {
    "gamma -> -gamma": (lambda p: ModelParams(p.J, p.T, p.t, -p.gamma),
                        lambda k, s, kind, wi, wii: (k, -s, kind, wi, -wii)),
    "(J, T) -> (-J, -T)": (lambda p: ModelParams(-p.J, -p.T, p.t, p.gamma),
                           lambda k, s, kind, wi, wii: (k, -s, kind, -wi, wii)),
    "J -> -J": (lambda p: ModelParams(-p.J, p.T, p.t, p.gamma),
                lambda k, s, kind, wi, wii: (Momentum(k.kx + math.pi, k.ky + math.pi), s, kind,
                                             wi, wii)),
    "t -> -t": (lambda p: ModelParams(p.J, p.T, -p.t, p.gamma),
                lambda k, s, kind, wi, wii: (k, s, kind, -wi, -wii)),
}

_SIGN = st.sampled_from([1.0, -1.0])
# the four families of the points benchmark: generic, near-merger, small-gamma and small-t
_POINTS_FAMILIES = st.one_of(
    st.builds(lambda big_t, t, g: ModelParams(1.0, big_t, t, g),
              st.floats(-3.0, 3.0), st.floats(-1.0, 1.0), st.floats(-2.0, 2.0)),
    st.builds(lambda e: ModelParams(1.0, -2.0 + 10.0 ** e, 0.5, 0.0), st.floats(-6.0, -1.0)),
    st.builds(lambda big_t, s, e: ModelParams(1.0, big_t, 0.5, s * 10.0 ** e),
              st.floats(-1.8, -0.2), _SIGN, st.floats(-6.0, -1.0)),
    st.builds(lambda big_t, s, e: ModelParams(1.0, big_t, s * 10.0 ** e, 0.5),
              st.floats(-1.8, -0.2), _SIGN, st.floats(-11.0, -1.0)),
)


@settings(max_examples=60, deadline=None)
@given(p=_POINTS_FAMILIES)
def test_census_symmetry_group(p):
    """The image of a census is the census of the image couplings, or both raise alike; and
    the point group maps a census onto itself, mirrors flipping both windings."""
    census = _labelled_census(p)
    for name, (couplings, act) in _PARAMETER_RELATIONS.items():
        image = census if isinstance(census, str) else [act(*x) for x in census]
        assert _same_census(image, _labelled_census(couplings(p))), (name, p)
    if isinstance(census, str):
        return
    for name, op in SYMMETRY_RELATIONS:
        det = round(np.linalg.det(np.array([op(1.0, 0.0), op(0.0, 1.0)])))  # +1 proper, -1 mirror
        image = [(Momentum(*op(k.kx, k.ky)), s, kind, det * wi, det * wii)
                 for k, s, kind, wi, wii in census]
        assert _same_census(image, census), (name, p)


@settings(max_examples=60, deadline=None)
@given(p=_POINTS_FAMILIES, u=st.floats(-300.0, 300.0))
def test_census_is_scale_free(p, u):
    """Scaling every coupling by one factor changes no physics: the census keeps its kinds,
    branches and windings exactly and its positions to 1e-9, or both raise alike.  Absolute
    floors on |t| and on the field once put a scaled anchor in the ring regime or on a defect,
    and a field wound at scale 1e+-200 over- or underflowed."""
    scale = 10.0**u
    scaled = ModelParams(scale * p.J, scale * p.T, scale * p.t, scale * p.gamma)
    assert _same_census(_labelled_census(scaled), _labelled_census(p), tol=1e-9), (u, p)


def _small_gamma_draws(rng, n):
    """n pairs of draws at |gamma/J| log-uniform in [2.2e-9, 1e-3], just past btp.face's
    gamma = 0 snap, with |J| from 0.1 to 10: one away from the mergers, one beside one."""
    for _ in range(n):
        j = rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-1.0, 1.0)
        gamma = rng.choice([-1.0, 1.0]) * abs(j) * 10.0 ** rng.uniform(math.log10(2.2e-9), -3.0)
        t = rng.choice([-1.0, 1.0]) * abs(j) * rng.uniform(0.2, 1.0)
        side = rng.choice([-1.0, 1.0])
        yield "away", ModelParams(j, side * abs(j) * rng.uniform(0.2, 1.8), t, gamma)
        off = 10.0 ** rng.uniform(-6.0, -1.0)  # T +- gamma beside +-2J, or T beside +-gamma
        big_t = side * abs(j) * (2.0 - off if rng.random() < 0.5 else off)
        yield "near", ModelParams(j, big_t, t, gamma)


def test_small_gamma_signatures_are_censuses_or_collapse_alike():
    # each Dirac point of gamma = 0 splits into two EPs about gamma apart, and each loop
    # encloses its own EP however close the partner.  A 1e-4 floor on the loop radius once
    # refused most of these censuses with an UnresolvedLoopError
    outcomes = []
    for family, p in _small_gamma_draws(np.random.default_rng(36), 100):
        census = _labelled_census(p)
        if family == "away":
            assert not isinstance(census, str), (census, p)
            assert [x[0] for x in census] == [b.k for b in locate_btps(p)], p
            continue
        # beside a merger a loop may be too small to lift |E| off its floor: then every
        # image of the couplings raises alike
        assert not isinstance(census, str) or census == "LoopThroughDefectError", (census, p)
        for name, (couplings, act) in _PARAMETER_RELATIONS.items():
            image = census if isinstance(census, str) else [act(*x) for x in census]
            assert _same_census(image, _labelled_census(couplings(p))), (name, p)
        outcomes.append(isinstance(census, str))
    assert 0 < sum(outcomes) < len(outcomes)


def test_scan_boundaries_straddling_diagonal():
    base = ModelParams(1.0, 0.0, T05, 0.0)
    grid = scan_phase_diagram((0.305, 0.605), (0.31, 0.61), 8, base)
    report = detect_boundaries(grid)
    assert len(report.segments) > 0
    assert all(s.lines == (("plus", 0.0),) for s in report.segments)  # T = gamma
    assert report.violations == ()


def _line_values(gamma, big_t, j=1.0):
    """Signed offsets of (gamma, T) from the seven t != 0 lines, a reference apart from face."""
    return (gamma, big_t - gamma, big_t + gamma, big_t + gamma - 2.0 * j, big_t + gamma + 2.0 * j,
            big_t - gamma - 2.0 * j, big_t - gamma + 2.0 * j)


def line_distance(gamma, big_t, j=1.0):
    """Euclidean distance from (gamma, T) to the nearest t != 0 candidate line."""
    off_gamma, *diagonals = (abs(v) for v in _line_values(gamma, big_t, j))
    return min(off_gamma, min(diagonals) / math.sqrt(2.0))


def _line_sides(cell, j=1.0):
    """Which side of each of the seven candidate lines the cell lies on."""
    return tuple(v > 0 for v in _line_values(cell.gamma, cell.big_t, j))


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
        assert seg.lines and _line_sides(a) != _line_sides(b)
    assert report.violations == ()


def test_boundary_check_flags_a_differing_census_within_one_face(off_lattice_grid):
    # two same-face cells within one cell width of a line, the later one given another
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
                and line_distance(*mid) < width):
            break
    else:
        pytest.fail("no same-face pair near a line")
    other = next(c for c in flat if c.sig.key() != a.sig.key())
    cells[i2][j2] = dataclasses.replace(b, sig=other.sig)
    planted = dataclasses.replace(grid, cells=tuple(map(tuple, cells)))
    assert detect_boundaries(planted).violations == ((i2, j2),)


def test_boundary_check_flags_a_cell_with_no_same_face_neighbour():
    # J = 0.05: the face 0 < T - gamma < 2J is one strip of diagonal cells (T - gamma = 0.05),
    # and each cell's four neighbours lie in the faces beside it, so no edge joins two cells
    # of the strip; a census planted on one of them shows only against its face's census
    grid = scan_phase_diagram((0.3, 1.0), (0.35, 1.05), 8, ModelParams(0.05, 0.0, T05, 0.0))
    strip = {grid.cells[i][i].face for i in range(8)}
    assert len(strip) == 1 and detect_boundaries(grid).violations == ()
    cells = [list(row) for row in grid.cells]
    assert all(c.classified and c.face not in strip for c in (cells[3][4], cells[2][3]))
    cells[3][3] = dataclasses.replace(cells[3][3], sig=cells[3][4].sig)
    planted = dataclasses.replace(grid, cells=tuple(map(tuple, cells)))
    assert detect_boundaries(planted).violations == ((3, 3),)


@pytest.mark.parametrize("offset,flag", [(0.0, True), (9e-10, True), (-9e-10, True),
                                         (1e-9, True), (1.1e-9, False), (2e-9, False)])
def test_boundary_flag_is_the_merger_snap(offset, flag):
    # c_+ = 1 + offset at gamma = 0.5; the flag and locate_btps' merged kind share the snap
    p = ModelParams(1.0, -1.5 - 2.0 * offset, 0.5, 0.5)
    sig = signature(p)
    assert face(p).on_line == flag
    merged = {b.kind for b in sig.btps if b.branch == 1} == {"HybridEP"}
    assert merged == flag


def test_boundary_flag_at_t_zero_is_the_trivial_ep_level():
    # c_- = 2 at t = 0, where the trivial EP appears; the flag once read -1, 0 and 1 there
    p = ModelParams(1.0, -5.0, 0.0, 1.0)
    assert [b.kind for b in signature(p).btps] == ["TrivialIsolatedEP"]
    assert face(p).on_line


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


def test_scan_records_a_ring_cell():
    # every branch level lies strictly between -2 and 2 here: a ring in every cell
    grid = scan_phase_diagram((0.5, 1.0), (-0.5, 0.5), 8, ModelParams(1.0, 0.0, 0.0, 0.0))
    cells = [c for row in grid.cells for c in row]
    assert all(c.sig is None and not c.boundary and "rings" in c.error for c in cells)


def test_scan_lets_a_programming_error_propagate(monkeypatch):
    # a TypeError in the census is a bug, not an error cell
    real, calls = epband.phase.signature, []

    def broken(params):
        calls.append(params)
        if len(calls) == 3:
            raise TypeError("a bug in the census")
        return real(params)

    monkeypatch.setattr(epband.phase, "signature", broken)
    with pytest.raises(TypeError, match="a bug in the census"):
        scan_phase_diagram((0.4, 0.6), (-1.2, -0.9), 8, ModelParams(1.0, 0.0, T05, 0.0))
    assert len(calls) == 3
