"""End-to-end command-line checks, in subprocesses and in process through `cli.main`."""

import contextlib
import hashlib
import importlib.util
import io
import itertools
import json
import math
import os
import shutil
import stat
import struct
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from epband import LatticeSize, ModelParams, build_realspace, cli, locate_btps
from epband.cli import parse_angle, parse_range
from test_lattice import _dense

ANCHOR_FLAGS = ("--T", "-1.5", "--gamma", "0.5", "--t", "0.5")


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "epband", *args], capture_output=True, text=True
    )


def run_json(*args):
    proc = run_cli(*args)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


# ---------------------------------------------------------------------------
# flag value parsing (in process)

def test_parse_angle_literals():
    assert parse_angle("0.5") == 0.5
    assert parse_angle("pi") == math.pi
    assert parse_angle("-pi/2") == -math.pi / 2
    assert parse_angle("2pi/3") == pytest.approx(2 * math.pi / 3)
    assert parse_angle("1.5pi") == pytest.approx(1.5 * math.pi)


def test_parse_angle_rejects_garbage():
    import argparse

    for bad in ("pie", "pi/0", "one"):
        with pytest.raises(argparse.ArgumentTypeError):
            parse_angle(bad)


def test_parse_range():
    import argparse

    assert parse_range("-2:2") == (-2.0, 2.0)
    for bad in ("1:2:3", "a:b", "7", "0:inf", "nan:1", "-inf:0"):
        with pytest.raises(argparse.ArgumentTypeError):
            parse_range(bad)


def test_scan_refuses_a_non_finite_range_bound():
    # an infinite bound once reached the grid: numpy warned "invalid value encountered in
    # multiply" and the scan failed on a gamma of nan that was never given
    proc = run_cli("scan", "--res", "8", "--gamma-range", "0:inf", "--t", "0.5")
    assert proc.returncode == 2 and proc.stdout == ""
    assert "range bounds must be finite, got '0:inf'" in proc.stderr
    assert "RuntimeWarning" not in proc.stderr


@pytest.mark.parametrize("spelled, plain", [
    ("--T -1.5 --t 0.5 --gamma -5e-1", "--T -1.5 --t 0.5 --gamma -0.5"),
    ("--T -1.5 --t 0.5 --gamma -.5E0", "--T -1.5 --t 0.5 --gamma -0.5"),
    ("--J -1e0 --T -15e-1 --t -5e-1 --gamma -5e-1", "--J -1 --T -1.5 --t -0.5 --gamma -0.5"),
], ids=["gamma-exponent", "gamma-point-led", "every-model-flag"])
def test_negative_values_in_any_float_spelling(capsys, spelled, plain):
    # argparse alone takes "-5e-1" for an unknown option, not a number
    assert cli.main(["btps", *plain.split()]) == 0
    want = capsys.readouterr().out
    assert cli.main(["btps", *spelled.split()]) == 0
    assert capsys.readouterr().out == want


def test_console_script_installed():
    exe = shutil.which("epband")
    assert exe is not None
    proc = subprocess.run([exe, "--help"], capture_output=True, text=True)
    assert proc.returncode == 0
    for name in ("btps", "winding", "scan", "dispersion", "symmetry", "realspace"):
        assert name in proc.stdout


def test_import_loads_no_scipy():
    # importing scipy would add about 0.5 s to every CLI call, and nothing needs it
    code = (
        "import sys, epband, epband.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


# ---------------------------------------------------------------------------
# btps

def test_btps_anchor_report():
    report = run_json("btps", *ANCHOR_FLAGS)
    assert report["schemaVersion"] == 1
    assert report["command"] == "btps"
    assert report["count"] == 12
    assert report["type"] == "IV"
    kinds = sorted(b["kind"] for b in report["btps"])
    assert kinds.count("HybridEP") == 4
    assert kinds.count("NormalEP") == 8
    keys = [(b["kx"], b["ky"]) for b in report["btps"]]
    assert keys == sorted(keys)


def test_btps_semidirac_merger():
    report = run_json("btps", "--T", "0", "--gamma", "0", "--t", "0.5")
    assert report["count"] == 4
    assert all(b["kind"] == "SemiDiracPoint" for b in report["btps"])


def test_btps_gapped_note():
    report = run_json("btps", "--T", "5", "--gamma", "0.5", "--t", "0")
    assert report["count"] == 0
    assert report["btps"] == []
    assert report["note"] == "gapped"
    assert report["type"] is None


def test_btps_ring_flag_requires_t_zero():
    proc = run_cli("btps", "--ring", *ANCHOR_FLAGS)
    assert proc.returncode == 2
    assert "t = 0" in proc.stderr


def test_btps_ring_flag_uses_the_locator_t_zero_cutoff(capsys):
    # t = 1e-12 is not t = 0 for locate_btps, so --ring is refused up front
    assert cli.main(["btps", "--T", "0", "--t", "1e-12", "--gamma", "1", "--ring"]) == 2
    assert "--ring applies only at t = 0" in capsys.readouterr().err


def test_btps_ring_beside_trivial_point_exits_2(capsys):
    # branch -1 is the trivial EP at (pi, pi), branch +1 rings through (pi, pi/2)
    assert cli.main(["btps", "--T", "3", "--gamma", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "rings" in captured.err and "pass --ring" in captured.err


def test_btps_ring_lists_trivial_point_beside_ring(capsys):
    assert cli.main(["btps", "--T", "3", "--gamma", "1", "--ring"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["note"] == "ring regime"
    assert report["count"] == 0
    rings = {r["branch"]: r for r in report["rings"]}
    assert rings[1]["level"] == -1.0 and len(rings[1]["vertices"]) > 8
    assert rings[-1]["level"] == -2.0
    assert rings[-1]["vertices"] == [[pytest.approx(math.pi, abs=1e-10)] * 2]


def test_btps_ring_regime_needs_flag():
    proc = run_cli("btps", "--gamma", "1", "--T", "0", "--t", "0")
    assert proc.returncode == 2
    assert "pass --ring" in proc.stderr


def test_ring_hint_only_where_there_is_a_ring_flag(capsys):
    # dispersion has no --ring flag, so its ring-regime error offers none
    argv = ["dispersion", "--T", "3", "--gamma", "1", "--t", "0", "--kx", "pi", "--ky", "pi",
            "--dx", "1", "--dy", "0"]
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "rings" in captured.err and "--ring" not in captured.err


@pytest.mark.parametrize("t", ["1e-13", "-1e-13"])
def test_ring_traced_just_above_t_zero(capsys, t):
    # |E| on the ring is 1.26e-6 here; a flat 1e-6 vertex gate exited 3
    flags = ["--T", "-2", "--gamma", "2", "--t", t]
    assert cli.main(["btps", *flags, "--ring"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["note"] == "ring regime"
    assert [r["level"] for r in report["rings"]] == [2.0, 0.0]
    assert cli.main(["ring", *flags, "--branch", "-1", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["count"] > 8


def test_btps_ring_refuses_csv(capsys):
    # its only row would be the CSV header, byte for byte what a gapped census prints
    for big_t in ("0", "3"):  # two rings; a ring beside the trivial EP at (pi, pi)
        assert cli.main(["btps", "--T", big_t, "--t", "0", "--gamma", "1", "--ring",
                         "--format", "csv"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and captured.err.startswith("error: ")
        assert "--format json" in captured.err and "epband ring" in captured.err
    # a trivial-EP census keeps its row
    assert cli.main(["btps", "--T", "5", "--t", "0", "--gamma", "1", "--ring",
                     "--format", "csv"]) == 0
    assert capsys.readouterr().out.splitlines()[1:] == [
        "3.14159265359,3.14159265359,1,TrivialIsolatedEP,0,0"]


def test_btps_ring_regime_traced():
    report = run_json("btps", "--gamma", "1", "--T", "0", "--t", "0", "--ring")
    assert report["note"] == "ring regime"
    assert report["count"] == 0
    levels = sorted(r["level"] for r in report["rings"])
    assert levels == [-0.5, 0.5]
    assert all(len(r["vertices"]) >= 8 for r in report["rings"])


def test_btps_csv_format():
    proc = run_cli("btps", *ANCHOR_FLAGS, "--format", "csv")
    assert proc.returncode == 0
    lines = proc.stdout.strip().split("\n")
    assert lines[0] == "kx,ky,branch,kind,wI,wII"
    assert len(lines) == 13


def test_btps_byte_identical_reruns(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert run_cli("btps", *ANCHOR_FLAGS, "--out", str(a)).returncode == 0
    assert run_cli("btps", *ANCHOR_FLAGS, "--out", str(b)).returncode == 0
    assert a.read_bytes() == b.read_bytes()


def test_btp_json_shape(capsys):
    assert cli.main(["btps", *ANCHOR_FLAGS]) == 0
    btps = json.loads(capsys.readouterr().out)["btps"]
    assert all(list(b) == ["kx", "ky", "branch", "kind", "wI", "wII"] for b in btps)
    assert {(b["wI"], b["wII"]) for b in btps if b["kind"] == "HybridEP"} == {(0.0, 0.0)}


def test_btps_has_no_samples_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["btps", *ANCHOR_FLAGS, "--samples", "512"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --samples" in capsys.readouterr().err


def test_winding_has_no_samples_flag(capsys):
    # the kernel alone sets a loop's sample count: 512, doubled where a step turns too fast
    with pytest.raises(SystemExit) as exc:
        cli.main(["winding", *ANCHOR_FLAGS, "--kx", "0", "--ky", "pi/2", "--samples", "512"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --samples" in capsys.readouterr().err


def test_ring_has_no_samples_flag(capsys):
    # every ring marches 256-point half-arcs
    with pytest.raises(SystemExit) as exc:
        cli.main(["ring", "--T", "-0.5", "--t", "0", "--gamma", "0.5", "--samples", "512"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --samples" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# winding

def test_winding_reported_pair():
    flags = (*ANCHOR_FLAGS, "--kx", "-1.0471975", "--ky", "-1.5707963")
    rep_f = run_json("winding", *flags, "--field", "F")
    assert rep_f["value"] == pytest.approx(0.5)
    assert rep_f["fieldKind"] == "F"
    assert rep_f["residual"] < 0.05
    rep_e = run_json("winding", *flags, "--field", "E")
    assert rep_e["value"] == pytest.approx(-0.5)


def test_winding_pi_literal_flags():
    report = run_json("winding", *ANCHOR_FLAGS, "--kx", "-pi/3", "--ky", "-pi/2")
    assert report["value"] == pytest.approx(0.5)


def test_winding_empty_loop_is_zero():
    report = run_json("winding", *ANCHOR_FLAGS, "--kx", "1.0", "--ky", "1.0")
    assert report["value"] == 0.0
    assert report["branchSwapped"] is False


def test_winding_json_shape(capsys):
    assert cli.main(["winding", *ANCHOR_FLAGS, "--kx", "1", "--ky", "1", "--field", "F"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert list(report) == ["schemaVersion", "command", "params", "value", "rawAngle",
                            "residual", "fieldKind", "branchSwapped", "center", "radius",
                            "samples"]
    assert report["fieldKind"] == "F" and report["center"] == {"kx": 1.0, "ky": 1.0}


def test_winding_loop_through_defect_exit3():
    # Loop of radius 0.1 centered 0.1 east of the Dirac point at (pi/3, pi/2):
    # the sample at angle pi lands on the defect where h itself vanishes, and |E| with it.
    proc = run_cli(
        "winding", "--T", "-1", "--gamma", "0", "--t", "0.5",
        "--kx", repr(math.pi / 3 + 0.1), "--ky", "pi/2", "--loop-radius", "0.1",
    )
    assert proc.returncode == 3
    assert proc.stderr.endswith("error: eigenvalue collapses on the loop\n")


def test_overflowing_field_exits_3():
    # the field overflows on every loop: a WindingError naming it, where a bare ValueError
    # "cannot convert float NaN to integer" used to exit 2.  Loops are wound in units of |J|,
    # so only couplings far larger than J overflow
    for argv in (["winding", "--J", "1", "--T", "1e300", "--t", "0.5", "--gamma", "1e-300",
                  "--kx", "1", "--ky", "1"],
                 ["btps", "--J", "1", "--T", "-1.5", "--t", "1e300", "--gamma", "0.5"],
                 # T / |J| lies past the float range: it clamps to the largest float, which
                 # overflows the field
                 ["winding", "--J", "1e-10", "--T", "1e300", "--t", "0.5", "--gamma", "0.5",
                  "--kx", "1", "--ky", "1"],
                 # E stays finite, but an eigenvector's norm overflows: this was once read as
                 # tied branch overlaps
                 ["winding", "--J", "1", "--T", "1e154", "--t", "0.5", "--gamma", "0.5",
                  "--kx", "1", "--ky", "1"]):
        proc = run_cli(*argv)
        assert proc.returncode == 3 and proc.stdout == ""
        assert proc.stderr.endswith("error: eigenvalue is not finite on the loop\n")


@pytest.mark.parametrize("radius", ["3.141592653589793", "4.0", "7.0", "1e308"])
def test_winding_rejects_a_loop_that_wraps_the_torus(capsys, radius):
    # a circle of radius pi or more wraps the torus: 1e308 printed value 7.5 and exited 0
    argv = ["winding", "--J", "1", *ANCHOR_FLAGS, "--kx", "-pi/3", "--ky", "-pi/2",
            "--field", "F", "--loop-radius", radius]
    assert cli.main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: loop radius must lie in (0, pi), got ")


def test_winding_swap_at_gamma_zero_exits_3(capsys):
    # the loop misses the Dirac point at (pi/3, pi/2) by 1e-10 and encloses no touching.
    # Tracking once swapped branches on it and wound a half turn; at gamma = 0 no branch is
    # tracked, and the field turns too fast beside the Dirac point to settle at any sample
    # count.  At 5e-10 it encloses one EP of the split pair, yet btp.face puts that gamma on 0
    for gamma in ("0", "5e-10"):
        argv = ["winding", "--J", "1", "--T", "-1", "--t", "0.5", "--gamma", gamma, "--kx",
                "1.1471975512965977", "--ky", "pi/2", "--loop-radius", "0.1", "--field", "F"]
        assert cli.main(argv) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: winding failed to quantize, raw angle -0.000000 turns\n"


def test_btps_unresolved_touching_exits_3():
    # gamma = 0 at |t/J| = 1.6e-3: a Dirac loop still turns too fast at 2^16 samples
    proc = run_cli("btps", "--J", "1.2731068227677047", "--T", "-0.05096735189088856",
                   "--t", "0.0020740942029168377", "--gamma", "0")
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert "failed to quantize, raw angle -1" in proc.stderr


def test_btps_prints_partner_eps_1e_5_apart(capsys):
    # each Dirac point of gamma = 0 splits into two normal EPs about gamma apart; each loop,
    # 0.4 times that apart in radius, winds its own EP's charges.  A 1e-4 radius floor once
    # refused this census and exited 3
    flags = ["btps", "--T", "-1", "--t", "0.5", "--gamma", "1e-5"]
    assert cli.main(flags) == 0
    out, err = capsys.readouterr()
    printed = json.loads(out)
    assert err == "" and (printed["count"], printed["type"]) == (16, "III")
    btps = locate_btps(ModelParams(1.0, -1.0, 0.5, 1e-5))
    assert [b["kind"] for b in printed["btps"]] == [b.kind for b in btps] == ["NormalEP"] * 16
    assert [(b["branch"], b["wI"], b["wII"]) for b in printed["btps"]] == [
        (b.branch, b.w_i, b.w_ii) for b in btps]
    assert [(b["kx"], b["ky"]) for b in printed["btps"]] == [
        pytest.approx(b.k.xy, abs=1e-11) for b in btps]


def test_btps_at_t_1_55e_11_prints_the_located_census(capsys):
    # t = 1.55e-11 lies above the t = 0 cutoff.  A loop there once passed where the tracked
    # eigenvector overlaps tied, and btps exited 3; the eigenvalue tracks the branch, and every
    # loop winds the charges locate_btps sets
    flags = ["btps", "--T", "-0.6179", "--t", "1.55e-11", "--gamma", "0.5"]
    assert cli.main([*flags, "--format", "csv"]) == 0
    out, err = capsys.readouterr()
    assert err == "" and hashlib.sha256(out.encode()).hexdigest()[:12] == "5ec93bc9b8f0"
    assert cli.main(flags) == 0
    printed = json.loads(capsys.readouterr().out)["btps"]
    btps = locate_btps(ModelParams(1.0, -0.6179, 1.55e-11, 0.5))
    assert [b.kind for b in btps] == ["NormalEP"] * 16
    assert [(b["branch"], b["wI"], b["wII"]) for b in printed] == [
        (b.branch, b.w_i, b.w_ii) for b in btps]
    assert [(b["kx"], b["ky"]) for b in printed] == [pytest.approx(b.k.xy, abs=1e-11) for b in btps]


def test_winding_around_an_ep_pair_prints_the_summed_charge(capsys):
    # the loop encloses two NormalEPs of charges (-1/2, -1/2) and (-1/2, +1/2).  Eigenvector
    # overlaps cancelled two branch swaps on it and printed -0.5 with branchSwapped true
    argv = ["winding", "--T", "-0.1832", "--t", "0.3493", "--gamma", "-0.000378", "--kx",
            "-1.6318", "--ky", "-1.4547", "--loop-radius", "0.075", "--field", "F"]
    assert cli.main(argv) == 0
    report = json.loads(capsys.readouterr().out)
    assert (report["value"], report["branchSwapped"]) == (-1.0, False)


@pytest.mark.parametrize("gamma", ["5e-10", "-5e-10", "2e-09"])
def test_btps_gamma_within_the_snap_prints_the_gamma_zero_census(capsys, gamma):
    # |gamma| <= 2|J| 1e-9 is gamma = 0: one Dirac point per partner pair, not an exit 3
    flags = ["btps", "--T", "-1.5", "--t", "0.5", "--gamma"]
    assert cli.main([*flags, "0"]) == 0
    want = capsys.readouterr().out.splitlines()
    assert cli.main([*flags, gamma]) == 0
    got = capsys.readouterr().out.splitlines()
    assert len(got) == len(want)
    assert [(a.strip(), b.strip()) for a, b in zip(want, got) if a != b] == [
        ('"gamma": 0.0', f'"gamma": {gamma}')]


def test_btps_trivial_twins_within_the_gamma_snap_exit_2(capsys):
    # both branch levels snap onto 2 at t = 0: gamma = 0 there, so no twin trivial EPs
    argv = ["btps", "--J", "-1.7655530938855897", "--T", "-7.062212376954801", "--t", "-5e-13",
            "--gamma", "1.7655532399681078e-09"]
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "t = gamma = 0 degenerates" in captured.err


# ---------------------------------------------------------------------------
# scan

SCAN_WINDOW = ("--gamma-range", "-0.25:0.25", "--T-range", "-1.25:-0.75", "--res", "9")


def test_scan_csv_shape_and_flags():
    proc = run_cli("scan", *SCAN_WINDOW, "--t", "0.5")
    assert proc.returncode == 0
    lines = proc.stdout.strip().split("\n")
    assert lines[0] == "gamma,T,nBtps,counts0,countsHalf,countsOne,type,boundaryFlag,wIIHash"
    assert len(lines) == 82
    flagged = [ln for ln in lines[1:] if ln.split(",")[7] == "1"]
    # the gamma = 0 column is the only candidate line inside this window
    assert len(flagged) == 9
    assert all(float(ln.split(",")[0]) == 0.0 for ln in flagged)
    assert all(ln.split(",")[6] == "" for ln in flagged)
    classified = [ln for ln in lines[1:] if ln.split(",")[7] == "0"]
    assert all(ln.split(",")[6] == "III" for ln in classified)


def test_scan_json_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    flags = ("scan", *SCAN_WINDOW, "--t", "0.5", "--format", "json")
    assert run_cli(*flags, "--out", str(a)).returncode == 0
    assert run_cli(*flags, "--out", str(b)).returncode == 0
    assert a.read_bytes() == b.read_bytes()
    cells = json.loads(a.read_text())["cells"]
    assert len(cells) == 81
    assert sum(1 for c in cells if c["boundaryFlag"]) == 9


def test_census_json_shape(capsys):
    # one classified cell of type III: the cell's own fields, then its census
    argv = ["scan", "--t", "0.5", "--gamma-range", "0.5:0.5", "--T-range", "-1:-1", "--res", "8",
            "--format", "json"]
    assert cli.main(argv) == 0
    (cell,) = json.loads(capsys.readouterr().out)["cells"]
    assert list(cell) == ["gamma", "T", "boundaryFlag", "type", "wIIHash", "nBtps", "countsWI",
                          "signedWII", "btps"]
    assert cell["boundaryFlag"] is False and cell["type"] == "III" and cell["nBtps"] == 16
    assert cell["countsWI"] == {"0": 0, "1/2": 16, "1": 0}
    assert len(cell["signedWII"]) == len(cell["btps"]) == 16


def test_scan_rejects_low_resolution():
    proc = run_cli("scan", "--res", "4", "--t", "0.5")
    assert proc.returncode == 2


@pytest.mark.parametrize("flag, value", [("--T", "5"), ("--gamma", "3"), ("--T", "0.5:0.5")])
def test_scan_refuses_the_model_flags_it_does_not_read(capsys, flag, value):
    # T and gamma are the scan's axes, so it reads only J and t; nor does --T stand in for
    # the --T-range it begins
    with pytest.raises(SystemExit) as exc:
        cli.main(["scan", "--res", "8", flag, value])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


# each subcommand that prints a JSON report, with what else it needs to run
_REPORT_ARGS = {
    "btps": [],
    "winding": ["--kx", "0.3", "--ky", "0.2"],
    "scan": ["--gamma-range", "0.3:0.3", "--T-range", "0.5:0.5", "--res", "8", "--format", "json"],
    "dispersion": ["--kx", "0.3", "--ky", "0.2", "--dx", "1", "--dy", "0", "--kind", "NormalEP"],
    "symmetry": ["--grid", "8"],
    "realspace": ["--N", "4"],
    "ring": ["--format", "json"],
}
_MODEL_VALUES = {"J": 1.25, "T": -0.75, "t": 0.375, "gamma": 0.625}


def test_every_json_report_echoes_each_model_flag_it_accepts(capsys):
    # a model flag a report does not echo is one the command drops
    (subs,) = [a.choices for a in cli.build_parser()._actions if a.dest == "command"]
    assert sorted(_REPORT_ARGS) == sorted(set(subs) - {"field-export"})
    for name, extra in _REPORT_ARGS.items():
        values = dict(_MODEL_VALUES, t=0.0) if name == "ring" else _MODEL_VALUES  # rings: t = 0
        accepted = [f for f in values if f in {a.dest for a in subs[name]._actions}]
        argv = [name, *extra, *(x for f in accepted for x in (f"--{f}", str(values[f])))]
        assert cli.main(argv) in (0, 1), name
        report = json.loads(capsys.readouterr().out)
        echoed = report["base" if name == "scan" else "params"]
        assert {f: echoed[f] for f in accepted} == {f: values[f] for f in accepted}, name


# ---------------------------------------------------------------------------
# dispersion

def test_dispersion_detects_kind_and_fits():
    report = run_json(
        "dispersion", *ANCHOR_FLAGS, "--kx", "0", "--ky", "-pi/2", "--dx", "0", "--dy", "1"
    )
    assert report["kind"] == "HybridEP"
    assert report["caseId"] == "hybrid-axis-sqrt"
    assert report["expectedAlpha"] == 0.5
    assert report["alpha"] == pytest.approx(0.5, abs=0.02)
    assert report["C"] == pytest.approx(report["expectedC"], rel=0.01)
    assert report["r2"] > 0.999


def test_dispersion_linear_direction_unit_prefactor():
    report = run_json(
        "dispersion", *ANCHOR_FLAGS, "--kx", "0", "--ky", "-pi/2", "--dx", "1", "--dy", "0"
    )
    assert report["caseId"] == "hybrid-axis-linear"
    assert report["expectedC"] == 1.0
    assert report["alpha"] == pytest.approx(1.0, abs=0.02)


@pytest.mark.parametrize("ky", ["1", "pi/2"])
def test_dispersion_kind_off_a_touching_has_no_expected_law(ky):
    # (1, 1) and (1, pi/2) are gapped at the anchor: the jet's order 0 does not vanish, so
    # no law is expected (order 1 would read normal-sqrt, alpha 0.5, against a fit of 0)
    report = run_json("dispersion", *ANCHOR_FLAGS, "--kx", "1", "--ky", ky, "--dx", "1",
                      "--dy", "0", "--kind", "NormalEP")
    assert report["expectedAlpha"] is None and report["expectedC"] is None
    assert report["caseId"] is None
    assert abs(report["alpha"]) < 0.01


def test_dispersion_finds_touching_across_zone_seam():
    # kx = -3.14159265358 and kx = pi are 1e-11 apart on the torus: both name
    # the HybridEP at (pi, pi/2)
    flags = ("--J", "1", "--T", "2.5", "--t", "0.5", "--gamma", "0.5")
    ray = ("--ky", "pi/2", "--dx", "0", "--dy", "1")
    seam = run_cli("dispersion", *flags, "--kx", "-3.14159265358", *ray)
    assert seam.returncode == 0, seam.stderr
    report = json.loads(seam.stdout)
    assert report["kind"] == "HybridEP"
    assert report["origin"]["kx"] == pytest.approx(math.pi, abs=1e-10)
    assert seam.stdout == run_cli("dispersion", *flags, "--kx", "pi", *ray).stdout


def test_dispersion_kind_needs_no_winding(capsys):
    # a Dirac point next to the semi-Dirac merger: the loop windings there cannot
    # be resolved, but the kind is closed form
    argv = ["dispersion", "--T", "-1.99998", "--t", "0.5", "--gamma", "0", "--kx", "-pi/2",
            "--ky", "0.0044721396817779535", "--dx", "0", "--dy", "1"]
    assert cli.main(argv) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["kind"] == "DiracPoint"
    assert report["caseId"] == "dirac-linear"


def test_dispersion_has_no_samples_flag():
    proc = run_cli("dispersion", *ANCHOR_FLAGS, "--kx", "0", "--ky", "pi/2", "--dx", "1",
                   "--dy", "0", "--samples", "64")
    assert proc.returncode == 2
    assert "unrecognized arguments: --samples" in proc.stderr


def test_dispersion_requires_touching_or_kind():
    proc = run_cli("dispersion", *ANCHOR_FLAGS, "--kx", "1", "--ky", "1", "--dx", "1", "--dy", "0")
    assert proc.returncode == 2
    assert "--kind" in proc.stderr


def test_dispersion_off_a_touching_names_the_point(capsys):
    argv = ["dispersion", "--J", "1", "--T", "-1.5", "--t", "0.5", "--gamma", "0.5",
            "--kx", "0", "--ky", "0", "--dx", "1", "--dy", "0"]
    assert cli.main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: no band touching at (0.000000, 0.000000); pass --kind to override\n"


def test_dispersion_csv_ray():
    proc = run_cli(
        "dispersion", *ANCHOR_FLAGS, "--kx", "1", "--ky", "1", "--dx", "1", "--dy", "0",
        "--kind", "NormalEP", "--format", "csv",
    )
    assert proc.returncode == 0
    lines = proc.stdout.strip().split("\n")
    assert lines[0] == "q,absE"
    assert len(lines) == 17
    qs = [float(ln.split(",")[0]) for ln in lines[1:]]
    assert qs == sorted(qs)


def _far_hybrid(x):
    # branch +'s hybrid EP at (pi/2, pi/2) with T = gamma = x: |E| = 2 sqrt(x q) on the ray
    return ("dispersion", "--J", "1", "--T", x, "--t", "0.5", "--gamma", x, "--kx", "pi/2",
            "--ky", "pi/2", "--dx", "1", "--dy", "0")


@pytest.mark.parametrize("x", ["1e12", "1e14", "1e17", "1e160"])
def test_dispersion_refuses_samples_lost_to_rounding(x):
    # 2J(cos kx + cos ky) fell below the ulp of T and the samples were rounding noise of
    # cos(pi/2): C read 1,557,300 at 1e12 (true 2e6), 0.1565 at 1e14 (true 2e7), 4.949 at 1e17,
    # all with exit 0, and at 1e160 |E| overflowed behind two RuntimeWarnings.  Each runs in a
    # process of its own, since the suite turns a RuntimeWarning into an error
    proc = run_cli(*_far_hybrid(x))
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1, proc.stderr


@pytest.mark.parametrize("x, digest", [("1e3", "f53e6a11938d"), ("1e8", "7816c85b28b9")])
def test_dispersion_far_hybrid_that_resolves_prints_its_law(x, digest):
    # C reads 63.2454 at 1e3 and 19999.89 at 1e8 against 2 sqrt(x): these print as before
    proc = run_cli(*_far_hybrid(x))
    assert (proc.returncode, proc.stderr) == (0, "")
    assert hashlib.sha256(proc.stdout.encode()).hexdigest()[:12] == digest


# ---------------------------------------------------------------------------
# symmetry / realspace / ring

def test_symmetry_passes_at_anchor():
    report = run_json("symmetry", *ANCHOR_FLAGS, "--grid", "64")
    assert report["passed"] is True
    assert report["maxResidual"] < 1e-12
    assert len(report["residuals"]) == 9


def test_symmetry_tol_is_relative_to_the_field():
    # at t = 1e7 the swap residual is 7.45e-9, rounding of about 2e-16 relative to |h|; an
    # absolute --tol 1e-9 called that a broken symmetry and exited 1
    proc = run_cli("symmetry", "--J", "1", "--T", "-1.5", "--t", "1e7", "--gamma", "0.5",
                   "--grid", "128", "--tol", "1e-9")
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert report["passed"] is True and report["tol"] == 1e-9
    assert 7e-9 < report["maxResidual"] < 8e-9


def test_symmetry_rejects_a_bad_tol():
    # a negative --tol used to fail the check (exit 1) with maxResidual 0.0, and nan or inf
    # reached the report as a non-finite value
    for tol in ("-1", "-1e-300", "nan", "inf"):
        proc = run_cli("symmetry", *ANCHOR_FLAGS, "--grid", "32", f"--tol={tol}")
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr.startswith("error: --tol must be finite and >= 0")


def test_realspace_block_check(tmp_path):
    dump = tmp_path / "h.csv"
    report = run_json("realspace", *ANCHOR_FLAGS, "--N", "6", "--dump", str(dump))
    assert report["passed"] is True
    assert report["dim"] == 72
    assert report["offblock"] < 1e-10
    assert report["spectralMismatch"] < 1e-10
    lines = dump.read_text().strip().split("\n")
    assert lines[0] == "row,col,re,im"
    assert len(lines) > 72  # hoppings outnumber sites


# zero couplings put explicit zero entries into H, t = -0.0 as +0.0: the dump leaves them out
_ZERO_COUPLINGS = {"J-only": (1.0, 0.0, 0.0, 0.0), "t0": (1.0, 2.0, 0.0, 0.5),
                   "t-0.0": (1.0, 0.0, -0.0, 0.0)}


@pytest.mark.parametrize("n, couplings", [
    *(pytest.param(n, (1.0, -1.5, 0.5, 0.5), id=str(n)) for n in (4, 6)),
    *(pytest.param(n, c, id=f"{n}-{label}")
      for n in (4, 6) for label, c in _ZERO_COUPLINGS.items()),
])
def test_realspace_dump_matches_entry_loop(tmp_path, capsys, n, couplings):
    params = ModelParams(*couplings)
    h = _dense(build_realspace(params, LatticeSize(n)))
    lines = ["row,col,re,im"]
    for r in range(h.shape[0]):
        for c in range(h.shape[1]):
            v = h[r, c]
            if v != 0:
                lines.append(",".join([str(r), str(c), cli._fmt(v.real), cli._fmt(v.imag)]))
    dump = tmp_path / "h.csv"
    flags = [f"--{name}={v!r}" for name, v in zip(("J", "T", "t", "gamma"), couplings)]
    cli.main(["realspace", *flags, "--N", str(n), "--dump", str(dump)])
    capsys.readouterr()
    assert dump.read_text() == "\n".join(lines) + "\n"


def test_realspace_unwritable_out_leaves_no_dump(tmp_path, capsys):
    # the dump and the report are written together: a report that cannot be written takes
    # the dump with it
    argv = ["realspace", "--N", "4", "--dump", str(tmp_path / "h.csv"),
            "--out", str(tmp_path / "nodir" / "x.json")]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert list(tmp_path.iterdir()) == []


def test_unwritable_out_names_the_path_given(tmp_path, capsys):
    # not the temp file beside it
    out = tmp_path / "nodir" / "x.json"
    argv = ["realspace", "--N", "4", "--dump", str(tmp_path / "h.csv"), "--out", str(out)]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == f"error: [Errno 2] No such file or directory: '{out}'\n"


def _scaled_anchor(exp):
    # the anchor couplings times 10^exp, spelled as one would type them
    return ("--J", f"1e{exp}", "--T", f"-1.5e{exp}", "--t", f"5e{exp - 1}",
            "--gamma", f"5e{exp - 1}")


def _without_params(report):
    del report["params"]
    return report


@pytest.mark.parametrize("exp", [-200, -12, -9, 300])
def test_btps_census_is_scale_free(exp, capsys):
    # every tolerance is in units of |J|: an absolute floor on |t| put the anchor at 1e-12 in
    # the ring regime (exit 2), and one on |E| on the loop failed it at 1e-9 ("eigenvalue
    # collapses on the loop", exit 3).  Loops are wound in units of |J|: at 1e-200 |E| still
    # fell below its floor, and at 1e300 E^2 overflowed ("eigenvalue is not finite", exit 3)
    assert _without_params(run_json("btps", *_scaled_anchor(exp))) \
        == _without_params(run_json("btps", *ANCHOR_FLAGS))
    for flags in (_scaled_anchor(exp), ANCHOR_FLAGS):
        assert cli.main(["btps", *flags, "--format", "csv"]) == 0
    got, want = capsys.readouterr().out.split("kx,ky", 2)[1:]
    assert got == want


def test_winding_is_scale_free():
    # an absolute floor on |h|^2 read every loop of the anchor at 1e-12 as one through a defect,
    # and E^2 overflowed on every loop of the anchor at 1e300 (exit 3)
    around = ("--kx", "-pi/2", "--ky", "-1.0471975511965983", "--loop-radius", "0.1")
    for field, exp in itertools.product(("F", "E"), (-12, 300)):
        got, want = (run_json("winding", *flags, *around, "--field", field)
                     for flags in (_scaled_anchor(exp), ANCHOR_FLAGS))
        assert want["value"] != 0.0
        assert (got["value"], got["branchSwapped"]) == (want["value"], want["branchSwapped"])
    # E stays finite at 2e153, but an eigenvector's norm overflowed (exit 3)
    at = ("--kx", "1", "--ky", "1")
    got, want = (run_json("winding", "--J", j, "--T", big_t, "--t", t, "--gamma", t, *at)
                 for j, big_t, t in (("2e153", "6e153", "1e153"), ("1", "3", "0.5")))
    assert (got["value"], got["branchSwapped"]) == (want["value"], want["branchSwapped"])


def test_ring_is_scale_free():
    # the traced |E| on the ring grows as about 4e-8 |J|: at J = 100 it exceeded an absolute
    # 1e-6 bound, and ring and btps --ring exited 3 with "ring vertex with |E| = 4.1e-06"
    flags = [("--J", str(j), "--T", str(-0.5 * j), "--t", "0", "--gamma", str(0.5 * j))
             for j in (100, 1)]
    got, want = (_without_params(run_json("ring", *f, "--branch", "1", "--format", "json"))
                 for f in flags)
    assert got == want and got["count"] > 8
    got, want = (_without_params(run_json("btps", *f, "--ring")) for f in flags)
    assert got == want and len(got["rings"]) == 2
    # at 1e200 Bx^2 overflowed on the ring: |E| read NaN, which passed the |E| check, and numpy
    # warned on stderr.  The check now reads |E| in units of |J|
    got, want = (run_cli("ring", "--J", j, "--T", f"-{g}", "--t", "0", "--gamma", g)
                 for j, g in (("1e200", "5e199"), ("1", "0.5")))
    assert (got.returncode, got.stderr, got.stdout) == (0, "", want.stdout)


def test_dispersion_is_scale_free():
    # an absolute 1e-14 collision floor on |E| stopped the ray of the anchor at 1e-11 and
    # 1e-200 (exit 2), and at 1e200 |E| overflowed ("|E| samples must be finite", exit 2).
    # The ray and the jet are taken in units of |J|, and |E| and C scaled back
    ray = ("--kx", "0", "--ky", "pi/2", "--dx", "1", "--dy", "0")
    want = run_json("dispersion", *ANCHOR_FLAGS, *ray)
    assert want["kind"] == "HybridEP" and want["C"] > 0.0
    for exp in (-11, -200, 200):
        got = run_json("dispersion", *_scaled_anchor(exp), *ray)
        for key in ("kind", "alpha", "r2", "expectedAlpha", "caseId"):
            assert got[key] == want[key], (exp, key)
        for key in ("C", "expectedC"):
            assert got[key] == pytest.approx(want[key] * 10.0**exp, rel=1e-12), (exp, key)


def test_realspace_gate_is_relative_to_j():
    # blockDeviation 3.7e-9 at J = 1e6 is rounding: an absolute 1e-10 gate failed it (exit 1)
    report = run_json("realspace", *_scaled_anchor(6), "--N", "6")
    assert report["passed"] is True and report["blockDeviation"] > 1e-10


def test_realspace_mismatch_is_scale_free():
    # spectral_mismatch squared block entries near 1e200: "non-finite value nan in report"
    # (exit 2).  It squares them in units of |J| and scales the distance back.  Both mismatches
    # are rounding residues, so they agree to a few ulps of |J|, not to a relative tolerance
    got, want = (run_json("realspace", *f, "--N", "6") for f in (_scaled_anchor(200), ANCHOR_FLAGS))
    assert got["passed"] is True and got["spectralMismatch"] < 1e-10 * 1e200
    assert abs(got["spectralMismatch"] / 1e200 - want["spectralMismatch"]) <= 4 * 2.0 ** -52


# realspace stdout at the anchor, recorded when U^dag H U was formed from zero-padded columns
# of U.  Its residues are rounding: summing over each sublattice's rows alone, in increasing
# row order, leaves them bit for bit at these sizes (from N = 10 on they move below 1e-13).
_REALSPACE_SHA256 = {
    4: "d4caebb21dc29aa223c02476ca5d52f4a99f94cb219b042d9323939b8c4aef8b",
    6: "c64132621f3347ad9daa6bdd8b6afee3269c471104f14bdb03c3f5d72674311c",
    8: "53c31b07455440d7d6868c453306bc579e3736bd8f3fe42fddbaf6dfad177c7f",
}


def test_realspace_bytes_are_pinned_for_any_blas_thread_count():
    def stdout(n, threads=None):
        env = dict(os.environ)
        if threads is not None:
            env["OPENBLAS_NUM_THREADS"] = str(threads)
        proc = subprocess.run([sys.executable, "-m", "epband", "realspace", *ANCHOR_FLAGS,
                               "--N", str(n)], capture_output=True, env=env)
        assert proc.returncode == (0 if n % 4 else 1), proc.stderr  # ROADMAP item 3 at 0 mod 4
        return proc.stdout

    for n in (4, 8):
        assert hashlib.sha256(stdout(n)).hexdigest() == _REALSPACE_SHA256[n]
    runs = {(n, threads): stdout(n, threads) for n in (6, 24) for threads in (1, 2)}
    assert runs[6, 1] == runs[6, 2] and runs[24, 1] == runs[24, 2]
    assert hashlib.sha256(runs[6, 1]).hexdigest() == _REALSPACE_SHA256[6]


def test_realspace_rejects_odd_side():
    assert run_cli("realspace", "--N", "5").returncode == 2


@pytest.mark.parametrize("exc", [MemoryError(), MemoryError("Unable to allocate 95.4 GiB")])
def test_realspace_out_of_memory_exits_2(monkeypatch, capsys, exc):
    # a lattice too large to allocate is bad input: one error line, no traceback, whether H
    # or the transform's blocks of U fail to allocate
    def fail(*args):
        raise exc

    for site in ("build_realspace", "block_check"):
        with monkeypatch.context() as m:
            if site == "block_check":
                m.setattr(cli, "build_realspace", lambda params, size: None)
            m.setattr(cli, site, fail)
            assert cli.main(["realspace", *ANCHOR_FLAGS, "--N", "200"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: out of memory: ") and err.count("\n") == 1
        assert str(exc) in err


def test_ring_csv_satisfies_level_set():
    proc = run_cli("ring", "--gamma", "1", "--T", "0", "--t", "0", "--branch", "1")
    assert proc.returncode == 0
    lines = proc.stdout.strip().split("\n")
    assert lines[0] == "kx,ky"
    assert len(lines) >= 9
    for ln in lines[1:]:
        kx, ky = map(float, ln.split(","))
        assert abs(math.cos(kx) + math.cos(ky) - 0.5) < 1e-8


def test_ring_outside_t_zero_exits_2():
    assert run_cli("ring", *ANCHOR_FLAGS).returncode == 2


# ---------------------------------------------------------------------------
# field export

def test_field_export_svg_and_csv(tmp_path):
    out = tmp_path / "field.svg"
    proc = run_cli("field-export", *ANCHOR_FLAGS, "--grid", "64", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    svg = out.read_text()
    assert svg.startswith("<svg")
    assert svg.count("<rect") == 64 * 64
    assert 900 <= svg.count("<path") <= 32 * 32

    csv_path = tmp_path / "field.csv"
    rows = csv_path.read_text().strip().split("\n")
    assert rows[0] == "kx,ky,Fx,Fy"
    assert len(rows) == 64 * 64 + 1
    data = np.array([[float(x) for x in ln.split(",")] for ln in rows[1:]])
    mag = np.hypot(data[:, 2], data[:, 3])
    assert np.median(mag) > 0.9
    # the texture must collapse toward each band touching
    btps = [(b["kx"], b["ky"]) for b in run_json("btps", *ANCHOR_FLAGS)["btps"]]
    assert len(btps) == 12
    for bx, by in btps:
        near = np.argmin(np.hypot(data[:, 0] - bx, data[:, 1] - by))
        assert mag[near] < 0.75


def test_field_export_csv_lands_beside_an_out_that_ends_in_csv(tmp_path, capsys):
    # the CSV takes the SVG path with its suffix swapped for .csv; when that is the SVG path
    # itself, it takes .csv appended
    out = tmp_path / "fig.csv"
    assert cli.main(["field-export", *ANCHOR_FLAGS, "--grid", "8", "--out", str(out)]) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == ["fig.csv", "fig.csv.csv"]
    assert out.read_text().startswith("<svg")
    assert (tmp_path / "fig.csv.csv").read_text().startswith("kx,ky,Fx,Fy\n")


def test_field_export_grid_floor(tmp_path):
    out = tmp_path / "no.svg"
    proc = run_cli("field-export", "--t", "0.5", "--grid", "4", "--out", str(out))
    assert proc.returncode == 2
    assert "at least 8" in proc.stderr
    assert list(tmp_path.iterdir()) == []


# The per-cell emitter that field-export replaced, kept as the byte reference.
def _round12_reference(x):
    if x == 0.0:
        return 0.0
    if not math.isfinite(x):
        raise ValueError(f"non-finite value {x!r} in report")
    return float(f"{x:.12g}")


def _fmt_reference(x):
    # format, parse, format again
    return f"{_round12_reference(float(x)):.12g}"


def _cmap_reference(val):
    lo, hi = (13, 8, 135), (240, 249, 33)
    v = min(max(val, 0.0), 1.0)
    r, g, b = (round(lo[i] + v * (hi[i] - lo[i])) for i in range(3))
    return f"#{r:02x}{g:02x}{b:02x}"


def _field_export_reference(params, n):
    size, arrows = 640, 32
    ks = cli._centers(n)
    kxg, kyg = np.meshgrid(ks, ks, indexing="ij")
    fx, fy, _ = cli.observables_grid(params, kxg, kyg)
    density = fx * fx + fy * fy
    px = size / n
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{size}" height="{size}" viewBox="0 0 {size} {size}">'
    ]
    for r in range(n):
        iy = n - 1 - r
        for c in range(n):
            parts.append(
                f'<rect x="{c * px:.2f}" y="{r * px:.2f}" width="{px:.2f}" '
                f'height="{px:.2f}" fill="{_cmap_reference(float(density[c, iy]))}"/>'
            )
    ka = cli._centers(arrows)
    kxa, kya = np.meshgrid(ka, ka, indexing="ij")
    afx, afy, _ = cli.observables_grid(params, kxa, kya)
    scale = 0.75 * (size / arrows)
    parts.append('<g stroke="#ffffff" stroke-width="1.2" stroke-opacity="0.9" fill="none">')
    for ix in range(arrows):
        for iy in range(arrows):
            vx, vy = float(afx[ix, iy]), float(afy[ix, iy])
            mag = math.hypot(vx, vy)
            if mag < 1e-3:
                continue
            cxp = (kxa[ix, iy] + np.pi) / (2.0 * np.pi) * size
            cyp = (np.pi - kya[ix, iy]) / (2.0 * np.pi) * size
            ux, uy = vx / mag, -vy / mag
            half = 0.5 * scale * min(mag, 1.0)
            x0, y0 = cxp - half * ux, cyp - half * uy
            x1, y1 = cxp + half * ux, cyp + half * uy
            hx = 0.35 * half
            c150, s150 = -0.866, 0.5
            h1x = x1 + hx * (ux * c150 - uy * s150)
            h1y = y1 + hx * (ux * s150 + uy * c150)
            h2x = x1 + hx * (ux * c150 + uy * s150)
            h2y = y1 + hx * (-ux * s150 + uy * c150)
            parts.append(
                f'<path d="M {x0:.2f} {y0:.2f} L {x1:.2f} {y1:.2f} '
                f'M {h1x:.2f} {h1y:.2f} L {x1:.2f} {y1:.2f} L {h2x:.2f} {h2y:.2f}"/>'
            )
    parts += ["</g>", "</svg>"]
    rows = ["kx,ky,Fx,Fy"]
    for ix in range(n):
        for iy in range(n):
            cells = (ks[ix], ks[iy], fx[ix, iy], fy[ix, iy])
            rows.append(",".join(_fmt_reference(v) for v in cells))
    return "\n".join(parts) + "\n", "\n".join(rows) + "\n"


FIELD_POINTS = {
    "anchor": ModelParams(1.0, -1.5, 0.5, 0.5),
    "ring-t0": ModelParams(1.0, -0.5, 0.0, 0.5),  # Fx has signed zeros here
    "J-negative": ModelParams(-1.0, -1.5, 0.5, 0.5),
    "t-gamma-0": ModelParams(1.0, -1.5, 0.0, 0.0),
}


@pytest.mark.parametrize("n", [8, 9, 64, 100])
@pytest.mark.parametrize("point", sorted(FIELD_POINTS))
def test_field_export_matches_per_cell_loop(tmp_path, point, n):
    p = FIELD_POINTS[point]
    flags = ("--J", str(p.J), "--T", str(p.T), "--t", str(p.t), "--gamma", str(p.gamma))
    out = tmp_path / "field.svg"
    assert cli.main(["field-export", *flags, "--grid", str(n), "--out", str(out)]) == 0
    svg, csv = _field_export_reference(p, n)
    assert out.read_text() == svg
    assert (tmp_path / "field.csv").read_text() == csv


def _double(bits):
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


@given(st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.integers(0, 2**64 - 1).map(_double).filter(math.isfinite),
    st.integers(1, 2**52 - 1).map(_double),  # subnormals
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e300, -1.7976931348623157e308]),
))
def test_fmt_matches_format_parse_format(x):
    assert cli._fmt(x) == _fmt_reference(x)
    assert cli._fmt(np.float64(x)) == _fmt_reference(x)


@pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf, np.float64("nan")])
def test_fmt_rejects_non_finite(x):
    with pytest.raises(ValueError, match="non-finite"):
        cli._fmt(x)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_field_export_non_finite_field_writes_nothing(tmp_path, capsys):
    # J = 1e200 overflows the Bloch field; no NaN may become a colour or a file
    out = tmp_path / "field.svg"
    assert cli.main(["field-export", "--J", "1e200", "--grid", "8", "--out", str(out)]) == 2
    assert "non-finite" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_field_export_leaves_nothing_partial(tmp_path, capsys):
    # the CSV's rename fails after the SVG is complete: neither file may remain
    (tmp_path / "field.csv").mkdir()
    out = tmp_path / "field.svg"
    assert cli.main(["field-export", *ANCHOR_FLAGS, "--grid", "8", "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()
    assert list(tmp_path.glob(".epband-*")) == []
    assert (tmp_path / "field.csv").is_dir()


@pytest.mark.parametrize("argv", [
    ["btps", *ANCHOR_FLAGS, "--out"],
    ["field-export", *ANCHOR_FLAGS, "--grid", "8", "--out"],
], ids=["btps", "field-export"])
def test_unwritable_out_exits_2(tmp_path, argv):
    proc = run_cli(*argv, str(tmp_path / "no" / "such" / "x.out"))
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ")
    assert "Traceback" not in proc.stderr
    assert list(tmp_path.iterdir()) == []


# ---------------------------------------------------------------------------
# what already sits at an --out path

def _anchor_json(capsys):
    assert cli.main(["btps", *ANCHOR_FLAGS]) == 0
    return capsys.readouterr().out


def test_out_follows_a_symlink_and_replaces_its_target(tmp_path, capsys):
    target, link = tmp_path / "target.json", tmp_path / "link.json"
    target.write_text("stale\n")
    link.symlink_to(target.name)
    assert cli.main(["btps", *ANCHOR_FLAGS, "--out", str(link)]) == 0
    assert link.is_symlink() and target.read_text() == _anchor_json(capsys)


@pytest.fixture
def umask_022():
    old = os.umask(0o022)
    yield
    os.umask(old)


def test_out_gives_a_new_file_the_umask_mode_and_keeps_a_replaced_ones(tmp_path, umask_022):
    new, kept = tmp_path / "new.json", tmp_path / "kept.json"
    kept.write_text("stale\n")
    kept.chmod(0o640)
    for path in (new, kept):
        assert cli.main(["btps", *ANCHOR_FLAGS, "--out", str(path)]) == 0
    assert stat.S_IMODE(new.stat().st_mode) == 0o644
    assert stat.S_IMODE(kept.stat().st_mode) == 0o640


def test_out_writes_a_fifo_in_place(tmp_path, capsys):
    fifo = tmp_path / "out.fifo"
    os.mkfifo(fifo)
    got = []
    reader = threading.Thread(target=lambda: got.append(fifo.read_text()), daemon=True)
    reader.start()
    assert cli.main(["btps", *ANCHOR_FLAGS, "--out", str(fifo)]) == 0
    reader.join(timeout=10.0)
    assert not reader.is_alive(), "the reader never saw the output"
    assert stat.S_ISFIFO(fifo.stat().st_mode)
    assert got == [_anchor_json(capsys)]


def test_out_refuses_a_directory_before_replacing_anything(tmp_path, capsys):
    # the SVG already sits at --out and the CSV path beside it is a directory
    svg = tmp_path / "t.svg"
    svg.write_text("keep\n")
    (tmp_path / "t.csv").mkdir()
    assert cli.main(["field-export", *ANCHOR_FLAGS, "--grid", "8", "--out", str(svg)]) == 2
    assert capsys.readouterr().err == f"error: {tmp_path / 't.csv'} is a directory\n"
    assert svg.read_text() == "keep\n"
    assert list(tmp_path.glob(".epband-*")) == []


@pytest.mark.parametrize("spelling", ["same", "dot", "symlink"])
def test_outputs_naming_one_file_are_refused_before_writing(tmp_path, capsys, spelling):
    # --dump and --out at one file once exited 0: both temp files were renamed onto it, and
    # the report replaced the dump.  The path is refused, and what sits there is kept.
    target = tmp_path / "r.txt"
    target.write_text("keep\n")
    other = {"same": str(target), "dot": f"{tmp_path}/./r.txt", "symlink": tmp_path / "link"}
    if spelling == "symlink":
        other["symlink"].symlink_to(target)
    argv = ["realspace", *ANCHOR_FLAGS, "--N", "4", "--dump", str(target), "--out"]
    assert cli.main([*argv, str(other[spelling])]) == 2
    assert capsys.readouterr() == ("", f"error: two outputs name one file: {target}\n")
    assert target.read_text() == "keep\n"
    assert list(tmp_path.glob(".epband-*")) == []


def test_field_export_refuses_a_csv_linked_to_the_svg(tmp_path, capsys):
    svg = tmp_path / "t.svg"
    svg.write_text("keep\n")
    (tmp_path / "t.csv").symlink_to(svg)
    assert cli.main(["field-export", *ANCHOR_FLAGS, "--grid", "8", "--out", str(svg)]) == 2
    assert capsys.readouterr().err == f"error: two outputs name one file: {svg}\n"
    assert svg.read_text() == "keep\n"
    assert list(tmp_path.glob(".epband-*")) == []


# ---------------------------------------------------------------------------
# determinism: the benchmark's recorded outputs, checked in process

_PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _benchmark_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  _PERFBENCH / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # its dataclasses look their module up
    spec.loader.exec_module(workloads)
    return workloads


# the benchmark's workloads module: its CLI commands here, its points draws in test_winding
BENCHMARK_WORKLOADS = _benchmark_workloads()
_COMMANDS = {label: (argv, written) for label, argv, written in BENCHMARK_WORKLOADS.CLI_COMMANDS}


# the oracle workload's op and check: the op reads h.nbytes, and without it every op raised, so
# the workload read 10 of 10 failed.  At 0 mod 4 the EPs on the grid fail the mismatch gate
# (ROADMAP item 3)
@pytest.mark.parametrize("n, verdict", [(6, None), (8, "spectral_mismatch"), (10, None),
                                        (12, "spectral_mismatch")])
def test_benchmark_oracle_op_on_realspace_entries(n, verdict):
    check, mismatch, computed = BENCHMARK_WORKLOADS.run_oracle(n)
    assert computed == build_realspace(BENCHMARK_WORKLOADS.ANCHOR, LatticeSize(n)).nbytes
    checked = BENCHMARK_WORKLOADS.Oracle(1).check(n, (check, mismatch, computed))
    assert checked.failure == verdict and checked.counts == {"bytes_computed": computed}
_REFERENCE = json.loads((_PERFBENCH / "reference" / "cli.json").read_text())

# Output paths the benchmark does not run, recorded the same way before the CLI's output
# code was folded into one path: label -> (argv, stdout SHA-256, SHA-256 of each file that
# argv writes under out/).  The scan window holds classified and boundary cells, with
# partner EPs down to 1e-4 apart.  The README scans follow: its 41x41 window at t = 0.5 and,
# as CSV and JSON, at t = 0, where 1,636 cells hold ring errors and pin the error rows, and
# a 19x19 window at t = -0.7.
_RING_FLAGS = ("--gamma", "1", "--T", "0", "--t", "0")
_SCAN_FLAGS = ("--t", "0.5", "--gamma-range", "-4e-4:4e-4", "--T-range", "-1.2:-0.8", "--res", "9")
_README_SCAN = ("--J", "1", "--gamma-range", "-2:2", "--T-range", "-2:2", "--res", "41")
_PINNED = {
    "scan_csv": (
        ["scan", *_SCAN_FLAGS],
        "5144691cb46bf331f8bd2eb57cc6ab368d129546d8e87487fdb3d72dba3cb537",
        {},
    ),
    "scan_json": (
        ["scan", *_SCAN_FLAGS, "--format", "json", "--out", "out/scan.json"],
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        {
            "scan.json": "ab431be3ac437202ff6785a7da74cb835c1e72963e273ce5dad813171b778c10",
        },
    ),
    "dispersion_csv": (
        ["dispersion", *ANCHOR_FLAGS, "--kx", "1", "--ky", "1", "--dx", "1", "--dy", "0",
         "--kind", "NormalEP", "--format", "csv"],
        "2303499c5e4f453fe60dd9e97f6b7cdec21eb30a27bf1c36cc58460a1743dcc7",
        {},
    ),
    "symmetry_csv": (
        ["symmetry", *ANCHOR_FLAGS, "--grid", "64", "--format", "csv"],
        "5db83061739882ab851f4ae881dd9919f02a1cf534a09751421bff72fd9ba891",
        {},
    ),
    "ring_json": (
        ["ring", *_RING_FLAGS, "--branch", "-1", "--format", "json"],
        "01eafa1993d53e1c0a912ea53a7a083866b38e0328c474840d44ce1ef50b3dac",
        {},
    ),
    "btps_ring_csv": (  # refused: its only row would be the header a gapped census prints
        ["btps", *_RING_FLAGS, "--ring", "--format", "csv"],
        hashlib.sha256(b"").hexdigest(),
        {},
    ),
    "btps_gapped": (
        ["btps", "--T", "5", "--gamma", "0.5", "--t", "0"],
        "101d5a80710d6a95d4f0c8e467a94f5c44ce2f34294dbcc70808fb9d5d6e6e4d",
        {},
    ),
    "realspace_dump": (
        ["realspace", *ANCHOR_FLAGS, "--N", "6", "--dump", "out/h.csv"],
        "c64132621f3347ad9daa6bdd8b6afee3269c471104f14bdb03c3f5d72674311c",
        {
            "h.csv": "de0735662e02e9050c74aadf47af47afb5588d20b6f066f4de0b4371e7dcfbe5",
        },
    ),
    "scan_readme_csv": (
        ["scan", *_README_SCAN, "--t", "0.5"],
        "438ea14b33bdb43c7d3e63a32655d26b22a21d4b459e1629d5aefc2102bb96f1",
        {},
    ),
    "scan_readme_t0_csv": (
        ["scan", *_README_SCAN, "--t", "0"],
        "b5602b8e9da64ed965c2d0ff9eb7189db73135958e3e3ea98927c19fd193a3d9",
        {},
    ),
    "scan_readme_t0_json": (
        ["scan", *_README_SCAN, "--t", "0", "--format", "json"],
        "4c3a191e2460381b2fe39ae59dcda32a3b913a6e01d41f278ae7196bf0a0a828",
        {},
    ),
    "scan_t_minus_0.7_json": (
        ["scan", "--t", "-0.7", "--res", "19", "--gamma-range", "-2.5:2.5", "--T-range",
         "-2.5:2.5", "--format", "json"],
        "506647054d4e2a7ba736e81e651e49847ab683624f34f96cabcbdfee00659586",
        {},
    ),
}
_PINNED_EXIT = {"btps_ring_csv": 2}  # every other pinned command exits 0
_CASES = {label: (*_COMMANDS[label], _REFERENCE[label]) for label in _COMMANDS}
_CASES.update(
    (label, (argv, [f"out/{name}" for name in files],
             {"returncode": _PINNED_EXIT.get(label, 0), "stdout": stdout, "files": files}))
    for label, (argv, stdout, files) in _PINNED.items()
)


def test_reference_covers_every_command_without_files():
    # every command, the ones that write files included
    assert len(_COMMANDS) == 9
    assert set(_COMMANDS) == set(_REFERENCE)
    for label, (_, written) in _COMMANDS.items():
        assert sorted(_REFERENCE[label]["files"]) == sorted(Path(w).name for w in written)


@pytest.mark.parametrize("label", sorted(_CASES))
def test_stdout_matches_benchmark_reference(capsys, tmp_path, label):
    # the README's promise: identical invocations give byte-identical output,
    # down to the rounding residues that realspace prints
    argv, written, reference = _CASES[label]
    argv = [str(tmp_path / Path(a).name) if a in written else a for a in argv]
    code = cli.main(argv)
    stdout = capsys.readouterr().out
    assert code == reference["returncode"]
    assert hashlib.sha256(stdout.encode("utf-8")).hexdigest() == reference["stdout"]
    files = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
             for name in reference["files"]}
    assert files == reference["files"]


def _imported(*args):
    """The modules a fresh `python -X importtime ARGS` imports beyond a bare interpreter."""
    def names(argv):
        proc = subprocess.run([sys.executable, "-X", "importtime", *argv], capture_output=True,
                              text=True)
        assert proc.returncode == 0, proc.stderr
        return {line.split("|")[2].strip() for line in proc.stderr.splitlines()
                if line.startswith("import time:") and line.count("|") == 2}

    return names(args) - names(["-c", "pass"])


# What each README command loads of the package beyond epband, bloch, btp and cli (-m runs
# epband.__main__ without importing it): only the modules it runs.  None of them hashes, so
# none loads OpenSSL.
_COMMAND_MODULES = {
    "btps_json": {"phase", "winding"},
    "btps_csv": {"phase", "winding"},
    "btps_ring": {"phase", "winding"},
    "ring": set(),
    "symmetry": set(),
    "field_export": set(),
    "realspace": {"lattice"},
    "dispersion": {"dispersion"},
    "winding": {"winding"},
}


@pytest.mark.parametrize("label", sorted(_COMMAND_MODULES))
def test_each_command_imports_only_the_modules_it_runs(tmp_path, label):
    argv, written = _COMMANDS[label]
    argv = [str(tmp_path / Path(a).name) if a in written else a for a in argv]
    loaded = _imported("-m", "epband", *argv)
    base = {"epband", "epband.bloch", "epband.btp", "epband.cli"}
    want = base | {f"epband.{m}" for m in _COMMAND_MODULES[label]}
    assert {m for m in loaded if m.split(".")[0] == "epband"} == want
    assert "_hashlib" not in loaded


def test_benchmark_commands_write_nothing_past_redirected_stdout(capfd, tmp_path):
    # the benchmark's cli warm-up runs cli.main in process under redirect_stdout; its last
    # stdout line must be its own JSON result, so no command may write to fd 1 directly
    for label, (argv, written) in sorted(_COMMANDS.items()):
        argv = [str(tmp_path / Path(a).name) if a in written else a for a in argv]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert cli.main(argv) == _REFERENCE[label]["returncode"]
        assert bool(out.getvalue()) == (not written), label
    assert capfd.readouterr().out == ""
