"""End-to-end command-line checks, in subprocesses and in process through `cli.main`."""

import hashlib
import importlib.util
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from epband import LatticeSize, ModelParams, build_realspace, cli
from epband.cli import parse_angle, parse_range

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
    for bad in ("1:2:3", "a:b", "7"):
        with pytest.raises(argparse.ArgumentTypeError):
            parse_range(bad)


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


def test_btps_ring_regime_needs_flag():
    proc = run_cli("btps", "--gamma", "1", "--T", "0", "--t", "0")
    assert proc.returncode == 2
    assert "pass --ring" in proc.stderr


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


def test_winding_loop_through_defect_exit3():
    # Loop of radius 0.1 centered 0.1 east of the Dirac point at (pi/3, pi/2):
    # the sample at angle pi lands on the defect where h itself vanishes.
    proc = run_cli(
        "winding", "--T", "-1", "--gamma", "0", "--t", "0.5",
        "--kx", repr(math.pi / 3 + 0.1), "--ky", "pi/2", "--loop-radius", "0.1",
    )
    assert proc.returncode == 3
    assert "vanishes" in proc.stderr


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


def test_scan_rejects_low_resolution():
    proc = run_cli("scan", "--res", "4", "--t", "0.5")
    assert proc.returncode == 2


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


def test_dispersion_requires_touching_or_kind():
    proc = run_cli("dispersion", *ANCHOR_FLAGS, "--kx", "1", "--ky", "1", "--dx", "1", "--dy", "0")
    assert proc.returncode == 2
    assert "--kind" in proc.stderr


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


# ---------------------------------------------------------------------------
# symmetry / realspace / ring

def test_symmetry_passes_at_anchor():
    report = run_json("symmetry", *ANCHOR_FLAGS, "--grid", "64")
    assert report["passed"] is True
    assert report["maxResidual"] < 1e-12
    assert len(report["residuals"]) == 9


def test_symmetry_impossible_tol_exits_1():
    # residuals can be exactly 0.0 on symmetric grids, so only a negative
    # tolerance is guaranteed unreachable
    proc = run_cli("symmetry", *ANCHOR_FLAGS, "--grid", "32", "--tol=-1")
    assert proc.returncode == 1
    assert json.loads(proc.stdout)["passed"] is False


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


@pytest.mark.parametrize("n", [4, 6])
def test_realspace_dump_matches_entry_loop(tmp_path, capsys, n):
    params = ModelParams(1.0, -1.5, 0.5, 0.5)
    h = build_realspace(params, LatticeSize(n))
    rows = []
    for r in range(h.shape[0]):
        for c in range(h.shape[1]):
            v = h[r, c]
            if v != 0:
                rows.append([str(r), str(c), cli._fmt(v.real), cli._fmt(v.imag)])
    dump = tmp_path / "h.csv"
    cli.main(["realspace", "--J", "1", *ANCHOR_FLAGS, "--N", str(n), "--dump", str(dump)])
    capsys.readouterr()
    assert dump.read_text() == cli._csv_text(("row", "col", "re", "im"), rows)


def test_realspace_rejects_odd_side():
    assert run_cli("realspace", "--N", "5").returncode == 2


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


def test_field_export_grid_floor():
    proc = run_cli("field-export", "--t", "0.5", "--grid", "4", "--out", "/tmp/no.svg")
    assert proc.returncode == 2
    assert "at least 8" in proc.stderr


# ---------------------------------------------------------------------------
# determinism: the benchmark's recorded outputs, checked in process

_PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _benchmark_commands():
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  _PERFBENCH / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # its dataclasses look their module up
    spec.loader.exec_module(workloads)
    return {label: argv for label, argv, written in workloads.CLI_COMMANDS if not written}


_COMMANDS = _benchmark_commands()
_REFERENCE = json.loads((_PERFBENCH / "reference" / "cli.json").read_text())


def test_reference_covers_every_command_without_files():
    assert set(_COMMANDS) == {k for k, v in _REFERENCE.items() if not v["files"]}


@pytest.mark.parametrize("label", sorted(_COMMANDS))
def test_stdout_matches_benchmark_reference(capsys, label):
    # the README's promise: identical invocations give byte-identical output,
    # down to the rounding residues that realspace prints
    code = cli.main(_COMMANDS[label])
    stdout = capsys.readouterr().out
    assert code == _REFERENCE[label]["returncode"]
    assert hashlib.sha256(stdout.encode("utf-8")).hexdigest() == _REFERENCE[label]["stdout"]
