"""The four benchmark workloads: op lists drawn from a seed, the timed call, and the check.

Each workload builds one pass, a fixed list of ops, from ``--seed``; the
harness in ``run.py`` repeats the pass.  ``call`` is the timed call into
epband, made through module attributes at call time so that the tracer's
wrappers apply; ``check`` judges the result against a recorded reference or
a closed-form law.  All workloads run at J = 1.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import random
import subprocess
import sys
import threading
from dataclasses import dataclass, field
from pathlib import Path

import epband.cli
import epband.lattice
import epband.phase
from epband.bloch import ModelParams

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference"

ANCHOR = ModelParams(J=1.0, T=-1.5, t=0.5, gamma=0.5)
SCAN_BASE = ModelParams(J=1.0, T=0.0, t=0.5, gamma=0.0)
SCAN_RANGE = (-2.0, 2.0)
# Every candidate line of the (gamma, T) plane passes through grid points at
# resolution 11 (step 0.4), as at the 41x41 reference, so boundary flagging is
# exercised; one scan takes about 1.5 s at seed.
SCAN_RESOLUTION = 11
# Even N from 6 to 24: N = 0 (mod 4) puts the hybrid-EP momenta on the grid.
ORACLE_SIZES = tuple(range(6, 25, 2))
MISMATCH_GATE = 1e-10
POINTS_PER_FAMILY = 48
CLI_TIMEOUT_S = 120.0

_ANCHOR_FLAGS = ["--J", "1", "--T", "-1.5", "--t", "0.5", "--gamma", "0.5"]
_RING_FLAGS = ["--J", "1", "--T", "-0.5", "--t", "0", "--gamma", "0.5"]
CLI_OUT = "perfbench/out/cli"
# The README's single-point commands: (label, argv, files the command writes).
CLI_COMMANDS = (
    ("btps_json", ["btps", *_ANCHOR_FLAGS], ()),
    ("btps_csv", ["btps", *_ANCHOR_FLAGS, "--format", "csv"], ()),
    ("btps_ring", ["btps", *_RING_FLAGS, "--ring"], ()),
    ("ring", ["ring", *_RING_FLAGS, "--branch", "1", "--format", "csv"], ()),
    ("winding", ["winding", *_ANCHOR_FLAGS, "--kx", "-pi/3", "--ky", "-pi/2", "--field", "F",
                 "--loop-radius", "0.1"], ()),
    ("dispersion", ["dispersion", *_ANCHOR_FLAGS, "--kx", "0", "--ky", "pi/2", "--dx", "1",
                    "--dy", "0"], ()),
    ("symmetry", ["symmetry", *_ANCHOR_FLAGS, "--grid", "128", "--tol", "1e-9"], ()),
    ("realspace", ["realspace", *_ANCHOR_FLAGS, "--N", "6"], ()),
    ("field_export", ["field-export", *_ANCHOR_FLAGS, "--grid", "128", "--out",
                      f"{CLI_OUT}/texture.svg"],
     (f"{CLI_OUT}/texture.svg", f"{CLI_OUT}/texture.csv")),
)

DIRAC, SEMI_DIRAC = "DiracPoint", "SemiDiracPoint"
NORMAL_EP, HYBRID_EP, TRIVIAL_EP = "NormalEP", "HybridEP", "TrivialIsolatedEP"
# |w_I| each kind must carry.
WINDING_LAW = {DIRAC: 1.0, SEMI_DIRAC: 0.0, NORMAL_EP: 0.5, HYBRID_EP: 0.0, TRIVIAL_EP: 0.0}


@dataclass
class Checked:
    """The check's verdict on one op."""

    items: int
    items_ok: int
    failure: str | None
    digest: str
    counts: dict = field(default_factory=dict)


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class Workload:
    name = ""
    item = "op"
    op_span = "harness.op"
    # Outputs compared against references recorded from known-good code; any
    # failure there is a regression, not a known defect.
    reference_checked = False

    def __init__(self, seed: int):
        self.seed = seed
        self.ops: list = []

    def label(self, op) -> str:
        return str(op)

    def items(self, op) -> int:
        return 1

    def call(self, op, tracer):
        raise NotImplementedError

    def check(self, op, result) -> Checked:
        raise NotImplementedError

    def child_rss_kb(self, result) -> int:
        return 0


# ---------------------------------------------------------------------------
# scan: the paper's phase diagram


def scan_rows(grid) -> list[list]:
    """Per-cell census, row-major: gamma, T, flags, counts, type and wIIHash."""
    rows = []
    for row in grid.cells:
        for cell in row:
            sig = cell.sig
            census = (
                [sig.n_btps, sig.counts_wi[0.0], sig.counts_wi[0.5], sig.counts_wi[1.0],
                 epband.phase.census_type(sig) or "", sig.wii_hash()]
                if sig is not None
                else [None] * 6
            )
            rows.append([f"{cell.gamma:.12g}", f"{cell.big_t:.12g}", bool(cell.boundary),
                         cell.error is not None, *census])
    return rows


def run_scan(resolution: int):
    return epband.phase.scan_phase_diagram(SCAN_RANGE, SCAN_RANGE, resolution, SCAN_BASE)


class Scan(Workload):
    """One op is one scan of (gamma, T) in [-2, 2]^2 at t = 0.5; one item is one cell.

    The plane is the paper's input, so the seed does not change it: a seeded
    sub-sample would change the work per run and could not be checked against
    the recorded census.
    """

    name = "scan"
    item = "cell"
    reference_checked = True

    def __init__(self, seed: int):
        super().__init__(seed)
        ref = json.loads((REFERENCE / "scan.json").read_text())
        if ref["resolution"] != SCAN_RESOLUTION:
            raise ValueError("scan reference was recorded at another resolution")
        self.reference = ref["cells"]
        self.ops = [SCAN_RESOLUTION]

    def items(self, op) -> int:
        return op * op

    def call(self, op, tracer):
        return run_scan(op)

    def check(self, op, grid) -> Checked:
        rows = scan_rows(grid)
        ok = sum(a == b for a, b in zip(rows, self.reference))
        if len(rows) != len(self.reference):
            ok = 0
        counts = {
            "cells_classified": sum(1 for r in rows if r[4] is not None and not r[2]),
            "cells_boundary": sum(1 for r in rows if r[2]),
            "cells_error": sum(1 for r in rows if r[3]),
        }
        failure = None if ok == len(rows) == len(self.reference) else "reference_mismatch"
        return Checked(len(rows), ok, failure, _sha(json.dumps(rows).encode()), counts)


# ---------------------------------------------------------------------------
# points: per-point signatures, including the hard families


def _log_uniform(lo: float, hi: float, u: float) -> float:
    return math.exp(math.log(lo) + u * (math.log(hi) - math.log(lo)))


def draw_points(seed: int, per_family: int = POINTS_PER_FAMILY) -> list[tuple[str, ModelParams]]:
    """Four equal families of coupling draws, in a seeded order.

    Each coordinate is drawn stratified (one draw per 1/n-wide stratum, the
    strata shuffled independently per coordinate), which keeps each family's
    distribution and makes the work per pass steady from seed to seed.
    """
    rng = random.Random(seed)
    n = per_family

    def strata():
        u = [(i + rng.random()) / n for i in range(n)]
        rng.shuffle(u)
        return u

    def sign():
        return 1.0 if rng.random() < 0.5 else -1.0

    ops = []
    for big_t, t, gamma in zip(strata(), strata(), strata()):
        ops.append(("generic", ModelParams(J=1.0, T=-3.0 + 6.0 * big_t, t=-1.0 + 2.0 * t,
                                           gamma=-2.0 + 4.0 * gamma)))
    for u in strata():
        ops.append(("merger", ModelParams(J=1.0, T=-2.0 + _log_uniform(1e-6, 1e-1, u), t=0.5,
                                          gamma=0.0)))
    for u, big_t in zip(strata(), strata()):
        ops.append(("small_gamma", ModelParams(J=1.0, T=-1.8 + 1.6 * big_t, t=0.5,
                                               gamma=sign() * _log_uniform(1e-6, 1e-1, u))))
    for u, big_t in zip(strata(), strata()):
        ops.append(("small_t", ModelParams(J=1.0, T=-1.8 + 1.6 * big_t,
                                           t=sign() * _log_uniform(1e-11, 1e-1, u), gamma=0.5)))
    rng.shuffle(ops)
    return ops


def kind_from_level(params: ModelParams, branch: int) -> str:
    """Closed-form kind of a touching on ``branch``: merged levels c in {-1, 0, 1}."""
    if abs(params.t) < 1e-12:
        return TRIVIAL_EP
    s = branch if branch else 1
    c = (-params.T + s * params.gamma) / (2.0 * params.J)
    merged = min(abs(c), abs(c - 1.0), abs(c + 1.0)) <= 1e-9
    if abs(params.gamma) < 1e-12:
        return SEMI_DIRAC if merged else DIRAC
    return HYBRID_EP if merged else NORMAL_EP


def law_failure(params: ModelParams, btps) -> str | None:
    """First closed-form law a signature breaks, or None."""
    for b in btps:
        if b.kind != kind_from_level(params, b.branch):
            return "wrong_kind"
    for b in btps:
        if abs(abs(b.w_i) - WINDING_LAW[b.kind]) > 1e-9:
            return "wrong_winding"
    if abs(sum(b.w_i for b in btps)) > 1e-9:
        return "charge_sum"
    return None


class Points(Workload):
    """One op is one ``signature(params)`` call; one item is one point."""

    name = "points"
    item = "point"

    def __init__(self, seed: int):
        super().__init__(seed)
        self.ops = draw_points(seed)

    def label(self, op) -> str:
        return op[0]

    def call(self, op, tracer):
        return epband.phase.signature(op[1])

    def check(self, op, sig) -> Checked:
        failure = law_failure(op[1], sig.btps)
        digest = f"{sig.n_btps}:{sig.wii_hash()}:{[b.kind for b in sig.btps]}"
        return Checked(1, int(failure is None), failure, digest)


# ---------------------------------------------------------------------------
# oracle: the dense real-space cross-check


def run_oracle(n: int):
    size = epband.lattice.LatticeSize(n)
    h = epband.lattice.build_realspace(ANCHOR, size)
    basis = epband.lattice.build_momentum_basis(size)
    check = epband.lattice.block_check(h, basis, ANCHOR)
    mismatch = epband.lattice.spectral_mismatch(h, basis, ANCHOR)
    # Computed from the shapes of the arrays the public calls return.
    computed = h.nbytes + sum(
        getattr(v, "nbytes", 0) for v in getattr(basis, "__dict__", {}).values()
    )
    return check, mismatch, computed


class Oracle(Workload):
    """One op is build, basis, block check and spectral mismatch for one N."""

    name = "oracle"
    item = "lattice"

    def __init__(self, seed: int):
        super().__init__(seed)
        self.ops = list(ORACLE_SIZES)
        random.Random(seed).shuffle(self.ops)

    def label(self, op) -> str:
        return f"N{op}"

    def call(self, op, tracer):
        return run_oracle(op)

    def check(self, op, result) -> Checked:
        check, mismatch, computed = result
        failure = None
        if not check.passed:
            failure = "block_check"
        elif not mismatch < MISMATCH_GATE:
            failure = "spectral_mismatch"
        return Checked(1, int(failure is None), failure, str(failure),
                       {"bytes_computed": computed})


# ---------------------------------------------------------------------------
# cli: one fresh `python -m epband` process per op


@dataclass
class CliRun:
    returncode: int
    stdout: str
    files: dict
    rss_kb: int
    spans: dict | None


def cli_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_cli(argv, written, spans_path: Path | None = None) -> CliRun:
    """Run one command in a fresh interpreter from the repository root.

    Untraced, the command is ``python -m epband``; traced, ``probe.py cli``
    runs ``epband.cli.main`` under the tracer and leaves its spans in
    ``spans_path``.  The child's peak RSS comes from ``wait4``.
    """
    out_dir = ROOT / CLI_OUT
    out_dir.mkdir(parents=True, exist_ok=True)
    for rel in written:
        (ROOT / rel).unlink(missing_ok=True)
    if spans_path is None:
        cmd = [sys.executable, "-m", "epband", *argv]
    else:
        cmd = [sys.executable, str(HERE / "probe.py"), "cli", str(spans_path), *argv]
    stdout_path = out_dir / "stdout.bin"
    with open(stdout_path, "wb") as out, open(out_dir / "stderr.txt", "wb") as err:
        proc = subprocess.Popen(cmd, cwd=ROOT, env=cli_env(), stdout=out, stderr=err)
        timer = threading.Timer(CLI_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
    files = {}
    for rel in written:
        path = ROOT / rel
        files[Path(rel).name] = _sha(path.read_bytes()) if path.exists() else None
        path.unlink(missing_ok=True)
    spans = None
    if spans_path is not None and spans_path.exists():
        spans = json.loads(spans_path.read_text())
        spans_path.unlink()
    return CliRun(proc.returncode, _sha(stdout_path.read_bytes()), files, usage.ru_maxrss, spans)


class Cli(Workload):
    """One op is one fresh CLI process; a closed loop with one client."""

    name = "cli"
    item = "invocation"
    op_span = "cli.process"
    reference_checked = True

    def __init__(self, seed: int):
        super().__init__(seed)
        self.reference = json.loads((REFERENCE / "cli.json").read_text())
        self.ops = list(CLI_COMMANDS)
        random.Random(seed).shuffle(self.ops)

    def label(self, op) -> str:
        return op[0]

    def call(self, op, tracer):
        spans_path = None if tracer is None else ROOT / CLI_OUT / "spans.json"
        result = run_cli(op[1], op[2], spans_path)
        if tracer is not None and result.spans is not None:
            tracer.adopt(result.spans["spans"], parent=tracer.current)
        return result

    def check(self, op, result: CliRun) -> Checked:
        want = self.reference[op[0]]
        failure = None
        if result.returncode != want["returncode"]:
            failure = "exit_code"
        elif result.stdout != want["stdout"] or result.files != want["files"]:
            failure = "reference_mismatch"
        digest = f"{result.returncode}:{result.stdout}:{sorted(result.files.items())}"
        return Checked(1, int(failure is None), failure, digest)

    def child_rss_kb(self, result) -> int:
        return result.rss_kb


WORKLOADS = {w.name: w for w in (Scan, Points, Cli, Oracle)}


def warmup(name: str) -> None:
    """One small untimed op of the workload; it fills this interpreter's lazy caches."""
    if name == "scan":
        epband.phase.scan_phase_diagram((0.5, 0.5), (-1.5, -1.5), 8, SCAN_BASE)
    elif name == "points":
        epband.phase.signature(ANCHOR)
    elif name == "oracle":
        run_oracle(6)
    elif name == "cli":
        with contextlib.redirect_stdout(io.StringIO()):
            epband.cli.main(CLI_COMMANDS[0][1])
    else:
        raise ValueError(f"unknown workload {name!r}")
