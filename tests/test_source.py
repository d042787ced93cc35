"""Source conventions of the package and its tests: Python 3.10 syntax, lines of at most 100
characters."""

import ast
import importlib
import sys
from pathlib import Path

import pytest

import epband

SOURCES = sorted(Path(epband.__file__).parent.glob("**/*.py"))
TESTS = sorted(Path(__file__).parent.glob("**/*.py"))
MAX_LINE = 100


def _id(path):
    return path.name if path in SOURCES else f"tests/{path.relative_to(Path(__file__).parent)}"


def test_sources_found():
    assert {p.name for p in SOURCES} >= {"__init__.py", "btp.py", "cli.py"}
    assert {p.name for p in TESTS} >= {"test_source.py", "test_btp.py", "test_cli.py"}


@pytest.mark.parametrize("path", SOURCES + TESTS, ids=_id)
def test_source_parses_as_python_3_10(path):
    # pyproject promises requires-python >= 3.10; the parser rejects newer syntax
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))


@pytest.mark.parametrize("path", SOURCES + TESTS, ids=_id)
def test_source_lines_fit(path):
    long = [
        f"{path.name}:{n}: {len(line)} characters"
        for n, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if len(line) > MAX_LINE
    ]
    assert long == []


# btp.face alone picks the merger levels by t, snaps gamma onto 0 and places each branch level
_FACE_RULES = ("_T_ZERO", "merger_level(", "(-2.0, 2.0)", "(-1.0, 0.0, 1.0)")


@pytest.mark.parametrize("path", SOURCES, ids=_id)
def test_only_btp_places_a_point_among_the_lines(path):
    text = path.read_text(encoding="utf-8")
    found = [rule for rule in _FACE_RULES if rule in text]
    assert found == (list(_FACE_RULES) if path.name == "btp.py" else [])


# The winding kernel works on eigenvector components and the one norm right_eigvec returns:
# no stacked (..., 2) arrays and no second norm pass over them
_STACKED_PASSES = ("stack", "linalg.norm")


@pytest.mark.parametrize("name", ["winding.py", "bloch.py"])
def test_kernel_builds_no_stacked_vectors(name):
    (path,) = [p for p in SOURCES if p.name == name]
    tree = ast.parse(path.read_text(encoding="utf-8"))
    calls = {ast.unparse(n.func) for n in ast.walk(tree) if isinstance(n, ast.Call)}
    assert "np.abs" in calls
    assert [c for c in calls if c.endswith(_STACKED_PASSES)] == []


# The winding pass guards on squared magnitudes, wraps its steps exactly and builds its closed
# loops, parity and sign in place: no libm hypot pass, no float-remainder wrap, no copies
_SLOW_PASSES = ("hypot", "wrap_angle", "concatenate", "cumsum")


def test_winding_kernel_makes_no_slow_or_copying_pass():
    (path,) = [p for p in SOURCES if p.name == "winding.py"]
    tree = ast.parse(path.read_text(encoding="utf-8"))
    calls = {ast.unparse(n.func) for n in ast.walk(tree) if isinstance(n, ast.Call)}
    assert {"np.arctan2", "np.logical_xor.accumulate"} <= calls
    assert [c for c in calls if c.endswith(_SLOW_PASSES)] == []


# The transform memo keys on the identity of read-only arrays, not on a digest of their content
def test_lattice_hashes_no_array():
    (path,) = [p for p in SOURCES if p.name == "lattice.py"]
    text = path.read_text(encoding="utf-8").lower()
    assert [name for name in ("hashlib", "sha256") if name in text] == []


def _perfbench_layers():
    bench = str(Path(__file__).resolve().parents[1] / "perfbench")
    sys.path.insert(0, bench)
    try:
        return importlib.import_module("layers")
    finally:
        sys.path.remove(bench)


# A traced benchmark run reports every per-layer metric of a span none of whose trace sites
# exists as absent, so its result line falls short of the metrics BENCHMARK.json lists
def test_every_benchmark_trace_span_has_a_site_in_the_package():
    layers = _perfbench_layers()
    missing = []
    for module_name, attr, _, _ in layers.TARGETS:
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            module = None
        if not callable(getattr(module, attr, None)):
            missing.append(f"{module_name}.{attr}")
    assert layers.absent_spans(missing) == set()
