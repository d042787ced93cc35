"""Source conventions of the package and its tests: Python 3.10 syntax, lines of at most 100
characters."""

import ast
import importlib
import subprocess
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


def _exported(tree):
    """The names a module's literal ``__all__`` lists."""
    return {elt.value for node in tree.body if isinstance(node, ast.Assign)
            and [ast.unparse(target) for target in node.targets] == ["__all__"]
            and isinstance(node.value, (ast.List, ast.Tuple)) for elt in node.value.elts}


# Every name a module imports is read in it or listed in its __all__: an import whose last
# use was deleted loads a module, or ties one module to another, for nothing
@pytest.mark.parametrize("path", SOURCES, ids=_id)
def test_source_imports_no_unused_name(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    bound = {(alias.asname or alias.name.split(".")[0], node.lineno)
             for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
             and getattr(node, "module", None) != "__future__" for alias in node.names}
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = sorted(f"{path.name}:{line}: {name}" for name, line in bound
                    if name not in read | _exported(tree))
    assert unused == []


# btp.face alone picks the merger levels by t, snaps gamma onto 0 and places each branch level,
# and its Face alone names the lines between two faces: no other module holds a mark
_FACE_RULES = ("_T_ZERO", "merger_level(", "(-2.0, 2.0)", "(-1.0, 0.0, 1.0)", "(0.0,)")


@pytest.mark.parametrize("path", SOURCES, ids=_id)
def test_only_btp_places_a_point_among_the_lines(path):
    text = path.read_text(encoding="utf-8")
    found = [rule for rule in _FACE_RULES if rule in text]
    assert found == (list(_FACE_RULES) if path.name == "btp.py" else [])


# bloch.integer alone turns a count into an int, bloch.in_units_of_j alone divides the
# couplings by |J|, bloch.energy alone forms E^2, bloch.scale_exponent and bloch.times_pow2
# alone take and apply the exact power-of-two scale, and locate_btps alone signs a charge: no
# other module holds an integer check, a unit rule, an E^2, a scale or a charge sign of its own
_ONE_OWNER = {"operator.index": "bloch.py", "np.finfo(float).max": "bloch.py",
              "bx * bx + by * by": "bloch.py", "math.frexp": "bloch.py", "ldexp(": "bloch.py",
              "math.copysign": "btp.py"}


@pytest.mark.parametrize("path", SOURCES, ids=_id)
def test_one_module_owns_the_integer_check_and_the_charge_sign(path):
    text = path.read_text(encoding="utf-8")
    found = [call for call in _ONE_OWNER if call in text]
    assert found == [call for call, owner in _ONE_OWNER.items() if owner == path.name]


# btp alone names the touching kinds and holds what each implies (KINDS): no other module
# spells a kind, so none keeps a per-kind table of its own
_KIND_NAMES = ("DiracPoint", "SemiDiracPoint", "NormalEP", "HybridEP", "TrivialIsolatedEP",
               "DIRAC_POINT", "SEMI_DIRAC_POINT", "NORMAL_EP", "HYBRID_EP", "TRIVIAL_ISOLATED_EP")


@pytest.mark.parametrize("path", SOURCES, ids=_id)
def test_only_btp_names_the_touching_kinds(path):
    text = path.read_text(encoding="utf-8")
    found = [name for name in _KIND_NAMES if name in text]
    assert found == (list(_KIND_NAMES) if path.name == "btp.py" else [])


# btp.locate_btps alone sets a touching's charges, in closed form: no other module builds a Btp
# or passes w_i= or w_ii=, and KINDS keeps no |w_I| column beside each kind's order and stem
def test_only_btp_sets_charges():
    builders, keywords = [], []
    for path in SOURCES:
        calls = [n for n in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                 if isinstance(n, ast.Call)]
        if any(ast.unparse(n.func).split(".")[-1] == "Btp" for n in calls):
            builders.append(path.name)
        keywords += [f"{path.name}:{n.lineno}" for n in calls for kw in n.keywords
                     if kw.arg in ("w_i", "w_ii")]
    assert builders == ["btp.py"] and keywords == []
    assert {len(entry) for entry in epband.btp.KINDS.values()} == {2}


# btp.face alone decides where gamma = 0 is: it puts 0 < |gamma| <= 2|J| 1e-9 there too.  No
# other module compares gamma with 0, so none keeps a gamma = 0 of its own
def _names_gamma(node):
    return any(isinstance(n, ast.Name) and n.id == "gamma"
               or isinstance(n, ast.Attribute) and n.attr == "gamma" for n in ast.walk(node))


def _is_zero(node):
    return isinstance(node, ast.Constant) and type(node.value) in (int, float) and node.value == 0


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "btp.py"], ids=_id)
def test_only_btp_puts_gamma_on_zero(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    found = [
        f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Compare)
        and any(map(_names_gamma, [node.left, *node.comparators]))
        and any(map(_is_zero, [node.left, *node.comparators]))
    ]
    assert found == []


# bloch.zone_grid alone builds the zone grid that the symmetry table, the spectral checks and
# the real-space oracle read: no other module makes momenta of its own that could disagree
_ZONE_AXIS = "wrap_angle(2.0 * np.pi * np.arange("


@pytest.mark.parametrize("path", SOURCES, ids=_id)
def test_only_bloch_builds_the_zone_grid(path):
    found = path.read_text(encoding="utf-8").count(_ZONE_AXIS)
    assert found == (1 if path.name == "bloch.py" else 0)


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


# winding.wind_loops alone runs the winding pass, first over all loops and then over the loops
# still open, batched: no per-loop or per-kind refinement path winds loops beside it
def test_only_wind_loops_calls_the_winding_pass():
    found = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        defs = [n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)]
        for node in ast.walk(tree):  # every use of the name, called or passed on
            name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
            if name != "_attempt":
                continue
            inner = max((f for f in defs if f.lineno <= node.lineno <= f.end_lineno),
                        key=lambda f: f.lineno, default=None)
            found.append(f"{path.name}:{inner.name if inner else '<module>'}")
    assert found and set(found) == {"winding.py:wind_loops"}


# make_loop sizes a loop off the nearest other touching and refuses none: btp.face decides
# when two touchings are one, and the winding kernel's floors judge whether a loop resolves
# its touching, so no closeness guess of make_loop's own sits beside them
def test_make_loop_raises_nothing():
    (path,) = [p for p in SOURCES if p.name == "winding.py"]
    (make_loop,) = [n for n in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                    if isinstance(n, ast.FunctionDef) and n.name == "make_loop"]
    assert [n.lineno for n in ast.walk(make_loop) if isinstance(n, ast.Raise)] == []


# The package keeps no module state: no function rebinds a module's or an enclosing scope's
# name, so a result depends only on its arguments and the records they hold
def test_package_rebinds_no_global_or_enclosing_name():
    found = [f"{path.name}:{node.lineno}" for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, (ast.Global, ast.Nonlocal))]
    assert found == []


# A lattice record keeps its own transform, not one found by a digest of its content
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


# A trace site that exists but is no longer called reads 0 in its span: the benchmark's
# phase, loop and locator sites must each run under signature, the scan and `epband btps`
def test_benchmark_trace_sites_stay_called(monkeypatch, tmp_path):
    import epband.cli
    import epband.phase

    sites = [(epband.phase, "make_loop"), (epband.phase, "locate_btps"),
             (epband.phase, "signature"), (epband.cli, "signature")]
    calls = {}
    for module, attr in sites:
        name = f"{module.__name__}.{attr}"
        real = getattr(module, attr)

        def counted(*args, _name=name, _real=real, **kwargs):
            calls[_name] = calls.get(_name, 0) + 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(module, attr, counted)
    anchor = epband.ModelParams(J=1.0, T=-1.5, t=0.5, gamma=0.5)
    epband.phase.signature(anchor)
    assert calls == {"epband.phase.signature": 1, "epband.phase.locate_btps": 1,
                     "epband.phase.make_loop": 12}
    calls.clear()
    epband.phase.scan_phase_diagram((0.4, 0.6), (-1.2, -0.9), 8, anchor)
    assert calls == {"epband.phase.signature": 64, "epband.phase.locate_btps": 64,
                     "epband.phase.make_loop": 64 * 16}
    calls.clear()
    flags = ["--T", "-1.5", "--t", "0.5", "--gamma", "0.5", "--out", str(tmp_path / "b.json")]
    assert epband.cli.main(["btps", *flags]) == 0
    assert calls == {"epband.cli.signature": 1, "epband.phase.locate_btps": 1,
                     "epband.phase.make_loop": 12}


_PROPERTY_PAIR = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 0


def test_passes():
    pass
"""


# The suite turns warnings into errors; a failing property test must still leave every later
# test to run, as it did not when hypothesis's report hook warned inside that setting
def test_a_failing_property_test_ends_no_session(tmp_path):
    (tmp_path / "test_pair.py").write_text(_PROPERTY_PAIR, encoding="utf-8")
    ini = Path(__file__).resolve().parents[1] / "pyproject.toml"
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                           "-c", str(ini), "--rootdir", str(tmp_path), "test_pair.py"],
                          cwd=tmp_path, capture_output=True, text=True)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
    assert "1 failed, 1 passed" in proc.stdout
