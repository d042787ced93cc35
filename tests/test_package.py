"""The package namespace: `import epband` loads no submodule, and every public name still
resolves to the object its submodule defines."""

import subprocess
import sys

import epband

# The 37 public names of the package when it imported every submodule eagerly.
PUBLIC = [
    "Btp", "ConfigurationSignature", "EpRing", "LatticeSize", "Loop", "LoopThroughDefectError",
    "ModelParams", "Momentum", "NonQuantizedLoopError", "RingRegimeError", "UnresolvedLoopError",
    "WindingError", "WindingResult", "block_check", "branch_level", "build_momentum_basis",
    "build_realspace", "census_type", "detect_boundaries", "expected_dispersion", "face",
    "fit_power_law", "locate_btps", "make_loop", "min_gap", "principal_sqrt",
    "sample_dispersion", "scan_phase_diagram", "signature", "spectral_mismatch",
    "spectral_reality", "symmetry_residuals", "trace_ep_ring", "wind_loops",
    "winding_additivity_check", "winding_number", "wrap_angle",
]


def _fresh(code):
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_public_names_are_kept():
    assert sorted(epband.__all__) == PUBLIC


def test_import_loads_no_submodule_and_no_numpy():
    code = ("import sys, epband; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] in ('epband', 'numpy')))")
    assert _fresh(code).strip() == "['epband']"


_API_CHECKS = """
import importlib, sys
import epband

assert epband.btp.KINDS  # a submodule attribute reads after a bare import
from epband import lattice
assert lattice is sys.modules["epband.lattice"]
assert not hasattr(epband, "no_such_name")
try:
    epband.no_such_name
except AttributeError as exc:
    assert "no_such_name" in str(exc)
else:
    raise AssertionError("an unknown name resolved")

for name in epband.__all__:
    obj = getattr(epband, name)
    assert obj.__module__.startswith("epband."), name
    assert obj is getattr(importlib.import_module(obj.__module__), name), name
star = {}
exec("from epband import *", star)
assert sorted(set(star) - {"__builtins__"}) == sorted(epband.__all__)
assert all(star[name] is getattr(epband, name) for name in epband.__all__)
assert set(epband.__all__) | {"bloch", "cli", "phase"} <= set(dir(epband))

# a patch of a loaded submodule's attribute leaves the package's name as defined
real = epband.phase.signature
epband.phase.signature = None
assert epband.signature is real
print("ok")
"""


def test_lazy_namespace_keeps_the_api():
    assert _fresh(_API_CHECKS).strip() == "ok"
