"""Band touchings and winding invariants of a non-Hermitian bilayer square lattice.

The package is organized around a closed-form 2x2 Bloch problem:

- :mod:`epband.bloch`      momentum-space field, eigenvector kernel, symmetry checks
- :mod:`epband.lattice`    finite real-space Hamiltonian and its block check
- :mod:`epband.btp`        locating and classifying band-touching points
- :mod:`epband.winding`    the two half-integer loop invariants
- :mod:`epband.phase`      configuration signatures and the (gamma, T) scan
- :mod:`epband.dispersion` low-energy power laws along rays
- :mod:`epband.cli`        command-line surface over all of the above

``import epband`` loads none of them, nor numpy: a submodule loads when it or one of
its public names is first used, so each CLI command imports only what it runs.
"""

import sys
import types

# Each submodule and the public names it defines.
_API = {
    "bloch": ("ModelParams", "Momentum", "principal_sqrt", "spectral_reality",
              "symmetry_residuals", "wrap_angle"),
    "btp": ("Btp", "EpRing", "RingRegimeError", "branch_level", "face", "locate_btps",
            "min_gap", "trace_ep_ring"),
    "dispersion": ("expected_dispersion", "fit_power_law", "sample_dispersion"),
    "lattice": ("LatticeSize", "block_check", "build_momentum_basis", "build_realspace",
                "spectral_mismatch"),
    "phase": ("ConfigurationSignature", "census_type", "detect_boundaries",
              "scan_phase_diagram", "signature"),
    "winding": ("Loop", "LoopThroughDefectError", "NonQuantizedLoopError",
                "UnresolvedLoopError", "WindingError", "WindingResult", "make_loop",
                "wind_loops", "winding_additivity_check", "winding_number"),
    "cli": (),
}
_HOME = {name: module for module, names in _API.items() for name in names}

__version__ = "0.1.0"
__all__ = sorted(_HOME)


class _Package(types.ModuleType):
    def __setattr__(self, name, value):
        # The import system binds each submodule here once it has run: its public names go
        # beside it as it defined them, so a later patch of its own does not reach them.
        super().__setattr__(name, value)
        for public in _API.get(name, ()):
            super().__setattr__(public, getattr(value, public))


sys.modules[__name__].__class__ = _Package


def __getattr__(name):
    """A submodule or a public name: the first use imports the submodule, which binds both."""
    module = name if name in _API else _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    __import__(f"{__name__}.{module}")  # the import statement's path, which -X importtime logs
    return globals()[name]


def __dir__():
    return sorted({*globals(), *_API, *__all__})
