"""Band touchings and winding invariants of a non-Hermitian bilayer square lattice.

The package is organized around a closed-form 2x2 Bloch problem:

- :mod:`epband.bloch`      momentum-space field, eigenvector kernel, symmetry checks
- :mod:`epband.lattice`    finite real-space Hamiltonian and its block check
- :mod:`epband.btp`        locating and classifying band-touching points
- :mod:`epband.winding`    the two half-integer loop invariants
- :mod:`epband.phase`      configuration signatures and the (gamma, T) scan
- :mod:`epband.dispersion` low-energy power laws along rays
- :mod:`epband.cli`        command-line surface over all of the above
"""

from .bloch import (
    ModelParams, Momentum, principal_sqrt, spectral_reality, symmetry_residuals, wrap_angle,
)
from .btp import (
    Btp,
    EpRing,
    RingRegimeError,
    branch_level,
    face,
    locate_btps,
    min_gap,
    trace_ep_ring,
)
from .dispersion import expected_dispersion, fit_power_law, sample_dispersion
from .lattice import (
    LatticeSize, block_check, build_momentum_basis, build_realspace, spectral_mismatch,
)
from .phase import (
    ConfigurationSignature, census_type, detect_boundaries, scan_phase_diagram, signature,
)
from .winding import (
    Loop,
    LoopThroughDefectError,
    NonQuantizedLoopError,
    UnresolvedLoopError,
    WindingError,
    WindingResult,
    make_loop,
    wind_loops,
    winding_additivity_check,
    winding_number,
)

__version__ = "0.1.0"

__all__ = [
    "Btp",
    "ConfigurationSignature",
    "EpRing",
    "LatticeSize",
    "Loop",
    "LoopThroughDefectError",
    "ModelParams",
    "Momentum",
    "NonQuantizedLoopError",
    "RingRegimeError",
    "UnresolvedLoopError",
    "WindingError",
    "WindingResult",
    "block_check",
    "branch_level",
    "build_momentum_basis",
    "build_realspace",
    "detect_boundaries",
    "expected_dispersion",
    "face",
    "fit_power_law",
    "locate_btps",
    "make_loop",
    "min_gap",
    "principal_sqrt",
    "sample_dispersion",
    "scan_phase_diagram",
    "signature",
    "spectral_mismatch",
    "spectral_reality",
    "symmetry_residuals",
    "census_type",
    "trace_ep_ring",
    "wind_loops",
    "winding_additivity_check",
    "winding_number",
    "wrap_angle",
]
