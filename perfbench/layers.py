"""Trace targets and the per-layer metrics computed from their spans.

Layers are epband's modules.  Each target is a public function at its import
site in the calling module, so the span shows who called it: for example
``epband.phase.winding_number`` is the winding layer as the phase layer uses
it.  Spans opened by the benchmark itself belong to the ``harness`` layer,
except for the CLI workload's process spans, which belong to ``cli``.
"""

from __future__ import annotations

import statistics

from tracer import layer_self_times
from workloads import CLI_COMMANDS, ORACLE_SIZES


def _points(args, kwargs, result):
    kx = args[1] if len(args) > 1 else kwargs["kx"]
    return getattr(kx, "size", 1)


def _count(args, kwargs, result):
    return len(result)


def _size_n(args, kwargs, result):
    return args[1].n


def _basis_n(args, kwargs, result):
    return args[0].n


# (module, attribute, span name, info): info(args, kwargs, result) annotates the span.
TARGETS = (
    ("epband.phase", "scan_phase_diagram", "phase.scan_phase_diagram", None),
    ("epband.phase", "signature", "phase.signature", None),
    ("epband.cli", "signature", "phase.signature", None),
    ("epband.phase", "locate_btps", "btp.locate_btps", _count),
    ("epband.phase", "make_loop", "winding.make_loop", None),
    ("epband.phase", "winding_number", "winding.winding_number", None),
    ("epband.cli", "winding_number", "winding.winding_number", None),
    ("epband.winding", "bloch_field_grid", "bloch.bloch_field_grid", _points),
    ("epband.btp", "bloch_field_grid", "bloch.bloch_field_grid", _points),
    ("epband.dispersion", "bloch_field_grid", "bloch.bloch_field_grid", _points),
    ("epband.cli", "trace_ep_ring", "btp.trace_ep_ring", None),
    ("epband.cli", "observables_grid", "bloch.observables_grid", None),
    ("epband.cli", "symmetry_residuals", "bloch.symmetry_residuals", None),
    ("epband.cli", "sample_dispersion", "dispersion.sample_dispersion", None),
    ("epband.cli", "fit_power_law", "dispersion.fit_power_law", None),
    ("epband.cli", "expected_dispersion", "dispersion.expected_dispersion", None),
    ("epband.lattice", "build_realspace", "lattice.build_realspace", _size_n),
    ("epband.lattice", "build_momentum_basis", "lattice.build_momentum_basis", _basis_n),
    ("epband.lattice", "block_check", "lattice.block_check", _size_n),
    ("epband.lattice", "spectral_mismatch", "lattice.spectral_mismatch", _size_n),
    ("epband.cli", "build_realspace", "lattice.build_realspace", _size_n),
    ("epband.cli", "build_momentum_basis", "lattice.build_momentum_basis", _basis_n),
    ("epband.cli", "block_check", "lattice.block_check", _size_n),
    ("epband.cli", "spectral_mismatch", "lattice.spectral_mismatch", _size_n),
)

LAYERS = ("harness", "phase", "winding", "btp", "bloch", "dispersion", "lattice", "cli")
WINDING_ERRORS = (
    "ValueError",
    "DegenerateTrackingError",
    "LoopThroughDefectError",
    "NonQuantizedLoopError",
)
# Op failure classes; lattice gate failures get their own names below.
FAILURES = (
    "wrong_kind",
    "wrong_winding",
    "charge_sum",
    "reference_mismatch",
    "exit_code",
    *WINDING_ERRORS,
    "other_exception",
)
LATTICE_FAILURES = ("block_check", "spectral_mismatch")
_LATTICE_STAGES = (
    ("build_s", "lattice.build_realspace"),
    ("basis_s", "lattice.build_momentum_basis"),
    ("block_check_s", "lattice.block_check"),
    ("mismatch_s", "lattice.spectral_mismatch"),
)

# Every per-layer metric, in report order: (name, unit, span names it needs).
PER_LAYER = (
    ("phase.signature_calls", "count", ("phase.signature",)),
    ("phase.signature_self_ms", "ms", ("phase.signature",)),
    ("phase.scan_self_s", "s", ("phase.scan_phase_diagram",)),
    ("phase.cells_classified", "count", ()),
    ("phase.cells_boundary", "count", ()),
    ("phase.cells_error", "count", ()),
    ("winding.calls", "count", ("winding.winding_number",)),
    ("winding.busy_s", "s", ("winding.winding_number",)),
    ("winding.samples", "count", ("winding.winding_number", "bloch.bloch_field_grid")),
    ("winding.samples_per_s", "1/s", ("winding.winding_number", "bloch.bloch_field_grid")),
    ("winding.make_loop_s", "s", ("winding.make_loop",)),
    ("winding.refined_loops", "count", ("winding.winding_number", "bloch.bloch_field_grid")),
    *((f"winding.errors.{e}", "count", ("winding.winding_number", "winding.make_loop"))
      for e in WINDING_ERRORS),
    ("btp.locate_calls", "count", ("btp.locate_btps",)),
    ("btp.locate_s", "s", ("btp.locate_btps",)),
    ("btp.touchings", "count", ("btp.locate_btps",)),
    ("btp.trace_ring_s", "s", ("btp.trace_ep_ring",)),
    ("bloch.field_calls", "count", ("bloch.bloch_field_grid",)),
    ("bloch.field_points", "count", ("bloch.bloch_field_grid",)),
    ("bloch.points_per_call", "count", ("bloch.bloch_field_grid",)),
    ("bloch.field_s", "s", ("bloch.bloch_field_grid",)),
    ("bloch.observables_s", "s", ("bloch.observables_grid",)),
    ("bloch.symmetry_s", "s", ("bloch.symmetry_residuals",)),
    ("dispersion.fit_s", "s", ("dispersion.sample_dispersion", "dispersion.fit_power_law",
                               "dispersion.expected_dispersion")),
    *((f"lattice.{stage}.N{n}", "s", (span,)) for stage, span in _LATTICE_STAGES
      for n in ORACLE_SIZES),
    ("lattice.bytes_computed", "MiB", ()),
    *((f"lattice.failed.{r}", "count", ()) for r in LATTICE_FAILURES),
    ("cli.import_s", "s", ()),
    ("cli.import_scipy_s", "s", ()),
    *((f"cli.command_s.{label}", "s", ()) for label, _, _ in CLI_COMMANDS),
    *((f"self_s.{layer}", "s", ()) for layer in LAYERS),
    *((f"failed.{f}", "count", ()) for f in FAILURES),
    ("trace.wall_s", "s", ()),
    ("trace.overhead_frac", "ratio", ()),
)


def absent_spans(absent_targets) -> set[str]:
    """Span names none of whose targets could be wrapped."""
    missing = set(absent_targets)
    by_name: dict[str, list[str]] = {}
    for module, attr, name, _ in TARGETS:
        by_name.setdefault(name, []).append(f"{module}.{attr}")
    return {name for name, sites in by_name.items() if all(s in missing for s in sites)}


def per_layer(spans, own, passes, harness, absent_targets) -> dict[str, float]:
    """Per-pass layer metrics from the traced passes' spans.

    ``own`` maps span id to self time, ``passes`` is the number of traced
    passes, ``harness`` holds the values the benchmark measures itself.
    Metrics whose spans could not be wrapped are left out, not set to zero.
    """
    by_name: dict[str, list] = {}
    children: dict[int, list] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)

    def calls(name):
        return len(by_name.get(name, ())) / passes

    def total(name, keep=lambda s: True):
        return sum(s.duration for s in by_name.get(name, ()) if keep(s)) / passes

    windings = by_name.get("winding.winding_number", ())
    fields_in_windings = [
        [c for c in children.get(w.id, ()) if c.name == "bloch.bloch_field_grid"] for w in windings
    ]
    samples = sum(c.info or 0.0 for f in fields_in_windings for c in f) / passes
    busy = total("winding.winding_number")
    field_calls = calls("bloch.bloch_field_grid")
    field_points = sum(s.info or 0.0 for s in by_name.get("bloch.bloch_field_grid", ())) / passes
    signature_self = [own[s.id] for s in by_name.get("phase.signature", ())]

    values = {
        "phase.signature_calls": calls("phase.signature"),
        "phase.signature_self_ms": 1e3 * statistics.median(signature_self) if signature_self else 0.0,
        "phase.scan_self_s": sum(own[s.id] for s in by_name.get("phase.scan_phase_diagram", ()))
        / passes,
        "winding.calls": calls("winding.winding_number"),
        "winding.busy_s": busy,
        "winding.samples": samples,
        "winding.samples_per_s": samples / busy if busy > 0 else 0.0,
        "winding.make_loop_s": total("winding.make_loop"),
        "winding.refined_loops": sum(len(f) > 1 for f in fields_in_windings) / passes,
        "btp.locate_calls": calls("btp.locate_btps"),
        "btp.locate_s": total("btp.locate_btps"),
        "btp.touchings": sum(s.info or 0.0 for s in by_name.get("btp.locate_btps", ())) / passes,
        "btp.trace_ring_s": total("btp.trace_ep_ring"),
        "bloch.field_calls": field_calls,
        "bloch.field_points": field_points,
        "bloch.points_per_call": field_points / field_calls if field_calls else 0.0,
        "bloch.field_s": total("bloch.bloch_field_grid"),
        "bloch.observables_s": total("bloch.observables_grid"),
        "bloch.symmetry_s": total("bloch.symmetry_residuals"),
        "dispersion.fit_s": total("dispersion.sample_dispersion")
        + total("dispersion.fit_power_law")
        + total("dispersion.expected_dispersion"),
    }
    for err in WINDING_ERRORS:
        values[f"winding.errors.{err}"] = sum(
            1 for name in ("winding.winding_number", "winding.make_loop")
            for s in by_name.get(name, ()) if s.error == err
        ) / passes
    for stage, span in _LATTICE_STAGES:
        for n in ORACLE_SIZES:
            values[f"lattice.{stage}.N{n}"] = total(span, lambda s, n=n: s.info == n)
    layer_self = layer_self_times(spans)
    for layer in LAYERS:
        values[f"self_s.{layer}"] = layer_self.get(layer, 0.0) / passes
    values.update(harness)

    gone = absent_spans(absent_targets)
    return {
        name: values[name]
        for name, _, needs in PER_LAYER
        if name in values and not any(n in gone for n in needs)
    }
