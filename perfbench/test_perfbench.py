"""Tests of the benchmark's own machinery.

    python3 -m pytest perfbench -q

They cover the tracer's self-time arithmetic on synthetic nested calls,
absent trace targets, the closed-form laws the points check applies, and
the agreement of BENCHMARK.json with the metrics the benchmark reports.
"""

import json
import sys
import types
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import pytest  # noqa: E402

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Span, Tracer, layer_self_times, nesting_problems, self_times  # noqa: E402


class Clock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def nested_module(clock):
    """a.outer spends 1 + 2 + 3 itself around two calls to b.inner of 10 each."""
    mod = types.ModuleType("fake_nested")

    def inner():
        clock.now += 10.0

    def outer():
        clock.now += 1.0
        mod.inner()
        clock.now += 2.0
        mod.inner()
        clock.now += 3.0

    mod.inner, mod.outer = inner, outer
    return mod


def install_fake(tracer, mod, targets):
    sys.modules[mod.__name__] = mod
    try:
        return tracer.install(targets)
    finally:
        del sys.modules[mod.__name__]


def test_self_time_of_nested_calls():
    clock = Clock()
    tracer = Tracer(clock)
    mod = nested_module(clock)
    absent = install_fake(tracer, mod, [
        ("fake_nested", "outer", "a.outer", None),
        ("fake_nested", "inner", "b.inner", None),
    ])
    assert absent == []
    with tracer.span("harness.pass"):
        clock.now += 0.5
        mod.outer()
        clock.now += 0.25
    tracer.uninstall()

    by_name = {}
    for s in tracer.spans:
        by_name.setdefault(s.name, []).append(s)
    own = self_times(tracer.spans)
    (outer,) = by_name["a.outer"]
    (root,) = by_name["harness.pass"]
    assert outer.duration == 26.0
    assert own[outer.id] == 6.0
    assert [own[s.id] for s in by_name["b.inner"]] == [10.0, 10.0]
    assert all(s.parent == outer.id for s in by_name["b.inner"])
    assert outer.parent == root.id
    assert own[root.id] == 0.75
    assert layer_self_times(tracer.spans) == {"a": 6.0, "b": 20.0, "harness": 0.75}
    assert sum(own.values()) == root.duration


def test_uninstall_restores_and_errors_are_recorded():
    clock = Clock()
    tracer = Tracer(clock)
    mod = types.ModuleType("fake_raising")

    def boom():
        clock.now += 4.0
        raise ValueError("no")

    mod.boom = boom
    install_fake(tracer, mod, [("fake_raising", "boom", "x.boom", None)])
    assert mod.boom is not boom
    with pytest.raises(ValueError):
        mod.boom()
    tracer.uninstall()
    assert mod.boom is boom
    (span,) = tracer.spans
    assert (span.error, span.duration, span.parent) == ("ValueError", 4.0, None)
    assert tracer.current is None


def test_overlapping_children_are_counted_once():
    spans = [
        Span(0, "cli.process", 0.0, 10.0, None, 0),
        Span(1, "cli.import", 1.0, 4.0, 0, 0),
        Span(2, "cli.main", 3.0, 6.0, 0, 0),
        Span(3, "cli.late", 9.0, 12.0, 0, 0),
    ]
    assert self_times(spans)[0] == 10.0 - 5.0 - 1.0


def test_spans_outside_their_parent_are_reported():
    nested = [
        Span(0, "cli.process", 0.0, 10.0, None, 0),
        Span(1, "cli.main", 1.0, 9.0, 0, 0),
        Span(2, "phase.signature", 2.0, 3.0, 1, 0),
    ]
    assert nesting_problems(nested) == []
    stray = nested + [Span(3, "phase.signature", 8.0, 9.5, 1, 0),
                      Span(4, "bloch.field", 5.0, 4.0, 0, 0),
                      Span(5, "btp.locate", 1.0, 2.0, 7, 0)]
    problems = nesting_problems(stray)
    assert len(problems) == 3
    assert "span 3" in problems[0] and "outside its parent 1" in problems[0]
    assert "span 4" in problems[1] and "before it starts" in problems[1]
    assert "span 5" in problems[2] and "no parent span 7" in problems[2]


def test_adopted_child_spans_nest_under_the_op():
    tracer = Tracer(Clock())
    with tracer.span("cli.process") as op:
        tracer.adopt([
            {"id": 0, "name": "cli.main", "start": 0.0, "end": 0.0, "parent": None,
             "op": None, "error": None, "info": None},
            {"id": 1, "name": "phase.signature", "start": 0.0, "end": 0.0, "parent": 0,
             "op": None, "error": None, "info": None},
        ], parent=op)
    by_name = {s.name: s for s in tracer.spans}
    assert by_name["cli.main"].parent == by_name["cli.process"].id
    assert by_name["phase.signature"].parent == by_name["cli.main"].id
    assert len({s.id for s in tracer.spans}) == 3


def test_missing_targets_make_metrics_absent_not_zero():
    tracer = Tracer()
    mod = types.ModuleType("fake_empty")
    absent = install_fake(tracer, mod, [("fake_empty", "gone", "winding.winding_number", None)])
    absent += tracer.install([("no_such_module_here", "f", "winding.winding_number", None)])
    assert absent == ["fake_empty.gone", "no_such_module_here.f"]

    all_winding_sites = [
        f"{m}.{a}" for m, a, name, _ in layers.TARGETS if name == "winding.winding_number"
    ]
    metrics = layers.per_layer([], {}, 1, {}, all_winding_sites)
    assert "winding.calls" not in metrics and "winding.refined_loops" not in metrics
    assert metrics["btp.locate_calls"] == 0.0
    # One import site left is enough to keep the metric.
    metrics = layers.per_layer([], {}, 1, {}, all_winding_sites[:1])
    assert metrics["winding.calls"] == 0.0


def test_winding_metrics_from_spans():
    spans = [
        Span(0, "winding.winding_number", 0.0, 4.0, None, 0),
        Span(1, "bloch.bloch_field_grid", 0.5, 1.0, 0, 0, info=513.0),
        Span(2, "bloch.bloch_field_grid", 1.0, 2.0, 0, 0, info=1025.0),
        Span(3, "winding.winding_number", 4.0, 5.0, None, 0, error="DegenerateTrackingError"),
        Span(4, "bloch.bloch_field_grid", 4.0, 4.5, 3, 0, info=513.0),
    ]
    metrics = layers.per_layer(spans, self_times(spans), 1, {}, [])
    assert metrics["winding.calls"] == 2
    assert metrics["winding.samples"] == 513 + 1025 + 513
    assert metrics["winding.refined_loops"] == 1
    assert metrics["winding.busy_s"] == 5.0
    assert metrics["winding.errors.DegenerateTrackingError"] == 1
    assert metrics["bloch.points_per_call"] == (513 + 1025 + 513) / 3
    assert metrics["self_s.winding"] == 5.0 - 2.0


def _btp(kind, w_i, branch):
    return types.SimpleNamespace(kind=kind, w_i=w_i, branch=branch)


def test_points_laws():
    dirac = workloads.ModelParams(J=1.0, T=-1.0, t=0.5, gamma=0.0)
    assert workloads.law_failure(dirac, [_btp("DiracPoint", 1.0, 0),
                                         _btp("DiracPoint", -1.0, 0)]) is None
    assert workloads.law_failure(dirac, [_btp("SemiDiracPoint", 0.0, 0)]) == "wrong_kind"
    assert workloads.law_failure(dirac, [_btp("DiracPoint", 0.0, 0)]) == "wrong_winding"
    assert workloads.law_failure(dirac, [_btp("DiracPoint", 1.0, 0)]) == "charge_sum"
    merged = workloads.ModelParams(J=1.0, T=-2.0, t=0.5, gamma=0.0)
    assert workloads.kind_from_level(merged, 0) == "SemiDiracPoint"
    anchor = workloads.ANCHOR  # c_+ = 1 merges, c_- = 0.5 does not
    assert workloads.kind_from_level(anchor, 1) == "HybridEP"
    assert workloads.kind_from_level(anchor, -1) == "NormalEP"


def test_point_draws_are_seeded_and_balanced():
    a, b = workloads.draw_points(7), workloads.draw_points(7)
    assert a == b and a != workloads.draw_points(8)
    families = [f for f, _ in a]
    assert {f: families.count(f) for f in set(families)} == {
        f: workloads.POINTS_PER_FAMILY for f in ("generic", "merger", "small_gamma", "small_t")
    }
    for family, p in a:
        if family == "small_t":
            assert 1e-11 <= abs(p.t) <= 1e-1 and p.gamma == 0.5
        if family == "merger":
            assert 1e-6 <= p.T + 2.0 <= 1e-1 and p.gamma == 0.0


def test_importtime_parsing():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |   numpy",
        "import time:        40 |         60 |     scipy.optimize._x",
        "import time:        20 |         20 |   scipy",
        "import time:        30 |        500 | epband",
    ])
    assert run.importtime_totals(text) == {"import_s": 500e-6, "import_scipy_s": 60e-6}


def test_benchmark_json_matches_reported_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [
        (name, unit) for name, unit, _ in layers.PER_LAYER
    ]
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert len(spec["per_layer"]) <= 128


def test_central_median():
    assert run.central_median(range(1, 11)) == 5.5
    assert run.central_median([7.0]) == 7.0
    assert run.central_median([3.0, 1.0, 2.0]) == 2.0
    # Bimodal values near 50/50: moving one value across the gap shifts the
    # estimate by a fraction of the gap, not by the whole gap.
    low, high = [10.0] * 49, [16.0] * 51
    a = run.central_median(low + high)
    b = run.central_median(low + [10.0] + high[1:])
    assert 0 < a - b < 1.0


def test_failed_counts_one_pass_not_every_pass():
    class Flaky:
        name, item, op_span = "fake", "op", "harness.op"
        ops = [0, 1, 2, 3]

        def label(self, op):
            return str(op)

        def items(self, op):
            return 1

        def call(self, op, tracer):
            if op % 2:
                raise ValueError("odd")
            return op

        def check(self, op, result):
            return workloads.Checked(1, 1, None, str(result))

        def child_rss_kb(self, result):
            return 0

    h = run.Harness(Flaky())
    h.speed[False] = run.Speedometer()
    for _ in range(3):
        h.run_pass(None)
    assert len(h.records) == 12
    assert h.first_pass_counts() == (4, 2)
    assert h.nondeterministic() == []
