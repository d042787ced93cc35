"""In-memory span tracer for the benchmark.

The tracer replaces public epband functions at their import sites in the
calling module (for example ``epband.phase.winding_number``) with wrappers
that record one span per call: name, start, end, parent span, the op the
call belongs to, the exception class if the call raised, and an optional
number read off the call (points evaluated, touchings found, lattice N).
Spans stay in memory; the benchmark writes them out when it ends.

A layer's self time is the duration of its spans minus the part of each
span's interval that the span's children cover.  Because every traced call
runs inside a root span, the self times of all spans add up to the total
duration of the root spans; that is an identity, not a check.  What can go
wrong is a span outside its parent's interval, as a child process's adopted
spans would be if the clocks did not share a time base: ``nesting_problems``
looks for that.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time
from dataclasses import asdict, dataclass


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    op: int | None
    error: str | None = None
    info: float | None = None

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans for wrapped calls and for explicit ``span`` blocks.

    ``clock`` is injectable so tests can drive the arithmetic exactly.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.op: int | None = None
        self._stack: list[int] = []
        self._next_id = 0
        self._patched: list[tuple] = []

    @property
    def current(self) -> int | None:
        """Id of the innermost open span."""
        return self._stack[-1] if self._stack else None

    def _begin(self) -> tuple[int, int | None]:
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        return sid, parent

    def _end(self, sid, parent, name, start, error=None, info=None) -> None:
        self._stack.pop()
        self.spans.append(Span(sid, name, start, self.clock(), parent, self.op, error, info))

    @contextlib.contextmanager
    def span(self, name: str):
        sid, parent = self._begin()
        start = self.clock()
        error = None
        try:
            yield sid
        except BaseException as exc:
            error = type(exc).__name__
            raise
        finally:
            self._end(sid, parent, name, start, error)

    def wrap(self, fn, name: str, info=None):
        """Wrapper recording a span per call; ``info(args, kwargs, result)`` annotates it."""
        tracer = self

        def annotate(args, kwargs, result):
            # A changed signature must not break the traced call.
            try:
                return None if info is None else float(info(args, kwargs, result))
            except Exception:
                return None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid, parent = tracer._begin()
            start = tracer.clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer._end(sid, parent, name, start, type(exc).__name__,
                            annotate(args, kwargs, None))
                raise
            tracer._end(sid, parent, name, start, None, annotate(args, kwargs, result))
            return result

        return traced

    def install(self, targets) -> list[str]:
        """Wrap each ``(module, attribute, span name, info)`` target in place.

        Returns the ``module.attribute`` names that no longer exist, so the
        metrics that depend on them are reported absent instead of zero.
        """
        absent = []
        for module_name, attr, name, info in targets:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                absent.append(f"{module_name}.{attr}")
                continue
            original = getattr(module, attr, None)
            if original is None or not callable(original):
                absent.append(f"{module_name}.{attr}")
                continue
            setattr(module, attr, self.wrap(original, name, info))
            self._patched.append((module, attr, original))
        return absent

    def uninstall(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def adopt(self, records, parent: int) -> None:
        """Merge spans recorded by a child process under span ``parent``.

        Child and parent both read ``time.perf_counter``, a system-wide
        monotonic clock on Linux, so the intervals share one time base.
        """
        base = self._next_id
        top = 0
        for r in records:
            top = max(top, r["id"] + 1)
            own_parent = parent if r["parent"] is None else base + r["parent"]
            self.spans.append(
                Span(base + r["id"], r["name"], r["start"], r["end"], own_parent, self.op,
                     r["error"], r["info"])
            )
        self._next_id = base + top

    def export(self) -> list[dict]:
        return [asdict(s) for s in self.spans]


def _covered(start: float, end: float, intervals) -> float:
    """Length of [start, end] covered by the union of ``intervals``."""
    total = 0.0
    cursor = start
    for a, b in sorted(intervals):
        a, b = max(a, cursor), min(b, end)
        if b > a:
            total += b - a
            cursor = b
    return total


def self_times(spans) -> dict[int, float]:
    """Each span's duration minus the part of it its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return {
        s.id: s.duration - _covered(s.start, s.end, children.get(s.id, ())) for s in spans
    }


def nesting_problems(spans, tolerance: float = 1e-6) -> list[str]:
    """Spans that end before they start or lie outside their parent's interval."""
    by_id = {s.id: s for s in spans}
    problems = []
    for s in spans:
        if s.end < s.start:
            problems.append(f"span {s.id} ({s.name}) ends {s.start - s.end:.3g} s before it starts")
        parent = by_id.get(s.parent) if s.parent is not None else None
        if s.parent is not None and parent is None:
            problems.append(f"span {s.id} ({s.name}) has no parent span {s.parent}")
        elif parent is not None and (s.start < parent.start - tolerance
                                     or s.end > parent.end + tolerance):
            problems.append(f"span {s.id} ({s.name}) lies outside its parent "
                            f"{parent.id} ({parent.name})")
    return problems


def layer_self_times(spans) -> dict[str, float]:
    """Self time summed per layer (the span name's first component)."""
    own = self_times(spans)
    out: dict[str, float] = {}
    for s in spans:
        out[s.layer] = out.get(s.layer, 0.0) + own[s.id]
    return out
