"""Traced runs: spans around the calls into each layer, taken from outside.

Only ``--trace 1`` runs use this module; the timed runs carry no
wrappers.  Wrappers are installed three ways, all from the benchmark's
own code:

* proxy strategy, allocator and mapper objects handed to the program in
  place of the real ones (:class:`TracedStrategy`, :class:`TracedAllocator`,
  :class:`TracedMapper`);
* instance attributes shadowing one object's methods (a session's
  ``admit``, a placement engine's ``place``);
* module attributes replaced for the duration of a pass
  (:class:`Patches`), e.g. the ``compile_arrays_batch`` name that
  :mod:`repro.scheduler.concurrent` imported.

A span is ``[name, start, end, parent, operation]``.  Synchronous spans
nest through a stack, so a layer's *self time* is its spans' durations
minus their children's.  Spans that cross ``await`` points (the daemon's
connection handlers) are recorded detached, with parent ``-2``.  Spans
stay in memory and are written once, at the end (:meth:`Recorder.dump`).
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

perf_counter = time.perf_counter

#: Parent index of a span recorded outside the synchronous stack.
DETACHED = -2

#: Span name of an end-to-end operation opened by the harness itself; its
#: self time is the part of the operation no layer span covers.
OPERATION = "bench.op"


class Recorder:
    """In-memory span and counter store of one traced pass."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._stack: List[int] = []
        #: Identifier stamped on spans opened from now on.
        self.op: Optional[int] = None
        self.counts: Dict[str, float] = defaultdict(float)
        #: ``(ptg, platform name, beta)`` of every traced allocation, for
        #: the repeat share (fingerprinted after the pass, untimed).
        self.allocations: List[Tuple[object, str, float]] = []

    def open(self, name: str) -> int:
        """Start a nested span; returns its index for :meth:`close`."""
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter(), 0.0, parent, self.op])
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        """End the innermost open span."""
        self.spans[index][2] = perf_counter()
        self._stack.pop()

    def detached(self, name: str, start: float, end: float) -> None:
        """Record a span that is not part of the synchronous nesting."""
        self.spans.append([name, start, end, DETACHED, self.op])

    def wrap(self, name: str, fn: Callable) -> Callable:
        """*fn* with every call recorded as a span called *name*."""
        open_, close = self.open, self.close

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = open_(name)
            try:
                return fn(*args, **kwargs)
            finally:
                close(index)

        return traced

    def operation(self, op: int) -> int:
        """Open the span of end-to-end operation *op* (close it with :meth:`close`)."""
        self.op = op
        return self.open(OPERATION)

    # -- summaries ----------------------------------------------------- #
    def totals(self) -> Tuple[Dict[str, float], Dict[str, float], Dict[str, int]]:
        """Per span name: self seconds, inclusive seconds and call count."""
        children = [0.0] * len(self.spans)
        for _name, start, end, parent, _op in self.spans:
            if parent >= 0:
                children[parent] += end - start
        self_time: Dict[str, float] = defaultdict(float)
        inclusive: Dict[str, float] = defaultdict(float)
        calls: Dict[str, int] = defaultdict(int)
        for index, (name, start, end, _parent, _op) in enumerate(self.spans):
            self_time[name] += end - start - children[index]
            inclusive[name] += end - start
            calls[name] += 1
        return self_time, inclusive, calls

    def summary(self) -> Dict:
        """JSON-friendly totals: what :func:`layer_metrics` reads.

        A traced daemon writes this document when it stops; the repeat
        share is computed here, after the pass, outside every span.
        """
        self_time, inclusive, calls = self.totals()
        return {
            "self": dict(self_time),
            "inclusive": dict(inclusive),
            "calls": dict(calls),
            "counts": dict(self.counts),
            "repeat_share": repeat_share(self.allocations),
        }

    def dump(self, path) -> None:
        """Write every span (one JSON list per line) to *path*."""
        Path(path).parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


class _Proxy:
    """Forwards every attribute it does not define to the wrapped object."""

    def __init__(self, inner, recorder: Recorder) -> None:
        self._inner = inner
        self._rec = recorder

    def __getattr__(self, attr):
        return getattr(self._inner, attr)


class TracedStrategy(_Proxy):
    """A constraint strategy whose ``compute_betas`` is a ``constraints`` span."""

    def compute_betas(self, ptgs, platform):
        index = self._rec.open("constraints")
        try:
            return self._inner.compute_betas(ptgs, platform)
        finally:
            self._rec.close(index)


class TracedAllocator(_Proxy):
    """An allocator whose ``allocate`` is an ``allocation`` span.

    After each call it reads the wrapped allocator's ``last_stats``
    (iterations and accepted increments) and remembers the
    ``(graph, platform, beta)`` triple for the repeat share.
    """

    def allocate(self, ptg, platform, beta=1.0):
        rec = self._rec
        index = rec.open("allocation")
        try:
            return self._inner.allocate(ptg, platform, beta=beta)
        finally:
            rec.close(index)
            stats = getattr(self._inner, "last_stats", None)
            if stats is not None:
                rec.counts["allocation.iterations"] += stats.iterations
                rec.counts["allocation.increments"] += stats.increments
            rec.allocations.append((ptg, platform.name, beta))


class TracedMapper(_Proxy):
    """A mapper whose ``map`` is a ``mapping.map`` span."""

    def map(self, allocated, platform):
        index = self._rec.open("mapping.map")
        try:
            return self._inner.map(allocated, platform)
        finally:
            self._rec.close(index)
            self._rec.counts["streaming.active"] += len(allocated)
            self._rec.counts["streaming.active_samples"] += 1


def instrument_engine(engine, recorder: Recorder) -> None:
    """Shadow a placement engine's ``place`` with a ``mapping.place`` span."""
    place = engine.place

    def traced_place(*args, **kwargs):
        before = engine.packed_tasks
        index = recorder.open("mapping.place")
        try:
            return place(*args, **kwargs)
        finally:
            recorder.close(index)
            recorder.counts["mapping.packed"] += engine.packed_tasks - before

    engine.place = traced_place


def instrument_session(session, recorder: Recorder) -> None:
    """Trace one stream session's layers.

    Its strategy and allocator become traced proxies and its engine's
    ``place`` a span; ``admit`` becomes a ``streaming.admit`` span, and
    after each admission the size of the active set is sampled.
    """
    session.strategy = TracedStrategy(session.strategy, recorder)
    session.allocator = TracedAllocator(session.allocator, recorder)
    instrument_engine(session.engine, recorder)
    admit = session.admit

    def traced_admit(arrival):
        index = recorder.open("streaming.admit")
        try:
            return admit(arrival)
        finally:
            recorder.close(index)
            recorder.counts["streaming.active"] += len(session.active_applications)
            recorder.counts["streaming.active_samples"] += 1

    session.admit = traced_admit


def traced_session_factory(session_class, recorder: Recorder) -> Callable:
    """A drop-in for ``StreamSession(...)`` building instrumented sessions."""

    def build(*args, **kwargs):
        session = session_class(*args, **kwargs)
        instrument_session(session, recorder)
        return session

    return build


class Patches:
    """Module attributes replaced for one traced pass, restored on exit."""

    def __init__(self) -> None:
        self._saved: List[Tuple[object, str, object]] = []

    def set(self, module, name: str, value) -> None:
        """Replace ``module.name`` by *value*."""
        self._saved.append((module, name, getattr(module, name)))
        setattr(module, name, value)

    def wrap(self, recorder: Recorder, module, name: str, span: str) -> None:
        """Replace the function ``module.name`` by a traced version."""
        self.set(module, name, recorder.wrap(span, getattr(module, name)))

    def __enter__(self) -> "Patches":
        return self

    def __exit__(self, *exc) -> None:
        for module, name, value in reversed(self._saved):
            setattr(module, name, value)
        self._saved.clear()


# ---------------------------------------------------------------------- #
# per-layer metrics
# ---------------------------------------------------------------------- #
def repeat_share(allocations: Sequence[Tuple[object, str, float]]) -> float:
    """Share of allocations whose (graph content, platform, beta) came earlier.

    Graph content is :func:`repro.campaigns.cache.ptg_fingerprint` (task
    costs and edges, names excluded), computed once per graph object.
    """
    from repro.campaigns.cache import ptg_fingerprint

    if not allocations:
        return 0.0
    fingerprints: Dict[int, str] = {}
    seen = set()
    repeats = 0
    for ptg, platform_name, beta in allocations:
        fp = fingerprints.get(id(ptg))
        if fp is None:
            fp = fingerprints[id(ptg)] = ptg_fingerprint(ptg)
        key = (fp, platform_name, beta)
        repeats += key in seen
        seen.add(key)
    return repeats / len(allocations)


def layer_metrics(summary: Dict, operations: int) -> Dict[str, float]:
    """The per-layer metrics of a :meth:`Recorder.summary`, per operation.

    Times are mean milliseconds of self time per end-to-end operation
    (inclusive for ``scheduler.own_ms``); counts are per operation; ratios
    are plain.  ``bench.dark_share`` is the share of the harness's
    operation spans that no layer span covers.
    """
    self_time = summary["self"]
    inclusive = summary["inclusive"]
    calls = summary["calls"]
    counts = summary["counts"]
    ops = max(1, operations)

    def ms(*names: str) -> float:
        return 1000.0 * sum(self_time.get(name, 0.0) for name in names) / ops

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    iterations = counts.get("allocation.iterations", 0.0)
    placements = calls.get("mapping.place", 0)
    return {
        "constraints.self_ms": ms("constraints"),
        "dag.compile_ms": ms("dag.compile"),
        "dag.generate_ms": ms("dag.generate"),
        "dag.decode_ms": ms("dag.decode"),
        "allocation.calls": calls.get("allocation", 0) / ops,
        "allocation.self_ms": ms("allocation"),
        "allocation.iterations": iterations / ops,
        "allocation.accept_ratio": ratio(
            counts.get("allocation.increments", 0.0), iterations
        ),
        "allocation.repeat_share": summary["repeat_share"],
        "mapping.placements": placements / ops,
        "mapping.self_ms": ms("mapping.place", "mapping.map"),
        "mapping.packed_ratio": ratio(counts.get("mapping.packed", 0.0), placements),
        "streaming.self_ms": ms("streaming.admit"),
        "streaming.active_apps": ratio(
            counts.get("streaming.active", 0.0),
            counts.get("streaming.active_samples", 0.0),
        ),
        "scheduler.self_ms": ms("scheduler.schedule"),
        "scheduler.own_ms": 1000.0 * inclusive.get("scheduler.own", 0.0) / ops,
        "simulate.calls": calls.get("simulate", 0) / ops,
        "simulate.self_ms": ms("simulate"),
        "experiments.self_ms": ms("experiments"),
        "campaigns.store_ms": ms("campaigns.store"),
        "validate.self_ms": ms("validate"),
        "bench.dark_share": ratio(
            self_time.get(OPERATION, 0.0), inclusive.get(OPERATION, 0.0)
        ),
    }


#: Per-layer metrics that only some workloads exercise; a workload that
#: does not reach a layer reports 0 for it.
SERVICE_METRICS = (
    "service.submit_ms",
    "service.read_ms",
    "service.http_ms",
    "service.queue_wait_ms",
    "service.admit_ms",
    "service.rejections",
)
CAMPAIGN_METRICS = (
    "campaigns.store_bytes",
    "campaigns.cache_hit_ratio",
    "campaigns.aggregate_ms",
    "exec.wait_ms",
    "exec.utilisation",
)


def with_absent_layers(metrics: Dict[str, float]) -> Dict[str, float]:
    """*metrics* completed with 0 for the layers this workload never reaches."""
    full = {name: 0.0 for name in SERVICE_METRICS + CAMPAIGN_METRICS}
    full.update(metrics)
    return full
