"""Spans recorded from outside the program, around its public layer functions.

``Tracer.install`` replaces each listed function or method with a timing
wrapper and ``Tracer.uninstall`` puts the originals back. Spans are kept in
memory: name, start, end, parent span, the id of the benchmark call
(answer or exact) they belong to, and optional counts taken from the
call's arguments or result. A span opened on a thread with no open span of
its own (for example a worker thread started by the program) gets the
current call's root span as parent, so its time is still attributed.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import threading
import time
from collections import defaultdict
from collections.abc import Callable
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    call_id: int | None
    counts: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "call_id": self.call_id,
            **self.counts,
        }


def _cq_envelope(args, kwargs, result) -> dict:
    return {"clusters": len(result)}


def _cq_kept(args, kwargs, result) -> dict:
    return {"clusters": len(result[0])}


def _em_draws(args, kwargs, result) -> dict:
    return {"draws": len(result), "unique": len(set(result.tolist()))}


#: (module, attribute path, span name, counts taken from the call).
#: Module-level names are patched where the program looks them up, i.e. in
#: the importing module (``repro.federation.provider.hansen_hurwitz``).
LAYER_FUNCTIONS: list[tuple[str, str, str, Callable | None]] = [
    ("repro.federation.aggregator", "Aggregator.answer", "aggregator.answer", None),
    ("repro.federation.aggregator", "Aggregator.exact", "aggregator.exact", None),
    ("repro.federation.aggregator", "solve_allocation", "allocation.solve", None),
    ("repro.federation.provider", "DataProvider.prepare", "provider.prepare", None),
    ("repro.federation.provider", "DataProvider.summarize", "provider.summarize", None),
    ("repro.federation.provider", "DataProvider.approximate", "provider.approximate", None),
    ("repro.federation.provider", "DataProvider.exact_dp", "provider.exact_dp", None),
    ("repro.federation.provider", "DataProvider.exact", "provider.exact", None),
    ("repro.federation.provider", "DataProvider.release", "provider.release", None),
    ("repro.federation.provider", "clusters_for_query", "proportions.envelope", _cq_envelope),
    ("repro.federation.provider", "proportions", "proportions.threshold", _cq_kept),
    ("repro.federation.provider", "exponential_mechanism_sample", "dp.em_sample", _em_draws),
    ("repro.federation.provider", "hansen_hurwitz", "estimator.hh", None),
    ("repro.core.sensitivity", "smooth_local_sensitivity", "sensitivity.smooth_ls", None),
    ("repro.federation.evaluation", "SparkEvaluator.per_cluster", "evaluation.per_cluster", None),
    ("repro.federation.evaluation", "SparkEvaluator.total", "evaluation.total", None),
    ("repro.smc.protocol", "SMCEnvironment.secure_sum", "smc.secure_sum", None),
    ("repro.smc.protocol", "SMCEnvironment.secure_max", "smc.secure_max", None),
    ("repro.federation.builder", "build_federation", "builder.build_federation", None),
    ("repro.federation.builder", "partition_providers", "builder.partition", None),
    ("repro.federation.builder", "assign_clusters", "builder.assign_clusters", None),
    ("repro.federation.builder", "build_metadata", "metadata.build", None),
    ("repro.clusterstore.store", "ClusterStore.write", "clusterstore.write", None),
]


class Tracer:
    """Records spans around the functions in :data:`LAYER_FUNCTIONS`."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.missing: list[str] = []  # layer functions that no longer exist
        self.call_id: int | None = None
        self.root: int | None = None
        self._local = threading.local()
        self._lock = threading.Lock()
        self._undo: list[tuple[object, str, object]] = []

    # -- span bookkeeping -------------------------------------------------
    def _stack(self) -> list[int]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def _wrapper(self, fn: Callable, name: str, counts: Callable | None) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else tracer.root
            span = Span(name, time.perf_counter(), 0.0, parent, tracer.call_id)
            with tracer._lock:
                idx = len(tracer.spans)
                tracer.spans.append(span)
                if not stack and tracer.root is None:
                    tracer.root = idx  # first span of the call
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span.end = time.perf_counter()
            if counts is not None:
                span.counts = counts(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        for module_name, path, name, counts in LAYER_FUNCTIONS:
            owner = importlib.import_module(module_name)
            *outer, attr = path.split(".")
            try:
                for part in outer:
                    owner = getattr(owner, part)
                raw = inspect.getattr_static(owner, attr)
            except AttributeError:
                self.missing.append(name)
                continue
            if isinstance(raw, classmethod):
                new = classmethod(self._wrapper(raw.__func__, name, counts))
            else:
                new = self._wrapper(raw, name, counts)
            setattr(owner, attr, new)
            self._undo.append((owner, attr, raw))

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._undo):
            setattr(owner, attr, raw)
        self._undo.clear()

    def begin_call(self, call_id: int | None) -> None:
        """Mark the start of one benchmark call; its spans carry ``call_id``
        and the first span opened becomes the call's root."""
        self.call_id = call_id
        self.root = None

    # -- analysis ---------------------------------------------------------
    def self_times(self) -> list[float]:
        """Duration of each span minus the union of its children's intervals."""
        children: dict[int, list[tuple[float, float]]] = defaultdict(list)
        for s in self.spans:
            if s.parent is not None:
                children[s.parent].append((s.start, s.end))
        out = []
        for i, s in enumerate(self.spans):
            covered, cur_lo, cur_hi = 0.0, None, None
            for lo, hi in sorted(children.get(i, [])):
                lo, hi = max(lo, s.start), min(hi, s.end)
                if hi <= lo:
                    continue
                if cur_hi is None or lo > cur_hi:
                    if cur_hi is not None:
                        covered += cur_hi - cur_lo
                    cur_lo, cur_hi = lo, hi
                else:
                    cur_hi = max(cur_hi, hi)
            if cur_hi is not None:
                covered += cur_hi - cur_lo
            out.append(max(0.0, (s.end - s.start) - covered))
        return out


def wrapper_cost_s(n: int = 20000) -> float:
    """Measured cost of one span (wrapper call) on a no-op, in seconds."""
    tracer = Tracer()

    def noop():
        return None

    wrapped = tracer._wrapper(noop, "noop", None)
    t0 = time.perf_counter()
    for _ in range(n):
        noop()
    plain = time.perf_counter() - t0
    t0 = time.perf_counter()
    for _ in range(n):
        wrapped()
    traced = time.perf_counter() - t0
    return max(0.0, (traced - plain) / n)
