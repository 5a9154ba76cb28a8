"""Span recording around the public calls of each layer.

The benchmark never edits the program to trace it.  :class:`Tracer`
replaces functions, methods and properties of the ``repro`` modules
with timing wrappers for the length of a traced run and puts the
originals back afterwards (:meth:`Tracer.uninstall`).  The wrapped
points are listed in :data:`SPAN_POINTS`; every span name starts with
the layer (the ``repro`` subpackage) that owns the call.

Each finished call updates an aggregate per span name (calls, total
time, self time = total minus the time of wrapped calls made inside
it).  Individual spans ``(id, name, start, end, parent, job)`` are
kept in memory as well, up to :data:`SPANS_KEPT_PER_NAME` per name:
the timing model's per-event methods run millions of times a run, and
keeping every one of those spans would cost more memory than the
simulation itself.  The aggregates always cover every call.
"""

from __future__ import annotations

import importlib
import json
import time
from dataclasses import dataclass, field

#: Individual spans kept per span name (aggregates count every call).
SPANS_KEPT_PER_NAME = 400

#: ``(module, attribute path, span name)``.  An attribute path names a
#: module-level function, a ``Class.method`` or a ``Class.property``.
#: A function imported by name into another module is wrapped where it
#: is looked up, so the same function can appear under several modules.
SPAN_POINTS: tuple[tuple[str, str, str], ...] = (
    # set-up
    ("repro.core.manager", "profile_trace", "profiling.profile"),
    ("repro.runtime.cache", "AppContext.golden", "runtime.golden"),
    # fault campaigns
    ("repro.obs.provenance", "GoldenEvidence.__init__", "faults.evidence"),
    ("repro.obs.provenance", "GoldenEvidence.classify_analytic",
     "faults.classify"),
    ("repro.faults.selection", "BlockSelection.pick", "faults.plan"),
    ("repro.faults.campaign", "sample_word_fault", "faults.plan"),
    ("repro.faults.batch", "sample_word_fault", "faults.plan"),
    ("repro.utils.fastseed", "derive_seeds", "faults.plan"),
    ("repro.utils.fastseed", "derive_child_seeds", "faults.plan"),
    ("repro.utils.fastseed", "generator_state_words", "faults.plan"),
    ("repro.utils.fastseed", "reseed", "faults.plan"),
    ("repro.faults.campaign", "apply_faults", "faults.inject"),
    ("repro.faults.batch", "apply_faults_merged", "faults.inject"),
    ("repro.faults.campaign", "make_protection", "core.replication"),
    ("repro.faults.batch", "make_scheme", "core.replication"),
    ("repro.obs.provenance", "make_scheme", "core.replication"),
    ("repro.arch.address_space", "DeviceMemory.cow_clone",
     "core.replication"),
    ("repro.metrics.base", "OutputMetric.compare", "metrics.compare"),
    ("repro.faults.campaign", "Campaign.run_one", "faults.run_one"),
    # timing model
    ("repro.sim.simulator", "simulate_trace", "sim.scheduler"),
    ("repro.sim.sm", "SmCore.step", "sim.sm"),
    ("repro.sim.ldst", "LdstUnit.load", "sim.ldst.load"),
    ("repro.sim.ldst", "LdstUnit.store", "sim.ldst.store"),
    ("repro.arch.mshr", "MshrFile.probe", "arch.mshr"),
    ("repro.arch.mshr", "MshrFile.add", "arch.mshr"),
    ("repro.arch.mshr", "MshrFile.release", "arch.mshr"),
    ("repro.arch.mshr", "MshrFile.record_stall", "arch.mshr"),
    ("repro.arch.cache", "Cache.lookup", "arch.cache"),
    ("repro.arch.cache", "Cache.access", "arch.cache"),
    ("repro.arch.cache", "Cache.fill", "arch.cache"),
    ("repro.sim.memory_subsystem", "MemorySubsystem.read",
     "sim.memory_subsystem"),
    ("repro.sim.memory_subsystem", "MemorySubsystem.write",
     "sim.memory_subsystem"),
    ("repro.arch.interconnect", "Link.transfer", "arch.interconnect"),
    ("repro.arch.dram", "DramChannel.access", "arch.dram"),
    # design-space search and its campaign runtime
    ("repro.core.manager", "ReliabilityManager.simulate_performance",
     "core.simulate_performance"),
    ("repro.runtime.session", "CellSpec.build_campaign",
     "runtime.build_campaign"),
    ("repro.faults.campaign", "Campaign.run_span", "runtime.campaign"),
    ("repro.runtime.checkpoint", "CheckpointStore.save_chunk",
     "runtime.checkpoint_write"),
    ("repro.runtime.checkpoint", "CheckpointStore.load_chunk",
     "runtime.checkpoint_read"),
    ("repro.search.engine", "pareto_front", "search.pareto"),
)

#: Per-application kernel entry points, wrapped on each application
#: class a workload uses (see :meth:`Tracer.install`).
APP_POINTS: tuple[tuple[str, str], ...] = (
    ("build_trace", "kernels.build_trace"),
    ("execute", "kernels.execute"),
    ("execute_batch", "kernels.execute"),
)


@dataclass
class SpanTotals:
    """Aggregate of every finished span of one name."""

    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


@dataclass
class Tracer:
    """Wraps the span points and records spans while installed."""

    spans: list[tuple] = field(default_factory=list)
    #: ``(job kind, span name) -> totals``; the job kind is the
    #: benchmark operation the span ran under (``"campaign"``,
    #: ``"simulate"``, ``"search.cold"``, ...), ``"setup"`` for set-up.
    totals: dict[tuple[str, str], SpanTotals] = field(default_factory=dict)
    job_id: int = 0
    job_kind: str = "setup"
    _kept: dict[str, int] = field(default_factory=dict)
    _stack: list[list] = field(default_factory=list)
    _patched: list[tuple] = field(default_factory=list)
    _next_id: int = 0

    # -- installation -------------------------------------------------
    def install(self, app_classes=()) -> None:
        """Wrap every span point (and the kernels of ``app_classes``)."""
        seen: set[tuple[int, str]] = set()
        for module_name, path, name in SPAN_POINTS:
            module = importlib.import_module(module_name)
            owner, attr = module, path
            if "." in path:
                class_name, attr = path.split(".")
                owner = getattr(module, class_name)
            self._patch(owner, attr, name, seen)
        for cls in app_classes:
            for attr, name in APP_POINTS:
                owner = next(
                    (k for k in cls.__mro__ if attr in vars(k)), None)
                if owner is not None:
                    self._patch(owner, attr, name, seen)

    def uninstall(self) -> None:
        """Put every wrapped attribute back."""
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def _patch(self, owner, attr: str, name: str, seen: set) -> None:
        key = (id(owner), attr)
        if key in seen:
            return
        seen.add(key)
        original = vars(owner)[attr] if isinstance(owner, type) \
            else getattr(owner, attr)
        if isinstance(original, property):
            wrapped = property(self._wrap(original.fget, name))
        else:
            wrapped = self._wrap(original, name)
        setattr(owner, attr, wrapped)
        self._patched.append((owner, attr, original))

    def _wrap(self, fn, name: str):
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            frame = [0.0, name, -1]
            if self._kept.get(name, 0) < SPANS_KEPT_PER_NAME:
                frame[2] = self._next_id
                self._next_id += 1
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                self._finish(frame, start, end)

        traced.__wrapped__ = fn
        return traced

    def _finish(self, frame: list, start: float, end: float) -> None:
        child_s, name, span_id = frame
        elapsed = end - start
        key = (self.job_kind, name)
        totals = self.totals.get(key)
        if totals is None:
            totals = self.totals[key] = SpanTotals()
        totals.calls += 1
        totals.total_s += elapsed
        totals.self_s += elapsed - child_s
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[0] += elapsed
        if span_id >= 0:
            self._kept[name] = self._kept.get(name, 0) + 1
            self.spans.append((
                span_id, name, start, end,
                parent[2] if parent is not None else None,
                self.job_id,
            ))

    # -- jobs ---------------------------------------------------------
    def begin_job(self, kind: str) -> None:
        """Attribute the following spans to a new benchmark operation."""
        self.job_id += 1
        self.job_kind = kind

    # -- results ------------------------------------------------------
    def calls(self, name: str, kinds=None) -> int:
        """Calls of span ``name`` (under the given job kinds, or all)."""
        return sum(t.calls for (k, n), t in self.totals.items()
                   if n == name and (kinds is None or k in kinds))

    def self_s(self, prefix: str, kinds=None) -> float:
        """Self time of every span whose name starts with ``prefix``."""
        return sum(t.self_s for (k, n), t in self.totals.items()
                   if n.startswith(prefix)
                   and (kinds is None or k in kinds))

    def total_s(self, name: str, kinds=None) -> float:
        """Inclusive time of span ``name``."""
        return sum(t.total_s for (k, n), t in self.totals.items()
                   if n == name and (kinds is None or k in kinds))

    def write(self, path: str) -> None:
        """Write the kept spans and the aggregates as one JSON file."""
        doc = {
            "spans_kept_per_name": SPANS_KEPT_PER_NAME,
            "columns": ["id", "name", "start_s", "end_s", "parent", "job"],
            "spans": [list(s) for s in self.spans],
            "totals": [
                {"job": k, "name": n, "calls": t.calls,
                 "total_s": t.total_s, "self_s": t.self_s}
                for (k, n), t in sorted(self.totals.items())
            ],
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
