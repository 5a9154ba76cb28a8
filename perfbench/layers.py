"""Metric names, units, and the per-layer figures of a traced run.

:data:`END_TO_END` and :data:`PER_LAYER` are the benchmark's metric
sets; ``BENCHMARK.json`` lists the same names and units (a test keeps
them in step).  Layer times are host seconds from the spans of
:mod:`tracing`; counts come from the ``MetricsRegistry`` the program
reports into and from call counts of the wrapped functions, so they
repeat exactly between runs of one commit.  The per-configuration
campaign rates are scaled rates from the untraced twin run.
"""

from __future__ import annotations

from workloads import (
    CAMPAIGN_CONFIGS,
    PROBE_TIMING_APPS,
    STUDY_APPS,
    TIMING_CONFIGS,
    outcome_names,
)

END_TO_END = (
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("campaign_runs_per_s", "runs/s"),
    ("sim_instructions_per_s", "instr/s"),
    ("optimize_evals_per_s", "evals/s"),
    ("optimize_resume_s", "s"),
)

SEARCH_KINDS = ("search.cold", "search.resume")

#: ``(metric, unit, span name, job kinds)`` for span-derived times:
#: inclusive for set-up stages, self time for the rest.
_SETUP_TIMES = (
    ("kernels.build_trace_s", "kernels.build_trace"),
    ("profiling.profile_s", "profiling.profile"),
    ("runtime.golden_s", "runtime.golden"),
)
_CAMPAIGN_TIMES = (
    ("faults.evidence_s", "faults.evidence"),
    ("faults.plan_s", "faults.plan"),
    ("faults.classify_s", "faults.classify"),
    ("faults.inject_s", "faults.inject"),
    ("core.replication_s", "core.replication"),
    ("kernels.execute_s", "kernels.execute"),
    ("metrics.compare_s", "metrics.compare"),
)
_SIM_TIMES = (
    ("sim.scheduler_s", "sim.scheduler"),
    ("sim.sm_s", "sim.sm"),
    ("sim.ldst_s", "sim.ldst."),
    ("arch.mshr_s", "arch.mshr"),
    ("arch.cache_s", "arch.cache"),
    ("sim.memory_subsystem_s", "sim.memory_subsystem"),
    ("arch.interconnect_s", "arch.interconnect"),
    ("arch.dram_s", "arch.dram"),
)
#: Simulator counters taken from the registry as they are.
_SIM_COUNTERS = (
    "sim.instructions", "sim.cycles", "sim.l1.accesses", "sim.l1.hits",
    "sim.l2.accesses", "sim.l2.hits", "sim.dram.requests",
    "sim.dram.row_hits", "sim.dram.bank_queue_cycles",
    "sim.mshr.full_stalls", "sim.stalls.mshr_full",
    "sim.stalls.memory_wait", "sim.stalls.compare_queue_full",
)
_SEARCH_TIMES = (
    ("runtime.build_campaign_s", "runtime.build_campaign"),
    ("runtime.campaign_s", "runtime.campaign"),
    ("runtime.checkpoint_write_s", "runtime.checkpoint_write"),
    ("runtime.checkpoint_read_s", "runtime.checkpoint_read"),
    ("search.pareto_s", "search.pareto"),
)

PER_LAYER = (
    tuple((m, "s") for m, _ in _SETUP_TIMES)
    + tuple((m, "s") for m, _ in _CAMPAIGN_TIMES)
    + (("faults.lanes.analytic", "count"),
       ("faults.lanes.executed", "count"),
       ("faults.runs.scalar", "count"),
       ("faults.analytic_share", "ratio"))
    + tuple((f"faults.outcome.{o}", "count") for o in outcome_names())
    + tuple((f"campaign_runs_per_s.{a}.{c[0]}", "runs/s")
            for a in STUDY_APPS for c in CAMPAIGN_CONFIGS)
    + tuple((m, "s") for m, _ in _SIM_TIMES)
    + tuple((m, "count") for m in _SIM_COUNTERS)
    + (("sim.sm.steps", "count"),
       ("sim.ldst.load_calls", "count"),
       ("sim.replica_transactions", "count"),
       ("sim.ldst.retry_ratio", "ratio"),
       ("sim.host_ns_per_instruction", "ns"))
    + tuple((f"sim.overhead_pct.{a}.{c[0]}", "%")
            for a in PROBE_TIMING_APPS for c in TIMING_CONFIGS[1:])
    + (("search.timing_s.cold", "s"),
       ("search.timing_s.resume", "s"),
       ("search.timing_calls.cold", "count"),
       ("search.timing_calls.resume", "count"),
       ("runtime.build_campaign_calls", "count"),
       ("kernels.build_trace_calls", "count"))
    + tuple((m, "s") for m, _ in _SEARCH_TIMES)
    + (("session.chunks.executed", "count"),
       ("session.chunks.resumed", "count"),
       ("search.evaluations", "count"),
       ("search.proposed", "count"),
       ("search.cache_hits", "count"),
       ("trace.overhead_s", "s"),
       ("trace.overhead_share", "ratio"))
)


def per_layer(traced, untraced, tracer, traced_s: float,
              untraced_s: float) -> dict[str, tuple[float, str]]:
    """Every :data:`PER_LAYER` metric of one traced run.

    ``traced`` and ``untraced`` are the two executions of the same
    operation lists (see ``run.py``); host-time ratios come from the
    untraced one, everything else from the traced one.
    """
    out: dict[str, float] = {}
    for metric, span in _SETUP_TIMES:
        out[metric] = tracer.total_s(span, ("setup",))
    for metric, span in _CAMPAIGN_TIMES:
        out[metric] = tracer.self_s(span, ("campaign",))

    counters = traced.campaign_registry.counters
    analytic = counters.get("campaign.batch.analytic_lanes", 0)
    executed = counters.get("campaign.batch.exec_lanes", 0)
    outcomes = {o: counters.get(f"campaign.outcome.{o}", 0)
                for o in outcome_names()}
    runs = sum(outcomes.values())
    out["faults.lanes.analytic"] = analytic
    out["faults.lanes.executed"] = executed
    out["faults.runs.scalar"] = tracer.calls(
        "faults.run_one", ("campaign",) + SEARCH_KINDS)
    out["faults.analytic_share"] = analytic / runs if runs else 0.0
    for name, n in outcomes.items():
        out[f"faults.outcome.{name}"] = n

    for metric, span in _SIM_TIMES:
        out[metric] = tracer.self_s(span, ("simulate",))
    sim = traced.sim_registry.counters
    for name in _SIM_COUNTERS:
        out[name] = sim.get(name, 0)
    out["sim.sm.steps"] = tracer.calls("sim.sm", ("simulate",))
    out["sim.ldst.load_calls"] = tracer.calls("sim.ldst.load",
                                              ("simulate",))
    out["sim.replica_transactions"] = traced.replica_transactions
    l1 = sim.get("sim.l1.accesses", 0)
    out["sim.ldst.retry_ratio"] = \
        out["sim.ldst.load_calls"] / l1 if l1 else 0.0
    out["sim.host_ns_per_instruction"] = (
        1e9 * untraced.sim_host_s / untraced.sim_instructions
        if untraced.sim_instructions else 0.0)

    for kind in ("cold", "resume"):
        kinds = (f"search.{kind}",)
        out[f"search.timing_s.{kind}"] = tracer.total_s(
            "core.simulate_performance", kinds)
        out[f"search.timing_calls.{kind}"] = tracer.calls(
            "core.simulate_performance", kinds)
    out["runtime.build_campaign_calls"] = tracer.calls(
        "runtime.build_campaign", SEARCH_KINDS)
    out["kernels.build_trace_calls"] = tracer.calls(
        "kernels.build_trace", SEARCH_KINDS)
    for metric, span in _SEARCH_TIMES:
        out[metric] = tracer.total_s(span, SEARCH_KINDS)
    search = traced.search_registry.counters
    out["session.chunks.executed"] = search.get("session.chunks.executed", 0)
    out["session.chunks.resumed"] = search.get("session.chunks.resumed", 0)
    for key in ("evaluations", "proposed", "cache_hits"):
        out[f"search.{key}"] = traced.search_stats.get(key, 0)

    out["trace.overhead_s"] = traced_s - untraced_s
    out["trace.overhead_share"] = (
        (traced_s - untraced_s) / untraced_s if untraced_s else 0.0)

    # Per-config rates are host speed, so they come from the untraced
    # twin; the simulated overheads are the same in both.
    result = {}
    for name, unit in PER_LAYER:
        if name in out:
            result[name] = (out[name], unit)
        elif name in untraced.layers:
            result[name] = untraced.layers[name]
    return result
