"""The three workloads of the benchmark and the jobs they run.

Every workload drives the public ``repro.api`` surface from one
process, one client, in a closed loop: the next operation starts when
the previous one has returned, and every campaign, simulation and
search runs with ``jobs=1``.  An *operation* is one campaign, one
timing simulation, one cold search or one resume.

The repository has three engines, and each workload has one **primary
job** on one of them.  The primary job fills the measured run
(``--seconds``) with passes over its operation list (at least one
whole pass) and gives the workload's own end-to-end metrics.  The
result line must carry every end-to-end metric on every workload, so
the other two engines run as **probes**: a fixed, smaller operation
list, a fixed number of passes, whatever ``--seconds`` is.  Probe
passes and the set-up rounds are spread evenly over the run between
the primary job's operations (see :meth:`Bench.run`).  A probe's
figures are what a change aimed at another engine is expected to
leave unchanged.

Every reported time is a *scaled* time (see :mod:`reference`): host
seconds multiplied by the host's speed around the operation, as a
fixed reference kernel measured it.  The shared host this benchmark
was tuned on slows everything by up to a factor of two for seconds to
minutes at a time; scaling takes that out, host seconds are kept in
the record beside it.  A rate sums work and scaled time over the
operations of one pass list; where a configuration ran more than once
its median time counts, so a run that ends inside a pass does not
weigh the configurations differently.  The search figures are medians
over the run's cycles.
"""

from __future__ import annotations

import gc
import hashlib
import itertools
import json
import resource
import shutil
import statistics
import tempfile
import time
from dataclasses import dataclass, field

from reference import Meter
from repro.api import (
    Campaign,
    CampaignConfig,
    MetricsRegistry,
    Outcome,
    ProtectionSpec,
    ReliabilityManager,
    create_app,
    optimize,
)
from repro.runtime.cache import AppContext, app_context, clear_app_cache

#: Applications of the campaign and timing jobs (default scale).
STUDY_APPS = ("P-BICG", "A-SRAD", "A-Laplacian")
#: Timing probe: the two apps whose L1 misses rarely find a full MSHR.
PROBE_TIMING_APPS = ("A-SRAD", "A-Laplacian")
#: Application of the design-space search.
SEARCH_APP = "A-Laplacian"

#: Campaign configurations: ``(label, scheme, protect)``; ``"mixed"``
#: is resolved per app by :func:`mixed_spec`.
CAMPAIGN_CONFIGS = (
    ("baseline", "baseline", "none"),
    ("detection-hot", "detection", "hot"),
    ("correction-hot", "correction", "hot"),
    ("correction-all", "correction", "all"),
    ("mixed", None, "mixed"),
)
TIMING_CONFIGS = (
    ("baseline", "baseline", "none"),
    ("detection-hot", "detection", "hot"),
    ("correction-hot", "correction", "hot"),
    ("detection-all", "detection", "all"),
    ("mixed", None, "mixed"),
)
CAMPAIGN_BATCH = 64
#: Campaign run indices checked against the scalar ``run_one`` oracle,
#: as fractions of the campaign's run count.
ORACLE_SAMPLE = (0.0, 0.13, 0.29, 0.5, 0.71, 0.97)


@dataclass(frozen=True)
class Sizes:
    """How much work each job does."""

    scale: str = "default"
    #: runs per campaign in the primary campaign job / the probe
    campaign_runs: int = 512
    probe_campaign_runs: int = 128
    #: optimize() knobs of one primary search cycle / one probe cycle;
    #: the probe searches the small-scale app.  ``max_evals`` is below
    #: what every seed proposes, so each search evaluates the same
    #: number of design points.
    search: dict = field(default_factory=lambda: {
        "population": 4, "generations": 2, "runs": 64,
        "max_evals": 8})
    probe_search: dict = field(default_factory=lambda: {
        "population": 4, "generations": 2, "runs": 60, "max_evals": 8,
        "scale": "small"})
    #: passes over each probe list
    probe_passes: int = 5
    #: rounds of application set-up; ``setup_s`` is their median
    setup_rounds: int = 5


FULL = Sizes()
#: A run that checks the plumbing in seconds (the benchmark's tests).
SMOKE = Sizes(
    scale="small", campaign_runs=64, probe_campaign_runs=32,
    search={"population": 4, "generations": 1, "runs": 24},
    probe_search={"population": 4, "generations": 1, "runs": 16},
    probe_passes=1, setup_rounds=1,
)


@dataclass(frozen=True)
class Workload:
    name: str
    primary: str  # the engine that fills the run: campaigns|timing|search
    why: str


WORKLOADS = {
    w.name: w for w in (
        Workload(
            "sdc-study", "campaigns",
            "Batched campaigns (batch 64), P-BICG/A-SRAD/A-Laplacian x 5 "
            "configs: faults, kernels, metrics and core do the work; the "
            "mixed spec runs at scalar speed. 1 client, jobs=1.",
        ),
        Workload(
            "overhead-study", "timing",
            "simulate_performance x 5 configs on P-BICG (MSHR-retry bound "
            "at default scale), A-SRAD and A-Laplacian (low MSHR "
            "pressure): sim and arch do the work. Caches start empty.",
        ),
        Workload(
            "dse", "search",
            "Evolutionary optimize() on A-Laplacian with a store, then a "
            "resume against it: the only user of search, runtime.session "
            "and runtime.checkpoint. 1 client, jobs=1.",
        ),
    )
}


@dataclass
class Seeds:
    """Everything the workload seed decides."""

    fault: int
    app: int
    search: int

    @classmethod
    def from_seed(cls, seed: int) -> "Seeds":
        return cls(fault=20210621 + 7919 * seed, app=1234 + seed,
                   search=1000 * seed)


class Bench:
    """State of one benchmark invocation: operations, checks, results."""

    def __init__(self, workload: Workload, seed: int, seconds: float,
                 sizes: Sizes, workdir: str, tracer=None,
                 fill: bool = True):
        self.workload = workload
        self.seeds = Seeds.from_seed(seed)
        self.seconds = seconds
        self.sizes = sizes
        self.workdir = workdir
        self.tracer = tracer
        #: whether the primary job fills ``seconds``; a traced run and
        #: its untraced twin make one pass of every list instead
        self.fill = fill
        self.meter = Meter()
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.metrics: dict[str, tuple[float, str]] = {}
        self.layers: dict[str, tuple[float, str]] = {}
        #: the same figures in host seconds, unscaled (record only)
        self.host: dict[str, float] = {}
        self.digest: dict = {}
        #: ``(kind, label, interval)`` of every operation
        self.ops: list[tuple] = []
        self.managers: dict[str, ReliabilityManager] = {}
        self.campaign_registry = MetricsRegistry()
        self.sim_registry = MetricsRegistry()
        self.search_registry = MetricsRegistry()
        self.search_stats: dict = {}
        self.sim_host_s = 0.0
        self.sim_instructions = 0
        self.replica_transactions = 0

    # -- operations and checks ---------------------------------------
    def _job(self, kind: str) -> None:
        if self.tracer is not None:
            self.tracer.begin_job(kind)

    def operation(self, kind: str, label: str, fn):
        """Run one operation; return ``(result, interval)`` (see
        :meth:`reference.Meter.time`).

        An exception counts as a failed operation and gives ``None``.
        Every operation is logged in :attr:`ops`.
        """
        self.attempted += 1
        gc.collect()  # no operation pays for the garbage of the last one
        self._job(kind)
        try:
            result, interval = self.meter.time(fn)
        except Exception as exc:  # one failed operation, keep going
            self.fail(f"{kind}: {type(exc).__name__}: {exc}")
            return None, None
        finally:
            self._job("check")
        self.ops.append((kind, label, interval))
        return result, interval

    def times(self, intervals, scaled: bool = True) -> list[float]:
        """Scaled (or host) seconds of operation intervals."""
        return [self.meter.scaled(i) if scaled else self.meter.host_s(i)
                for i in intervals]

    def op_log(self) -> list:
        """:attr:`ops` with host and scaled seconds, for the record."""
        return [(kind, label, *self.times([i], False),
                 *self.times([i])) for kind, label, i in self.ops]

    def fail(self, message: str) -> None:
        self.failed += 1
        self.failures.append(message)

    def check(self, problems: list[str], what: str) -> None:
        """Count one failed operation when ``problems`` is not empty."""
        if problems:
            self.fail(f"{what}: " + "; ".join(problems))

    def manager(self, name: str) -> ReliabilityManager:
        if name not in self.managers:
            self.managers[name] = ReliabilityManager(create_app(
                name, scale=self.sizes.scale, seed=self.seeds.app))
        return self.managers[name]

    # -- the whole workload ---------------------------------------------
    def run(self) -> None:
        """Set up, then run the primary job and the probes (module doc).

        After the first set-up round the run makes one pass of every
        job, in a fixed order.  The peak resident memory is read there:
        it covers one pass of each job, what a process that runs each
        operation once needs, and not how many more passes the host's
        speed allowed.  Then the primary job makes more passes, with
        the other probe passes and set-up rounds spread evenly between
        its operations.  It stops at the first operation that would
        leave too little of ``seconds`` for the probe passes and set-up
        rounds still to come, at the pace of their last runs; those
        then run.
        """
        with self.meter:
            self._run()

    def _run(self) -> None:
        begin = time.perf_counter()
        setup = SetupJob(self)
        last_s: dict[tuple, float] = {}  # host time of a unit's last run

        def run_unit(key, unit):
            started = time.perf_counter()
            unit()
            last_s[key] = time.perf_counter() - started

        run_unit(("setup",), setup.round)  # builds what every job runs on
        jobs = {"campaigns": CampaignJob, "timing": TimingJob,
                "search": SearchJob}
        primary = jobs.pop(self.workload.primary)(self, primary=True)
        probes = [job(self, primary=False) for job in jobs.values()]
        for job in (primary, *probes):
            for key, unit in job.units(0):
                run_unit(key, unit)
        self.metrics["peak_rss_mb"] = (peak_rss_mb(), "MB")
        pending = []  # the other probe passes and set-up rounds
        for i in range(1, max(self.sizes.probe_passes,
                              self.sizes.setup_rounds) if self.fill else 1):
            if i < self.sizes.probe_passes:
                for probe in probes:
                    pending += probe.units(i)
            if i < self.sizes.setup_rounds:
                pending.append((("setup",), setup.round))
        start = time.perf_counter()
        gap_s = max(0.0, self.seconds - (start - begin)) / (len(pending) + 1)
        later = (u for n in itertools.count(1) for u in primary.units(n))
        done = 0
        for key, unit in later if self.fill else ():
            left_s = sum(last_s[k] for k, _ in pending[done:])
            if time.perf_counter() - begin + last_s[key] + left_s \
                    > self.seconds:
                break
            run_unit(key, unit)
            while done < len(pending) and \
                    time.perf_counter() - start >= gap_s * (done + 1):
                run_unit(*pending[done])
                done += 1
        for key, unit in pending[done:]:  # left no room between passes
            run_unit(key, unit)
        for job in (setup, primary, *probes):
            job.finish()

    def output_digest(self) -> str:
        text = json.dumps(self.digest, sort_keys=True)
        return hashlib.sha256(text.encode()).hexdigest()


def pass_rate(work: float, times: dict) -> float:
    """``work`` done by one pass over ``times``' keys, per second of
    their median times (keys that never ran are left out)."""
    spent = sum(statistics.median(t) for t in times.values() if t)
    return work / spent if spent else 0.0


class SetupJob:
    """Builds every app the jobs use, once per round.

    A round times ``create_app``, the trace, the access profile and the
    golden run of every app, the golden run through a fresh
    :class:`~repro.runtime.cache.AppContext` so that no round finds it
    cached; ``setup_s`` is the median of the rounds' scaled sums.  The
    first round's managers serve the jobs, and after it, untimed, the
    process-wide app cache is filled with the golden runs the jobs'
    campaigns look up.
    """

    def __init__(self, bench: Bench):
        self.bench = bench
        self.rounds: list[tuple[float, float]] = []

    def round(self) -> None:
        bench = self.bench
        managers = {}

        def build():
            for name in STUDY_APPS:
                app = create_app(name, scale=bench.sizes.scale,
                                 seed=bench.seeds.app)
                manager = ReliabilityManager(app)
                manager.trace
                manager.profile
                AppContext(app).golden
                managers[name] = manager

        gc.collect()
        bench._job("setup")
        _, interval = bench.meter.time(build)
        bench._job("check")
        self.rounds.append(interval)
        bench.ops.append(("setup", "round", interval))
        if len(self.rounds) == 1:
            bench.managers = managers
            clear_app_cache()
            for manager in managers.values():
                app_context(manager.app).golden

    def finish(self) -> None:
        bench = self.bench
        bench.metrics["setup_s"] = (
            statistics.median(bench.times(self.rounds)), "s")
        bench.host["setup_s"] = statistics.median(
            bench.times(self.rounds, scaled=False))


class CampaignJob:
    """Batched campaigns over every app and campaign configuration."""

    def __init__(self, bench: Bench, primary: bool):
        self.bench = bench
        self.runs = (bench.sizes.campaign_runs if primary
                     else bench.sizes.probe_campaign_runs)
        self.configs = [(app, label, scheme, protect)
                        for app in STUDY_APPS
                        for label, scheme, protect in CAMPAIGN_CONFIGS]
        self.intervals = {c[:2]: [] for c in self.configs}
        self.tallies: dict[tuple, dict] = {}
        self.oracles: dict[tuple, Campaign] = {}

    def units(self, n: int) -> list:
        return [(("campaign", *c[:2]),
                 lambda c=c: self.campaign(*c)) for c in self.configs]

    def campaign(self, app_name, label, scheme, protect) -> None:
        bench = self.bench
        manager = bench.manager(app_name)

        def build(batch):
            return Campaign(
                manager.app, manager.selection("access-weighted"),
                config=CampaignConfig(runs=self.runs,
                                      seed=bench.seeds.fault),
                keep_runs=batch > 1, batch=batch, jobs=1,
                metrics=bench.campaign_registry,
                **protection_of(manager, scheme, protect),
            )

        result, interval = bench.operation(
            "campaign", f"{app_name}.{label}",
            lambda: build(CAMPAIGN_BATCH).run())
        if result is None:
            return
        key = (app_name, label)
        self.intervals[key].append(interval)
        if key not in self.oracles:
            self.oracles[key] = build(1)
        bench.check(
            campaign_problems(result, self.runs, self.oracles[key],
                              self.tallies.setdefault(key, {})),
            f"campaign {app_name}/{label}")

    def finish(self) -> None:
        bench = self.bench
        work = self.runs * len(self.configs)
        for scaled in (True, False):
            times = {k: bench.times(v, scaled)
                     for k, v in self.intervals.items()}
            rate = pass_rate(work, times)
            if scaled:
                bench.metrics["campaign_runs_per_s"] = (rate, "runs/s")
                for (app_name, label), spent in times.items():
                    if spent:
                        bench.layers[
                            f"campaign_runs_per_s.{app_name}.{label}"] = (
                            self.runs / statistics.median(spent), "runs/s")
            else:
                bench.host["campaign_runs_per_s"] = rate
        bench.digest["campaigns"] = {
            f"{a}.{label}": {o.value: n for o, n in t.items()}
            for (a, label), t in self.tallies.items()}


class TimingJob:
    """``simulate_performance`` over every timing configuration; the
    primary job simulates all three study apps, the probe the two with
    low MSHR pressure."""

    def __init__(self, bench: Bench, primary: bool):
        self.bench = bench
        apps = STUDY_APPS if primary else PROBE_TIMING_APPS
        self.configs = [(app, label, scheme, protect)
                        for app in apps
                        for label, scheme, protect in TIMING_CONFIGS]
        self.intervals = {c[:2]: [] for c in self.configs}
        self.reports: dict[tuple, object] = {}

    def units(self, n: int) -> list:
        return [(("simulate", *c[:2]),
                 lambda c=c: self.simulate(*c)) for c in self.configs]

    def simulate(self, app_name, label, scheme, protect, kind="simulate"):
        bench = self.bench
        manager = bench.manager(app_name)
        how = protection_of(manager, scheme, protect)
        spec = how.get("protection") or ProtectionSpec.uniform(
            how["scheme"], how["protect"])
        # The repeat check counts into a registry of its own, so the
        # registry's counters cover the same simulations as the spans.
        registry = (bench.sim_registry if kind == "simulate"
                    else MetricsRegistry())
        report, interval = bench.operation(
            kind, f"{app_name}.{label}",
            lambda: manager.simulate_performance(
                "baseline", spec, metrics=registry))
        if report is None or kind != "simulate":
            return report
        key = (app_name, label)
        self.intervals[key].append(interval)
        bench.replica_transactions += report.replica_transactions
        first = self.reports.setdefault(key, report)
        if report != first:
            bench.fail(f"simulate {app_name}/{label}: stats differ "
                       "between two runs of one config")
        return report

    def finish(self) -> None:
        bench = self.bench
        # The repeat rule on one config, also when the job made one pass.
        app_name, label, scheme, protect = self.configs[-1]
        key = (app_name, label)
        again = self.simulate(app_name, label, scheme, protect,
                              kind="check")
        if again is not None and key in self.reports \
                and again != self.reports[key]:
            bench.fail(f"simulate {app_name}/{label}: repeat differs")
        bench.check(timing_problems(self.reports), "simulate checks")
        ran = [k for k, v in self.intervals.items() if v]
        instructions = sum(self.reports[k].instructions for k in ran)
        bench.sim_instructions = instructions
        for scaled in (True, False):
            times = {k: bench.times(self.intervals[k], scaled)
                     for k in ran}
            rate = pass_rate(instructions, times)
            if scaled:
                bench.metrics["sim_instructions_per_s"] = (rate, "instr/s")
            else:
                bench.host["sim_instructions_per_s"] = rate
                bench.sim_host_s = instructions / rate if rate else 0.0
        for (app_name, label), report in self.reports.items():
            base = self.reports.get((app_name, "baseline"))
            if base is not None and label != "baseline":
                bench.layers[f"sim.overhead_pct.{app_name}.{label}"] = (
                    100.0 * (report.slowdown_vs(base) - 1.0), "%")
        bench.digest["timing"] = {
            f"{a}.{label}": [r.cycles, r.instructions, r.l1_accesses,
                             r.dram_requests, r.replica_transactions]
            for (a, label), r in sorted(self.reports.items())}


class SearchJob:
    """Cycles of one cold ``optimize()`` and one resume against its
    store; cycle ``n`` uses search seed ``seeds.search + n``, so a run
    averages over several searches instead of hanging on one."""

    def __init__(self, bench: Bench, primary: bool):
        self.bench = bench
        self.knobs = (bench.sizes.search if primary
                      else bench.sizes.probe_search)
        self.evaluations: list[int] = []  # per cycle
        self.cold: list[tuple[float, float]] = []  # intervals
        self.resume: list[tuple[float, float]] = []

    def units(self, n: int) -> list:
        return [(("search",), lambda: self.cycle(n))]

    def cycle(self, n: int) -> None:
        store = tempfile.mkdtemp(prefix="search-", dir=self.bench.workdir)
        try:
            cold, cold_at = self.search("search.cold", store, n, False)
            warm, warm_at = (self.search("search.resume", store, n, True)
                             if cold else (None, None))
        finally:
            shutil.rmtree(store, ignore_errors=True)
        if warm is None:
            return
        self.evaluations.append(len(cold.evaluations))
        self.cold.append(cold_at)
        self.resume.append(warm_at)
        self.bench.check(search_problems(cold, warm), "search resume")
        if n == 0:
            self.bench.search_stats = dict(cold.stats)
            self.bench.digest["search"] = {
                "front": [e.digest for e in cold.front],
                "best": None if cold.best is None else cold.best.digest,
                "evaluations": len(cold.evaluations),
            }

    def search(self, kind: str, store: str, n: int, resume: bool):
        """One ``optimize()`` operation: ``(result, interval)``."""
        bench = self.bench
        clear_app_cache()  # each search starts like a new process
        # A registry of its own: optimize() reads its chunk counts back
        # from the registry it is given.
        registry = MetricsRegistry()
        outcome = bench.operation(
            kind, f"{SEARCH_APP}.{bench.seeds.search + n}",
            lambda: optimize(
                **{"scale": bench.sizes.scale, **self.knobs},
                app=SEARCH_APP, strategy="evolutionary",
                app_seed=bench.seeds.app, seed=bench.seeds.fault,
                search_seed=bench.seeds.search + n,
                store=store, resume=resume, jobs=1, batch=CAMPAIGN_BATCH,
                max_overhead=0.02, metrics=registry))
        bench.search_registry.merge(registry)
        return outcome

    def finish(self) -> None:
        bench = self.bench
        for scaled in (True, False):
            rates = [n / s for n, s in zip(self.evaluations,
                                           bench.times(self.cold, scaled))]
            resume = bench.times(self.resume, scaled)
            evals_per_s = statistics.median(rates) if rates else 0.0
            resume_s = statistics.median(resume) if resume else 0.0
            if scaled:
                bench.metrics["optimize_evals_per_s"] = (evals_per_s,
                                                         "evals/s")
                bench.metrics["optimize_resume_s"] = (resume_s, "s")
            else:
                bench.host["optimize_evals_per_s"] = evals_per_s
                bench.host["optimize_resume_s"] = resume_s


# ----------------------------------------------------------------------
def mixed_spec(manager: ReliabilityManager) -> ProtectionSpec:
    """Hot objects under correction, the first cold object under
    detection (the per-object mix a partial-protection search makes)."""
    order = manager.app.object_importance
    hot = [n for n in order if n in manager.app.hot_object_names]
    cold = [n for n in order if n not in manager.app.hot_object_names]
    parts = [f"{n}=correction" for n in hot] + [f"{cold[0]}=detection"]
    return ProtectionSpec.parse(",".join(parts))


def protection_of(manager, scheme, protect) -> dict:
    """Campaign keyword arguments for one configuration."""
    if protect == "mixed":
        return {"protection": mixed_spec(manager)}
    return {"scheme": scheme, "protect": manager.protected_names(protect)}


def campaign_problems(result, runs: int, oracle: Campaign,
                      first_tallies: dict) -> list[str]:
    """Tallies sum to runs, repeat across passes, and sampled runs
    match the scalar ``run_one`` oracle."""
    problems = []
    if result.n_runs != runs:
        problems.append(f"tallies sum to {result.n_runs}, not {runs}")
    if first_tallies and dict(result.counts) != first_tallies:
        problems.append("tallies differ from the first pass")
    first_tallies.update(result.counts)
    by_index = {r.run_index: r for r in result.runs}
    for fraction in ORACLE_SAMPLE:
        index = min(runs - 1, int(fraction * runs))
        if by_index.get(index) != oracle.run_one(index):
            problems.append(f"run {index} differs from run_one")
    return problems


def timing_problems(reports: dict) -> list[str]:
    """Model invariants over one job's simulation reports."""
    problems = []
    per_app: dict[str, set] = {}
    for (app_name, label), report in reports.items():
        per_app.setdefault(app_name, set()).add(report.instructions)
        if label == "baseline" and report.replica_transactions:
            problems.append(f"{app_name} baseline has replica traffic")
        if report.l1_hits > report.l1_accesses \
                or report.l2_hits > report.l2_accesses:
            problems.append(f"{app_name}/{label}: hits exceed accesses")
    for app_name, counts in per_app.items():
        if len(counts) != 1:
            problems.append(f"{app_name}: instruction count varies "
                            "with protection")
    return problems


def search_problems(cold, warm) -> list[str]:
    """The resume returns the cold front and best and executes no
    campaign chunk."""
    problems = []
    if [e.digest for e in warm.front] != [e.digest for e in cold.front]:
        problems.append("resume returned another front")
    if (warm.best and warm.best.digest) != (cold.best and cold.best.digest):
        problems.append("resume returned another best")
    if warm.stats.get("chunks_executed", 0) != 0:
        problems.append(f"resume executed {warm.stats['chunks_executed']}"
                        " chunks")
    return problems


def peak_rss_mb() -> float:
    """Peak resident memory of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def outcome_names() -> list[str]:
    return [o.value for o in Outcome]


def app_classes(names) -> list[type]:
    return [type(create_app(n, scale="small")) for n in names]
