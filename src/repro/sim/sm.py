"""Streaming multiprocessor model: CTA residency and warp issue.

Each SM keeps a queue of CTAs assigned to it, admits them up to the
``max_ctas_per_sm``/``max_warps_per_sm`` limits, and every cycle
issues up to ``issue_width`` warp-instructions round-robin across
ready resident warps.  When no warp can issue, the SM's clock jumps to
the earliest warp-resume time — the event-driven shortcut that keeps
simulation cost proportional to work, not to cycles.
"""

from __future__ import annotations

from repro.arch.config import GpuConfig
from repro.kernels.trace import Compute, CtaTrace, Load, Store
from repro.sim.ldst import LdstUnit, SimStats
from repro.sim.warp import WarpRunner

_FAR_FUTURE = 1 << 62


class _ResidentCta:
    __slots__ = ("warps", "remaining")

    def __init__(self, cta: CtaTrace):
        self.warps = [WarpRunner(w) for w in cta.warps]
        self.remaining = sum(1 for w in self.warps if not w.done)


class SmCore:
    """One SM: CTA admission, warp scheduling, LD/ST issue."""

    def __init__(
        self,
        sm_id: int,
        config: GpuConfig,
        ldst: LdstUnit,
        stats: SimStats,
    ):
        self.sm_id = sm_id
        self.config = config
        self.ldst = ldst
        self.stats = stats
        self.cycle = 0
        self._cta_queue: list[CtaTrace] = []
        self._resident: list[_ResidentCta] = []
        self._warps: list[WarpRunner] = []
        self._warp_cta: dict[int, _ResidentCta] = {}
        self._rr = 0
        #: Trace session and its emission sites (see
        #: :meth:`_attach_tracer`); no session when untraced.
        self._session = None
        self._pid = 0
        self._stall_sites: dict[tuple[str, int], int] = {}
        self._slots_args: tuple[tuple[int], ...] = ()
        self._record_issue = None
        self._record_stall = None

    # ------------------------------------------------------------------
    # Kernel orchestration
    # ------------------------------------------------------------------
    def start_kernel(self, ctas: list[CtaTrace], start_cycle: int) -> None:
        """Queue this SM's share of a kernel's CTAs."""
        if self._warps or self._cta_queue:
            raise RuntimeError(f"SM{self.sm_id} still busy")
        self.cycle = max(self.cycle, start_cycle)
        self._cta_queue = list(ctas)
        self._rr = 0
        self._admit()

    def _admit(self) -> None:
        while self._cta_queue:
            cta = self._cta_queue[0]
            if len(self._resident) >= self.config.max_ctas_per_sm:
                return
            if len(self._warps) + len(cta.warps) \
                    > self.config.max_warps_per_sm:
                # Admit at least one CTA even if oversized, otherwise a
                # CTA larger than the warp limit would deadlock.
                if self._warps:
                    return
            self._cta_queue.pop(0)
            resident = _ResidentCta(cta)
            self._resident.append(resident)
            for warp in resident.warps:
                if not warp.done:
                    warp.resume_time = self.cycle
                    self._warps.append(warp)
                    self._warp_cta[id(warp)] = resident
                    if self._session is not None:
                        warp.issue_site = self._session.site(
                            "warp", "issue", self._pid, warp.warp_id,
                            ph="i", argkeys=("slots",))

    @property
    def active(self) -> bool:
        return bool(self._warps or self._cta_queue)

    # ------------------------------------------------------------------
    # Cycle execution
    # ------------------------------------------------------------------
    def step(self) -> None:
        """Issue at the current cycle, then advance the local clock."""
        slots = self.config.issue_width
        n = len(self._warps)
        issued_any = False
        retired = False
        scanned = 0
        while slots > 0 and scanned < n:
            warp = self._warps[(self._rr + scanned) % n]
            scanned += 1
            if warp.done or warp.resume_time > self.cycle:
                continue
            used = self._issue(warp, slots)
            if used:
                issued_any = True
                slots -= used
            if warp.done:
                retired = True
        if retired:
            self._retire()
            n = len(self._warps)
        if n:
            self._rr = (self._rr + 1) % max(n, 1)

        if not self.active:
            return
        if issued_any:
            self.cycle += 1
            return
        # Nothing could issue: jump to the earliest resume time.
        next_time = _FAR_FUTURE
        for warp in self._warps:
            if not warp.done and warp.resume_time < next_time:
                next_time = warp.resume_time
        self.cycle = max(self.cycle + 1, next_time)

    def _issue(self, warp: WarpRunner, slots: int) -> int:
        """Issue up to ``slots`` instructions of ``warp``; returns the
        slots used.

        Traced, a stall emits a span on the warp's thread track (always
        kept — stalls are the structural events the overhead analysis
        is about) and an issue emits a (sampled) instant.  The stall
        reason is the branch taken for compute waits and the LD/ST
        unit's ``last_stall_reason`` for structural stalls.
        """
        cycle = self.cycle
        stats = self.stats
        inst = warp.current()
        if isinstance(inst, Compute):
            if inst.wait and warp.outstanding_max > cycle:
                stats.stalls.memory_wait += 1
                warp.resume_time = warp.outstanding_max
                if self._session is not None:
                    self._stall_span("memory_wait", warp, cycle, None)
                return 0
            if inst.wait:
                warp.outstanding_max = 0
            if warp.compute_remaining == 0:
                warp.compute_remaining = inst.count
            used = min(slots, warp.compute_remaining)
            warp.compute_remaining -= used
            stats.instructions += used
            if warp.compute_remaining == 0:
                warp.advance()
        elif isinstance(inst, Load):
            load = self.ldst.load
            addrs = inst.addrs
            n = len(addrs)
            used = 0
            while warp.txn_index < n and used < slots:
                ready, stall_until = load(cycle, inst.obj,
                                          addrs[warp.txn_index])
                if stall_until is not None:
                    warp.resume_time = max(stall_until, cycle + 1)
                    session = self._session
                    if session is not None:
                        reason = session.last_stall_reason
                        session.last_stall_reason = None
                        self._stall_span(reason, warp, cycle, inst.obj)
                    return used
                used += 1
                warp.txn_index += 1
                stats.instructions += 1
                if ready > warp.outstanding_max:
                    warp.outstanding_max = ready
            if warp.txn_index >= n:
                warp.advance()
                if self._session is not None:
                    # Every address of a load issues exactly once, so
                    # crediting at completion counts issued loads.
                    self._session.object_stats[inst.obj].loads += n
        elif isinstance(inst, Store):
            store = self.ldst.store
            addrs = inst.addrs
            n = len(addrs)
            used = 0
            while warp.txn_index < n and used < slots:
                store(cycle, addrs[warp.txn_index])
                used += 1
                warp.txn_index += 1
                stats.instructions += 1
            if warp.txn_index >= n:
                warp.advance()
        else:
            raise TypeError(f"unknown instruction {inst!r}")
        if self._session is not None and used:
            self._record_issue((warp.issue_site, cycle, 0, None,
                                self._slots_args[used]))
        return used

    # ------------------------------------------------------------------
    # Cycle-level tracing
    # ------------------------------------------------------------------
    def _attach_tracer(self, tracer) -> None:
        """Hand this SM (and its LD/ST unit) a trace session; warp
        events go on per-warp thread tracks of this SM's process."""
        from repro.obs.trace import PID_SM_BASE, TID_LDST

        self._pid = PID_SM_BASE + self.sm_id
        tracer.register_track(self._pid, f"SM {self.sm_id}", TID_LDST,
                              "LD/ST")
        self.ldst._attach_tracer(tracer, self._pid)
        # Stall sites are interned on first use, issue sites when a
        # warp is admitted; ``used`` never exceeds the issue width, so
        # every issue instant's args tuple is interned here.
        self._slots_args = tuple(
            (i,) for i in range(self.config.issue_width + 1))
        self._record_issue = tracer.recorder("warp")
        self._record_stall = tracer.recorder("warp", sampled=False)
        self._session = tracer

    def _stall_span(self, reason: str, warp, cycle: int, obj) -> None:
        # A stalled warp has not advanced, so its current instruction
        # names the object it is blocked on.
        key = (reason, warp.warp_id)
        sid = self._stall_sites.get(key)
        if sid is None:
            sid = self._session.site("warp", "stall:" + reason, self._pid,
                                     warp.warp_id)
            self._stall_sites[key] = sid
        self._record_stall((sid, cycle, max(warp.resume_time - cycle, 1),
                            obj, None))

    def _retire(self) -> None:
        finished_ctas = set()
        for warp in self._warps:
            if warp.done:
                resident = self._warp_cta.pop(id(warp), None)
                if resident is not None:
                    resident.remaining -= 1
                    if resident.remaining == 0:
                        finished_ctas.add(id(resident))
        self._warps = [w for w in self._warps if not w.done]
        if finished_ctas:
            self._resident = [
                r for r in self._resident if id(r) not in finished_ctas
            ]
            self._admit()
