"""Conservation laws of the timing model.

Each law is checked on an untraced and a traced simulation: both
modes run the same hot-path bodies, and tracing may only observe the
simulation, never steer it.

* every load transaction of the trace reaches the L1 exactly once
  (structural-stall retries are not recounted);
* every store transaction goes below L1 exactly once;
* replication issues one extra read per copy on each true miss of a
  protected object — none at baseline, one per miss under
  detection/all, two under correction/all;
* MSHR files too large to fill never stall a load.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.arch.config import PAPER_CONFIG
from repro.kernels.registry import create_app
from repro.kernels.trace import Load, Store
from repro.obs.trace import TraceConfig, TraceSession
from repro.sim.simulator import simulate_app

APPS = ("P-BICG", "A-Laplacian")
MODES = ("untraced", "traced")
#: Extra copies per true miss of a protected object.
EXTRA_COPIES = {"baseline": 0, "detection": 1, "correction": 2}


def _transactions(trace, kind) -> int:
    return sum(
        len(inst.addrs)
        for kernel in trace.kernels
        for warp in kernel.iter_warps()
        for inst in warp.insts
        if isinstance(inst, kind)
    )


@pytest.fixture(scope="module")
def apps():
    out = {}
    for name in APPS:
        app = create_app(name, scale="small")
        memory = app.fresh_memory()
        out[name] = (app, memory, app.build_trace(memory))
    return out


def _simulate(case, mode: str, scheme: str = "baseline",
              config=PAPER_CONFIG):
    app, memory, trace = case
    protect = () if scheme == "baseline" else tuple(app.object_importance)
    tracer = TraceSession(TraceConfig()) if mode == "traced" else None
    return simulate_app(app, trace=trace, memory=memory, config=config,
                        scheme_name=scheme, protected_names=protect,
                        tracer=tracer)


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("app", APPS)
class TestTimingInvariants:
    @pytest.mark.parametrize("scheme", sorted(EXTRA_COPIES))
    def test_l1_sees_each_load_transaction_once(self, apps, app, mode,
                                                scheme):
        report = _simulate(apps[app], mode, scheme)
        assert report.l1_accesses == _transactions(apps[app][2], Load)

    def test_each_store_transaction_goes_below_l1_once(self, apps, app,
                                                       mode):
        report = _simulate(apps[app], mode)
        assert report.store_transactions \
            == _transactions(apps[app][2], Store)

    @pytest.mark.parametrize("scheme", sorted(EXTRA_COPIES))
    def test_replicas_per_true_miss(self, apps, app, mode, scheme):
        report = _simulate(apps[app], mode, scheme)
        assert report.demand_misses > 0
        assert report.replica_transactions \
            == EXTRA_COPIES[scheme] * report.demand_misses

    def test_unbounded_mshrs_never_stall(self, apps, app, mode):
        config = dataclasses.replace(
            PAPER_CONFIG, l1_mshr_entries=1 << 20,
            l1_mshr_max_merged=1 << 20)
        report = _simulate(apps[app], mode, "detection", config)
        assert report.stalls.mshr_full == 0
