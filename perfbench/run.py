"""The repository's benchmark: one workload, one seed, one JSON result.

Run it from the root of a checkout::

    python3 perfbench/run.py --workload sdc-study --seed 1 \\
        --seconds 35 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off.  Their
times are host seconds scaled by the host's speed around each
operation (see ``reference.py``); the unscaled figures are kept in the
record file.
``--trace 1`` runs every operation list once untraced and once with
spans recorded around each layer's public calls, and reports the
per-layer metrics plus the tracing overhead (traced minus untraced
wall time).  The last line of standard output is the result object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The line before it gives the workload's output digest (campaign
tallies, simulated cycles, the first search cycle's front), which
repeats exactly for one seed on one commit.  A full record, ingestible by
``repro db ingest`` as a ``bench`` snapshot, and, for a traced run,
the kept spans are written under ``.perfbench_out/`` in the checkout.

The program under test is imported from ``src/`` of the checkout and
from nowhere else: without it the benchmark exits with status 1
before measuring anything.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import shutil
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")


def _import_program() -> None:
    """Put the checkout's ``src/`` first on the path and check that
    ``repro`` really comes from there."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise SystemExit(f"perfbench: no program at {SRC}")
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import repro

    where = os.path.dirname(os.path.abspath(repro.__file__))
    if where != os.path.join(SRC, "repro"):
        raise SystemExit(f"perfbench: repro imported from {where}")
    from repro.obs import log

    log.configure(quiet=True)


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run_benchmark(workload: str, seed: int, seconds: float, trace: int,
                  smoke: bool = False, out_dir: str = OUT_DIR) -> dict:
    """Run one workload; return the full record (see module doc)."""
    from layers import END_TO_END, per_layer
    from tracing import Tracer
    from workloads import (
        FULL, SMOKE, STUDY_APPS, WORKLOADS, Bench, app_classes,
    )

    if workload not in WORKLOADS:
        raise SystemExit(f"perfbench: unknown workload {workload!r} "
                         f"(choose from {', '.join(WORKLOADS)})")
    spec = WORKLOADS[workload]
    sizes = SMOKE if smoke else FULL
    os.makedirs(out_dir, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=out_dir)
    tag = f"{workload}-seed{seed}-trace{trace}"
    try:
        def execute(tracer=None, fill=True):
            bench = Bench(spec, seed, seconds, sizes, workdir,
                          tracer=tracer, fill=fill)
            begin = time.perf_counter()
            bench.run()
            return bench, time.perf_counter() - begin

        if not trace:
            bench, wall_s = execute()
            metrics = {name: bench.metrics[name] for name, _ in END_TO_END}
            untraced = None
        else:
            untraced, untraced_s = execute(fill=False)
            tracer = Tracer()
            tracer.install(app_classes(STUDY_APPS))
            try:
                bench, wall_s = execute(tracer=tracer, fill=False)
            finally:
                tracer.uninstall()
            metrics = per_layer(bench, untraced, tracer, wall_s,
                                untraced_s)
            tracer.write(os.path.join(out_dir, f"spans-{tag}.json"))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = bench.failed + (untraced.failed if untraced else 0)
    attempted = bench.attempted + (untraced.attempted if untraced else 0)
    record = {
        "benchmark": "perfbench",
        "workload": workload,
        "why": spec.why,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "smoke": smoke,
        "clients": 1,
        "jobs": 1,
        "nproc": os.cpu_count(),
        "caches": "empty at start; every simulation starts with empty "
                  "caches",
        "timing_model": "unvalidated against hardware; no accuracy "
                        "figure is given",
        "loop": "closed, one client, jobs=1 (--jobs arms would measure "
                "overhead, not scaling, on a small host)",
        "wall_s": wall_s,
        "scaling": "times are host seconds scaled by the host speed a "
                   "fixed reference kernel measured around each "
                   "operation; host_metrics holds them unscaled",
        "reference_calls": len(bench.meter.samples),
        "reference_s": bench.meter.reference_s,
        "host_metrics": bench.host,
        "operations": bench.op_log(),
        "digest": bench.output_digest(),
        "outputs": bench.digest,
        "failures": bench.failures + (untraced.failures if untraced
                                      else []),
        "result": {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()},
        },
    }
    with open(os.path.join(out_dir, f"BENCH_perfbench-{tag}.json"), "w",
              encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    return record


#: ``personality(2)`` flag that turns address-space randomization off.
ADDR_NO_RANDOMIZE = 0x0040000


def _fixed_address_layout() -> None:
    """Re-execute this script once with address-space randomization
    off, where Linux allows it.

    With randomization on, where the kernel places the heap decides
    whether the allocator can return freed memory, and the peak
    resident memory of identical runs falls in one of two modes 20 MB
    apart.  With it off, every run lays memory out alike.
    """
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        personality = libc.personality
    except (OSError, AttributeError):
        return
    personality.argtypes = [ctypes.c_ulong]
    personality.restype = ctypes.c_int
    current = personality(0xFFFFFFFF)  # reads the flags, changes nothing
    if current == -1 or current & ADDR_NO_RANDOMIZE:
        return
    if personality(current | ADDR_NO_RANDOMIZE) == -1:
        return
    os.execv(sys.executable, [sys.executable, os.path.abspath(__file__),
                              *sys.argv[1:]])


def main(argv=None) -> int:
    args = parse_args(argv)
    if argv is None:
        _fixed_address_layout()
    _import_program()
    record = run_benchmark(args.workload, args.seed, args.seconds,
                           args.trace)
    for failure in record["failures"]:
        print(f"perfbench: failed: {failure}", file=sys.stderr)
    print(f"digest {record['workload']} {record['digest']}")
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
