"""qhcalc benchmark: one seeded, single-process run of one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a qhcalc checkout; the program is imported from ``src/``.
A run repeats sweeps of the workload's jobs for about ``--seconds`` seconds.
Each sweep starts from a fresh import of ``qhcalc`` (empty caches).  The first
sweep's results are checked against independent oracles; every later sweep
must reproduce them exactly.  Between sweeps, an untraced run times set-ups
in fresh interpreters (``setup_s``).  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics`` -- the
end-to-end metrics with ``--trace 0``, the per-layer metrics of a traced run
with ``--trace 1``.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

from reference import Speedometer
from tracing import LAYER_METRICS, MissingHook, Tracer
from workloads import KNOWN_DEFECTS, WORKLOADS, Failure, JobError, fresh_import

PERFBENCH = Path(__file__).resolve().parent
ROOT = PERFBENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
END_TO_END = {"setup_s": "s", "wall_s": "s", "job_p50_ms": "ms", "job_p90_ms": "ms",
              "peak_rss_mb": "MB"}
SETUPS = 15  # set-ups timed per untraced run, spread over its length


def plain(x):
    """A plain-data copy of a result, independent of module identity."""
    if dataclasses.is_dataclass(x) and not isinstance(x, type):
        return (type(x).__name__,) + tuple(plain(getattr(x, f.name)) for f in dataclasses.fields(x))
    if isinstance(x, (list, tuple)):
        return tuple(plain(v) for v in x)
    return x


def digest(result):
    """A short fingerprint of a result, so that later sweeps can be compared
    with the checked first one without holding its results in memory."""
    return hashlib.blake2b(repr(plain(result)).encode(), digest_size=16).digest()


def time_setup(workload, seed, tmp):
    """One setup_s sample: a fresh interpreter, timed from its start until
    setup_child.py has imported qhcalc, made the inputs and reached the first job."""
    start = perf_counter()
    with subprocess.Popen([sys.executable, str(PERFBENCH / "setup_child.py"), workload.name,
                           str(seed), str(tmp)], stdout=subprocess.PIPE, text=True) as proc:
        ready = proc.stdout.readline()
        elapsed = perf_counter() - start
        proc.stdout.read()
    if proc.returncode != 0 or ready.strip() != "ready":
        raise RuntimeError(f"set-up of {workload.name} exited {proc.returncode}")
    return elapsed


def sweep(workload, seed, ctx, traced):
    """One pass over the workload's jobs; returns timings and (job, result) records."""
    qh = fresh_import(workload.uses_cli)
    tracer = Tracer() if traced else None
    if tracer:
        tracer.install()
    ctx.tracer = tracer
    spec = workload.generate(seed)
    jobs = workload.sweep(qh, spec, ctx)
    job = next(jobs, None)
    records, times, speed, ref_s = [], [], Speedometer(), 0.0
    start = perf_counter()
    while job is not None:
        if tracer:
            tracer.job, tracer.active = len(records), True
        t = perf_counter()
        try:
            result = job.run()
        except Exception as exc:  # a raising job is a failed job, not a failed run
            result = JobError(f"{type(exc).__name__}: {exc}")
        times.append(perf_counter() - t)
        if tracer:
            tracer.active = False
        ref_s += speed.after(times[-1])
        records.append((job, result))
        try:
            job = jobs.send(result)
        except StopIteration:
            job = None
    wall_s = perf_counter() - start - ref_s
    return SimpleNamespace(qh=qh, spec=spec, records=records, times=times, wall_s=wall_s,
                           factor=speed.factor(), tracer=tracer)


def run(workload, seed, seconds, trace):
    """Sweeps for about ``seconds``; an untraced run also times SETUPS set-ups,
    a few after each sweep, so that they sample the whole run."""
    ctx = SimpleNamespace(src=SRC, tmp=ROOT / ".perfbench_tmp" / f"{workload.name}-{os.getpid()}",
                          env=dict(os.environ), tracer=None)
    start = perf_counter()
    sweeps, durations, setups, reference, failures = [], [], [], None, []
    unexpected, peak_rss_mb, setup_speed = 0, None, Speedometer()
    try:
        while True:
            t = perf_counter()
            s = sweep(workload, seed, ctx, bool(trace))
            durations.append(perf_counter() - t)
            canon = [digest(res) for _, res in s.records]
            if reference is None:
                failures = workload.check(s.qh, s.spec, s.records) + [
                    Failure(i, f"raised {res.error}")
                    for i, (_, res) in enumerate(s.records) if isinstance(res, JobError)]
                bad = {f.job for f in failures}
                unexpected += len({f.job for f in failures if f.defect is None})
                reference = (canon, bad)
                s.failed = len(bad)
                # The CLI children of one sweep, before any set-up child is reaped;
                # every sweep runs the same commands.
                usage = resource.getrusage(
                    resource.RUSAGE_CHILDREN if workload.uses_cli else resource.RUSAGE_SELF)
                peak_rss_mb = usage.ru_maxrss / 1024
            else:
                ref, bad = reference
                differ = {i for i in range(max(len(ref), len(canon)))
                          if i >= len(ref) or i >= len(canon) or ref[i] != canon[i]}
                unexpected += len(differ)
                s.failed = len(bad | differ)
            s.layers = s.tracer.layer_metrics() if s.tracer else None
            if s.tracer:  # keep the spans of the last traced sweep only
                for earlier in sweeps:
                    earlier.tracer = None
            s.qh = s.records = s.spec = None  # free the sweep's program objects
            sweeps.append(s)
            elapsed = perf_counter() - start
            while not trace and len(setups) < SETUPS * min(1.0, elapsed / seconds):
                setups.append(time_setup(workload, seed, ctx.tmp / "setup"))
                setup_speed.after(setups[-1])
            elapsed = perf_counter() - start
            if elapsed + statistics.median(durations) > seconds:
                break
        while not trace and len(setups) < SETUPS:
            setups.append(time_setup(workload, seed, ctx.tmp / "setup"))
            setup_speed.after(setups[-1])
    finally:
        shutil.rmtree(ctx.tmp, ignore_errors=True)
        try:
            ctx.tmp.parent.rmdir()
        except OSError:  # another run still uses it
            pass
    return SimpleNamespace(sweeps=sweeps, setups=setups, peak_rss_mb=peak_rss_mb,
                           setup_factor=setup_speed.factor() if setups else None,
                           failures=failures, unexpected=unexpected)


def end_to_end(r, correct=True):
    """The end-to-end metrics; with ``correct`` every time is scaled by the
    host-speed factor measured alongside it (see reference.py)."""
    def scale(factor):
        return factor if correct else 1.0
    times = [t * scale(s.factor) for s in r.sweeps for t in s.times]
    deciles = statistics.quantiles(times, n=10)
    return {
        "setup_s": statistics.median(r.setups) * scale(r.setup_factor),
        "wall_s": statistics.median(s.wall_s * scale(s.factor) for s in r.sweeps),
        "job_p50_ms": 1000 * statistics.median(times),
        "job_p90_ms": 1000 * deciles[8],
        "peak_rss_mb": r.peak_rss_mb,
    }


def per_layer(workload, seed, r):
    metrics = {m: statistics.median(s.layers[m] for s in r.sweeps)
               for m in LAYER_METRICS if m in r.sweeps[0].layers}
    tracer = r.sweeps[-1].tracer
    metrics["trace.overhead_s"] = tracer.overhead_s()
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"trace-{workload.name}-{seed}.json", "w") as fh:
        json.dump({"workload": workload.name, "seed": seed,
                   "columns": ["name", "start", "end", "parent", "job"], "spans": tracer.spans}, fh)
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "qhcalc" / "__init__.py").is_file():
        print(f"no qhcalc sources under {SRC}; run from the root of a qhcalc checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # One CPU for the run and the processes it starts, so that the reference
    # chunks (reference.py) time the CPU the timed work ran on.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    workload = WORKLOADS[args.workload]
    try:
        r = run(workload, args.seed, args.seconds, args.trace)
    except MissingHook as exc:
        print(f"{exc}; update HOOKS in perfbench/tracing.py", file=sys.stderr)
        return 3
    sweeps = r.sweeps
    attempted = sum(len(s.times) for s in sweeps)
    failed = sum(s.failed for s in sweeps)
    if args.trace:
        metrics = per_layer(workload, args.seed, r)
        units = LAYER_METRICS
    else:
        metrics = end_to_end(r)
        units = END_TO_END
    print(f"{workload.name} seed {args.seed}: {len(sweeps)} sweeps, {attempted} jobs "
          f"({len(sweeps[0].times)} per sweep)")
    samples = {} if args.trace else {
        "setup_s": f"median of {len(r.setups)} set-ups", "wall_s": f"median of {len(sweeps)} sweeps",
        "job_p50_ms": f"of {attempted} jobs", "job_p90_ms": f"of {attempted} jobs"}
    for name, value in metrics.items():
        print(f"  {name:42} {value:14.6f} {units[name]:6} {samples.get(name, '')}")
    if not args.trace:
        raw = end_to_end(r, correct=False)
        print(f"  host speed factor {statistics.median(s.factor for s in sweeps):.4f} "
              f"(median over sweeps), {r.setup_factor:.4f} (set-ups); uncorrected: "
              + ", ".join(f"{name} {raw[name]:.6g}" for name in ("setup_s", "wall_s", "job_p50_ms",
                                                                 "job_p90_ms")))
    print(f"  {'failed_ratio':42} {failed / attempted:14.6f} {'1':6} {failed} of {attempted} jobs, "
          f"{r.unexpected} not a known defect")
    for defect in KNOWN_DEFECTS:
        hits = sum(1 for f in r.failures if f.defect == defect)
        if hits:
            print(f"  known defect {defect}: {hits} jobs per sweep")
    for f in r.failures[:20]:
        print(f"  failed job {f.job}: {f.message}" + (f" [{f.defect}]" if f.defect else ""))
    print(json.dumps({
        "correct": r.unexpected == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
