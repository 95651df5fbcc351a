"""mck benchmark: one workload, timed end to end or traced per layer.

    python3 bench/run.py --workload closure_sweep --seed 1 --seconds 30 --trace 0

Runs from the root of a checkout, imports mck from its src/ and drives it in
this one process with jobs=1.  With --trace 0 it repeats passes over the
workload until --seconds are spent and reports the end-to-end metrics
wall_s (median seconds per pass), setup_s and peak_rss_mb (the high-water
mark of set-up and the first pass, so it does not depend on the number of
passes).  With --trace 1
it runs one pass untraced and one pass traced and reports per-layer calls,
self time, exact counts and the tracing overhead.  The last line of stdout
is the result object; the line before it (prefixed "# info") records raw
timings and the machine's state.  Exit status is 0 when a result was
printed, 1 when mck cannot be imported or the stored inputs are damaged.

Times are reported in reference seconds.  The host is shared and its speed
swings by up to 2x within seconds, so a SIGALRM handler times a fixed
stdlib-only kernel every TICK_PERIOD_S; the handler's own time is removed
from every timed interval, and each interval is scaled by the mean of
NOMINAL_TICK_S / (kernel time) over the ticks inside it.  At full host
speed a reference second is a wall second.
"""

import argparse
import bisect
import gc
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import tracing
import workloads as wl

ROOT = Path(__file__).resolve().parent.parent
TICK_PERIOD_S = 0.05
NOMINAL_TICK_S = 0.00085   # _kernel() at full speed, 2-core x86-64 host
SETUP_REPEATS = 7


def _kernel():
    acc = {}
    x = 0
    for i in range(3000):
        key = (i % 61, i % 7)
        acc[key] = acc.get(key, 0) + (i ^ x)
        x = (x * 31 + i) & 0xFFFF
    return acc


class Speedometer:
    """Samples the host's speed with `_kernel` from a SIGALRM handler."""

    def __init__(self):
        self.starts = []   # tick start times, increasing
        self.kernel = []   # kernel seconds of each tick
        self.spent = []    # handler seconds of each tick

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_PERIOD_S, TICK_PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _tick(self, signum, frame):
        enabled = gc.isenabled()
        gc.disable()
        start = perf_counter()
        _kernel()
        end = perf_counter()
        if enabled:
            gc.enable()
        self.starts.append(start)
        self.kernel.append(end - start)
        self.spent.append(perf_counter() - start)

    def seconds(self, intervals):
        """(wall, reference) seconds of [(start, end)], ticks removed."""
        wall = 0.0
        speeds = []
        for start, end in intervals:
            lo = bisect.bisect_left(self.starts, start)
            hi = bisect.bisect_left(self.starts, end)
            wall += (end - start) - sum(self.spent[lo:hi])
            speeds += [NOMINAL_TICK_S / k for k in self.kernel[lo:hi]]
        if not speeds:   # shorter than a tick: use the latest ticks
            speeds = [NOMINAL_TICK_S / k for k in self.kernel[-8:]] or [1.0]
        return wall, wall * statistics.fmean(speeds)


def _purge_mck():
    for name in [n for n in sys.modules if n == "mck" or n.startswith("mck.")]:
        del sys.modules[name]


def setup(name, seed, workdir, meter):
    """Import mck and prepare the inputs SETUP_REPEATS times; the last
    preparation is used.  Returns (ops, expected, reference seconds of each
    repeat).  A repeat is shorter than a few ticks, so all repeats share
    one speed estimate."""
    intervals = []
    for _ in range(SETUP_REPEATS):
        _purge_mck()
        start = perf_counter()
        mck = wl.import_mck(ROOT)
        expected = wl.load_expected()
        ops = wl.prepare(mck, name, seed, workdir, expected)
        intervals.append((start, perf_counter()))
    wall, ref = meter.seconds(intervals)
    return ops, expected, [meter.seconds([iv])[0] * ref / wall
                           for iv in intervals]


def run_pass(ops, meter, tracer=None):
    """Run every operation once: (wall s, reference s, [(op, out, error)])."""
    gc.collect()
    intervals = []
    results = []
    if tracer is not None:
        tracer.reset()
        tracer.install()
    try:
        for op in ops:
            try:
                spans, out = op.run()
                intervals += spans
                error = None
            except Exception as exc:  # a failed operation, counted below
                out, error = None, "%s: %r" % (op.key, exc)
            results.append((op, out, error))
    finally:
        if tracer is not None:
            tracer.uninstall()
    wall, ref = meter.seconds(intervals)
    return wall, ref, results


def check_pass(results, expected, failures):
    """Check every output of a pass; returns the number of failed ops."""
    failed = 0
    for op, out, error in results:
        errors = [error] if error else op.check(out, expected)
        if errors:
            failed += 1
            failures.extend(errors)
    return failed


def _quartiles(values):
    if len(values) < 2:
        return list(values) * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def _steal_ticks():
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            return int(fh.readline().split()[8])
    except (OSError, IndexError, ValueError):
        return None


def _git_sha():
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _metric(value, unit):
    return {"value": value, "unit": unit}


def measure(args, ops, expected, meter, failures):
    """Untraced passes until --seconds are spent; end-to-end metrics."""
    attempted = failed = 0
    wall, ref = [], []
    start = perf_counter()
    while True:
        w, r, results = run_pass(ops, meter)
        wall.append(w)
        ref.append(r)
        if len(ref) == 1:
            peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        attempted += len(results)
        failed += check_pass(results, expected, failures)
        elapsed = perf_counter() - start
        if elapsed + elapsed / len(ref) > args.seconds:
            break
    metrics = {
        "wall_s": _metric(statistics.median(ref), "s"),
        "peak_rss_mb": _metric(peak_kb / 1024.0, "MB"),
    }
    info = {"passes": len(ref), "pass_wall_s": wall, "pass_ref_s": ref,
            "pass_ref_s_quartiles": _quartiles(ref)}
    return attempted, failed, metrics, info


def measure_traced(args, ops, expected, meter, failures):
    """One untraced and one traced pass; per-layer metrics of the latter."""
    tracer = tracing.Tracer()
    _, plain, results = run_pass(ops, meter)
    failed = check_pass(results, expected, failures)
    wall, traced, results = run_pass(ops, meter, tracer)
    failed += check_pass(results, expected, failures)
    scale = traced / wall if wall else 1.0
    metrics = {}
    for name, (value, unit) in tracer.metrics().items():
        metrics[name] = _metric(value * scale if unit == "s" else value, unit)
    metrics["trace.overhead_s"] = _metric(traced - plain, "s")
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    spans = out_dir / ("spans-%s-seed%d.jsonl.gz" % (args.workload, args.seed))
    tracer.write_spans(spans)
    info = {"untraced_ref_s": plain, "traced_ref_s": traced,
            "spans_file": str(spans.relative_to(ROOT))}
    return 2 * len(ops), failed, metrics, info


def main(argv=None):
    ap = argparse.ArgumentParser(description="mck benchmark")
    ap.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    os.environ.pop("MCK_SEEN_CACHE", None)
    machine = {"git_sha": _git_sha(), "python": platform.python_version(),
               "nproc": len(os.sched_getaffinity(0)),
               "loadavg": list(os.getloadavg())}
    steal = _steal_ticks()
    work_root = ROOT / ".bench_work"
    work_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=work_root))
    failures = []
    try:
        with Speedometer() as meter:
            try:
                ops, expected, setup_s = setup(args.workload, args.seed,
                                               workdir, meter)
            except (ImportError, OSError, ValueError, KeyError) as exc:
                print("bench: cannot set up %s: %s" % (args.workload, exc),
                      file=sys.stderr)
                return 1
            measure_fn = measure_traced if args.trace else measure
            attempted, failed, metrics, info = measure_fn(
                args, ops, expected, meter, failures)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass
    if not args.trace:
        metrics["setup_s"] = _metric(statistics.median(setup_s), "s")
    steal_end = _steal_ticks()
    if steal is not None and steal_end is not None:
        machine["cpu_steal_s"] = (steal_end - steal) / os.sysconf("SC_CLK_TCK")
    machine["loadavg_end"] = list(os.getloadavg())
    speed = [NOMINAL_TICK_S / k for k in meter.kernel]
    info.update(workload=args.workload, seed=args.seed,
                classes_per_pass=wl.class_count(args.workload, expected),
                setup_ref_s=setup_s, host_speed_quartiles=_quartiles(speed),
                ticks=len(speed), failures=failures[:20], machine=machine)
    print("# info " + json.dumps(info, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
