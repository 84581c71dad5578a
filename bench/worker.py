"""One fresh interpreter of the benchmark; started by `run.py`.

    worker.py setup WORKLOAD SEED
        time importing the workload's modules plus its warm-up items
    worker.py measure WORKLOAD SEED SECONDS TRACE [--inject-fault]
        run the closed loop for SECONDS and check every output; with TRACE=1
        run it untraced for half the time, then traced for the other half
    worker.py cli-child STEM ITEM ARGV...
        run `isoquintic.cli.main(ARGV)` traced and store its spans at STEM

Each mode prints one JSON object as its last line of standard output.
"""

from __future__ import annotations

import glob
import json
import math
import os
import resource
import statistics
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import tracer as tracing  # noqa: E402
from workloads import (PASS, FAIL, INCONCLUSIVE, KNOWN_DEFECT,  # noqa: E402
                       WORKLOADS)


def _check_source(root):
    import isoquintic
    src = os.path.join(root, "src")
    if os.path.commonpath([os.path.abspath(isoquintic.__file__), src]) != src:
        raise SystemExit(f"isoquintic imported from {isoquintic.__file__}, not {src}")


# Other tenants of a shared host slow this process by up to 1.8x, for
# stretches of 10-60 s.  A fixed pure-Python kernel, timed next to the items,
# measures that factor, and every time is scaled to a host on which the
# kernel takes CAL_REF_MS (about the median on the host the bounds were set
# on).  The kernel is benchmark code, so no change to the package moves it.
CAL_REF_MS = 1.0
CAL_NEIGHBOURS = 2


def _kernel():
    acc, seen = Fraction(0), {}
    for i in range(1, 120):
        acc += Fraction(i, i + 7) * Fraction(3, i + 1)
        seen[(i % 13, i % 7)] = seen.get((i % 13, i % 7), 0) + i
    return acc, seen


def calibrate():
    """Milliseconds of one run of the calibration kernel."""
    t0 = time.perf_counter()
    _kernel()
    return 1000.0 * (time.perf_counter() - t0)


def pin():
    """Keep this process and its children on one CPU, so the calibration and
    the measured work see the same host speed."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def host_factors(cal_ms):
    """CAL_REF_MS over the median kernel time of each item and its
    CAL_NEIGHBOURS neighbours on either side."""
    n, k = len(cal_ms), CAL_NEIGHBOURS
    return [CAL_REF_MS / statistics.median(cal_ms[max(0, i - k):i + k + 1])
            for i in range(n)]


def setup(name, seed):
    wl = WORKLOADS[name]()
    root = os.getcwd()
    pin()
    calibrate()
    cal_ms = [calibrate() for _ in range(5)]
    t0 = time.perf_counter()
    ctx = wl.load(root)
    for item in wl.warmup(seed):
        wl.run(ctx, item)
    elapsed = time.perf_counter() - t0
    cal_ms += [calibrate() for _ in range(5)]
    cal = statistics.median(cal_ms)
    _check_source(root)
    return {"setup_s": elapsed * CAL_REF_MS / cal, "raw_setup_s": elapsed}


TAIL_PCT = 90


def tail(sorted_ms):
    """The TAIL_PCT-th percentile (nearest rank), but never above the highest
    percentile with at least ten samples beyond it: (value, pct, beyond).

    A higher percentile of a long run falls among the few items a shared
    host happened to disturb, and repeats only to within a third or so."""
    n = len(sorted_ms)
    idx = min(max(0, n - 11), math.ceil(TAIL_PCT * n / 100) - 1)
    return sorted_ms[idx], 100.0 * (idx + 1) / n, n - 1 - idx


def cycles(latencies_ms, cycle):
    """The complete item cycles (each kind in its share), or the whole loop
    as one window when it ran fewer than three cycles."""
    windows = [latencies_ms[i:i + cycle]
               for i in range(0, len(latencies_ms) - cycle + 1, cycle)]
    return windows if len(windows) >= 3 else [latencies_ms]


def loop(wl, ctx, seed, seconds, trace=None):
    """Closed loop, one client: next item only after the last is checked."""
    tally = {PASS: 0, FAIL: 0, INCONCLUSIVE: 0, KNOWN_DEFECT: 0}
    stats = {}
    latencies, cal_ms, kinds = [], [], []
    failures = []
    items = wl.items(seed)
    deadline = time.perf_counter() + seconds
    n = 0
    while n == 0 or time.perf_counter() < deadline:
        item = next(items)
        error = None
        cal_ms.append(calibrate())
        t0 = time.perf_counter()
        try:
            if trace is not None:
                with trace.item_span(n):
                    out = wl.run(ctx, item)
            else:
                out = wl.run(ctx, item)
        except Exception as exc:  # an unexpected exception fails the item
            error = exc
        elapsed = time.perf_counter() - t0
        verdict = FAIL if error else wl.check(item, out, stats)
        tally[verdict] += 1
        if verdict == FAIL and len(failures) < 5:
            failures.append({"item": repr(item)[:300],
                             "error": repr(error) if error else None})
        latencies.append(1000.0 * elapsed)
        kinds.append(item[0].split("-")[0])
        n += 1
    raw = cycles(latencies, wl.cycle)
    factors = host_factors(cal_ms)
    scaled = [ms * f for ms, f in zip(latencies, factors)]
    by_kind = {}
    for kind, ms in zip(kinds, scaled):
        by_kind.setdefault(kind, []).append(ms)
    windows = cycles(scaled, wl.cycle)
    value, pct, beyond = tail(sorted(scaled))
    return {
        "attempted": n,
        "failed": tally[FAIL],
        "known_defects": tally[KNOWN_DEFECT],
        "inconclusive": tally[INCONCLUSIVE],
        "items_per_s": 1000.0 * sum(map(len, windows)) / sum(map(sum, windows)),
        "latency_p50_ms": statistics.median(scaled),
        "latency_tail_ms": value,
        "tail_percentile": pct,
        "tail_beyond": beyond,
        "raw_items_per_s": 1000.0 * sum(map(len, raw)) / sum(map(sum, raw)),
        "raw_latency_p50_ms": statistics.median(latencies),
        "host_factor_p50": statistics.median(factors),
        "p50_ms_by_kind": {k: statistics.median(v) for k, v in sorted(by_kind.items())},
        "stats": stats,
        "failures": failures,
    }


def _peak_rss_mb(children):
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def measure(name, seed, seconds, trace, inject_fault=False):
    wl = WORKLOADS[name]()
    root = os.getcwd()
    pin()
    ctx = wl.load(root)
    _check_source(root)
    if inject_fault:
        wl.inject_fault(ctx)
    for item in wl.warmup(seed):
        wl.run(ctx, item)
    children = name == "cli-oneshot"
    if not trace:
        result = loop(wl, ctx, seed, seconds)
        result["peak_rss_mb"] = _peak_rss_mb(children)
        return result

    plain = loop(wl, ctx, seed, seconds / 2)
    stem = os.path.join(root, ".bench_out", "trace", f"{name}-seed{seed}")
    if children:
        for old in glob.glob(glob.escape(stem) + "-child*"):
            os.remove(old)
        wl.trace_stem = stem
        traced = loop(wl, ctx, seed, seconds / 2)
        totals, counts = {}, {}
        for i in range(1, ctx.count + 1):
            with open(f"{stem}-child{i}.agg.json", encoding="utf-8") as fh:
                part = json.load(fh)
            tracing.merge(totals, counts, part["aggregate"], part["counts"])
    else:
        tr = tracing.Tracer()
        tr.install()
        traced = loop(wl, ctx, seed, seconds / 2, trace=tr)
        tr.uninstall()
        tr.write(stem)
        totals, counts = tr.aggregate(), tr.counts
    return {"untraced": plain, "traced": traced, "aggregate": totals,
            "counts": counts, "spans": stem}


def cli_child(stem, item, argv):
    """A traced `python -m isoquintic.cli ARGV` process."""
    import isoquintic.cli as cli
    tr = tracing.Tracer()
    tr.install()
    with tr.item_span(int(item)):
        code = cli.main(argv)
    tr.uninstall()
    sys.stdout.flush()
    tr.write(stem)
    with open(stem + ".agg.json", "w", encoding="utf-8") as fh:
        json.dump({"aggregate": tr.aggregate(), "counts": tr.counts}, fh)
    return code


def main(argv):
    mode = argv[0]
    if mode == "cli-child":
        return cli_child(argv[1], argv[2], argv[3:])
    if mode == "setup":
        out = setup(argv[1], argv[2])
    else:
        out = measure(argv[1], argv[2], float(argv[3]), argv[4] == "1",
                      "--inject-fault" in argv[5:])
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
