"""The isoquintic benchmark.  Run from the root of a checkout:

    python3 bench/run.py --workload classify-sweep --seed 1 --seconds 20 --trace 0

Workloads: classify-sweep, symbolic-certify, orbit-sweep, cli-oneshot.

With `--trace 0` it prints the end-to-end metrics: set-up time (median of
fresh interpreters), items per second, median and tail latency, peak resident
set, and the failed and attempted counts.  With `--trace 1` it prints the
per-layer metrics of a traced run instead, and the tracing overhead.  Every
output is checked; the last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import tracer as tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_SAMPLES = 5      # at least this many fresh interpreters,
SETUP_BUDGET_S = 3.0   # and more, up to SETUP_MAX, until this much time passed
SETUP_MAX = 31
IMPORT_SAMPLES = 3
TIME_LIMIT_S = 170.0

END_TO_END = (("setup_s", "s"), ("items_per_s", "1/s"), ("latency_p50_ms", "ms"),
              ("latency_tail_ms", "ms"), ("peak_rss_mb", "MB"))
CLI_COMMANDS = ("classify", "plconst", "verify", "orbit", "boundary")


def per_layer_units():
    """Name -> unit of every per-layer metric, in a fixed order."""
    units = {}
    for name in tracing.SPAN_NAMES:
        units[f"{name}.calls"] = "count"
        units[f"{name}.busy_ms"] = "ms"
        units[f"{name}.self_ms"] = "ms"
    for name in tracing.COUNTS:
        units[name] = "bits" if name.endswith("bits") else "count"
    units["orbits.max_period_error"] = "1"
    units["orbits.max_closure_defect"] = "1"
    units["cli.import_ms"] = "ms"
    for cmd in CLI_COMMANDS:
        units[f"cli.{cmd}.p50_ms"] = "ms"
    units["trace.untraced_items_per_s"] = "1/s"
    units["trace.traced_items_per_s"] = "1/s"
    units["trace.overhead_items_per_s"] = "1/s"
    return units


class Runner:
    def __init__(self, root, deadline):
        self.root = root
        self.deadline = deadline
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"),
                        PYTHONHASHSEED="0")
        self.worker = os.path.join(HERE, "worker.py")

    def worker_json(self, *args):
        """Run worker.py in a fresh interpreter; return its last JSON line."""
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise SystemExit("error: benchmark time limit reached")
        proc = subprocess.Popen([sys.executable, self.worker, *map(str, args)],
                                cwd=self.root, env=self.env, text=True,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                start_new_session=True)
        try:
            out, err = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise SystemExit(f"error: worker {args[:2]} timed out")
        if proc.returncode != 0:
            sys.stderr.write(err)
            raise SystemExit(f"error: worker {args[:2]} exited {proc.returncode}")
        return json.loads(out.strip().splitlines()[-1])

    def setup_samples(self, workload, seed, n, budget_s=0.0):
        """Median set-up time of at least n fresh interpreters (more while
        budget_s has not passed), after one discarded start that fills the
        bytecode and file caches."""
        self.worker_json("setup", workload, seed)
        samples = []
        start = time.monotonic()
        while len(samples) < n or (time.monotonic() - start < budget_s
                                   and len(samples) < SETUP_MAX):
            samples.append(self.worker_json("setup", workload, seed))
        return statistics.median(s["setup_s"] for s in samples), samples


def end_to_end(runner, args):
    setup_s, samples = runner.setup_samples(args.workload, args.seed, SETUP_SAMPLES,
                                            SETUP_BUDGET_S)
    res = runner.worker_json("measure", args.workload, args.seed, args.seconds,
                             0, *(["--inject-fault"] if args.inject_fault else []))
    values = {"setup_s": setup_s, "items_per_s": res["items_per_s"],
              "latency_p50_ms": res["latency_p50_ms"],
              "latency_tail_ms": res["latency_tail_ms"],
              "peak_rss_mb": res["peak_rss_mb"]}
    raw_setup = statistics.median(s["raw_setup_s"] for s in samples)
    notes = {"setup_s": f"median of {len(samples)} fresh interpreters, "
                        f"unscaled {raw_setup:.6f}",
             "items_per_s": f"unscaled {res['raw_items_per_s']:.6f}",
             "latency_p50_ms": f"unscaled {res['raw_latency_p50_ms']:.6f}, "
                               f"host factor {res['host_factor_p50']:.4f}",
             "latency_tail_ms": f"p{res['tail_percentile']:.2f}, "
                                f"{res['tail_beyond']} samples beyond, "
                                f"n={res['attempted']}",
             "peak_rss_mb": ("largest child process" if args.workload == "cli-oneshot"
                             else "measuring process")}
    for name, unit in END_TO_END:
        print(f"{name:<18} {values[name]:>14.6f} {unit:<5} {notes.get(name, '')}")
    print(f"{'ops_failed':<18} {res['failed']:>14d} count of ops_attempted")
    print(f"{'ops_attempted':<18} {res['attempted']:>14d} count")
    print(f"{'known_defects':<18} {res['known_defects']:>14d} count "
          "(registered inputs with a known wrong answer, kept in the mix)")
    print(f"{'inconclusive':<18} {res['inconclusive']:>14d} count "
          "(focus growth below 1e-9)")
    for kind, ms in res["p50_ms_by_kind"].items():
        print(f"  p50 {kind:<14} {ms:>12.3f} ms")
    for key, value in sorted(res["stats"].items()):
        print(f"  {key:<18} {value}")
    for failure in res["failures"]:
        print(f"  FAILED {failure}")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    return res, metrics


def per_layer(runner, args):
    import_ms = 0.0
    if args.workload == "cli-oneshot":
        import_ms = 1000.0 * runner.setup_samples(args.workload, args.seed,
                                                  IMPORT_SAMPLES)[0]
    res = runner.worker_json("measure", args.workload, args.seed, args.seconds, 1)
    plain, traced = res["untraced"], res["traced"]
    values = {}
    for name in tracing.SPAN_NAMES:
        calls, busy, own = res["aggregate"].get(name, (0, 0.0, 0.0))
        values[f"{name}.calls"] = calls
        values[f"{name}.busy_ms"] = 1000.0 * busy
        values[f"{name}.self_ms"] = 1000.0 * own
    for name in tracing.COUNTS:
        values[name] = res["counts"].get(name, 0)
    stats = traced["stats"]
    values["orbits.max_period_error"] = stats.get("max_period_error", 0.0)
    values["orbits.max_closure_defect"] = stats.get("max_closure_defect", 0.0)
    values["cli.import_ms"] = import_ms
    for cmd in CLI_COMMANDS:
        ms = plain["p50_ms_by_kind"].get(cmd, 0.0) if args.workload == "cli-oneshot" else 0.0
        values[f"cli.{cmd}.p50_ms"] = ms
    values["trace.untraced_items_per_s"] = plain["items_per_s"]
    values["trace.traced_items_per_s"] = traced["items_per_s"]
    values["trace.overhead_items_per_s"] = traced["items_per_s"] - plain["items_per_s"]
    print(f"traced run: {traced['attempted']} items traced after "
          f"{plain['attempted']} untraced; spans in {res['spans']}.*")
    units = per_layer_units()
    for name, unit in units.items():
        value = values[name]
        if value:
            print(f"{name:<52} {value:>16.9g} {unit}")
    merged = {"attempted": plain["attempted"] + traced["attempted"],
              "failed": plain["failed"] + traced["failed"],
              "failures": plain["failures"] + traced["failures"]}
    for failure in merged["failures"]:
        print(f"  FAILED {failure}")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    return merged, metrics


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--inject-fault", action="store_true",
                    help="flip each focus sign (classify-sweep); the check must fail")
    args = ap.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "isoquintic", "__init__.py")):
        print("error: no src/isoquintic here; run from the root of an isoquintic "
              "checkout", file=sys.stderr)
        return 2
    runner = Runner(root, time.monotonic() + TIME_LIMIT_S)
    wl = WORKLOADS[args.workload]
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"loop {wl.loop}  trace {args.trace}")
    if args.trace:
        res, metrics = per_layer(runner, args)
    else:
        res, metrics = end_to_end(runner, args)
    print(json.dumps({"correct": res["failed"] == 0, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
