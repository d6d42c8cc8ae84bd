"""Benchmark for leibkit: one command, two workloads, every metric by name.

    python3 perfbench/run.py --workload {catalogue,iso_dense} --seed N \\
        --seconds S --trace {0,1}

Run from the root of a source checkout; leibkit is imported from
``src/``, never from an installed copy.  One process, one thread, a
closed loop with one client; ``LEIBKIT_THREADS`` is cleared so the thread
pool stays off.

``--trace 0`` sets up several times (median ``setup_s``), then repeats
the workload's round while the next one would end nearer ``--seconds``
than stopping now, and reports the end-to-end metrics.  ``--trace 1``
runs one round untraced and the same round traced, and reports the
per-layer metrics with the tracing overhead.  Every output is checked; the last stdout line is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
A record of the run (counts, machine, spans) goes to ``perfbench/out/``.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time

import layers
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
SETUPS = 11


def _fail(message):
    print("error: %s" % message, file=sys.stderr)
    raise SystemExit(2)


def _use_source_tree():
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "leibkit", "__init__.py")):
        _fail("no leibkit source under %s; run from a source checkout" % src)
    sys.path.insert(0, src)
    os.environ.pop("LEIBKIT_THREADS", None)


def machine():
    model = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"cpu_model": model, "nproc": os.cpu_count(),
            "usable_cpus": len(os.sched_getaffinity(0))
            if hasattr(os, "sched_getaffinity") else os.cpu_count(),
            "python": platform.python_version(),
            "platform": platform.platform()}


def src_lines():
    """Lines in the package's Python sources (ROADMAP aim 2 tracks them)."""
    total = 0
    for base, _dirs, files in os.walk(os.path.join(ROOT, "src")):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(base, name)) as fh:
                    total += sum(1 for _ in fh)
    return total


def measure(workload, seconds):
    """Rounds while one more would end nearer `seconds`; at least one."""
    rounds = []
    start = time.perf_counter()
    while len(rounds) < workload.max_rounds:
        rounds.append(workload.run_round(len(rounds)))
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(rounds) / 2 >= seconds:
            break
    return rounds


def end_to_end(workload, rounds, setup_times):
    """The gated metrics, plus the workload's own named figures."""
    percentile = layers.percentile
    task = statistics.median(r.task_s for r in rounds)
    rate = sum(r.units for r in rounds) / sum(r.task_s for r in rounds)
    metrics = {
        "task_s": (task, "s"),
        "rate_per_s": (rate, "1/s"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024, "MB"),
    }

    def ops_ms(*kinds):
        return sorted(s * 1e3 for r in rounds for k in kinds
                      for s in r.ops.get(k, ()))

    def median_s(*kinds):
        return statistics.median(sum(sum(r.ops.get(k, ())) for k in kinds)
                                 for r in rounds)

    if workload.name == "catalogue":
        entries = ops_ms("entry")
        named = {"report_s": (task, "s"), "points_per_s": (rate, "1/s"),
                 "entry_p50_ms": (percentile(entries, 50), "ms"),
                 "entry_p90_ms": (percentile(entries, 90), "ms"),
                 "entry_samples": (len(entries), "count")}
    else:
        # percentiles that keep ten samples or more beyond them
        pairs, items = ops_ms("found", "capped"), ops_ms("eligible", "other")
        candidates = sum(r.counts["candidates"] for r in rounds)
        named = {"found_s": (median_s("found"), "s"),
                 "capped_s": (median_s("capped"), "s"),
                 "candidates_per_s": (candidates / (sum(pairs) / 1e3), "1/s"),
                 "pair_p50_ms": (percentile(pairs, 50), "ms"),
                 "pair_samples": (len(pairs), "count"),
                 "dense_s": (median_s("eligible", "other"), "s"),
                 "item_p50_ms": (percentile(items, 50), "ms"),
                 "item_p75_ms": (percentile(items, 75), "ms"),
                 "item_samples": (len(items), "count")}
    return metrics, named


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        _fail("--seconds must be positive")

    _use_source_tree()
    workload = WORKLOADS[args.workload]()
    setup_times = []
    for _ in range(SETUPS):
        t0 = time.perf_counter()
        workload.setup(args.seed)
        setup_times.append(time.perf_counter() - t0)

    checks = []
    if hasattr(workload, "check_fixtures"):
        checks.append(workload.check_fixtures())

    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "machine": machine(), "src_py_lines": src_lines(),
              "setup_s_each": setup_times}
    tag = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    os.makedirs(OUT, exist_ok=True)
    if args.trace:
        rounds, values, counts, tracer, agg = layers.traced_round(
            workload, args.seed)
        units = {}
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            for spec in json.load(fh)["per_layer"]:
                units[spec["name"]] = spec["unit"]
        metrics = {name: (values[name], unit) for name, unit in units.items()}
        spans_path = os.path.join(OUT, tag + "-spans.jsonl.gz")
        tracer.write(spans_path)
        record["spans"] = agg
        named = {"untraced_task_s": (rounds[0].task_s, "s"),
                 "traced_task_s": (rounds[1].task_s, "s")}
    else:
        rounds = measure(workload, args.seconds)
        metrics, named = end_to_end(workload, rounds, setup_times)
        counts = dict(rounds[0].counts, rounds=len(rounds))
        record["task_s_each"] = [r.task_s for r in rounds]

    attempted = sum(r.attempted for r in rounds + checks)
    failed = sum(r.failed for r in rounds + checks)
    named["error_rate"] = (failed / attempted, "ratio")
    shown = {**named, **metrics}
    record.update(counts=counts, attempted=attempted, failed=failed,
                  metrics={k: {"value": v, "unit": u}
                           for k, (v, u) in shown.items()})
    with open(os.path.join(OUT, tag + ".json"), "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)

    for name, (value, unit) in sorted(shown.items()):
        print("%-46s %14.6g %s" % (name, value, unit))
    print("counts %s" % json.dumps(counts, sort_keys=True))
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed,
              "metrics": {k: {"value": v, "unit": u}
                          for k, (v, u) in metrics.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
