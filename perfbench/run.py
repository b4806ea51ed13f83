"""Host-clock benchmark of the SPMD histogram sort.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload wide --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py                  # every workload, each in a fresh process

``--trace 0`` measures the end-to-end metrics with no instrumentation.
``--trace 1`` is the separate traced run: it wraps each layer's entry
points (see ``layers.py``), runs one traced and one untraced window, and
reports the per-layer metrics.  Either way the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it print every metric by name and unit.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402  (the set-up clock starts before any import)
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOADS = ("wide", "deep", "serve", "observed")

#: set-ups per run (this process and fresh child processes); setup_s is their median
SETUP_REPEATS = 3


def metric_units(kind):
    """Metric name -> unit for ``end_to_end`` or ``per_layer``, from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    ap.add_argument("--setup-only", action="store_true",
                    help="set up once, print the set-up time and exit")
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    return args


def ref_loop_s():
    """Median time of a fixed NumPy loop: the machine's own speed today."""
    x = np.random.default_rng(12345).standard_normal(1 << 17)
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        for _ in range(8):
            np.sort(x)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def host_info():
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "loadavg": [round(x, 2) for x in os.getloadavg()],
    }


def window(wl, seconds, first_block):
    """Run whole blocks until ``seconds`` of operation time have passed."""
    busy, ops, block = 0.0, [], first_block
    while busy < seconds:
        dt, block_ops = wl.run_block(block)
        busy += dt
        ops += block_ops
        block += 1
    return busy, ops, block


def keys_per_s(busy, ops):
    return sum(op.keys for op in ops if not op.error) / busy


def end_to_end(busy, ops, setups):
    good = [op for op in ops if not op.error]
    if not good:
        raise RuntimeError("no operation completed")
    lat = sorted(op.latency_s for op in good)
    return {
        "keys_per_s": keys_per_s(busy, ops),
        "ops_per_s": len(good) / busy,
        "op_p50_s": statistics.median(lat),
        "op_p90_s": statistics.quantiles(lat, n=10, method="inclusive")[-1] if len(lat) > 1 else lat[0],
        # sorts only: a serve query epoch's makespan does not depend on the data
        "virtual_s_per_op": statistics.median(op.virtual_s for op in good if op.keys),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def child_setup_s(args):
    """Set-up time of a fresh process: imports, inputs, construction, warm-up."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    if done.returncode != 0:
        raise RuntimeError(f"set-up child failed:\n{done.stderr[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]


def traced_metrics(wl, args, layers):
    """The traced run: per-layer spans over one window, then an untraced
    window for the tracing overhead.  Returns (metrics, ops of both windows)."""
    log = layers.SpanLog()
    with layers.instrument(log):
        wl.log, wl.traced = log, True
        wl.setup(args.seed)
        before = wl.counters()
        busy, ops, next_block = window(wl, args.seconds, 0)
        after = wl.counters()
    wl.log, wl.traced = None, False
    plain_busy, plain_ops, _ = window(wl, args.seconds, next_block)

    metrics = layers.summarize(log.rows, len(ops))
    epochs = after.get("sort_epochs", 0.0) - before.get("sort_epochs", 0.0)
    hits = after.get("warm_hits", 0.0) - before.get("warm_hits", 0.0)
    metrics["tune.cache_hit_ratio"] = hits / epochs if epochs else 0.0
    observed = [op for op in ops if "plain_s" in op.extra]
    metrics["trace.events"] = sum(op.extra.get("trace_events", 0.0) for op in ops) / len(ops)
    metrics["trace.export_s"] = sum(op.extra.get("export_s", 0.0) for op in ops) / len(ops)
    metrics["observers.overhead_ratio"] = (
        statistics.median(op.latency_s for op in observed)
        / statistics.median(op.extra["plain_s"] for op in observed)
        if observed else 0.0
    )
    metrics["bench.trace_overhead"] = keys_per_s(busy, ops) / keys_per_s(plain_busy, plain_ops)
    metrics["host.ref_loop_s"] = ref_loop_s()
    layers.write_spans(
        OUT / f"spans-{args.workload}-seed{args.seed}.json", log.rows,
        {"workload": args.workload, "seed": args.seed, "ops": len(ops)},
    )
    return metrics, ops + plain_ops


def run_one(args):
    """One workload in this process; returns the exit code."""
    sys.path.insert(0, str(SRC))
    import layers
    import workloads

    wl = workloads.make(args.workload)
    if args.trace:
        metrics, ops = traced_metrics(wl, args, layers)
        units = metric_units("per_layer")
        missed = wl.self_check()
    else:
        wl.setup(args.seed)
        setups = [time.perf_counter() - T_START]
        if args.setup_only:
            print(json.dumps({"setup_s": setups[0]}))
            return 0
        missed = wl.self_check()
        ref = ref_loop_s()
        busy, ops, _ = window(wl, args.seconds, 0)
        setups += [child_setup_s(args) for _ in range(SETUP_REPEATS - 1)]
        metrics = end_to_end(busy, ops, setups)
        units = metric_units("end_to_end")
        print(f"host.ref_loop_s = {ref:.6f} s")
    if set(metrics) != set(units):
        print(f"perfbench: metrics {sorted(set(metrics) ^ set(units))} disagree with "
              "BENCHMARK.json", file=sys.stderr)
        return 2

    failed = [op for op in ops if op.error]
    reasons = Counter(op.error for op in failed)
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: host {host_info()}")
    for name, value in metrics.items():
        moves = layers.MOVES.get(name)
        note = f"  (should move {moves[0]} on {moves[1]})" if args.trace else ""
        print(f"{name} = {value:.6g} {units[name]}{note}")
    print(f"failed_frac = {len(failed) / len(ops):.6g} ({len(failed)}/{len(ops)})")
    for reason, count in sorted(reasons.items()):
        print(f"  failed x{count}: {reason}")
    for what in missed:
        print(f"self-check: the oracle missed a {what}")
    correct = not missed and not any(op.wrong for op in ops)
    print(json.dumps({
        "correct": correct,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


def run_all(args):
    """Every workload, each in a fresh process; the last line maps
    workload -> that run's result."""
    results = {}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        sys.stderr.write(done.stderr)
        lines = done.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if done.returncode != 0 or not lines:
            print(f"perfbench: workload {name} failed", file=sys.stderr)
            return done.returncode or 1
        results[name] = json.loads(lines[-1])
    print(json.dumps(results))
    return 0


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: {SRC / 'repro'} not found; run from a checkout of the "
              "repository", file=sys.stderr)
        return 2
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
