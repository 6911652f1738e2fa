#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the MobiStreams reproduction.

Run from the repository root:

    python3 perfbench/run.py --workload metro --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --report --seed 1 --seconds 35

The script builds the `perfbench` package (its own Cargo workspace beside
this file) in release mode, then starts one `perfbench` process per
simulation run, so that each process's CPU time and peak resident memory
belong to exactly one run. With `--trace 0` it repeats untraced runs for
`--seconds` and reports the end-to-end metrics; with `--trace 1` it makes
one traced run plus layer probes and reports the per-layer metrics. The
last line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`. `--report` runs both modes on every
workload and prints the tables with each layer metric's predicted effect.

See perfbench/README.md for the workloads, the metrics and the checks.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")

# Each workload runs `subseeds` independent seeds derived from --seed
# (sub-seed k is seed + k * SUBSEED_STRIDE; sub-seed 0 is the seed itself)
# and sums their medians, so that the seed-to-seed spread of the work a
# single seed asks for averages out.
SUBSEED_STRIDE = 1_000_000

# Host seconds are scaled to a host that runs the reference kernel
# (perfbench/src/reference.rs) in this many seconds: each process's times
# are multiplied by REFERENCE_S / (the reference time it measured around
# its runs).
REFERENCE_S = 0.1
WORKLOADS = {
    "metro": {"subseeds": 1, "why": "32 x 320 phones at 2 threads: broadcast, sharded control plane and barrier at scale"},
    "stadium-brownout": {"subseeds": 8, "why": "8 x 128 phones under 50-70% WiFi loss: many broadcast phases, long lost-block lists"},
    "paper-grid": {"subseeds": 1, "why": "paper 4 x 8 deployment, every FT scheme with and without Fig 9 bursts"},
}

END_TO_END = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
    ("pass_rate", "frac"),
]

# name, unit, better direction, end-to-end metric it should move, and on
# which workloads.
ALL3 = "metro, stadium-brownout, paper-grid"
PER_LAYER = [
    ("simkernel.events", "count", "lower", "wall_s", ALL3),
    ("simkernel.events_per_s", "1/s", "higher", "wall_s", ALL3),
    ("simkernel.dispatch_ns", "ns", "lower", "wall_s", ALL3),
    ("simkernel.windows", "count", "lower", "wall_s, cpu_s", "metro only"),
    ("simkernel.events_per_window", "count", "higher", "wall_s, cpu_s", "metro only"),
    ("simkernel.par_speedup", "ratio", "higher", "wall_s, cpu_s", "metro only"),
    ("simkernel.pool_recycled", "count", "higher", "peak_rss_mb, wall_s", ALL3),
    ("simnet.wifi.msgs.data", "count", "lower", "wall_s", "metro, stadium-brownout"),
    ("simnet.wifi.msgs.checkpoint", "count", "lower", "wall_s", "metro, stadium-brownout"),
    ("simnet.wifi.msgs.preservation", "count", "lower", "wall_s", "metro, stadium-brownout"),
    ("simnet.wifi.msgs.control", "count", "lower", "wall_s", "metro, stadium-brownout"),
    ("simnet.wifi.payload_mb", "MB", "lower", "wall_s", "metro, stadium-brownout"),
    ("simnet.wifi.wire_mb", "MB", "lower", "wall_s", "metro, stadium-brownout"),
    ("simnet.wifi.drops", "count", "lower", "wall_s", "metro, stadium-brownout"),
    ("simnet.wifi.delivered_frac", "frac", "higher", "wall_s", "metro, stadium-brownout"),
    ("simnet.wifi.airtime_s", "s", "lower", "wall_s", "metro, stadium-brownout"),
    ("simnet.wifi.batch_ns_per_rx", "ns", "lower", "wall_s", "metro, stadium-brownout"),
    ("simnet.bitmap.and_ns", "ns", "lower", "wall_s", "metro, stadium-brownout"),
    ("simnet.bitmap.zero_indices_ns", "ns", "lower", "wall_s", "metro, stadium-brownout"),
    ("mobistreams.broadcast.sender_ns_per_rx", "ns", "lower", "wall_s", "metro, stadium-brownout"),
    ("mobistreams.broadcast.receiver_ns_per_batch", "ns", "lower", "wall_s", "metro, stadium-brownout"),
    ("simnet.cell.payload_mb", "MB", "lower", "wall_s", "paper-grid"),
    ("simnet.cell.drops", "count", "lower", "wall_s", "paper-grid"),
    ("simnet.cell.rejects", "count", "lower", "wall_s", "paper-grid"),
    ("simnet.cell.max_queue_kb", "KB", "lower", "wall_s", "paper-grid"),
    ("mobistreams.commits", "count", "higher", "wall_s", "metro, stadium-brownout"),
    ("mobistreams.recoveries", "count", "lower", "wall_s", "metro, stadium-brownout"),
    ("mobistreams.recovery_mean_s", "s", "lower", "wall_s", "metro, stadium-brownout"),
    ("mobistreams.departures", "count", "lower", "wall_s", "metro, stadium-brownout"),
    ("mobistreams.membership_msgs", "count", "lower", "wall_s", "metro, stadium-brownout"),
    ("mobistreams.membership_kb", "KB", "lower", "wall_s", "metro, stadium-brownout"),
    ("mobistreams.ckpt_s", "s", "lower", "wall_s", "metro, stadium-brownout"),
    ("dsps.processed", "count", "higher", "wall_s", ALL3),
    ("dsps.source_inputs", "count", "higher", "wall_s", ALL3),
    ("dsps.source_drops", "count", "lower", "wall_s", ALL3),
    ("dsps.routing_drops", "count", "lower", "wall_s", ALL3),
    ("dsps.outputs", "count", "higher", "wall_s", ALL3),
    ("dsps.tput_tps", "1/s", "higher", "wall_s", ALL3),
    ("dsps.latency_mean_s", "s", "lower", "wall_s", ALL3),
    ("dsps.latency_p95_s", "s", "lower", "wall_s", ALL3),
    ("dsps.cpu_busy_s", "s", "lower", "wall_s", ALL3),
    ("dsps.steady_s", "s", "lower", "wall_s", ALL3),
    ("apps.haar_quadrant_ns", "ns", "lower", "wall_s", "paper-grid"),
    ("apps.color_filter_ns", "ns", "lower", "wall_s", "paper-grid"),
    ("apps.svm_epoch_ns", "ns", "lower", "wall_s", "paper-grid"),
    ("dsps.base_run_s", "s", "lower", "wall_s", "paper-grid only"),
    ("baselines.local_run_s", "s", "lower", "wall_s", "paper-grid only"),
    ("baselines.dist1_run_s", "s", "lower", "wall_s", "paper-grid only"),
    ("baselines.dist2_run_s", "s", "lower", "wall_s", "paper-grid only"),
    ("baselines.dist3_run_s", "s", "lower", "wall_s", "paper-grid only"),
    ("baselines.rep2_run_s", "s", "lower", "wall_s", "paper-grid only"),
    ("mobistreams.ms_run_s", "s", "lower", "wall_s", "paper-grid only"),
    ("experiments.setup_s", "s", "lower", "setup_s", ALL3),
    ("experiments.harvest_s", "s", "lower", "wall_s", ALL3),
    ("experiments.trace_overhead_s", "s", "lower", "traced wall_s", ALL3),
]


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def target_dir():
    """CARGO_TARGET_DIR (relative to the repository root), else .bench_build."""
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build():
    """Build the benchmark binary; exit nonzero if the sources are missing."""
    if not os.path.isdir(os.path.join(ROOT, "crates", "experiments")):
        log("perfbench: the repository's crates/ are missing; nothing to build")
        sys.exit(2)
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
        log("perfbench: build failed")
        sys.exit(2)
    return os.path.join(target_dir(), "release", "perfbench")


# Thread facts reported by the perfbench processes themselves.
CHILD_HOST = {}


def host_info():
    rustc = subprocess.run(["rustc", "-V"], capture_output=True, text=True).stdout.strip()
    return dict({"nproc": len(os.sched_getaffinity(0)), "rustc": rustc}, **CHILD_HOST)


def run_child(binary, args):
    """Run one perfbench process; returns (parsed output or None, rusage)."""
    proc = subprocess.Popen([binary] + args, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    out = proc.stdout.read()
    proc.stdout.close()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        log(f"perfbench {' '.join(args)}: exit code {proc.returncode}")
        return None, usage
    try:
        res = json.loads(out.strip().splitlines()[-1])
        CHILD_HOST.update({k: res[k] for k in ("available_parallelism", "threads")})
        return res, usage
    except (ValueError, IndexError, KeyError):
        log(f"perfbench {' '.join(args)}: unreadable output")
        return None, usage


class References:
    """First digests seen per (workload, seed) for this build of the binary,
    kept on disk so that runs in later processes are held to them too."""

    def __init__(self, binary):
        with open(binary, "rb") as f:
            self.build = hashlib.sha256(f.read()).hexdigest()
        self.path = os.path.join(OUT, "references.json")
        try:
            with open(self.path) as f:
                saved = json.load(f)
        except (OSError, ValueError):
            saved = {}
        self.digests = saved.get("digests", {}) if saved.get("build") == self.build else {}

    def check(self, key, digests):
        """Number of runs whose digest differs from the reference."""
        ref = self.digests.setdefault(key, digests)
        if len(ref) != len(digests):
            return len(digests)
        return sum(1 for a, b in zip(ref, digests) if a != b or b == "panic")

    def save(self):
        os.makedirs(OUT, exist_ok=True)
        with open(self.path, "w") as f:
            json.dump({"build": self.build, "digests": self.digests}, f, indent=1)


def measure(binary, workload, seed, seconds, refs):
    """Untraced runs for `seconds`: returns (metrics, attempted, failed)."""
    subseeds = [seed + k * SUBSEED_STRIDE for k in range(WORKLOADS[workload]["subseeds"])]
    samples = {s: [] for s in subseeds}
    durations = []
    attempted = failed = 0
    start = time.monotonic()
    i = 0
    while True:
        s = subseeds[i % len(subseeds)]
        # Every sub-seed runs once; further rounds only while they fit.
        if i >= len(subseeds):
            elapsed = time.monotonic() - start
            if elapsed + statistics.median(durations) > seconds:
                break
        t = time.monotonic()
        res, usage = run_child(binary, ["run", workload, str(s)])
        durations.append(time.monotonic() - t)
        i += 1
        if res is None:
            attempted += 1
            failed += 1
            continue
        attempted += res["runs"]
        for f in res["failures"]:
            log(f"FAILED {workload} seed {s}: {f}")
        bad = refs.check(f"{workload}/{s}", res["digests"])
        if bad:
            log(f"FAILED {workload} seed {s}: {bad} digest(s) differ from the first run")
        failed += min(res["runs"], max(bad, len(res["failures"])))
        scale = REFERENCE_S / res["reference_s"]
        samples[s].append({
            "wall_s": res["wall_s"] * scale,
            "setup_s": res["setup_s"] * scale,
            "cpu_s": res["cpu_s"] * scale,
            "peak_rss_mb": usage.ru_maxrss / 1024.0,
            "raw_wall_s": res["wall_s"],
            "reference_s": res["reference_s"],
        })
    ran = [s for s in subseeds if samples[s]]
    if len(ran) < len(subseeds):
        return None, attempted, max(failed, 1)

    def med(s, key):
        return statistics.median(x[key] for x in samples[s])

    metrics = {key: sum(med(s, key) for s in subseeds) for key in ("wall_s", "setup_s", "cpu_s")}
    metrics["peak_rss_mb"] = statistics.median(med(s, "peak_rss_mb") for s in subseeds)
    metrics["pass_rate"] = (attempted - failed) / attempted
    log("before scaling: " + json.dumps({
        "wall_s": sum(med(s, "raw_wall_s") for s in subseeds),
        "reference_s": statistics.median(x["reference_s"] for s in subseeds for x in samples[s]),
    }))
    log(f"{workload} seed {seed}: {i} runs over {len(subseeds)} seed(s) in "
        f"{time.monotonic() - start:.1f} s")
    return metrics, attempted, failed


def trace(binary, workload, seed, refs):
    """One traced run plus probes: returns (metrics, attempted, failed)."""
    os.makedirs(OUT, exist_ok=True)
    spans = os.path.join(OUT, f"trace_{workload}_seed{seed}.json")
    res, _ = run_child(binary, ["trace", workload, str(seed), spans])
    if res is None:
        return None, 1, 1
    for f in res["failures"]:
        log(f"FAILED {workload} seed {seed}: {f}")
    if res["fleet_digest"]:
        log(f"{workload} seed {seed}: FleetReport digest {res['fleet_digest']}")
    log(f"{workload} seed {seed}: spans written to {os.path.relpath(spans, ROOT)}")
    bad = refs.check(f"{workload}/{seed}", res["digests"])
    if bad:
        log(f"FAILED {workload} seed {seed}: {bad} digest(s) differ from the first run")
    names = {name for name, *_ in PER_LAYER}
    if set(res["metrics"]) != names:
        log(f"perfbench: layer metrics differ from the table: {sorted(set(res['metrics']) ^ names)}")
        sys.exit(2)
    failed = min(max(bad, len(res["failures"])), res["attempted"])
    return res["metrics"], res["attempted"], failed


def result_line(metrics, units, attempted, failed):
    return json.dumps({
        "correct": failed == 0 and metrics is not None,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units} if metrics else {},
    })


def report(binary, seed, seconds, refs):
    """Both modes on every workload, printed as tables."""
    ok = True
    for workload, spec in WORKLOADS.items():
        print(f"\n=== {workload}: {spec['why']}")
        e2e, att, bad = measure(binary, workload, seed, seconds, refs)
        ok &= bad == 0 and e2e is not None
        print(f"end to end ({att} runs attempted, {bad} failed):")
        for name, unit in END_TO_END:
            print(f"  {name:<14} {e2e[name] if e2e else float('nan'):>14.6g} {unit}")
        layers, att, bad = trace(binary, workload, seed, refs)
        ok &= bad == 0 and layers is not None
        print(f"per layer, traced ({att} runs attempted, {bad} failed):")
        print(f"  {'metric':<44} {'value':>14} {'unit':<6} {'better':<7} {'should move':<23} on")
        for name, unit, better, moves, where in PER_LAYER:
            value = layers[name] if layers else float("nan")
            print(f"  {name:<44} {value:>14.6g} {unit:<6} {better:<7} {moves:<23} {where}")
    return ok


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=35)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--report", action="store_true",
                    help="run every workload in both modes and print tables")
    args = ap.parse_args()
    if not args.report and args.workload is None:
        ap.error("--workload is required unless --report is given")
    if args.seed < 0:
        ap.error("--seed must be nonnegative")

    binary = build()
    refs = References(binary)
    try:
        if args.report:
            ok = report(binary, args.seed, args.seconds, refs)
            print(f"\nhost: {json.dumps(host_info())}")
            sys.exit(0 if ok else 1)
        if args.trace:
            metrics, attempted, failed = trace(binary, args.workload, args.seed, refs)
            units = [(name, unit) for name, unit, *_ in PER_LAYER]
        else:
            metrics, attempted, failed = measure(binary, args.workload, args.seed,
                                                 args.seconds, refs)
            units = END_TO_END
    finally:
        refs.save()
    print(json.dumps({"host": host_info()}), flush=True)
    print(result_line(metrics, units, attempted, failed), flush=True)


if __name__ == "__main__":
    main()
