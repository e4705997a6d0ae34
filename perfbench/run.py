#!/usr/bin/env python3
"""TART benchmark: builds TART from source and runs one workload.

    python3 perfbench/run.py --workload chain-hop --seed 1 --seconds 30 \
        --trace 0

Run from the repository root. The first run configures and builds
perfbench/ (the library from src/, tart-node and perfbench-workload) under
$CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when that is unset.

--trace 0 prints every end-to-end metric; --trace 1 runs the workload
untraced for half the time and traced for the other half, and prints the
per-layer metrics (with trace.overhead_pct) plus the per-layer timing table.
--repeat N runs N seeds and prints each metric's median, quartiles and
spread. The last stdout line is always one JSON object:
{"correct", "attempted", "failed", "metrics"}. See perfbench/README.md.
"""

import argparse
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import stats  # noqa: E402

WORKLOADS = ("chain-hop", "fanin-2node", "restart-replay")
# Beyond --seconds: template ingest, reference runs, set-up loops, teardown.
# perfbench-workload's own watchdog fires at --seconds + 55.
GRACE_S = 60


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.abspath(os.path.join(root, "perfbench"))


def build(bdir):
    """Configures and builds perfbench-workload and tart-node (both steps
    are quick when nothing changed)."""
    os.makedirs(bdir, exist_ok=True)
    build_log = os.path.join(bdir, "build.log")
    steps = [["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", bdir, "-j", str(os.cpu_count() or 1),
              "--target", "perfbench-workload", "tart-node"]]
    with open(build_log, "w") as out:
        for cmd in steps:
            if subprocess.call(cmd, stdout=out, stderr=subprocess.STDOUT) != 0:
                with open(build_log) as f:
                    log(f.read()[-4000:])
                raise RuntimeError("build failed (see %s)" % build_log)
    return (os.path.join(bdir, "perfbench-workload"),
            os.path.join(bdir, "tart", "tools", "tart-node"))


def fs_type(path):
    """Filesystem type holding `path`, from /proc/mounts."""
    best, kind = "", "unknown"
    try:
        with open("/proc/mounts") as f:
            for line in f:
                fields = line.split()
                mnt = fields[1]
                if (path == mnt or path.startswith(mnt.rstrip("/") + "/")) \
                        and len(mnt) > len(best):
                    best, kind = mnt, fields[2]
    except OSError:
        pass
    return kind


def machine(scratch_root):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "kernel": platform.release(),
        "build_type": "Release",
        "scratch_dir": scratch_root,
        "scratch_fs": fs_type(scratch_root),
    }


def cpu_ticks():
    """(steal, total) jiffies of all CPUs, from /proc/stat."""
    try:
        with open("/proc/stat") as f:
            fields = [int(x) for x in f.readline().split()[1:]]
    except (OSError, ValueError):
        return 0, 0
    return (fields[7] if len(fields) > 7 else 0), sum(fields)


def run_workload(binaries, args, seed, seconds, trace, results):
    """Runs perfbench-workload once in a fresh scratch directory; returns
    its raw measurements. Its process group (and the tart-node children,
    which die with it) is killed on timeout or interrupt."""
    program, node = binaries
    os.makedirs(args.scratch_dir, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="run-", dir=args.scratch_dir)
    raw_path = os.path.join(scratch, "raw.json")
    cmd = [program, args.workload, "--seed", str(seed),
           "--seconds", repr(seconds), "--trace", "1" if trace else "0",
           "--scratch", scratch, "--out", raw_path, "--node-bin", node]
    if args.smoke:
        cmd.append("--smoke")
    steal0, total0 = cpu_ticks()
    proc = subprocess.Popen(cmd, stdout=sys.stderr, start_new_session=True)
    try:
        rc = proc.wait(timeout=seconds + GRACE_S)
        if rc != 0:
            raise RuntimeError("perfbench-workload exited with %d" % rc)
        with open(raw_path) as f:
            raw = json.load(f)
        steal1, total1 = cpu_ticks()
        # Hypervisor steal during the run: the machine's own noise floor.
        raw["steal_pct"] = 100.0 * (steal1 - steal0) / max(1, total1 - total0)
        if trace:
            spans = os.path.join(scratch, args.workload + ".spans.tsv")
            if os.path.exists(spans):
                shutil.copy(spans, os.path.join(
                    results, "%s-seed%d.spans.tsv" % (args.workload, seed)))
        return raw
    finally:
        if proc.poll() is None:
            # SIGTERM lets it kill and reap its tart-node children.
            os.killpg(proc.pid, signal.SIGTERM)
            try:
                proc.wait(timeout=5)
            except subprocess.TimeoutExpired:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
        shutil.rmtree(scratch, ignore_errors=True)


def describe(raw):
    """Diagnostics line: latency tails with their sample counts."""
    parts = []
    for key in ("lat_us", "ack_us"):
        s = stats.summarize(raw.get(key) or [])
        if "p50" not in s:
            continue
        text = "%s p50=%.1f" % (key, s["p50"])
        if "tail" in s:
            text += " p%g=%.1f" % (s["tail_p"], s["tail"])
        parts.append(text + " (n=%d)" % s["n"])
    parts.append("cpu steal %.1f%%" % raw.get("steal_pct", 0.0))
    if raw.get("errors"):
        parts.append("errors: " + raw["errors"])
    return "; ".join(parts)


def one_run(binaries, args, seed, results):
    """One seed: returns (correct, attempted, failed, metrics, extra)."""
    if not args.trace:
        raw = run_workload(binaries, args, seed, args.seconds, False, results)
        metrics = stats.end_to_end(raw)
        extra = {"diagnostics": describe(raw)}
        runs = [raw]
    else:
        half = max(1.0, args.seconds / 2.0)
        untraced = run_workload(binaries, args, seed, half, False, results)
        traced = run_workload(binaries, args, seed, half, True, results)
        metrics, table = stats.per_layer(untraced, traced)
        extra = {"diagnostics": describe(traced), "table": table}
        runs = [untraced, traced]
    attempted = sum(int(r["attempted"]) for r in runs)
    failed = sum(int(r["failed"]) for r in runs)
    correct = failed == 0 and attempted > 0
    return correct, attempted, failed, metrics, extra


def print_metrics(metrics, units):
    for name, (unit, better) in units.items():
        print("  %-28s %16.6g %-6s (%s is better)"
              % (name, metrics[name], unit, better))


def print_table(table):
    print("per-layer timing table (workload-specific rows):")
    for name in sorted(table):
        value = table[name]
        if isinstance(value, dict):
            if "p50" not in value:
                continue
            text = "p50=%.3f" % value["p50"]
            if "tail" in value:
                text += " p%g=%.3f" % (value["tail_p"], value["tail"])
            print("  %-36s %s (n=%d)" % (name, text, value["n"]))
        else:
            print("  %-36s %.6g" % (name, value))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--repeat", type=int, default=1,
                    help="run N seeds (seed, seed+1, ...) and summarize")
    ap.add_argument("--smoke", action="store_true",
                    help="tiny sizes: checks the workload runs, not speed")
    ap.add_argument("--scratch-dir", default=None,
                    help="where run directories (logs, checkpoints) go; "
                         "default <build dir>/scratch")
    args = ap.parse_args()

    bdir = build_dir()
    args.scratch_dir = os.path.abspath(args.scratch_dir or
                                       os.path.join(bdir, "scratch"))
    results = os.path.join(bdir, "results")
    os.makedirs(results, exist_ok=True)
    units = stats.PER_LAYER if args.trace else stats.END_TO_END

    binaries = build(bdir)
    desc = machine(args.scratch_dir)
    print("perfbench %s seed=%d seconds=%g trace=%d repeat=%d"
          % (args.workload, args.seed, args.seconds, args.trace, args.repeat))
    print("machine: " + json.dumps(desc))

    per_metric = {name: [] for name in units}
    correct_all, attempted_all, failed_all = True, 0, 0
    for i in range(args.repeat):
        seed = args.seed + i
        correct, attempted, failed, metrics, extra = one_run(
            binaries, args, seed, results)
        correct_all &= correct
        attempted_all += attempted
        failed_all += failed
        for name in units:
            per_metric[name].append(metrics[name])
        print("seed %d: correct=%s attempted=%d failed=%d"
              % (seed, correct, attempted, failed))
        print_metrics(metrics, units)
        print("  " + extra["diagnostics"])
        if "table" in extra:
            print_table(extra["table"])
        with open(os.path.join(results, "%s-seed%d-trace%d.json"
                               % (args.workload, seed, args.trace)), "w") as f:
            json.dump({"machine": desc, "correct": correct,
                       "attempted": attempted, "failed": failed,
                       "metrics": metrics, **extra}, f, indent=1)

    final = {name: values[0] for name, values in per_metric.items()}
    if args.repeat > 1:
        print("summary over %d seeds: median [q1, q3] spread=(q3-q1)/median"
              % args.repeat)
        for name, values in per_metric.items():
            q1, q2, q3 = stats.quartiles(values)
            final[name] = q2
            print("  %-28s %14.6g [%.6g, %.6g] spread=%.4f %s"
                  % (name, q2, q1, q3, stats.spread(values), units[name][0]))
    print(json.dumps(stats.result_line(correct_all, attempted_all, failed_all,
                                       final, units)))
    return 0


if __name__ == "__main__":
    # SIGINT and SIGTERM unwind (even when started with SIGINT ignored, as
    # background jobs are), so run_workload's cleanup still runs.
    signal.signal(signal.SIGINT, signal.default_int_handler)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        sys.exit(main())
    except KeyboardInterrupt:
        sys.exit(130)
    except (RuntimeError, ValueError, OSError, KeyError,
            subprocess.SubprocessError) as e:
        log("perfbench: %s" % e)
        sys.exit(1)
