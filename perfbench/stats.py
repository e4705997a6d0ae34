"""Statistics and metric assembly for the TART benchmark (perfbench).

Pure functions, no I/O: run.py feeds them the raw measurements that
perfbench-workload wrote, and test_stats.py pins their behaviour.
"""

import statistics

# Percentiles tried for the tail, highest first. A tail percentile is only
# reported when at least TAIL_MIN_BEYOND samples lie beyond it.
TAIL_LADDER = (99.99, 99.9, 99.0, 90.0)
TAIL_MIN_BEYOND = 10

# name -> (unit, direction): every end-to-end metric, on every workload.
END_TO_END = {
    "throughput_msgs_s": ("1/s", "higher"),
    "lat_p50_us": ("us", "lower"),
    "cpu_us_per_msg": ("us", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}

# name -> (unit, direction): per-layer metrics printed by every traced run.
# Each is defined on every workload; a layer that is not on a workload's
# path reads 0 there (a count, never a time).
PER_LAYER = {
    "ingress.ack_p50_us": ("us", "lower"),
    "core.dispatch_us": ("us", "lower"),
    "core.dispatches_per_msg": ("count", "lower"),
    "core.ctx_switches_per_msg": ("count", "lower"),
    "core.merge_stalls_per_msg": ("count", "lower"),
    "core.probes_per_msg": ("count", "lower"),
    "core.dup_discard_frac": ("ratio", "lower"),
    "gateway.commit_batch": ("count", "higher"),
    "log.flushes_per_msg": ("count", "lower"),
    "log.bytes_per_msg": ("B", "lower"),
    "net.frames_per_msg": ("count", "lower"),
    "net.bytes_per_msg": ("B", "lower"),
    "net.loop_busy_pct_left": ("%", "lower"),
    "net.loop_busy_pct_right": ("%", "lower"),
    "serde.bytes_per_msg": ("B", "lower"),
    "durability.covered_records": ("count", "higher"),
    "durability.suffix_records": ("count", "lower"),
    "trace.overhead_pct": ("%", "lower"),
}


def percentile(values, p):
    """Linear-interpolated percentile p in [0, 100] of unsorted values."""
    if not values:
        raise ValueError("percentile of no samples")
    s = sorted(values)
    if len(s) == 1:
        return float(s[0])
    rank = (len(s) - 1) * p / 100.0
    lo = int(rank)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (rank - lo)


def tail_percentile(n):
    """Highest percentile of the ladder with >= TAIL_MIN_BEYOND of n samples
    beyond it, or None when even p90 has too few."""
    for p in TAIL_LADDER:
        # Rounded: 100 - 99.9 is not exactly 0.1 in binary floating point.
        if round(n * (100.0 - p) / 100.0, 6) >= TAIL_MIN_BEYOND:
            return p
    return None


def summarize(values):
    """Median, tail percentile (by the >=10-beyond rule) and sample count."""
    out = {"n": len(values)}
    if not values:
        return out
    out["p50"] = statistics.median(values)
    p = tail_percentile(len(values))
    if p is not None:
        out["tail_p"] = p
        out["tail"] = percentile(values, p)
    return out


def quartiles(values):
    """(q1, median, q3) the way statistics.quantiles(n=4) gives them."""
    if len(values) < 2:
        v = float(values[0])
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    """Inter-quartile range as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else float("inf")


def _median(raw, key):
    values = raw.get(key) or []
    if not values:
        raise ValueError("the run reported no %s samples" % key)
    return statistics.median(values)


def end_to_end(raw):
    """The end-to-end metrics of one untraced run, name -> value."""
    return {
        "throughput_msgs_s": _median(raw, "throughput"),
        "lat_p50_us": _median(raw, "lat_us"),
        "cpu_us_per_msg": _median(raw, "cpu_us"),
        "setup_s": _median(raw, "setup_s"),
        "peak_rss_mb": raw["peak_rss_kb"] / 1024.0,
    }


def per_layer(untraced, traced):
    """Per-layer metrics (name -> value) plus the table-only timing rows.

    `untraced` and `traced` are the raw results of the untraced and traced
    halves of a traced run; trace.overhead_pct compares their lat_p50_us.
    """
    layers = traced.get("layers", {})
    metrics = {name: float(layers.get(name, 0.0)) for name in PER_LAYER}
    metrics["ingress.ack_p50_us"] = _median(untraced, "ack_us")
    base = _median(untraced, "lat_us")
    metrics["trace.overhead_pct"] = 100.0 * (
        _median(traced, "lat_us") / base - 1)

    table = {}
    for name, value in layers.items():
        if name in PER_LAYER:
            continue
        table[name] = summarize(value) if isinstance(value, list) else value
    inject = table.get("core.inject_us")
    if traced.get("workload") == "chain-hop" and inject and "p50" in inject:
        # Three hops between the inject call's return and the output.
        table["core.hop_us"] = (_median(traced, "lat_us") - inject["p50"]) / 3
    return metrics, table


def result_line(correct, attempted, failed, metrics, units):
    """The benchmark's last stdout line, as a dict."""
    return {
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {
            name: {"value": metrics[name], "unit": units[name][0]}
            for name in units
        },
    }
