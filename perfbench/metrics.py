"""Turns the driver's raw measurements into the benchmark's metrics.

All of the benchmark's arithmetic lives here (tests/test_metrics.py checks
it): means, medians, the tail percentile, failure shares, and span self
times.
"""

import statistics

# Spans the traced run records around a layer's public entry point. Every
# other span ("request", "cycle", "ingest", "setup", "core.rewrite_tables")
# only groups layers; its self time is replay glue, not layer work.
LAYER_SPANS = (
    "discovery.sketch",
    "discovery.query",
    "table.csv_parse",
    "match.align",
    "core.match",
    "core.rewrite",
    "fd.build",
    "fd.index",
    "fd.run",
    "fd.enumerate",
    "fd.subsume",
    "catalog.save",
    "catalog.open",
)

# Samples that must lie beyond the reported tail value.
TAIL_BEYOND = 10


def median(values):
    """Median of `values`; 0.0 for an empty list."""
    return statistics.median(values) if values else 0.0


def mean(values):
    """Arithmetic mean of `values`; 0.0 for an empty list."""
    return statistics.fmean(values) if values else 0.0


def tail(values):
    """The highest percentile with at least TAIL_BEYOND samples beyond it.

    Returns (value, percentile, sample_count). With n samples sorted
    ascending, the value at 0-based index n - TAIL_BEYOND - 1 has exactly
    TAIL_BEYOND samples above it, and every higher index has fewer; its
    percentile is the share of samples at or below it. With too few
    samples the maximum is returned with percentile 100.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        return 0.0, 0.0, 0
    index = n - TAIL_BEYOND - 1
    if index < 0:
        return ordered[-1], 100.0, n
    return ordered[index], 100.0 * (index + 1) / n, n


def error_rate(attempted, failed):
    """Share of attempted operations that failed (errors and mismatches)."""
    if attempted <= 0:
        return 1.0
    return failed / attempted


def ratio(numerator, denominator):
    return numerator / denominator if denominator else 0.0


def self_times(spans):
    """Self time of every span: its duration minus the part of its
    interval that its direct children cover (overlapping children are
    counted once; child time outside the parent is ignored).

    `spans` is a list of [name, parent_index, start_ns, end_ns].
    """
    children = [[] for _ in spans]
    for i, span in enumerate(spans):
        parent = int(span[1])
        if parent >= 0:
            children[parent].append(i)
    result = []
    for i, (_, _, start, end) in enumerate(spans):
        intervals = sorted(
            (max(start, spans[c][2]), min(end, spans[c][3])) for c in children[i]
        )
        covered = 0
        cur_start = cur_end = None
        for s, e in intervals:
            if e <= s:
                continue
            if cur_end is None or s > cur_end:
                if cur_end is not None:
                    covered += cur_end - cur_start
                cur_start, cur_end = s, e
            else:
                cur_end = max(cur_end, e)
        if cur_end is not None:
            covered += cur_end - cur_start
        result.append((end - start) - covered)
    return result


def _descendants(spans, root):
    inside = {root}
    for i, span in enumerate(spans):
        if int(span[1]) in inside:
            inside.add(i)
    return inside


def layer_self_ns(spans, within=None):
    """Self time per layer span name, in ns, summed over repeated spans.

    With `within` set, only spans inside the first span of that name count.
    """
    selfs = self_times(spans)
    scope = None
    if within is not None:
        roots = [i for i, s in enumerate(spans) if s[0] == within]
        scope = _descendants(spans, roots[0]) if roots else set()
    totals = {}
    for i, span in enumerate(spans):
        if span[0] in LAYER_SPANS and (scope is None or i in scope):
            totals[span[0]] = totals.get(span[0], 0) + selfs[i]
    return totals


def span_duration_ns(spans, name):
    for span in spans:
        if span[0] == name:
            return span[3] - span[2]
    return 0


def end_to_end(raw):
    """The user-visible metrics of one untraced run, as name -> value.

    Request latency is reported as a mean, not a median: on shared hosts a
    request's speed switches between a fast and a slow mode for seconds at
    a time, and a median jumps between the two modes as their shares in a
    run cross one half, while the mean moves with the shares in proportion.
    """
    request = [c["request_ms"] for c in raw["cycles"]]
    return {
        "setup_s": median(raw["setup_s"]),
        "request_mean_ms": mean(request),
        "request_tail_ms": tail(request)[0],
        "peak_rss_mb": raw["peak_rss_mb"],
    }


def workload_extras(raw):
    """Whole-cycle figures, workload-specific step latencies and answer
    quality."""
    cycles = raw["cycles"]
    totals = raw["totals"]
    cycle = [c["cycle_ms"] for c in cycles]
    ingest = [c["ingest_ms"] for c in cycles if c["ingest_ms"] > 0]
    checkpoint = [c["checkpoint_ms"] for c in cycles if c["checkpoint_ms"] > 0]
    correct = totals.get("quality.repair_correct", 0.0)
    precision = ratio(correct, totals.get("quality.repair_changed", 0.0))
    recall = ratio(correct, totals.get("quality.repair_planted", 0.0))
    return {
        "requests_per_s": ratio(len(cycle), sum(cycle) / 1e3),
        "cycle_p50_ms": median(cycle),
        "ingest_p50_ms": median(ingest),
        "ingest_tail_ms": tail(ingest)[0],
        "checkpoint_p50_ms": median(checkpoint),
        "catalog_bytes_per_input_byte": ratio(
            totals.get("catalog.disk_bytes", 0.0), raw["inputs"].get("csv_bytes", 0.0)
        ),
        "repair_f1": ratio(2 * precision * recall, precision + recall),
        "discovery_recall": ratio(
            totals.get("quality.discovery_hits", 0.0),
            totals.get("quality.discovery_wanted", 0.0),
        ),
        "error_rate": error_rate(raw["attempted"], raw["failed"]),
    }


def per_layer(raw):
    """Per-layer metrics of one traced run, as name -> value.

    Time metrics are per-cycle medians of self time; counters are
    per-cycle medians of what the entry points returned.
    """
    traced = raw["traced"]
    selfs = [layer_self_ns(t["spans"]) for t in traced]
    in_request = [layer_self_ns(t["spans"], within="request") for t in traced]
    walls = [span_duration_ns(t["spans"], "request") for t in traced]
    counters = [t["counters"] for t in traced]
    untraced_ms = median([c["request_ms"] for c in raw["cycles"]])

    def self_ms(name):
        return median([s.get(name, 0) / 1e6 for s in selfs])

    def counter(name):
        return median([c.get(name, 0.0) for c in counters])

    def counter_ratio(num, den):
        return median([ratio(c.get(num, 0.0), c.get(den, 0.0)) for c in counters])

    out = {}
    for span in LAYER_SPANS:
        out[span + "_ms"] = self_ms(span)
    out.update({
        "fd.search_nodes": counter("fd.search_nodes"),
        "fd.us_per_node": median([
            ratio(s.get("fd.enumerate", 0) / 1e3, c.get("fd.search_nodes", 0.0))
            for s, c in zip(selfs, counters)
        ]),
        "fd.keep_ratio": counter_ratio("fd.results", "fd.results_before_subsumption"),
        "fd.largest_component_share": counter_ratio(
            "fd.largest_component", "fd.input_tuples"),
        "fd.intra_tasks": counter("fd.intra_tasks"),
        "pool.busy_s": counter("pool.busy_ns") / 1e9,
        "pool.wait_s": counter("pool.wait_ns") / 1e9,
        "pool.utilization": median([
            ratio(c.get("pool.busy_ns", 0.0), c.get("pool.workers", 0.0) * w)
            for c, w in zip(counters, walls)
        ]),
        "core.cost_evaluations": counter("core.cost_evaluations"),
        "core.pruned_share": counter_ratio(
            "core.pruned_evaluations", "core.cost_evaluations"),
        "core.dense_solves": counter("core.dense_solves"),
        "core.sparse_solves": counter("core.sparse_solves"),
        "core.values_rewritten": counter("core.values_rewritten"),
        "embedding.hit_ratio": median([
            ratio(c.get("embedding.hits", 0.0),
                  c.get("embedding.hits", 0.0) + c.get("embedding.misses", 0.0))
            for c in counters
        ]),
        "embedding.misses": counter("embedding.misses"),
        "match.universal_columns": counter("match.universal_columns"),
        "discovery.build_ms": sum(
            s[3] - s[2] for s in raw["setup_trace"]["spans"]
            if s[0] == "discovery.build") / 1e6,
        "table.csv_mb_per_s": median([
            ratio(c.get("table.csv_bytes", 0.0) / 2**20,
                  s.get("table.csv_parse", 0) / 1e9)
            for s, c in zip(selfs, counters)
        ]),
        "catalog.values_loaded": counter("catalog.values_loaded"),
        "catalog.mapped_mb": counter("catalog.mapped_bytes") / 2**20,
        "catalog.bytes_written": counter("catalog.bytes_written"),
        "catalog.tables_written": counter("catalog.tables_written"),
        "catalog.generations_removed": counter("catalog.generations_removed"),
        "catalog.columns_resketched": counter("catalog.columns_resketched"),
        "engine.emit_ms": untraced_ms - median(
            [sum(s.values()) / 1e6 for s in in_request]),
        "engine.schema_cache_hit_ratio": ratio(
            raw["totals"].get("engine.schema_cache_hits", 0.0),
            raw["totals"].get("engine.requests", 0.0)),
        "obs.trace_overhead_pct": 100.0 * ratio(
            median(walls) / 1e6 - untraced_ms, untraced_ms),
    })
    out.update(workload_extras(raw))
    return out


def layer_shares(raw):
    """Median share of each layer family (fd, core+match, discovery, ...)
    in the traced request's summed layer self time."""
    families = {}
    for t in raw["traced"]:
        per_span = layer_self_ns(t["spans"], within="request")
        total = sum(per_span.values())
        grouped = {}
        for name, ns in per_span.items():
            family = name.split(".")[0]
            if family in ("core", "match"):
                family = "core+match"
            grouped[family] = grouped.get(family, 0) + ns
        for family, ns in grouped.items():
            families.setdefault(family, []).append(ratio(ns, total))
    return {f: median(v) for f, v in sorted(families.items())}
