"""Turns the run records of the perfbench workload processes into metrics.

A record is the JSON line one workload process prints (cpp/harness.h): a
header, raw values, raw latency samples, the attempted/failed operation
counts, and (traced binary only) spans. Everything here is a pure function of
records, so it is unit-tested without building anything (test_report.py).
"""

import json
import math
import statistics

# Percentiles tried for a tail, highest first.
TAIL_LADDER = (99.99, 99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_MIN_BEYOND = 10

WORKLOADS = ("serve_loop", "stream_replay", "job_sweep", "anchor_fit")

# End-to-end metrics: name -> unit, in report order. Every workload reports
# every one; end_to_end() says what each means on each workload.
E2E_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ari": "ratio",
    "fit_s": "s",
    "call_p50_ms": "ms",
    "pts_per_s": "pts/s",
}

# Self-time spans of the staged anchor fit (cpp/staged_fit.h) -> metric.
FIT_STAGES = (
    ("mvsc.standardize", "mvsc.standardize_s"),
    ("graph.select_anchors", "graph.select_anchors_s"),
    ("graph.anchor_affinity", "graph.anchor_affinity_s"),
    ("cluster.anchor_embedding", "cluster.anchor_embedding_s"),
    ("mvsc.column_normalize", "mvsc.column_normalize_s"),
    ("mvsc.joint_basis", "mvsc.joint_basis_s"),
    ("mvsc.reduced_laplacians", "mvsc.reduced_laplacians_s"),
    ("mvsc.reduced_alternation", "mvsc.reduced_alternation_s"),
)

# Per-layer metrics: name -> unit, in report order.
LAYER_UNITS = {
    "data.generate_s": "s",
    "la.lazy_init_s": "s",
    "la.block_mode_shapes": "count",
    **{metric: "s" for _, metric in FIT_STAGES},
    "mvsc.iterations": "count",
    "la.matvecs_per_fit": "count",
    "trace.stage_sum_over_fit": "ratio",
    "trace.labels_match": "bool",
    "trace.fit_s": "s",
    "serve.predict1_p50_ms": "ms",
    "serve.assign1_tail_ms": "ms",
    "serve.assign1_tail_pct": "pct",
    "serve.assign1_count": "count",
    "serve.assign1_alloc_kb": "KB",
    "serve.assign256_p50_ms": "ms",
    "serve.assign256_tail_ms": "ms",
    "serve.assign256_tail_pct": "pct",
    "serve.assign256_count": "count",
    "serve.assign256_alloc_kb": "KB",
    "serve.save_s": "s",
    "serve.load_s": "s",
    "serve.model_bytes": "bytes",
    "stream.full_resolves": "count",
    "stream.resolves_before_drift": "count",
    "stream.detect_delay_batches": "count",
    "stream.resolve_s": "s",
    "stream.update_s": "s",
    "stream.resolve_p50_ms": "ms",
    "stream.update_p50_ms": "ms",
    "la.matvecs_per_resolve": "count",
    "la.matvecs_per_update": "count",
    "exec.stage_hits": "count",
    "exec.stage_misses": "count",
    "exec.stage_wait_s": "s",
    "exec.busy_share": "ratio",
    "data.simulate_s": "s",
    "graph.build_graphs_s": "s",
    "mvsc.solve_s": "s",
    "mvsc.solve_p50_ms": "ms",
    "mvsc.solve_tail_ms": "ms",
    "mvsc.solve_tail_pct": "pct",
    "mvsc.solve_count": "count",
    "la.matvecs_per_job": "count",
    "mvsc.ari_min": "ratio",
    **{f"mvsc.{kind}.set{i}": unit
       for i in range(3) for kind, unit in (("iterations", "count"),
                                            ("ari", "ratio"))},
    "trace.overhead": "ratio",
}


def tail_percentile(samples, min_beyond=TAIL_MIN_BEYOND):
    """The highest ladder percentile with at least `min_beyond` samples
    strictly beyond its nearest-rank position: (percentile, value, count),
    or None when even the median lacks them."""
    ordered = sorted(samples)
    n = len(ordered)
    for pct in TAIL_LADDER:
        rank = math.ceil(pct / 100.0 * n)
        if rank >= 1 and n - rank >= min_beyond:
            return pct, ordered[rank - 1], n
    return None


def self_times(spans):
    """Self time of every span: its duration minus the union of its direct
    children's intervals (clipped to it). Spans are [id, parent, name,
    start, end, request, thread]; a child names its parent, which the
    recorder only ever takes from the child's own thread. Returns
    {id: seconds}."""
    children = {}
    for span in spans:
        if span[1]:
            children.setdefault(span[1], []).append((span[3], span[4]))
    result = {}
    for sid, _, _, start, end, _, _ in spans:
        covered, reach = 0.0, start
        for c_start, c_end in sorted(children.get(sid, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        result[sid] = (end - start) - covered
    return result


def self_time_by_name(spans, keep=lambda span: True):
    """Summed self time per span name, over the spans `keep` accepts."""
    own = self_times(spans)
    totals = {}
    for span in spans:
        if keep(span):
            totals[span[2]] = totals.get(span[2], 0.0) + own[span[0]]
    return totals


def _median(values):
    return statistics.median(values) if values else float("nan")


def _tail(out, prefix, samples):
    tail = tail_percentile(samples)
    if tail is not None:
        out[prefix + "_tail_pct"], out[prefix + "_tail_ms"], _ = tail
    out[prefix + "_count"] = len(samples)


def _fit_s(workload, record):
    """fit_s: wall time of the workload's fitting work."""
    values, samples = record["values"], record["samples"]
    if workload == "serve_loop":
        return _median(samples["fit_s"])  # median of three fits of one model
    if workload == "stream_replay":
        return values["stream_s"]  # every Ingest of the stream
    if workload == "job_sweep":
        return _median(samples["sweep_s"])  # one sweep of the 100 jobs
    return values["fit_s"]  # anchor_fit: the three data sets


def end_to_end(workload, record, setup_samples):
    """{metric: value} of one untraced run, every E2E_UNITS metric.
    `setup_samples` are the setup_s of every process of the run (this one
    included); their median is reported.

    call_p50_ms is the median latency of the workload's lightest call and
    pts_per_s the median throughput of its heaviest one:

      serve_loop     Assign(1)                  Assign(256)
      stream_replay  an Ingest that updates     an Ingest that re-solves
                                                (window points per second)
      job_sweep      one job's Run              one job's Run
      anchor_fit     one set's fit              one set's fit
    """
    values, samples = record["values"], record["samples"]
    out = {"setup_s": _median(setup_samples),
           "peak_rss_mb": values["peak_rss_mb"],
           "ari": values["ari"],
           "fit_s": _fit_s(workload, record)}
    if workload == "serve_loop":
        out["call_p50_ms"] = _median(samples["assign1_ms"])
        out["pts_per_s"] = 256.0 / (_median(samples["assign256_ms"]) / 1e3)
    elif workload == "stream_replay":
        out["call_p50_ms"] = _median(samples["update_ms"])
        out["pts_per_s"] = _median(samples["resolve_pts_per_s"])
    elif workload == "job_sweep":
        out["call_p50_ms"] = _median(samples["solve_ms"])
        out["pts_per_s"] = _median(samples["job_pts_per_s"])
    elif workload == "anchor_fit":
        out["call_p50_ms"] = _median(samples["set_fit_s"]) * 1e3
        out["pts_per_s"] = _median(samples["set_pts_per_s"])
    return {name: out[name] for name in E2E_UNITS}


def per_layer(workload, traced, untraced):
    """{metric: value} of one traced run; `untraced` is the record of the
    untraced process run beside it (for the tracing overhead)."""
    values, samples, spans = traced["values"], traced["samples"], traced["spans"]
    out = {name: values[name]
           for name in ("data.generate_s", "la.lazy_init_s",
                        "la.block_mode_shapes") if name in values}
    if workload in ("serve_loop", "anchor_fit"):
        own = self_time_by_name(spans)
        stage_sum = 0.0
        for span_name, metric in FIT_STAGES:
            out[metric] = own.get(span_name, 0.0)
            stage_sum += out[metric]
        out["mvsc.iterations"] = values["mvsc.iterations"]
        out["la.matvecs_per_fit"] = values["la.matvecs_per_fit"]
        out["trace.stage_sum_over_fit"] = stage_sum / _fit_s(workload,
                                                             traced)
        out["trace.labels_match"] = values["trace.labels_match"]
    if workload == "serve_loop":
        out["serve.predict1_p50_ms"] = _median(samples["predict1_ms"])
        _tail(out, "serve.assign1", samples["assign1_ms"])
        out["serve.assign1_alloc_kb"] = _median(samples["assign1_alloc_kb"])
        out["serve.assign256_p50_ms"] = _median(samples["assign256_ms"])
        _tail(out, "serve.assign256", samples["assign256_ms"])
        out["serve.assign256_alloc_kb"] = _median(
            samples["assign256_alloc_kb"])
        for name in ("serve.save_s", "serve.load_s", "serve.model_bytes"):
            out[name] = values[name]
    elif workload == "stream_replay":
        for name in ("stream.full_resolves", "stream.resolves_before_drift",
                     "stream.detect_delay_batches", "la.matvecs_per_resolve",
                     "la.matvecs_per_update"):
            out[name] = values[name]
        out["stream.resolve_s"] = sum(samples["resolve_ms"]) / 1e3
        out["stream.update_s"] = sum(samples["update_ms"]) / 1e3
        out["stream.resolve_p50_ms"] = _median(samples["resolve_ms"])
        out["stream.update_p50_ms"] = _median(samples["update_ms"])
    elif workload == "job_sweep":
        sweeps = len(samples["sweep_s"])
        # Only the sweeps' jobs: the serial re-runs of the check carry no
        # request id.
        own = self_time_by_name(spans, keep=lambda span: span[5] >= 0)
        out["exec.stage_hits"] = values["exec.stage_hits"]
        out["exec.stage_misses"] = values["exec.stage_misses"]
        out["exec.stage_wait_s"] = own.get("exec.stage_get", 0.0) / sweeps
        out["exec.busy_share"] = values["exec.busy_share"]
        out["data.simulate_s"] = own.get("data.simulate", 0.0) / sweeps
        out["graph.build_graphs_s"] = own.get("graph.build_graphs",
                                              0.0) / sweeps
        out["mvsc.solve_s"] = own.get("mvsc.solve", 0.0) / sweeps
        out["mvsc.solve_p50_ms"] = _median(samples["solve_ms"])
        _tail(out, "mvsc.solve", samples["solve_ms"])
        out["la.matvecs_per_job"] = values["la.matvecs_per_job"]
        out["mvsc.ari_min"] = values["mvsc.ari_min"]
    if workload == "anchor_fit":
        for i in range(3):
            for kind in ("iterations", "ari"):
                name = f"mvsc.{kind}.set{i}"
                out[name] = values[name]
    out["trace.fit_s"] = _fit_s(workload, traced)
    out["trace.overhead"] = out["trace.fit_s"] / _fit_s(workload,
                                                        untraced) - 1.0
    # A layer the workload does not enter reads 0.
    return {name: out.get(name, 0.0) for name in LAYER_UNITS}


def result(metrics, units, attempted, failed):
    """The result object: every metric with its unit, in the given order.
    The run is correct only when no operation or check failed."""
    return {
        "correct": failed == 0 and attempted >= 1,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }


def render(header, res):
    """Human-readable lines (header, one line per metric) followed by the
    result as one JSON line, which is always last."""
    lines = ["# " + " ".join(f"{k}={v}" for k, v in header.items())]
    for name, metric in res["metrics"].items():
        lines.append(f"{name:32s} {metric['value']:>16.6g} {metric['unit']}")
    lines.append(f"{'correct':32s} {str(res['correct']).lower():>16s} "
                 f"({res['failed']} of {res['attempted']} operations failed)")
    lines.append(json.dumps(res))
    return lines
