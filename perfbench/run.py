"""Run one workload of the slidingbloom benchmark and print its metrics.

    python3 perfbench/run.py --workload steady-distinct --seed 1 --seconds 20 --trace 0

Runs from the root of a source checkout and imports slidingbloom from
its ``src`` directory. Inputs are generated from --seed before anything
is timed; --seconds sizes the work. With --trace 0 it prints the
end-to-end metrics, with --trace 1 the per-layer metrics of a traced
pass over the same inputs, together with the tracing overhead against
an untraced pass. Every answer is checked: a failed check prints the
problems on stderr, reports ``correct: false`` without metrics, and
exits 1.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it is a JSON report with the configuration, input digests, environment,
checks and every metric, including the ungated ``insert_p999_us``,
``failed_ops_ratio`` and ``false_positive_rate``. perfbench/README.md
describes the workloads, the calibration and the checks.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter_ns

import numpy as np

ROOT = Path(__file__).resolve().parent.parent

END_TO_END = {
    "insert_ops_per_s": "1/s",
    "insert_p50_us": "us",
    "insert_p99_us": "us",
    "query_ops_per_s": "1/s",
    "query_p50_us": "us",
    "query_p99_us": "us",
    "snapshot_save_s": "s",
    "snapshot_load_s": "s",
    "dedup_items_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
}

# reported with the end-to-end metrics but not gated: the two ratios are
# zero on a healthy run (failed operations also travel in "attempted" and
# "failed"), and the p99.9 of calls of a few microseconds, as on
# dedup-text-zipf, tracks the VM's interrupt latency more than the
# program, so it moves between processes beyond any usable bound
REPORTED = {
    "insert_p999_us": "us",
    "failed_ops_ratio": "ratio",
    "false_positive_rate": "ratio",
}

PER_LAYER = {
    "dictionary.insert_or_update_ns": "ns",
    "dictionary.insert_or_update_p99_ns": "ns",
    "dictionary.insert_cells_p50": "cells",
    "dictionary.insert_cells_p99": "cells",
    "dictionary.insert_cells_p999": "cells",
    "dictionary.insert_cells_max": "cells",
    "dictionary.kicked_insert_share": "ratio",
    "dictionary.kick_chain_max": "count",
    "dictionary.member_ns": "ns",
    "dictionary.member_one_bucket_share": "ratio",
    "dictionary.scan_step_ns": "ns",
    "dictionary.scan_freed_per_cell": "ratio",
    "dictionary.load": "ratio",
    "dictionary.stale_share": "ratio",
    "filter.insert_self_ns": "ns",
    "filter.query_self_ns": "ns",
    "filter.rebuilds": "count",
    "filter.label_advances": "count",
    "filter.bits_used_kib": "KiB",
    "filter.rss_to_bits_used": "ratio",
    "hashing.eval_ns": "ns",
    "prng.fnv1a64_ns": "ns",
    "cli.self_ns_per_item": "ns",
    "snapshot.bytes": "B",
    "params.derive_us": "us",
    "filter.construct_ms": "ms",
    "trace.insert_overhead_ns": "ns",
    "trace.query_overhead_ns": "ns",
    "trace.dedup_overhead_ns_per_item": "ns",
}


def _pct(samples, q: float) -> float:
    return float(np.percentile(samples, q, method="inverted_cdf"))


def _rate(durations) -> float:
    return len(durations) / (durations.sum() / 1e9)


def _per_round(samples, per):
    """Medians of consecutive groups of ``per`` samples, one group per round."""
    return [statistics.median(samples[i:i + per]) for i in range(0, len(samples), per)]


def end_to_end(plan, p) -> tuple[dict, dict]:
    """The end-to-end figures, and the same figures before calibration.

    Each timing is the median over rounds of the round's figure divided
    by the machine's slowdown during it (rates are multiplied), so it
    reads as if measured on the quiet reference machine. The raw figures
    are plain medians over rounds.
    """
    from perfbench.workloads import SETUP_REPS

    ins = p.main.per_round("filter.insert")
    qry = p.main.per_round("filter.query")
    setup = [d + c for d, c in zip(p.derive_ns, p.construct_ns)]
    calls = "library" if p.main is not p.dedup else "dedup"
    # name -> (per-round raw figures, slice they were measured in, scale, is a rate)
    rounds = {
        "insert_ops_per_s": ([_rate(d) for d in ins], calls, 1, True),
        "insert_p50_us": ([_pct(d, 50) for d in ins], calls, 1e-3, False),
        "insert_p99_us": ([_pct(d, 99) for d in ins], calls, 1e-3, False),
        "insert_p999_us": ([_pct(d, 99.9) for d in ins], calls, 1e-3, False),
        "query_ops_per_s": ([_rate(d) for d in qry], calls, 1, True),
        "query_p50_us": ([_pct(d, 50) for d in qry], calls, 1e-3, False),
        "query_p99_us": ([_pct(d, 99) for d in qry], calls, 1e-3, False),
        "snapshot_save_s": (_per_round(p.saves, plan.snapshot_reps), "snapshot", 1e-9, False),
        "snapshot_load_s": (_per_round(p.loads, plan.snapshot_reps), "snapshot", 1e-9, False),
        "dedup_items_per_s": ([plan.cli_items * 1e9 / t for t in p.dedup_walls], "dedup", 1, True),
        "setup_s": (_per_round(setup, SETUP_REPS), "setup", 1e-9, False),
    }
    calibrated, raw = {}, {}
    for name, (values, slice_name, scale, is_rate) in rounds.items():
        slow = p.slowdown[slice_name]
        fixed = [v * s if is_rate else v / s for v, s in zip(values, slow)]
        calibrated[name] = statistics.median(fixed) * scale
        raw[name] = statistics.median(values) * scale
    # the kernel batches resident-page counts per CPU, so the high-water
    # mark can trail a fresh reading by a few pages when nothing grew
    peak = max(0, p.peak_after - p.rss_before) / 2**20
    calibrated["peak_rss_mib"] = raw["peak_rss_mib"] = peak
    return calibrated, raw


def _calibrated_loop_ns(fn, args) -> float:
    """Mean ns per call of fn over args in a tight loop, over the machine's slowdown."""
    from perfbench.workloads import CAL_NOMINAL_NS, calibrate

    before = calibrate()
    t0 = perf_counter_ns()
    for a in args:
        fn(a)
    ns = (perf_counter_ns() - t0) / len(args)
    return ns / ((before + calibrate()) / 2 / CAL_NOMINAL_NS)


def per_layer(w, plan, inp, base, traced) -> tuple[dict, dict]:
    """Layer metrics of the traced pass, and the checks on its span accounting.

    Times are divided by the median slowdown of the slices they come
    from, as the end-to-end figures are; counts and shares are exact.
    """
    from slidingbloom.prng import fnv1a64

    calls = "library" if w.library else "dedup"
    slow = statistics.median(traced.slowdown[calls])
    slow_dedup = statistics.median(traced.slowdown["dedup"])
    base_slow = statistics.median(base.slowdown[calls])
    setup_slow = statistics.median(base.slowdown["setup"])

    m = traced.main
    spans = m.tracer.spans
    ins = spans["filter.insert"]
    qry = spans["filter.query"]
    iou = spans["dictionary.insert_or_update"]
    scan = spans["dictionary.scan_step"]
    member = spans["dictionary.member"]
    cells = np.frombuffer(m.cells, dtype=np.int64)
    kicks = np.frombuffer(m.kicks, dtype=np.int64)
    filt = traced.filt
    occupied = filt.dictionary.occupancy()
    bits_bytes = filt.bits_used().total_bits / 8

    dedup_spans = traced.dedup.tracer.spans
    items = plan.rounds * plan.cli_items
    fnv = dedup_spans.get("prng.fnv1a64")
    if fnv is not None and fnv.count:
        fnv_ns = fnv.mean() / slow_dedup
    else:
        # binary dedup hashes no tokens; time the hash on the words'
        # decimal spelling, which a text run of the same stream would hash
        fnv_ns = _calibrated_loop_ns(fnv1a64, [str(k).encode() for k in inp.cli_keys[:20_000]])
    cli_children = sum(dedup_spans[name].total() for name in
                       ("filter.insert", "filter.query", "prng.fnv1a64") if name in dedup_spans)
    sample = inp.stream[:50_000] if w.library else [inp.value(k) for k in inp.cli_keys[:20_000]]
    base_spans = base.main.tracer.spans
    per_item = [statistics.median(p.dedup_walls) / plan.cli_items
                / statistics.median(p.slowdown["dedup"]) for p in (traced, base)]
    metrics = {
        "dictionary.insert_or_update_ns": iou.mean() / slow,
        "dictionary.insert_or_update_p99_ns": _pct(iou.durations(), 99) / slow,
        "dictionary.insert_cells_p50": _pct(cells, 50),
        "dictionary.insert_cells_p99": _pct(cells, 99),
        "dictionary.insert_cells_p999": _pct(cells, 99.9),
        "dictionary.insert_cells_max": float(cells.max()),
        "dictionary.kicked_insert_share": float((kicks > 0).mean()),
        "dictionary.kick_chain_max": float(kicks.max()),
        "dictionary.member_ns": member.mean() / slow,
        "dictionary.member_one_bucket_share": m.member_one_bucket / member.count,
        "dictionary.scan_step_ns": scan.mean() / slow,
        "dictionary.scan_freed_per_cell": m.freed / m.scanned,
        "dictionary.load": occupied / filt.dictionary.capacity_cells,
        "dictionary.stale_share": (occupied - filt.active_count()) / occupied,
        "filter.insert_self_ns": float(ins.self_times().mean()) / slow,
        "filter.query_self_ns": float(qry.self_times().mean()) / slow,
        "filter.rebuilds": float(m.rebuilds),
        "filter.label_advances": float(m.label_advances),
        "filter.bits_used_kib": bits_bytes / 1024,
        "filter.rss_to_bits_used": (base.peak_after - base.rss_before) / bits_bytes,
        "hashing.eval_ns": _calibrated_loop_ns(filt.hash.eval, sample),
        "prng.fnv1a64_ns": fnv_ns,
        "cli.self_ns_per_item": (dedup_spans["cli.main"].total() - cli_children) / items
        / slow_dedup,
        "snapshot.bytes": float(base.snapshot_bytes),
        "params.derive_us": statistics.median(base.derive_ns) / 1e3 / setup_slow,
        "filter.construct_ms": statistics.median(base.construct_ns) / 1e6 / setup_slow,
        "trace.insert_overhead_ns": (ins.mean() / slow
                                     - base_spans["filter.insert"].mean() / base_slow),
        "trace.query_overhead_ns": (qry.mean() / slow
                                    - base_spans["filter.query"].mean() / base_slow),
        "trace.dedup_overhead_ns_per_item": per_item[0] - per_item[1],
    }
    accounting = {
        # mean traced insert = dictionary spans + filter self time, per insert
        "insert_time_accounted": (iou.total() + scan.total() + ins.self_times().sum())
        / ins.total(),
        "span_nesting_violations": m.tracer.nesting_violations()
        + traced.dedup.tracer.nesting_violations(),
    }
    return metrics, accounting


def _environment() -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_at_start": os.getloadavg(),
        "machine": platform.machine(),
    }


def run(workload: str, seed: int, seconds: float, trace: bool, workdir: Path,
        filter_cls=None, overrides=None) -> tuple[dict, dict]:
    """One benchmark run; returns (report, result line)."""
    from dataclasses import asdict, replace

    from perfbench import workloads as wl
    from slidingbloom.filter import DEFAULT_UNIVERSE, SlidingFilter
    from slidingbloom.params import derive

    environment = _environment()
    w = replace(wl.WORKLOADS[workload], **(overrides or {}))
    filter_cls = filter_cls or SlidingFilter
    params = derive(w.n, w.m, w.eps, DEFAULT_UNIVERSE)
    plan = wl.make_plan(w, params, seconds)
    inp = wl.make_inputs(w, seed, plan, workdir)
    tally = wl.Tally()

    base = wl.run_pass(w, params, plan, inp, seed, filter_cls, False, tally)
    e2e, raw = end_to_end(plan, base)
    report = {
        "workload": asdict(w) | {"m": "inf" if w.m == float("inf") else w.m},
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "plan": asdict(plan),
        "params": {"c": params.c, "g": params.g, "gen_modulus": params.gen_modulus,
                   "fp_range": params.fp_range},
        "input_digests": inp.digests,
        "environment": environment,
        "dedup_repeat_share": float(((inp.cli_classes == wl.WINDOW)
                                     | (inp.cli_classes == wl.SLACK)).mean()),
        "pre_run_peak_excess_mib": (base.peak_before - base.rss_before) / 2**20,
        "uncalibrated_metrics": raw,
        "slowdown_median": {k: statistics.median(v) for k, v in base.slowdown.items()},
    }
    metrics = {k: (v, (END_TO_END | REPORTED)[k]) for k, v in e2e.items()}
    if trace:
        traced = wl.run_pass(w, params, plan, inp, seed, filter_cls, True, tally, untraced=base)
        wl.verbose_dedup(w, plan, inp, seed, tally)
        layers, accounting = per_layer(w, plan, inp, base, traced)
        tally.check(accounting["span_nesting_violations"] == 0,
                    f"{accounting['span_nesting_violations']} spans shorter than their children")
        report["span_accounting"] = accounting
        metrics.update({k: (v, PER_LAYER[k]) for k, v in layers.items()})
    metrics["failed_ops_ratio"] = (tally.failed / tally.attempted, "ratio")
    metrics["false_positive_rate"] = (tally.false_positives / max(tally.out_of_scope, 1), "ratio")
    report["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    report["errors"] = tally.errors
    report["problems"] = tally.problems

    correct = not tally.problems
    chosen = PER_LAYER if trace else END_TO_END
    result = {
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: report["metrics"][k] for k in chosen} if correct else {},
    }
    return report, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "slidingbloom" / "__init__.py").is_file():
        print(f"error: no slidingbloom sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    with tempfile.TemporaryDirectory(prefix=".work-", dir=ROOT / "perfbench") as tmp:
        report, result = run(args.workload, args.seed, args.seconds, bool(args.trace), Path(tmp))
    print(json.dumps(report, sort_keys=True))
    for problem in report["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
