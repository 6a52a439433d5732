"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``list`` — show the registered workloads (Table 1) and devices;
* ``run`` — run one workload under one execution model on one device;
* ``compare`` — baseline vs megakernel vs VersaPipe for a workload
  (one Table 2 row);
* ``bench`` — the full evaluation suite (workload × column × device)
  fanned across a process pool, rendered as Figure 11 per device;
* ``serve`` — open-loop serving: a timed arrival process (Poisson,
  bursty or trace-driven) injects requests into a resident pipeline,
  one plan and one engine run per workload, with optional admission
  control (``--admission``) and dynamic batching (``--max-batch``);
  reports per-request tail latency (p50/p99/p999), per-stage wait and
  service breakdowns, throughput/goodput windows and SLO attainment;
* ``tune`` — profile a workload and run the offline auto-tuner: every
  candidate races once, on the full recorded trace, against the best
  time so far (see ``docs/tuning.md``);
* ``timeline`` — run with the observer attached and print the SM Gantt
  chart drawn from its compute segments;
* ``stats`` — run with the observer attached and print the derived
  report: per-stage latency percentiles, per-SM busy/stall/starved
  shares, queue depth/contention summaries.

``run``, ``compare``, ``timeline`` and ``stats`` accept ``--trace-out``
(write a Chrome/Perfetto ``trace.json``) and ``--report-json`` (write the
structured :class:`~repro.obs.RunReport`); either flag attaches the
observer for the run and changes nothing else.  Each of them runs its
cells through :func:`~repro.harness.runner.run_column`, the one map from
a model name to a cell, so ``versapipe`` is always the harness's
VersaPipe column (:func:`~repro.harness.runner.run_versapipe`) and
``compare --trace-out`` exports the traces of the cells it prints.

All commands use the workloads' quick parameters by default; pass
``--full`` for the paper-scale defaults.

Every simulated device runs on the one event engine,
:class:`~repro.gpu.engine.Engine`.

Workload commands run the stage code once per workload and invocation:
the first model records the task trace with the tuner's breadth-first
walk, handing each run of ready same-stage items to
``Stage.execute_batch`` in one call, and every model replays that
recording — compute once, simulate many (see ``docs/batching.md``).
The simulated results are bit-identical to running every model's stage
code item by item.

Two knobs scale the multi-cell commands (see ``docs/harness.md``):
``--workers N`` (``bench``, ``tune`` and ``serve``) fans independent
shards — one workload's cells, tuner candidates, serving cells — across
a **persistent worker pool**, spawned once per CLI process and reused
across dispatches (byte-identical results for any count), and
``--trace-cache-dir [PATH]`` layers a persistent on-disk store under the
replay cache so workers — and later invocations — share recorded traces
instead of re-running stage code; reused workers keep those traces
decoded in memory between dispatches.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .core.tuner.cache import DEFAULT_CACHE_DIR as _DEFAULT_TUNER_CACHE
from .core.tuner.offline import TunerOptions
from .gpu.specs import PRESETS, get_spec
from .gpu.tracing import render_timeline
from .harness.runner import MODEL_NAMES, run_column, run_workload_models
from .harness.tracecache import DEFAULT_TRACE_CACHE_DIR, TraceCache
from .obs import Observer, RunReport, write_report_json
from .obs.events import ComputeSegment
from .workloads.registry import all_workloads, get_workload


def _positive_int(text):
    """Argparse type for ``--workers`` / ``--budget``: an int >= 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a positive integer, got {text!r}"
        ) from None
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"expected a positive integer (>= 1), got {value}"
        )
    return value


def _positive_float(text):
    """Argparse type for ``--duration`` / ``--slo-ms``: a float > 0."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a positive number, got {text!r}"
        ) from None
    if not value > 0:
        raise argparse.ArgumentTypeError(
            f"expected a positive number (> 0), got {text!r}"
        )
    return value


def _arrival_spec(text):
    """Argparse type for ``--arrival``: validate the spec, keep the string."""
    from .serve import ArrivalSpecError, parse_arrival_spec

    try:
        parse_arrival_spec(text)
    except ArrivalSpecError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return text


def _admission_spec(text):
    """Argparse type for ``--admission``: validate the spec, keep the string."""
    from .serve import AdmissionSpecError, parse_admission_spec

    try:
        parse_admission_spec(text)
    except AdmissionSpecError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return text


def _params(spec, args):
    return spec.default_params() if args.full else spec.quick_params()


def _trace_cache(args) -> TraceCache:
    """The invocation's replay cache: in memory, over the
    ``--trace-cache-dir`` store when one is given."""
    return TraceCache(disk_dir=args.trace_cache_dir)


def _wants_observer(args) -> bool:
    return bool(args.trace_out or args.report_json)


def _write_outputs(args, cell) -> None:
    """Honour ``--trace-out`` / ``--report-json`` for a single run."""
    if cell.observer is None:
        return
    report = cell.result.report
    if args.trace_out:
        cell.observer.write_trace(args.trace_out, label=report.label)
        print(f"wrote trace: {args.trace_out}")
    if args.report_json:
        write_report_json(args.report_json, report)
        print(f"wrote report: {args.report_json}")


def cmd_list(args) -> int:
    print(f"{'workload':16s} {'stages':>6s} {'structure':>10s} "
          f"{'pattern':>8s}  description")
    for name, spec in sorted(all_workloads().items()):
        print(
            f"{name:16s} {spec.stage_count:6d} {spec.structure:>10s} "
            f"{spec.workload_pattern:>8s}  {spec.description}"
        )
    print(f"\ndevices: {', '.join(sorted(PRESETS))}")
    print(f"models: {', '.join(MODEL_NAMES)}")
    return 0


def cmd_run(args) -> int:
    spec = get_workload(args.workload)
    gpu = get_spec(args.device)
    cell = run_column(
        spec,
        args.model,
        gpu,
        _params(spec, args),
        observe=_wants_observer(args),
        cache=_trace_cache(args),
    )
    result = cell.result
    print(
        f"{args.workload} / {args.model} on {gpu.name}: "
        f"{result.time_ms:.3f} ms simulated"
    )
    print(
        f"  launches={result.device_metrics.kernel_launches} "
        f"blocks={result.device_metrics.blocks_launched} "
        f"outputs={len(result.outputs)}"
    )
    if result.config_description:
        print(f"  config: {result.config_description}")
    _write_outputs(args, cell)
    return 0


def _sibling_path(path: str, tag: str) -> str:
    """``out.json`` + ``megakernel`` -> ``out.megakernel.json``."""
    root, ext = os.path.splitext(path)
    return f"{root}.{tag}{ext or '.json'}"


def cmd_compare(args) -> int:
    spec = get_workload(args.workload)
    gpu = get_spec(args.device)
    cache = _trace_cache(args)
    print(f"{args.workload} on {gpu.name} "
          f"({'paper-scale' if args.full else 'quick'} parameters):")
    cells = run_workload_models(
        spec.name,
        gpu,
        _params(spec, args),
        observe=_wants_observer(args),
        cache=cache,
    )
    rows = [(name, cell.time_ms) for name, cell in cells.items()]
    for name, time_ms in rows:
        print(f"  {name:12s} {time_ms:10.3f} ms")
    base = rows[0][1]
    for name, time_ms in rows[1:]:
        print(f"  -> {name} speedup over baseline: {base / time_ms:.2f}x")
    if cache.root is not None:
        print(f"  (trace cache: {cache.last_run.describe()})")
    if args.trace_out:
        for name, cell in cells.items():
            path = _sibling_path(args.trace_out, name)
            cell.observer.write_trace(path, label=cell.result.report.label)
            print(f"wrote trace: {path}")
    if args.report_json:
        reports = {name: cell.result.report for name, cell in cells.items()}
        payload = {
            "workload": args.workload,
            "device": gpu.name,
            "models": {
                name: report.to_dict() for name, report in reports.items()
            },
            "aggregate": RunReport.aggregate(
                reports.values(),
                label=f"{args.workload}/{gpu.name}",
            ).to_dict(),
        }
        with open(args.report_json, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
        print(f"wrote report: {args.report_json}")
    return 0


def cmd_stats(args) -> int:
    spec = get_workload(args.workload)
    gpu = get_spec(args.device)
    params = _params(spec, args)
    cache = _trace_cache(args)
    cell = run_column(
        spec, args.model, gpu, params, observe=True, cache=cache
    )
    print(cell.result.report.summary_text())
    print(
        f"replay cache: on ({len(cache)} trace(s), "
        f"last run: {cache.last_run.describe()})"
    )
    if getattr(args, "cache_dir", None):
        from .harness.runner import tune_workload

        cache_dir = os.path.expanduser(args.cache_dir)
        tuned = tune_workload(
            spec.name,
            gpu,
            params,
            options=TunerOptions(
                max_configs=args.tune_budget, cache_dir=cache_dir
            ),
            cache=cache,
        )
        report = tuned.report
        print(
            f"tuner: best {report.best_time_ms:.3f} ms with "
            f"{report.best_config.describe()}; "
            f"cache: {report.cache_stats.describe()} ({cache_dir})"
        )
    _write_outputs(args, cell)
    return 0


def cmd_tune(args) -> int:
    from .harness.runner import tune_workload
    from .obs.report import TunerStats

    spec = get_workload(args.workload)
    gpu = get_spec(args.device)
    params = _params(spec, args)
    cache_dir = args.cache_dir
    if cache_dir is not None:
        cache_dir = os.path.expanduser(cache_dir)
    tuned = tune_workload(
        spec.name,
        gpu,
        params,
        options=TunerOptions(
            max_configs=args.budget,
            workers=args.workers,
            cache_dir=cache_dir,
            dominance_pruning=not args.no_dominance,
        ),
        cache=_trace_cache(args),
    )
    report = tuned.report
    print(f"profiled {tuned.profiled_tasks} tasks")
    print(report.summary())
    if cache_dir is not None:
        print(f"cache: {report.cache_stats.describe()} ({cache_dir})")
    stats = TunerStats.from_report(report, label=f"{spec.name}/{gpu.name}")
    if args.explain:
        provenance = stats.provenance()
        print(
            "prune provenance: "
            + ", ".join(f"{k}={v}" for k, v in provenance.items())
            + f" (sums to {sum(provenance.values())}"
            f" of {report.num_evaluated})"
        )
    if args.report_json:
        write_report_json(args.report_json, stats)
        print(f"wrote report: {args.report_json}")
    return 0


def cmd_bench(args) -> int:
    """Run the evaluation suite across a worker pool and render Fig. 11."""
    from .harness.pool import run_suite, suite_bench_payload
    from .harness.tables import render_figure11

    if args.device == "all":
        devices = sorted(PRESETS)
    else:
        devices = [get_spec(args.device).name]
    workloads = args.workloads or None
    if workloads:
        for name in workloads:
            get_workload(name)  # fail fast on typos
    suite = run_suite(
        workloads=workloads,
        devices=devices,
        workers=args.workers,
        cache_dir=args.trace_cache_dir,
        full=args.full,
    )
    grouped = suite.by_device()
    specs = all_workloads()
    for device in devices:
        print(render_figure11(grouped[device], specs, device))
        print()
    print(
        f"suite: {len(suite.cells)} cells in {suite.wall_s:.2f}s wall "
        f"(workers={suite.workers}; trace cache: "
        f"{suite.cache_stats.describe()})"
    )
    if args.bench_json:
        from .serve.report import run_meta

        payload = {
            "meta": run_meta(
                workers=suite.workers, cache_dir=args.trace_cache_dir
            ),
            "results": suite_bench_payload(suite),
        }
        with open(args.bench_json, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
        print(f"wrote bench json: {args.bench_json}")
    return 0


def cmd_serve(args) -> int:
    """Open-loop serving: timed arrivals, tail latency, SLO accounting."""
    from .serve import (
        merge_serve_reports,
        plan_serve,
        run_meta,
        run_serve_cells,
        serve_workload,
    )

    for name in args.workloads:
        get_workload(name)  # fail fast on typos
    if args.trace_out and len(args.workloads) > 1:
        print("error: --trace-out needs exactly one workload", file=sys.stderr)
        return 2
    plan = plan_serve(
        args.workloads,
        arrival_spec=args.arrival,
        duration_ms=args.duration,
        slo_ms=args.slo_ms,
        model=args.model,
        device=args.device,
        seed=args.seed,
        window_ms=args.window_ms,
        full=args.full,
        admission=args.admission,
        max_batch=args.max_batch,
    )
    workers = args.workers or 1
    if args.trace_out:
        # Event capture needs an in-process observer: run serially.
        observer = Observer()
        reports = [serve_workload(plan[0], observer=observer)]
        observer.write_trace(args.trace_out, label=reports[0].label)
    else:
        observer = None
        reports = run_serve_cells(plan, workers=workers)
    for report in reports:
        print("\n".join(report.summary_lines()))
    merged = merge_serve_reports(reports, label="serve")
    if len(reports) > 1:
        print("merged:")
        print("\n".join(merged.summary_lines()))
    if args.trace_out:
        print(f"wrote trace: {args.trace_out}")
    if args.report_json:
        meta = run_meta(
            workers=workers,
            cache_dir=None,
            extra={
                "arrival": args.arrival,
                "seed": args.seed,
                "traced": bool(args.trace_out),
            },
        )
        payload = {
            "meta": meta,
            "cells": {
                config.workload: report.payload()
                for config, report in zip(plan, reports)
            },
            "merged": merged.payload(),
        }
        with open(args.report_json, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
        print(f"wrote report: {args.report_json}")
    return 0


def cmd_timeline(args) -> int:
    spec = get_workload(args.workload)
    gpu = get_spec(args.device)
    cell = run_column(
        spec,
        args.model,
        gpu,
        _params(spec, args),
        observe=True,
        cache=_trace_cache(args),
    )
    print(
        f"{args.workload} / {args.model} on {gpu.name}: "
        f"{cell.time_ms:.3f} ms"
    )
    segments = cell.observer.recorder.of_type(ComputeSegment)
    print(render_timeline(segments, gpu.num_sms, clock_ghz=gpu.clock_ghz))
    _write_outputs(args, cell)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="VersaPipe reproduction: pipelined computing on a "
        "simulated GPU",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="show workloads, devices and models")

    def add_trace_cache_dir(p):
        p.add_argument(
            "--trace-cache-dir",
            metavar="PATH",
            nargs="?",
            const=DEFAULT_TRACE_CACHE_DIR,
            default=None,
            help="persistent on-disk trace cache shared across workers "
            "and invocations; warm runs replay instead of executing "
            f"stage code (default PATH: {DEFAULT_TRACE_CACHE_DIR})",
        )

    def add_common(p):
        p.add_argument("workload", help="workload name (see `list`)")
        p.add_argument(
            "--device", default="K20c", help="GPU preset (default K20c)"
        )
        p.add_argument(
            "--full",
            action="store_true",
            help="use paper-scale parameters instead of quick ones",
        )
        add_trace_cache_dir(p)

    def add_obs(p):
        p.add_argument(
            "--trace-out",
            metavar="PATH",
            help="write a Chrome/Perfetto trace.json of the run",
        )
        p.add_argument(
            "--report-json",
            metavar="PATH",
            nargs="?",
            const="report.json",
            help="write the structured run report as JSON "
            "(default PATH: report.json)",
        )

    run = sub.add_parser("run", help="run one workload under one model")
    add_common(run)
    add_obs(run)
    run.add_argument(
        "--model", default="versapipe", choices=MODEL_NAMES
    )

    compare = sub.add_parser(
        "compare", help="baseline vs megakernel vs versapipe"
    )
    add_common(compare)
    add_obs(compare)

    tune = sub.add_parser("tune", help="run the offline auto-tuner")
    add_common(tune)
    tune.add_argument(
        "--budget",
        type=_positive_int,
        default=80,
        help="max configurations to try",
    )
    tune.add_argument(
        "--workers",
        type=_positive_int,
        default=None,
        metavar="N",
        help="worker processes for the search (default: one per core; "
        "1 = classic sequential loop)",
    )
    tune.add_argument(
        "--cache-dir",
        metavar="PATH",
        nargs="?",
        const=_DEFAULT_TUNER_CACHE,
        default=None,
        help="persistent profile cache directory; repeated runs skip "
        f"already-simulated configs (default PATH: {_DEFAULT_TUNER_CACHE})",
    )
    tune.add_argument(
        "--no-dominance",
        action="store_true",
        help="disable the throughput-bound dominance cut, both the "
        "pre-replay skip and the in-flight stop",
    )
    tune.add_argument(
        "--explain",
        action="store_true",
        help="print the per-candidate prune provenance breakdown",
    )
    tune.add_argument(
        "--report-json",
        metavar="PATH",
        nargs="?",
        const="tuner.json",
        help="write the tuner summary as JSON (default PATH: tuner.json)",
    )

    bench = sub.add_parser(
        "bench",
        help="run the evaluation suite (workload x column x device) "
        "across a worker pool",
    )
    bench.add_argument(
        "workloads",
        nargs="*",
        metavar="workload",
        help="workloads to run (default: all six)",
    )
    bench.add_argument(
        "--device",
        default="K20c",
        help='GPU preset, or "all" for every preset (default K20c)',
    )
    bench.add_argument(
        "--full",
        action="store_true",
        help="use paper-scale parameters instead of quick ones",
    )
    add_trace_cache_dir(bench)
    bench.add_argument(
        "--workers",
        type=_positive_int,
        default=None,
        metavar="N",
        help="worker processes: each workload's cells run as one shard "
        "on a persistent pool reused between dispatches; results are "
        "byte-identical for any count (default one per core)",
    )
    bench.add_argument(
        "--bench-json",
        metavar="PATH",
        nargs="?",
        const="BENCH_suite.json",
        help="write the suite's deterministic per-cell results as JSON "
        "(default PATH: BENCH_suite.json)",
    )

    from .serve import SERVE_MODELS

    serve = sub.add_parser(
        "serve",
        help="open-loop serving: timed request arrivals, tail-latency "
        "percentiles and SLO accounting (see docs/serving.md)",
    )
    serve.add_argument(
        "workloads",
        nargs="+",
        metavar="workload",
        help="workloads to serve (one open-loop cell each)",
    )
    serve.add_argument(
        "--arrival",
        type=_arrival_spec,
        default="poisson:0.5",
        metavar="SPEC",
        help="arrival process: poisson:RATE (req/ms), "
        "burst:BASE,PEAK,DWELL (two-phase modulated Poisson) or "
        "trace:FILE (recorded ms offsets); default poisson:0.5",
    )
    serve.add_argument(
        "--duration",
        type=_positive_float,
        default=10.0,
        metavar="MS",
        help="arrival horizon in simulated ms (default 10)",
    )
    serve.add_argument(
        "--slo-ms",
        type=_positive_float,
        default=5.0,
        metavar="MS",
        help="end-to-end latency budget for goodput accounting "
        "(default 5)",
    )
    serve.add_argument(
        "--model",
        default="versapipe",
        choices=SERVE_MODELS,
        help="resident pipeline plan (default versapipe)",
    )
    serve.add_argument(
        "--device", default="K20c", help="GPU preset (default K20c)"
    )
    serve.add_argument(
        "--seed",
        type=int,
        default=0,
        help="arrival-schedule seed (default 0)",
    )
    serve.add_argument(
        "--window-ms",
        type=_positive_float,
        default=1.0,
        metavar="MS",
        help="throughput/goodput window width (default 1)",
    )
    serve.add_argument(
        "--full",
        action="store_true",
        help="use paper-scale parameters instead of quick ones",
    )
    serve.add_argument(
        "--admission",
        type=_admission_spec,
        default="none",
        metavar="SPEC",
        help="admission policy: none, drop-tail:CAP (shed when the "
        "queued backlog reaches CAP) or slo-ewma[:MARGIN] (shed when "
        "the EWMA-predicted latency exceeds MARGIN x the SLO; default "
        "margin 1); default none",
    )
    serve.add_argument(
        "--max-batch",
        type=_positive_int,
        default=None,
        metavar="N",
        help="dynamic-batching ceiling: queue pops are clamped to a "
        "deadline-aware size target in [1, N] (default: static "
        "capacities)",
    )
    serve.add_argument(
        "--workers",
        type=_positive_int,
        default=None,
        metavar="N",
        help="worker processes (one serving cell per worker; reports are "
        "byte-identical for any count; default 1)",
    )
    serve.add_argument(
        "--trace-out",
        metavar="PATH",
        help="write a Chrome/Perfetto trace.json with flow-linked "
        "request spans (single workload only; forces a serial run)",
    )
    serve.add_argument(
        "--report-json",
        metavar="PATH",
        nargs="?",
        const="serve.json",
        help="write the ServeReport(s) as JSON (default PATH: serve.json)",
    )

    timeline = sub.add_parser(
        "timeline", help="run with the observer and print an SM Gantt chart"
    )
    add_common(timeline)
    add_obs(timeline)
    timeline.add_argument(
        "--model", default="versapipe", choices=MODEL_NAMES
    )

    stats = sub.add_parser(
        "stats",
        help="run with the observer and print latency/SM/queue statistics",
    )
    add_common(stats)
    add_obs(stats)
    stats.add_argument(
        "--model", default="versapipe", choices=MODEL_NAMES
    )
    stats.add_argument(
        "--cache-dir",
        metavar="PATH",
        nargs="?",
        const=_DEFAULT_TUNER_CACHE,
        default=None,
        help="also run the offline auto-tuner against this persistent "
        "profile cache and report its per-run cache deltas "
        f"(default PATH: {_DEFAULT_TUNER_CACHE})",
    )
    stats.add_argument(
        "--tune-budget",
        type=_positive_int,
        default=40,
        metavar="N",
        help="max configurations for the --cache-dir tuner pass "
        "(default 40)",
    )
    return parser


_COMMANDS = {
    "list": cmd_list,
    "run": cmd_run,
    "compare": cmd_compare,
    "bench": cmd_bench,
    "serve": cmd_serve,
    "tune": cmd_tune,
    "timeline": cmd_timeline,
    "stats": cmd_stats,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
