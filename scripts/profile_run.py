#!/usr/bin/env python3
"""Profile one simulated run so perf PRs start from data, not guesses.

Runs a workload under one execution model with ``cProfile`` and prints
the top-N functions by cumulative and by self time, plus an events/sec
summary from the device engine.  Two optional outputs:

* ``--callgrind FILE`` — write the cProfile stats in callgrind format
  (pure-Python converter, no extra dependencies) for kcachegrind /
  qcachegrind / speedscope.
* ``--pyinstrument`` — additionally render a wall-clock call tree with
  `pyinstrument <https://github.com/joerick/pyinstrument>`_ when it is
  installed; silently skipped (with a note) when it is not.

``--replay WORKLOAD`` counts instead of timing: it records the
workload's paper-scale trace, fully replays the first ``-n`` (default 2)
of the tuner's candidate plans as the tuner's replay does, without a
deadline, and prints Python calls, bytecodes and engine events per
replayed task.  Calls and bytecodes are counted with ``sys.settrace``, so
they repeat exactly from run to run where wall time on a shared host
does not; they compare two versions of the simulator's host code.

``--record WORKLOAD`` times the workload's stage code instead: it
synthesises the paper-scale inputs, records one trace as the harness
does, and prints the CPU seconds of each and, per stage, the CPU seconds
and tasks of the recording's ``FunctionalExecutor.run_batch`` calls.
The largest row is the next kernel hotspot.  It then records again with
every stage's ``execute_batch`` override swapped for the scalar loop,
and once per override with only that one swapped, checks that each
recording is the same, and prints each overriding stage's CPU seconds
with the scalar loop, how much longer the whole recording took without
its override, and its drain sizes (drains, and drains of one item,
which skip ``execute_batch``), so it says whether each override pays.

Usage::

    PYTHONPATH=src python scripts/profile_run.py synthetic --model megakernel
    PYTHONPATH=src python scripts/profile_run.py reyes --model versapipe -n 40
    PYTHONPATH=src python scripts/profile_run.py face_detection \
        --callgrind callgrind.out.face
    PYTHONPATH=src python scripts/profile_run.py --replay ldpc -n 2
    PYTHONPATH=src python scripts/profile_run.py --record face_detection

``synthetic`` is the deep-pipeline stress case ``synthetic_deep`` of
:mod:`repro.harness.simspeed` at bench scale (10 stages, 256 items;
2383 events, 0.082 simulated ms); every registry workload name
(``reyes``, ``face_detection``, ...) works too.  ``--model versapipe``
profiles the workload's paper-described plan alone, not the faster-of-two
VersaPipe column of ``repro run``, so one profile is one simulated run.
"""

from __future__ import annotations

import argparse
import cProfile
import dataclasses
import hashlib
import pstats
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from types import MethodType
from typing import Optional
from unittest import mock

import numpy as np

_SRC = Path(__file__).resolve().parent.parent / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

from repro.core.executor import FunctionalExecutor  # noqa: E402
from repro.core.models import HybridModel, KBKModel, MegakernelModel  # noqa: E402
from repro.gpu.device import GPUDevice  # noqa: E402
from repro.gpu.specs import GTX1080, K20C  # noqa: E402

_DEVICES = {"K20c": K20C, "GTX1080": GTX1080}


def build_case(workload: str, model_name: str, device_name: str):
    """Return ``(pipeline, model, device, initial_items)`` for one run."""
    spec = _DEVICES[device_name]
    if workload == "synthetic":
        from repro.harness.simspeed import build_case as simspeed_case

        pipeline, _megakernel, initial = simspeed_case("synthetic_deep")
        versapipe_config = None
    else:
        from repro.workloads.registry import get_workload

        wspec = get_workload(workload)
        params = wspec.quick_params()
        pipeline = wspec.build_pipeline(params)
        initial = wspec.initial_items(params)
        versapipe_config = wspec.versapipe_config

    if model_name == "megakernel":
        model = MegakernelModel()
    elif model_name == "kbk":
        model = KBKModel()
    elif model_name == "versapipe":
        if versapipe_config is None:
            raise SystemExit(
                "synthetic has no paper-described config; use --model megakernel"
            )
        model = HybridModel(versapipe_config(pipeline, spec, params))
    else:
        raise SystemExit(f"unknown model {model_name!r}")
    return pipeline, model, GPUDevice(spec), initial


def replay_counts(workload: str, device_name: str, n: int) -> dict[str, int]:
    """Count the host work of fully replaying ``workload``'s first ``n``
    tuner candidates on its paper-scale trace.

    Returns the candidates replayed and skipped (infeasible on the
    device), the tasks and engine events they ran, and the Python calls
    and bytecodes that ``sys.settrace`` saw while each replay built its
    device and engine and ran to completion.
    """
    from repro.core.errors import ConfigurationError
    from repro.core.executor import ReplayExecutor
    from repro.core.models.hybrid import HybridEngine
    from repro.core.tuner.offline import OfflineTuner
    from repro.core.tuner.profiler import profile_pipeline, replay_placeholders
    from repro.workloads.registry import get_workload

    spec = _DEVICES[device_name]
    wspec = get_workload(workload)
    params = wspec.default_params()
    pipeline = wspec.build_pipeline(params)
    profile, trace = profile_pipeline(pipeline, spec, wspec.initial_items(params))
    candidates = OfflineTuner(pipeline, spec, trace, profile=profile).candidates()
    counts = dict.fromkeys(
        ("candidates", "skipped", "tasks", "events", "calls", "bytecodes"), 0
    )

    def on_opcode(frame, event, arg):
        if event == "opcode":
            counts["bytecodes"] += 1
        return on_opcode

    def on_call(frame, event, arg):
        counts["calls"] += 1
        frame.f_trace_opcodes = True
        return on_opcode

    for config in candidates[:n]:
        sys.settrace(on_call)
        try:
            device = GPUDevice(spec)
            engine = HybridEngine(
                pipeline, device, ReplayExecutor(pipeline, trace), config
            )
            engine.start(replay_placeholders(trace))
            device.run_engine(until=engine._complete)
        except ConfigurationError:
            counts["skipped"] += 1
            continue
        finally:
            sys.settrace(None)
        if not engine._complete():
            raise SystemExit(f"{workload}: replay of {config} did not complete")
        counts["candidates"] += 1
        counts["tasks"] += trace.num_tasks
        counts["events"] += device.engine.events_processed
    return counts


@dataclass
class StageTimes:
    """One stage's share of a recording."""

    cpu_s: float = 0.0
    tasks: int = 0
    #: ``FunctionalExecutor.run_batch`` calls (same-stage drains of the
    #: breadth-first frontier), and how many of them held one item.
    drains: int = 0
    one_item: int = 0
    #: For a stage that overrides ``execute_batch`` (``None`` for the
    #: rest): its CPU seconds in the recording with every override
    #: swapped for ``Stage.execute_batch``'s scalar loop, and how much
    #: longer the whole recording took with only this override swapped.
    #: The two differ when an override's payloads speed up later stages.
    scalar_s: Optional[float] = None
    saved_s: Optional[float] = None


def _feed(hasher, value) -> None:
    """Hash one output payload exactly (arrays by dtype, shape, bytes)."""
    if isinstance(value, np.ndarray):
        hasher.update(f"ndarray|{value.dtype.str}|{value.shape}|".encode())
        hasher.update(np.ascontiguousarray(value).tobytes())
    elif dataclasses.is_dataclass(value):
        hasher.update(f"{type(value).__name__}(".encode())
        for field in dataclasses.fields(value):
            hasher.update(f"{field.name}=".encode())
            _feed(hasher, getattr(value, field.name))
        hasher.update(b")")
    else:
        hasher.update(f"{type(value).__name__}:{value!r}".encode())
    hasher.update(b"\n")


def recording_digest(trace) -> str:
    """sha256 of a recording: its task graph and every output payload."""
    from repro.core.tuner.cache import trace_fingerprint

    hasher = hashlib.sha256(trace_fingerprint(trace).encode())
    for node_id in sorted(trace.recorded_outputs):
        hasher.update(f"outputs of {node_id}\n".encode())
        for payload in trace.recorded_outputs[node_id]:
            _feed(hasher, payload)
    return hasher.hexdigest()


def record_times(workload: str, device_name: str, quick: bool = False) -> dict:
    """Time input synthesis and one recording of ``workload``, then say
    what each stage's ``execute_batch`` override is worth.

    The recording is the harness's (``profile_pipeline`` keeping the
    outputs): a breadth-first walk that drains each stage through
    ``FunctionalExecutor.run_batch``.  Each of those calls is timed and
    its items counted.  The workload is then recorded again with every
    overriding stage's ``execute_batch`` swapped for the scalar loop of
    ``Stage.execute_batch``, and once more per overriding stage with
    only that one swapped.  Each must produce the same recording digest
    (task graph and output payloads), or this raises ``SystemExit``.
    Returns CPU seconds ``inputs_s``, ``record_s`` and ``scalar_s`` (the
    all-scalar recording), and ``stages``, mapping each stage to its
    :class:`StageTimes`.  Single runs on a shared host are noisy: repeat
    before trusting a saving.
    """
    from repro.core.stage import Stage
    from repro.core.tuner.profiler import profile_pipeline
    from repro.workloads.registry import get_workload

    wspec = get_workload(workload)
    params = wspec.quick_params() if quick else wspec.default_params()
    start = time.process_time()
    initial = wspec.initial_items(params)
    inputs_s = time.process_time() - start
    run_batch = FunctionalExecutor.run_batch
    overriding = [
        name
        for name, stage in wspec.build_pipeline(params).stages.items()
        if type(stage).execute_batch is not Stage.execute_batch
    ]

    def record(scalar: list[str]) -> tuple[float, dict[str, StageTimes], str]:
        """One timed recording with the ``scalar`` stages' overrides
        swapped for the scalar loop; returns its CPU seconds, its
        per-stage split and its digest."""
        pipeline = wspec.build_pipeline(params)
        stages = {name: StageTimes() for name in pipeline.stage_names}
        for name in scalar:
            stage = pipeline.stage(name)
            stage.execute_batch = MethodType(  # type: ignore[method-assign]
                Stage.execute_batch, stage
            )

        def timed_run_batch(self, stage, items):
            begin = time.process_time()
            results = run_batch(self, stage, items)
            row = stages[stage]
            row.cpu_s += time.process_time() - begin
            row.tasks += len(items)
            row.drains += 1
            row.one_item += len(items) == 1
            return results

        with mock.patch.object(FunctionalExecutor, "run_batch", timed_run_batch):
            begin = time.process_time()
            _profile, trace = profile_pipeline(
                pipeline, _DEVICES[device_name], initial, record_outputs=True
            )
            record_s = time.process_time() - begin
        return record_s, stages, recording_digest(trace)

    record([])  # warm-up: first-call costs would land on one side only
    record_s, stages, digest = record([])
    scalar_s, scalar_stages, scalar_digest = record(overriding)
    digests = {", ".join(overriding): scalar_digest}
    for name in overriding:
        alone_s, _stages, digests[name] = record([name])
        stages[name].scalar_s = scalar_stages[name].cpu_s
        stages[name].saved_s = alone_s - record_s
    for swapped, other in digests.items():
        if other != digest:
            raise SystemExit(
                f"{workload}: the scalar loop of {swapped} recorded a "
                f"different trace ({other[:12]} vs {digest[:12]})"
            )
    return {
        "inputs_s": inputs_s,
        "record_s": record_s,
        "scalar_s": scalar_s,
        "stages": stages,
    }


def print_record_times(workload: str, times: dict) -> None:
    print(f"== record {workload} ==")
    print(f"inputs         : {times['inputs_s']:10.3f} s CPU")
    print(f"recording      : {times['record_s']:10.3f} s CPU")
    print(f"scalar loops   : {times['scalar_s']:10.3f} s CPU "
          "(every execute_batch override off; same recording)")
    print("scalar s: the stage with every override off; saved s: the "
          "whole recording with only its override off, minus the first")
    print(f"{'stage':<15}  {'cpu s':>9}  {'tasks':>8}  {'drains':>7}  "
          f"{'1-item':>7}  {'scalar s':>9}  {'saved s':>8}")
    for name, row in times["stages"].items():
        if row.scalar_s is None or row.saved_s is None:
            override = f"{'-':>9}  {'-':>8}"
        else:
            override = f"{row.scalar_s:9.3f}  {row.saved_s:8.3f}"
        print(f"{name:<15}  {row.cpu_s:9.3f}  {row.tasks:8d}  "
              f"{row.drains:7d}  {row.one_item:7d}  {override}")


def write_callgrind(stats: pstats.Stats, path: str) -> None:
    """Dump cProfile stats as a callgrind file (times in microseconds)."""
    with open(path, "w", encoding="utf-8") as out:
        out.write("# callgrind format\n")
        out.write("version: 1\ncreator: scripts/profile_run.py\n")
        out.write("events: us\n\n")
        for func, (_cc, _nc, tt, _ct, _callers) in stats.stats.items():
            filename, line, name = func
            out.write(f"fl={filename}\n")
            out.write(f"fn={name} [{filename}:{line}]\n")
            out.write(f"{max(line, 0)} {int(tt * 1e6)}\n")
            out.write("\n")
        # Second pass: call edges, grouped by caller.
        edges: dict[tuple, list[tuple]] = {}
        for callee, (_cc, _nc, _tt, _ct, callers) in stats.stats.items():
            for caller, (_ccc, ncc, _ctt, cct) in callers.items():
                edges.setdefault(caller, []).append((callee, ncc, cct))
        for caller, callee_list in edges.items():
            cfile, cline, cname = caller
            out.write(f"fl={cfile}\n")
            out.write(f"fn={cname} [{cfile}:{cline}]\n")
            for (kfile, kline, kname), ncalls, cum in callee_list:
                out.write(f"cfl={kfile}\n")
                out.write(f"cfn={kname} [{kfile}:{kline}]\n")
                out.write(f"calls={ncalls} {max(kline, 0)}\n")
                out.write(f"{max(cline, 0)} {int(cum * 1e6)}\n")
            out.write("\n")
    print(f"callgrind profile written to {path}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", nargs="?",
                        help="'synthetic' or any registry workload")
    parser.add_argument("--replay", metavar="WORKLOAD", default=None,
                        help="count calls, bytecodes and events per task "
                             "over tuner replays of WORKLOAD's paper-scale "
                             "trace instead of profiling")
    parser.add_argument("--record", metavar="WORKLOAD", default=None,
                        help="time input synthesis and one paper-scale "
                             "recording of WORKLOAD, split by stage, "
                             "instead of profiling")
    parser.add_argument("--model", default="megakernel",
                        choices=("megakernel", "versapipe", "kbk"),
                        help="versapipe = the paper-described plan")
    parser.add_argument("--device", default="K20c", choices=sorted(_DEVICES))
    parser.add_argument("-n", "--top", type=int, default=None,
                        help="rows per ranking table (default 25); with "
                             "--replay, candidates to replay (default 2)")
    parser.add_argument("--callgrind", metavar="FILE", default=None,
                        help="also write stats in callgrind format")
    parser.add_argument("--pyinstrument", action="store_true",
                        help="also render a pyinstrument tree (if installed)")
    args = parser.parse_args(argv)
    if args.replay is not None:
        counts = replay_counts(
            args.replay, args.device, 2 if args.top is None else args.top
        )
        tasks = counts["tasks"] or 1
        print(f"== replay {args.replay} / {args.device}, paper scale ==")
        print(f"candidates     : {counts['candidates']:10d} replayed, "
              f"{counts['skipped']} infeasible skipped")
        print(f"tasks          : {counts['tasks']:10d}")
        for key in ("calls", "bytecodes", "events"):
            print(f"{key + ' / task':<15}: {counts[key] / tasks:10.1f} "
                  f"({counts[key]} in all)")
        return 0
    if args.record is not None:
        print_record_times(args.record, record_times(args.record, args.device))
        return 0
    if args.workload is None:
        parser.error("a workload (or --replay/--record WORKLOAD) is required")
    if args.top is None:
        args.top = 25

    pipeline, model, device, initial = build_case(
        args.workload, args.model, args.device
    )
    executor = FunctionalExecutor(pipeline)

    profiler = cProfile.Profile()
    start = time.perf_counter()
    profiler.enable()
    result = model.run(pipeline, device, executor, initial)
    profiler.disable()
    wall = time.perf_counter() - start

    events = device.engine.events_processed
    print(f"== {args.workload} / {args.model} / {args.device} ==")
    print(f"simulated time : {result.time_ms:10.3f} ms")
    print(f"wall time      : {wall:10.3f} s")
    print(f"events         : {events:10d} "
          f"({events / wall:,.0f} events/s)")
    stats = pstats.Stats(profiler)
    stats.sort_stats("cumulative")
    print(f"\n-- top {args.top} by cumulative time --")
    stats.print_stats(args.top)
    stats.sort_stats("tottime")
    print(f"-- top {args.top} by self time --")
    stats.print_stats(args.top)

    if args.callgrind:
        write_callgrind(stats, args.callgrind)

    if args.pyinstrument:
        try:
            from pyinstrument import Profiler
        except ImportError:
            print("pyinstrument not installed; skipping tree profile "
                  "(pip install pyinstrument)")
        else:
            pipeline, model, device, initial = build_case(
                args.workload, args.model, args.device
            )
            tree = Profiler()
            tree.start()
            model.run(pipeline, device, FunctionalExecutor(pipeline), initial)
            tree.stop()
            print(tree.output_text(unicode=True, color=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
