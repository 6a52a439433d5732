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

Usage::

    PYTHONPATH=src python scripts/profile_run.py synthetic --model megakernel
    PYTHONPATH=src python scripts/profile_run.py reyes --model versapipe -n 40
    PYTHONPATH=src python scripts/profile_run.py face_detection \
        --callgrind callgrind.out.face
    PYTHONPATH=src python scripts/profile_run.py --replay ldpc -n 2

``synthetic`` is the deep-pipeline stress case ``synthetic_deep`` of
:mod:`repro.harness.simspeed` at bench scale (10 stages, 256 items;
2383 events, 0.082 simulated ms); every registry workload name
(``reyes``, ``face_detection``, ...) works too.
"""

from __future__ import annotations

import argparse
import cProfile
import pstats
import sys
import time
from pathlib import Path

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
            device.engine.run(until=engine._complete)
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
    parser.add_argument("--model", default="megakernel",
                        choices=("megakernel", "versapipe", "kbk"))
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
    if args.workload is None:
        parser.error("a workload (or --replay WORKLOAD) is required")
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
