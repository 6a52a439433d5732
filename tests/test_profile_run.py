"""Smoke test of scripts/profile_run.py's ``--record`` stage timing."""

import importlib.util
import os

from repro.core.tuner.profiler import profile_pipeline
from repro.gpu.specs import K20C
from repro.workloads.registry import get_workload

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _load_profile_run():
    spec = importlib.util.spec_from_file_location(
        "profile_run", os.path.join(_ROOT, "scripts", "profile_run.py")
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


profile_run = _load_profile_run()


def test_record_times_split_every_task_by_stage(capsys):
    times = profile_run.record_times("face_detection", "K20c", quick=True)
    spec = get_workload("face_detection")
    params = spec.quick_params()
    _profile, trace = profile_pipeline(
        spec.build_pipeline(params), K20C, spec.initial_items(params)
    )
    assert {
        name: tasks for name, (_cpu_s, tasks) in times["stages"].items()
    } == trace.tasks_per_stage()
    stage_s = sum(cpu_s for cpu_s, _tasks in times["stages"].values())
    assert 0.0 < stage_s <= times["record_s"]
    assert times["inputs_s"] > 0.0

    profile_run.print_record_times("face_detection", times)
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "== record face_detection =="
    assert [line.split()[0] for line in lines[4:]] == list(times["stages"])
