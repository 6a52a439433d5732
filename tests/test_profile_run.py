"""Smoke test of scripts/profile_run.py's ``--record`` stage timing."""

import importlib.util
import os
import sys

from repro.core.stage import Stage
from repro.core.tuner.profiler import profile_pipeline
from repro.gpu.specs import K20C
from repro.workloads.registry import get_workload

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _load_profile_run():
    spec = importlib.util.spec_from_file_location(
        "profile_run", os.path.join(_ROOT, "scripts", "profile_run.py")
    )
    module = importlib.util.module_from_spec(spec)
    # Registered first, as the import system does: the script's
    # dataclasses resolve their annotations through sys.modules.
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


profile_run = _load_profile_run()


def test_record_times_split_every_task_by_stage(capsys):
    """LDPC has one stage that overrides ``execute_batch`` (``c2v``) and
    three that do not; only the overriding one gets scalar-loop times."""
    times = profile_run.record_times("ldpc", "K20c", quick=True)
    spec = get_workload("ldpc")
    params = spec.quick_params()
    pipeline = spec.build_pipeline(params)
    _profile, trace = profile_pipeline(
        pipeline, K20C, spec.initial_items(params)
    )
    stages = times["stages"]
    assert {
        name: row.tasks for name, row in stages.items()
    } == trace.tasks_per_stage()
    stage_s = sum(row.cpu_s for row in stages.values())
    assert 0.0 < stage_s <= times["record_s"]
    assert times["inputs_s"] > 0.0
    assert times["scalar_s"] > 0.0
    for name, row in stages.items():
        assert 1 <= row.drains <= row.tasks
        assert 0 <= row.one_item <= row.drains
        overrides = (
            type(pipeline.stage(name)).execute_batch
            is not Stage.execute_batch
        )
        assert (row.scalar_s is not None) == overrides, name
        assert (row.saved_s is not None) == overrides, name
    assert [
        name for name, row in stages.items() if row.scalar_s is not None
    ] == ["c2v"]

    profile_run.print_record_times("ldpc", times)
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "== record ldpc =="
    assert lines[5].split() == [
        "stage", "cpu", "s", "tasks", "drains", "1-item", "scalar", "s",
        "saved", "s",
    ]
    rows = [line.split() for line in lines[6:]]
    assert [row[0] for row in rows] == list(stages)
    for row, times_row in zip(rows, stages.values()):
        assert row[2:5] == [
            str(times_row.tasks), str(times_row.drains),
            str(times_row.one_item),
        ]
        assert (row[5] == "-") == (times_row.scalar_s is None)
