"""A hybrid run stops on the device's done flag exactly where a run that
tests ``HybridEngine._complete`` after every event stops."""

import pytest

from repro.core import FunctionalExecutor, GroupConfig, PipelineConfig
from repro.core.models.hybrid import HybridEngine
from repro.gpu import GPUDevice, K20C

from .conftest import toy_pipeline

ALL_SMS = tuple(range(K20C.num_sms))


def _plan(*groups, adapt=False):
    return PipelineConfig(groups=groups, online_adaptation=adapt)


PLANS = {
    "megakernel": _plan(
        GroupConfig(("doubler", "adder", "sink"), "megakernel", ALL_SMS)
    ),
    "fine": _plan(
        GroupConfig(
            ("doubler", "adder", "sink"),
            "fine",
            ALL_SMS,
            block_map={"doubler": 1, "adder": 1, "sink": 1},
        )
    ),
    "hybrid_kbk": _plan(
        GroupConfig(("doubler",), "megakernel", tuple(range(10))),
        GroupConfig(("adder", "sink"), "kbk", (10, 11, 12)),
    ),
    "relaunch": _plan(
        GroupConfig(("doubler",), "megakernel", tuple(range(10))),
        GroupConfig(("adder", "sink"), "megakernel", (10, 11, 12)),
        adapt=True,
    ),
}

#: Enough items for the relaunch plan that the adder+sink group still
#: has backlog when the doubler group exits.
RELAUNCH_ITEMS = [1] * 4000


def _stop(plan, initial, by_flag):
    pipeline = toy_pipeline()
    device = GPUDevice(K20C)
    engine = HybridEngine(pipeline, device, FunctionalExecutor(pipeline), plan)
    engine.start(initial)
    # A far-future event keeps the heap from draining, so a run that
    # misses its stop runs on to it instead of ending where it should.
    device.engine.schedule_call(1e12, lambda: None)
    if by_flag:
        device.run_engine(until=engine._complete)
    else:
        device.engine.run(until=engine._complete)
    assert engine._complete()
    return engine, (device.engine.events_processed, device.engine.now)


@pytest.mark.parametrize("name", sorted(PLANS))
@pytest.mark.parametrize("empty", [False, True], ids=["items", "empty"])
def test_flag_stops_where_the_predicate_stops(name, empty):
    items = RELAUNCH_ITEMS if name == "relaunch" else list(range(1, 40))
    initial = {"doubler": [] if empty else items}
    engine, flagged = _stop(PLANS[name], initial, by_flag=True)
    _engine, polled = _stop(PLANS[name], initial, by_flag=False)
    assert flagged == polled
    if name == "relaunch" and not empty:
        assert engine.adapter is not None and engine.adapter.adaptations == 1


def test_a_run_that_is_already_over_processes_no_event():
    """Each run confirms once before its first event, even if an earlier
    run on the device left the flag lowered."""
    device = GPUDevice(K20C)
    device.done_flag[0] = False
    device.engine.schedule_call(5.0, lambda: None)
    device.run_engine(until=lambda: True)
    assert device.engine.events_processed == 0
