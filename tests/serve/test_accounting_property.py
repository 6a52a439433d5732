"""Serving accounting as a property.

Over random open-loop arrival traces, admission policies and batch
ceilings, every offered request is either completed or shed, the SLO
ledger agrees with the report, and an admission policy can only lower
the offered-load attainment below the admitted-stream one.
"""

import os
import tempfile

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.serve import ServeConfig, driver, serve_workload

DURATION_MS = 20.0

#: About one unloaded request latency per workload at quick size, so
#: light traces meet the SLO and bursts violate it.
SLO_MS = {"ldpc": 8.0, "reyes": 0.025}


@pytest.fixture(scope="module")
def templates_recorded_once():
    """Serve every example from one quick-size template per workload,
    recorded on first use (replaying a template never changes it)."""
    record = driver.record_template
    templates = {}

    def record_once(spec, gpu, params):
        if spec.name not in templates:
            templates[spec.name] = record(spec, gpu, params)
        return templates[spec.name]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(driver, "record_template", record_once)
        yield


ADMISSIONS = st.one_of(
    st.just("none"),
    st.integers(min_value=1, max_value=6).map(lambda cap: f"drop-tail:{cap}"),
    st.sampled_from([0.5, 1.0, 2.0]).map(lambda m: f"slo-ewma:{m:g}"),
)

OFFSETS = st.lists(
    st.floats(min_value=0.0, max_value=DURATION_MS, exclude_max=True),
    min_size=1,
    max_size=24,
).map(sorted)


@pytest.mark.usefixtures("templates_recorded_once")
@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    workload=st.sampled_from(sorted(SLO_MS)),
    offsets=OFFSETS,
    admission=ADMISSIONS,
    max_batch=st.one_of(st.none(), st.integers(min_value=1, max_value=8)),
)
def test_every_request_completes_or_is_shed(
    workload, offsets, admission, max_batch
):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "arrivals.txt")
        with open(path, "w") as handle:
            handle.write("\n".join(repr(t) for t in offsets))
        config = ServeConfig(
            workload=workload,
            arrival_spec=f"trace:{path}",
            duration_ms=DURATION_MS,
            slo_ms=SLO_MS[workload],
            admission=admission,
            max_batch=max_batch,
        )
        report = serve_workload(config)
    slo = report.slo
    assert report.requests == len(offsets)
    assert report.requests == report.completed + report.shed
    assert slo.good + slo.violations == report.completed
    assert slo.shed == report.shed
    if admission == "none":
        assert report.shed == 0
    assert slo.offered_attainment <= slo.attainment
