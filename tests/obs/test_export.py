"""Chrome-trace / JSON exporters."""

import json

from repro.core.models import KBKModel, MegakernelModel
from repro.gpu.specs import K20C
from repro.obs import chrome_trace, write_report_json
from repro.obs.events import BlockAdmitted
from repro.obs.export import HOST_PID, QUEUES_PID

from .conftest import observed_run


class TestChromeTrace:
    def trace_for(self, model):
        _result, observer = observed_run(model)
        return chrome_trace(observer.events, K20C, label="toy"), observer

    def test_json_serialisable_with_expected_shape(self):
        trace, _ = self.trace_for(MegakernelModel())
        parsed = json.loads(json.dumps(trace))
        assert parsed["otherData"]["label"] == "toy"
        assert parsed["otherData"]["device"] == K20C.name
        assert parsed["traceEvents"]

    def test_pids_are_sms_plus_synthetic_tracks(self):
        trace, _ = self.trace_for(MegakernelModel())
        pids = {e["pid"] for e in trace["traceEvents"]}
        sm_pids = {p for p in pids if p < QUEUES_PID}
        assert sm_pids <= set(range(K20C.num_sms))
        assert QUEUES_PID in pids

    def test_compute_slices_carry_durations(self):
        trace, _ = self.trace_for(MegakernelModel())
        slices = [
            e
            for e in trace["traceEvents"]
            if e.get("cat") == "compute" and e["ph"] == "X"
        ]
        assert slices
        assert all(e["dur"] > 0 for e in slices)

    def test_queue_counter_track_present(self):
        trace, _ = self.trace_for(MegakernelModel())
        counters = [e for e in trace["traceEvents"] if e["ph"] == "C"]
        assert counters
        assert all(e["pid"] == QUEUES_PID for e in counters)
        assert all("depth" in e["args"] for e in counters)
        # the depth series must return to zero by the end of the run
        final = {}
        for e in counters:
            final[e["name"]] = e["args"]["depth"]
        assert all(depth == 0 for depth in final.values())

    def test_residency_spans_close(self):
        trace, observer = self.trace_for(MegakernelModel())
        residency = [
            e for e in trace["traceEvents"] if e.get("cat") == "residency"
        ]
        admits = len(observer.recorder.of_type(BlockAdmitted))
        assert len(residency) == admits

    def test_host_track_for_kbk(self):
        trace, _ = self.trace_for(KBKModel())
        host = [
            e
            for e in trace["traceEvents"]
            if e["pid"] == HOST_PID and e["ph"] in ("X", "i")
        ]
        names = {e["name"] for e in host}
        assert any(name.startswith("launch:") for name in names)
        assert any(name.startswith("sync:") for name in names)

    def test_metadata_names_processes(self):
        trace, _ = self.trace_for(MegakernelModel())
        meta = {
            (e["pid"], e["args"].get("name"))
            for e in trace["traceEvents"]
            if e["ph"] == "M" and e["name"] == "process_name"
        }
        assert (QUEUES_PID, "queues") in meta
        assert (HOST_PID, "host") in meta


class TestOtherExports:
    def test_write_report_json(self, tmp_path):
        result, _observer = observed_run(MegakernelModel())
        path = tmp_path / "report.json"
        write_report_json(str(path), result.report)
        payload = json.loads(path.read_text())
        assert payload["label"] == result.report.label
        assert payload["counters"]["queue_pushes"] > 0

    def test_observer_write_trace(self, tmp_path):
        _result, observer = observed_run(MegakernelModel())
        path = tmp_path / "trace.json"
        observer.write_trace(str(path), label="x")
        parsed = json.loads(path.read_text())
        assert parsed["otherData"]["label"] == "x"
