"""Tests for the flight-recorder core: records, exports, round trips."""

import json

import pytest

from repro.tracing import (
    SCHEMA_VERSION,
    TraceError,
    TraceRecord,
    Tracer,
    convert_jsonl_to_chrome,
    read_jsonl,
    validate_chrome_trace,
)


class TestRecords:
    def test_instant_record(self):
        tracer = Tracer()
        tracer.instant("job.submit", "batch", "job1", 1.5, jid=1)
        (record,) = tracer.records
        assert record.phase == "I"
        assert record.end == 1.5
        assert record.args == {"jid": 1}

    def test_span_record(self):
        tracer = Tracer()
        tracer.span("task.run", "node:0", "job1", 1.0, 3.0, jid=1)
        (record,) = tracer.records
        assert record.phase == "X"
        assert record.dur == 2.0
        assert record.end == 3.0

    def test_span_rejects_negative_duration(self):
        with pytest.raises(TraceError, match="before start"):
            Tracer().span("task.run", "node:0", "x", 2.0, 1.0)

    def test_subscribers_see_records_live(self):
        tracer = Tracer()
        seen = []
        tracer.subscribe(seen.append)
        tracer.instant("a", "batch", "x", 0.0)
        tracer.instant("b", "batch", "y", 1.0)
        assert [r.kind for r in seen] == ["a", "b"]

    def test_begin_end_pairs(self):
        tracer = Tracer()
        tracer.begin("k", "node.hold", "node:3", "job1", 1.0, node=3)
        tracer.end("k", 4.0, extra=True)
        (record,) = tracer.records
        assert record.time == 1.0 and record.dur == 3.0
        assert record.args == {"node": 3, "extra": True}

    def test_end_unknown_key_ignored(self):
        tracer = Tracer()
        tracer.end("ghost", 1.0)
        assert tracer.records == []

    def test_reopen_discards_stale(self):
        tracer = Tracer()
        tracer.begin("k", "node.hold", "node:0", "a", 0.0)
        tracer.begin("k", "node.hold", "node:0", "b", 2.0)
        tracer.end("k", 5.0)
        (record,) = tracer.records
        assert record.name == "b" and record.time == 2.0

    def test_close_open_marks_truncated_spans(self):
        tracer = Tracer()
        tracer.begin("k1", "node.hold", "node:0", "a", 0.0)
        tracer.begin("k2", "node.hold", "node:1", "b", 1.0)
        assert tracer.close_open(9.0) == 2
        assert all(r.args.get("open") is True for r in tracer.records)
        assert tracer.close_open(9.0) == 0


class TestJsonlRoundTrip:
    def _sample(self):
        tracer = Tracer()
        tracer.instant("sim.start", "batch", "machine", 0.0, nodes=4)
        tracer.instant("job.submit", "batch", "job1", 0.0, jid=1, queued=1)
        tracer.span("task.run", "node:2", "job1", 1.0, 2.5, jid=1)
        tracer.instant(
            "job.start", "batch", "job1", 1.0, jid=1, walltime=float("inf")
        )
        return tracer

    def test_round_trip_preserves_records(self, tmp_path):
        tracer = self._sample()
        path = tracer.to_jsonl(tmp_path / "t.jsonl")
        back = read_jsonl(path)
        assert back == tracer.records

    def test_header_carries_schema_version(self, tmp_path):
        path = self._sample().to_jsonl(tmp_path / "t.jsonl")
        header = json.loads(path.read_text().splitlines()[0])
        assert header == {"schema": "elastisim-trace", "version": SCHEMA_VERSION}

    def test_version_mismatch_rejected(self):
        lines = [json.dumps({"schema": "elastisim-trace", "version": 999})]
        with pytest.raises(TraceError, match="version"):
            read_jsonl(lines)

    def test_headerless_fixture_accepted(self):
        lines = [
            json.dumps(
                {"time": 0.0, "kind": "job.submit", "ph": "I", "track": "batch", "name": "j"}
            )
        ]
        records = read_jsonl(lines)
        assert records[0].kind == "job.submit"

    def test_missing_file(self, tmp_path):
        with pytest.raises(TraceError, match=r"ghost\.jsonl: cannot read the file"):
            read_jsonl(tmp_path / "ghost.jsonl")

    def test_malformed_line_reports_lineno(self):
        with pytest.raises(TraceError, match="line 2"):
            read_jsonl(['{"schema": "elastisim-trace", "version": 1}', "{nope"])


class TestChromeExport:
    def _sample(self):
        tracer = Tracer()
        tracer.instant("sched.invoke", "scheduler", "submit", 0.0)
        tracer.instant("solver.resolve", "solver", "resolve", 0.5, components=1)
        tracer.span("task.run", "node:3", "job1", 0.0, 2.0, jid=1)
        tracer.instant("job.start", "batch", "job1", 0.0, walltime=float("inf"))
        return tracer

    def test_chrome_trace_validates_and_is_strict_json(self):
        trace = self._sample().chrome_trace()
        validate_chrome_trace(trace)
        # inf walltime must have been collapsed for strict JSON.
        json.loads(json.dumps(trace, allow_nan=False))

    def test_track_to_pid_tid_mapping(self):
        trace = self._sample().chrome_trace()
        by_cat = {e.get("cat"): e for e in trace["traceEvents"] if "cat" in e}
        assert by_cat["sched.invoke"]["pid"] == 1
        assert by_cat["task.run"] == {**by_cat["task.run"], "pid": 2, "tid": 3}

    def test_metadata_names_tracks(self):
        trace = self._sample().chrome_trace()
        meta = [e for e in trace["traceEvents"] if e["ph"] == "M"]
        names = {e["args"]["name"] for e in meta}
        assert {"simulator", "nodes", "scheduler", "node:3"} <= names

    def test_seconds_become_microseconds(self):
        trace = self._sample().chrome_trace()
        span = next(e for e in trace["traceEvents"] if e["ph"] == "X")
        assert span["ts"] == 0.0 and span["dur"] == 2e6

    def test_to_chrome_writes_validated_file(self, tmp_path):
        path = self._sample().to_chrome(tmp_path / "t.json")
        validate_chrome_trace(json.loads(path.read_text()))

    def test_unknown_track_rejected(self):
        tracer = Tracer()
        tracer.instant("x", "mystery", "x", 0.0)
        with pytest.raises(TraceError, match="unknown track"):
            tracer.chrome_trace()

    def test_convert_jsonl_to_chrome(self, tmp_path):
        jsonl = self._sample().to_jsonl(tmp_path / "t.jsonl")
        out = convert_jsonl_to_chrome(jsonl, tmp_path / "t.json")
        trace = json.loads(out.read_text())
        validate_chrome_trace(trace)
        spans = [e for e in trace["traceEvents"] if e["ph"] == "X"]
        assert len(spans) == 1


class TestChromeValidator:
    def test_rejects_non_object(self):
        with pytest.raises(TraceError, match="object"):
            validate_chrome_trace([])

    def test_rejects_missing_events(self):
        with pytest.raises(TraceError, match="traceEvents"):
            validate_chrome_trace({})

    def test_rejects_bad_phase(self):
        with pytest.raises(TraceError, match="phase"):
            validate_chrome_trace(
                {"traceEvents": [{"ph": "B", "name": "x", "pid": 1, "tid": 0}]}
            )

    def test_rejects_span_without_duration(self):
        with pytest.raises(TraceError, match="dur"):
            validate_chrome_trace(
                {
                    "traceEvents": [
                        {"ph": "X", "name": "x", "pid": 1, "tid": 0, "ts": 0.0}
                    ]
                }
            )

    def test_rejects_nan_timestamp(self):
        with pytest.raises(TraceError, match="ts"):
            validate_chrome_trace(
                {
                    "traceEvents": [
                        {
                            "ph": "i",
                            "name": "x",
                            "pid": 1,
                            "tid": 0,
                            "ts": float("nan"),
                        }
                    ]
                }
            )


class TestRecordSerialisation:
    def test_instants_omit_duration(self):
        payload = TraceRecord(1.0, "a", "I", "batch", "x").as_dict()
        assert "dur" not in payload and "args" not in payload

    def test_from_dict_rejects_garbage(self):
        with pytest.raises(TraceError, match=r"^time must be a finite number, got \'soon\'"):
            TraceRecord.from_dict({"time": "soon"})
        with pytest.raises(TraceError, match=r"^kind is required"):
            TraceRecord.from_dict({"time": 1.0})
