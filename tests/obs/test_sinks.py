"""Sink tests: JSONL parse-back, CSV column stability, recorder ordering."""

import csv
import io
import json

import pytest

from repro.obs import (
    CSV_COLUMNS,
    CsvSummarySink,
    GenerationComplete,
    JsonlSink,
    MemoryRecorder,
    PhaseStart,
    PortfolioMigration,
    ProgressSink,
    Tracer,
    read_trace,
)


def _gen_event(generation, scope="", solved=0):
    return GenerationComplete(
        scope=scope, generation=generation, best_total=0.5, mean_total=0.25,
        best_goal=0.6, mean_goal=0.3, mean_length=10.0, solved_count=solved,
    )


class TestJsonlSink:
    def test_lines_parse_back_to_events(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        events = [PhaseStart(scope="phase-1", phase=1), _gen_event(0, scope="phase-1")]
        with Tracer([JsonlSink(path)]) as tracer:
            for event in events:
                tracer.emit(event)
        assert read_trace(path) == events

    def test_kind_filter(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with Tracer([JsonlSink(path)]) as tracer:
            tracer.emit(PhaseStart(phase=1))
            tracer.emit(_gen_event(0))
            tracer.emit(_gen_event(1))
        assert len(read_trace(path, kind="generation")) == 2

    def test_appends_and_creates_parents(self, tmp_path):
        path = tmp_path / "a" / "b" / "trace.jsonl"
        for _ in range(2):
            with Tracer([JsonlSink(path)]) as tracer:
                tracer.emit(PhaseStart(phase=1))
        assert len(read_trace(path)) == 2

    def test_stream_target_left_open(self):
        buf = io.StringIO()
        sink = JsonlSink(buf)
        sink.write(PhaseStart(phase=1))
        sink.close()
        assert not buf.closed
        assert json.loads(buf.getvalue())["kind"] == "phase-start"

    def test_flush_every_validated(self, tmp_path):
        with pytest.raises(ValueError):
            JsonlSink(tmp_path / "t.jsonl", flush_every=0)


class TestCsvSummarySink:
    def test_columns_stable(self, tmp_path):
        path = tmp_path / "summary.csv"
        sink = CsvSummarySink(path)
        sink.write(_gen_event(0, scope="x"))
        sink.write(PhaseStart(phase=1))  # ignored: not a generation event
        sink.write(_gen_event(1, scope="x", solved=3))
        sink.close()
        with open(path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == list(CSV_COLUMNS)
        assert len(rows) == 3  # header + 2 generation rows
        assert rows[1][0] == "x"
        assert [r[1] for r in rows[1:]] == ["0", "1"]
        assert rows[2][-1] == "3"


class TestMemoryRecorder:
    def test_preserves_emission_order(self):
        recorder = MemoryRecorder()
        events = [PhaseStart(phase=1), _gen_event(0), _gen_event(1), PhaseStart(phase=2)]
        for event in events:
            recorder.write(event)
        assert recorder.events == events
        assert recorder.of_kind("generation") == events[1:3]
        assert len(recorder) == 4

    def test_capacity_drops_oldest(self):
        recorder = MemoryRecorder(capacity=2)
        for g in range(5):
            recorder.write(_gen_event(g))
        assert [e.generation for e in recorder.events] == [3, 4]
        assert recorder.total_written == 5

    def test_clear(self):
        recorder = MemoryRecorder()
        recorder.write(_gen_event(0))
        recorder.clear()
        assert len(recorder) == 0 and recorder.total_written == 0


class TestProgressSink:
    def test_writes_generation_and_phase_lines(self):
        buf = io.StringIO()
        sink = ProgressSink(buf)
        sink.write(PhaseStart(scope="phase-1", phase=1))
        sink.write(_gen_event(0, scope="phase-1"))
        out = buf.getvalue()
        assert "phase 1" in out
        assert "gen    0" in out

    def test_throttles_generations_but_keeps_solutions(self):
        buf = io.StringIO()
        sink = ProgressSink(buf, every=10)
        for g in range(20):
            sink.write(_gen_event(g, solved=1 if g == 5 else 0))
        lines = buf.getvalue().splitlines()
        assert len(lines) == 3  # generations 0, 10 and the solved gen 5
        assert any("solved 1" in line for line in lines)

    def test_writes_portfolio_migration_lines(self):
        buf = io.StringIO()
        ProgressSink(buf).write(
            PortfolioMigration(round_index=2, source=3, dest=0, migrants=2, reason="ring")
        )
        assert buf.getvalue() == "migration round 2: island 3 → 0 (2 migrants, ring)\n"

    def test_every_validated(self):
        with pytest.raises(ValueError):
            ProgressSink(io.StringIO(), every=0)
