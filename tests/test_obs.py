"""Unit tests for the ``repro.obs`` package itself.

Covers the three pillars in isolation — the refcount-gated metrics
registry and its snapshot algebra, the JSONL run journal (including
the torn-tail contract a SIGKILL leaves behind), and the throttled
progress reporter — plus ``ObsConfig`` validation and the shared wall
timer.  Integration with the execution layers lives in
``test_obs_integration.py``.
"""

from __future__ import annotations

import json

import pytest

from repro.errors import SpecError
from repro.obs.config import ObsConfig
from repro.obs.journal import (
    RunJournal,
    iter_tail,
    read_journal,
    summarize_journal,
)
from repro.obs.metrics import (
    DEFAULT_TIME_BUCKETS,
    MetricsRegistry,
    format_summary,
    prometheus_text,
    snapshot_delta,
)
from repro.obs.progress import ProgressReporter
from repro.obs.timing import wall_timer


class TestObsConfig:
    def test_defaults_fully_off(self):
        config = ObsConfig()
        assert not config.metrics
        assert not config.journal
        assert not config.progress
        assert not config.enabled

    def test_enabled_when_any_pillar_on(self):
        assert ObsConfig(metrics=True).enabled
        assert ObsConfig(journal=True).enabled
        assert ObsConfig(progress=True).enabled

    def test_round_trip(self):
        config = ObsConfig(
            metrics=True, journal=True, journal_path="/tmp/j.jsonl",
            progress=True, progress_interval=0.25,
        )
        assert ObsConfig.from_dict(config.to_dict()) == config

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(SpecError):
            ObsConfig.from_dict({"metrics": True, "bogus": 1})

    def test_strict_bools(self):
        with pytest.raises(SpecError):
            ObsConfig(metrics=1)
        with pytest.raises(SpecError):
            ObsConfig(journal="yes")

    def test_journal_path_requires_journal(self):
        with pytest.raises(SpecError):
            ObsConfig(journal_path="/tmp/j.jsonl")

    def test_negative_interval_rejected(self):
        with pytest.raises(SpecError):
            ObsConfig(progress=True, progress_interval=-1.0)


class TestMetricsRegistry:
    def test_disabled_registry_records_nothing(self):
        registry = MetricsRegistry()
        registry.inc("c")
        registry.observe("h", 0.1)
        snapshot = registry.snapshot()
        assert snapshot == {"counters": {}, "histograms": {}}

    def test_refcount_gating(self):
        registry = MetricsRegistry()
        registry.activate()
        registry.activate()
        registry.deactivate()
        assert registry.enabled  # one scope still holds it open
        registry.inc("c")
        registry.deactivate()
        assert not registry.enabled
        registry.inc("c")  # dropped
        assert registry.snapshot()["counters"]["c"][""] == 1.0

    def test_labelled_counters(self):
        registry = MetricsRegistry()
        registry.activate()
        registry.inc("verdicts", verdict="TRUSTED")
        registry.inc("verdicts", verdict="TRUSTED")
        registry.inc("verdicts", verdict="REJECTED")
        series = registry.snapshot()["counters"]["verdicts"]
        assert series == {"verdict=TRUSTED": 2.0, "verdict=REJECTED": 1.0}

    def test_histogram_buckets_and_overflow(self):
        registry = MetricsRegistry()
        registry.activate()
        registry.observe("h", 0.0002)  # first bucket
        registry.observe("h", 0.3)  # the 0.5 s bucket
        registry.observe("h", 50.0)  # past the last bucket: +Inf
        hist = registry.snapshot()["histograms"]["h"]
        assert hist["buckets"] == list(DEFAULT_TIME_BUCKETS)
        expected = [0] * (len(DEFAULT_TIME_BUCKETS) + 1)
        expected[0] = expected[DEFAULT_TIME_BUCKETS.index(0.5)] = expected[-1] = 1
        assert hist["counts"] == expected
        assert hist["count"] == 3
        assert hist["sum"] == pytest.approx(50.3002)

    def test_snapshot_delta_subtracts_preexisting_state(self):
        registry = MetricsRegistry()
        registry.activate()
        registry.inc("c", 5)
        registry.observe("h", 0.2)
        before = registry.snapshot()
        registry.inc("c", 2)
        registry.inc("fresh")
        registry.observe("h", 0.3)
        delta = snapshot_delta(before, registry.snapshot())
        assert delta["counters"]["c"][""] == 2.0
        assert delta["counters"]["fresh"][""] == 1.0
        assert delta["histograms"]["h"]["count"] == 1
        assert delta["histograms"]["h"]["sum"] == pytest.approx(0.3)

    def test_snapshot_delta_drops_unchanged_series(self):
        registry = MetricsRegistry()
        registry.activate()
        registry.inc("c")
        before = registry.snapshot()
        delta = snapshot_delta(before, registry.snapshot())
        assert delta["counters"] == {}
        assert delta["histograms"] == {}

    def test_merge_snapshot_adds_counters_and_histograms(self):
        registry = MetricsRegistry()
        registry.activate()
        registry.inc("c", 1)
        registry.observe("h", 0.2)
        half_second = DEFAULT_TIME_BUCKETS.index(0.5)
        counts = [0] * (len(DEFAULT_TIME_BUCKETS) + 1)
        counts[half_second] = 2
        # shaped like a snapshot an older run wrote: it still carries
        # the (always empty) gauge map, which merging and rendering skip
        child = {
            "counters": {"c": {"": 3.0}, "only_child": {"": 1.0}},
            "gauges": {},
            "histograms": {
                "h": {
                    "buckets": list(DEFAULT_TIME_BUCKETS),
                    "counts": counts,
                    "sum": 0.4,
                    "count": 2,
                }
            },
        }
        registry.merge_snapshot(child)
        snapshot = registry.snapshot()
        assert snapshot["counters"]["c"][""] == 4.0
        assert snapshot["counters"]["only_child"][""] == 1.0
        assert snapshot["histograms"]["h"]["count"] == 3
        assert snapshot["histograms"]["h"]["counts"][half_second] == 3
        assert "gauges" not in snapshot
        assert prometheus_text(child) == prometheus_text(
            {key: child[key] for key in ("counters", "histograms")}
        )
        assert "only_child = 1" in format_summary(child)

    def test_prometheus_text(self):
        registry = MetricsRegistry()
        registry.activate()
        registry.inc("interactions_total", 42)
        registry.inc("verdicts", verdict="TRUSTED")
        registry.observe("h", 0.2)
        text = prometheus_text(registry.snapshot())
        assert "# TYPE interactions_total counter" in text
        assert "interactions_total 42" in text
        assert 'verdicts{verdict="TRUSTED"} 1' in text
        assert 'h_bucket{le="0.1"} 0' in text
        assert 'h_bucket{le="0.5"} 1' in text
        assert 'h_bucket{le="+Inf"} 1' in text
        assert "h_count 1" in text
        assert "gauge" not in text


class TestRunJournal:
    def test_spans_round_trip(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        with RunJournal(path, meta={"protocol": "usd"}) as journal:
            span = journal.span_begin("engine.run", n=100)
            journal.event("recorder.spill", chunk=0)
            journal.span_end("engine.run", span, interactions=500)
        records = read_journal(path)
        summary = summarize_journal(records)
        assert summary.closed
        assert summary.monotone
        assert summary.orphan_ends == 0
        assert summary.meta["protocol"] == "usd"
        assert summary.spans["engine.run"].count == 1
        assert summary.spans["engine.run"].open == 0
        assert summary.event_counts["recorder.spill"] == 1

    def test_torn_final_line_tolerated(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        with RunJournal(path) as journal:
            journal.span_begin("engine.run")
        intact = read_journal(path)
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"event": "engine.prog')  # SIGKILL signature
        records = read_journal(path)
        assert all(isinstance(r, dict) for r in records)
        assert records == intact  # the torn tail is dropped, nothing else

    def test_torn_middle_line_raises(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        path.write_text('{"event": "a", "t": 0}\n{"torn\n{"event": "b", "t": 1}\n')
        with pytest.raises(ValueError):
            read_journal(path)

    def test_open_span_reported(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        journal = RunJournal(path)
        journal.span_begin("engine.run")
        journal.close()
        summary = summarize_journal(read_journal(path))
        assert summary.spans["engine.run"].open == 1

    def test_writes_after_close_dropped(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        journal = RunJournal(path)
        journal.close()
        journal.event("late")
        names = [r["event"] for r in read_journal(path)]
        assert "late" not in names

    def test_iter_tail(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        with RunJournal(path) as journal:
            for index in range(10):
                journal.event("tick", index=index)
        tail = list(iter_tail(path, 3))
        assert len(tail) == 3
        assert tail[-1]["event"] == "journal.close"
        assert len(list(iter_tail(path, 0))) == 12  # open + 10 + close

    def test_every_line_is_json(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        with RunJournal(path) as journal:
            journal.event("tick", array=(1, 2))
        for line in path.read_text().strip().split("\n"):
            assert isinstance(json.loads(line), dict)


class TestProgressReporter:
    def test_callback_payload(self):
        reporter = ProgressReporter(interval=0.0, label="counts")
        payload = reporter.maybe_report(
            interactions=500, horizon=1000, undecided_fraction=0.25
        )
        assert payload is not None
        assert reporter.emitted == 1
        assert payload["label"] == "counts"
        assert payload["fraction_done"] == pytest.approx(0.5)
        assert payload["undecided_fraction"] == pytest.approx(0.25)
        assert payload["eta_seconds"] >= 0.0

    def test_throttled_by_interval(self):
        reporter = ProgressReporter(interval=3600.0)
        payloads = [
            reporter.maybe_report(interactions=interactions, horizon=100)
            for interactions in (10, 20, 30)
        ]
        # the first heartbeat fires immediately; the rest sit inside
        # the (huge) interval and are swallowed
        assert payloads[0] is not None and payloads[1:] == [None, None]
        assert reporter.emitted == 1

    def test_stderr_line(self, capsys):
        reporter = ProgressReporter(interval=0.0, label="batch")
        reporter.maybe_report(interactions=50, horizon=100)
        err = capsys.readouterr().err
        assert "[obs]" in err
        assert "batch" in err


class TestWallTimer:
    def test_seconds_live_and_frozen(self):
        with wall_timer() as timer:
            live = timer.seconds
            assert live >= 0.0
        frozen = timer.seconds
        assert frozen >= live
        assert timer.seconds == frozen  # stopped: stable

    def test_stops_on_exception(self):
        with pytest.raises(RuntimeError):
            with wall_timer() as timer:
                raise RuntimeError("boom")
        assert timer.seconds == timer.seconds
