"""Export formats: text, JSON, and the Prometheus golden file."""

from __future__ import annotations

import json
from pathlib import Path

from repro.obs.export import (
    FORMATS,
    prometheus_name,
    render_json,
    render_prometheus,
    render_text,
)
from repro.obs.metrics import MetricsRegistry

GOLDEN = Path(__file__).parent / "golden"


def golden_registry() -> MetricsRegistry:
    """The fixed registry the committed golden file was rendered from."""
    registry = MetricsRegistry()
    registry.counter("service.ingest.hours").inc(48)
    registry.counter("service.ingest.records").inc(1234.5)
    registry.gauge("service.memo_hits").set(7)
    registry.gauge("bgp.simulator.table_misses").set(0)
    # the default layout, so a change to DEFAULT_TIME_BUCKETS shows up
    # in the golden file
    hist = registry.histogram("service.retrain.seconds")
    for value in (0.005, 0.005, 0.05, 0.5, 2.0):
        hist.observe(value)
    return registry


class TestPrometheus:
    def test_matches_golden_file(self):
        rendered = render_prometheus(golden_registry().snapshot())
        assert rendered == (GOLDEN / "snapshot.prom").read_text()

    def test_cumulative_buckets_and_inf(self):
        lines = render_prometheus(golden_registry().snapshot()).splitlines()
        buckets = [line for line in lines if "_bucket" in line]
        counts = [int(line.rsplit(" ", 1)[1]) for line in buckets]
        assert counts == sorted(counts)  # cumulative: never decreases
        assert buckets[-1].startswith(
            'repro_service_retrain_seconds_bucket{le="+Inf"}')
        assert counts[-1] == 5  # +Inf sees every observation

    def test_name_translation(self):
        assert prometheus_name("service.retrain.seconds") == \
            "repro_service_retrain_seconds"
        assert prometheus_name("a-b.c") == "repro_a_b_c"

    def test_ends_with_newline(self):
        assert render_prometheus(golden_registry().snapshot()).endswith("\n")


class TestText:
    def test_sections_and_values(self):
        text = render_text(golden_registry().snapshot())
        assert "counters:" in text
        assert "gauges:" in text
        assert "histograms:" in text
        assert "service.ingest.hours" in text
        assert "count=5" in text

    def test_empty_snapshot_placeholder(self):
        assert render_text(MetricsRegistry().snapshot()) == \
            "(no metrics recorded)"


class TestJson:
    def test_valid_and_stable(self):
        rendered = render_json(golden_registry().snapshot())
        payload = json.loads(rendered)
        assert payload["counters"]["service.ingest.hours"] == 48
        assert payload["histograms"]["service.retrain.seconds"]["count"] == 5
        # stable: same registry renders byte-identically
        assert rendered == render_json(golden_registry().snapshot())


def test_formats_tuple_matches_renderers():
    assert FORMATS == ("text", "json", "prometheus")
