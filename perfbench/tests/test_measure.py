"""The tail-percentile rule, percentiles and per-layer attribution."""

import statistics

import pytest

from perfbench import layers, measure
from repro.trace.recorder import TraceRecorder
from repro.util.clock import FakeClock


@pytest.mark.parametrize("samples", list(range(1, 3001)) + [10_000, 100_000])
def test_tail_leaves_ten_samples_beyond(samples):
    chosen = measure.tail_percentile(samples)
    if chosen is None:
        # Not even the lowest ladder step leaves ten samples beyond.
        assert samples * (100 - measure.TAIL_LADDER[0]) / 100 < 10
        return
    assert samples * (100 - chosen) / 100 >= measure.TAIL_SAMPLES_BEYOND
    higher = [pct for pct in measure.TAIL_LADDER if pct > chosen]
    if higher:
        # The next step up would leave fewer than ten.
        assert samples * (100 - higher[0]) / 100 < measure.TAIL_SAMPLES_BEYOND


def test_tail_needs_forty_samples():
    assert measure.tail_percentile(39) is None
    assert measure.tail_percentile(40) == 75.0
    assert measure.tail_percentile(100) == 90.0
    assert measure.tail_percentile(1000) == 99.0


def test_percentile_matches_statistics_inclusive_quantiles():
    values = [3.0, 1.0, 4.0, 1.5, 9.0, 2.6, 5.0, 3.5]
    quartiles = statistics.quantiles(values, n=4, method="inclusive")
    assert measure.percentile(values, 25) == pytest.approx(quartiles[0])
    assert measure.percentile(values, 50) == pytest.approx(statistics.median(values))
    assert measure.percentile(values, 75) == pytest.approx(quartiles[2])
    assert measure.percentile(values, 100) == 9.0


def test_covered_is_the_union_of_intervals():
    assert layers.covered(0, 10, []) == 0
    assert layers.covered(0, 10, [(1, 3), (2, 5)]) == 4
    assert layers.covered(0, 10, [(6, 8), (1, 2)]) == 3
    assert layers.covered(0, 10, [(-5, 2), (9, 20)]) == 3


def _traced_question(clock):
    """A query span tree with overlapping parallel fetches."""
    recorder = TraceRecorder(clock=clock)
    with recorder.span("query"):
        clock.advance(1)
        with recorder.span("decompose"):
            clock.advance(2)
        with recorder.span("fetch") as fetch:
            clock.advance(1)
        with recorder.span("reconcile"):
            clock.advance(5)
        with recorder.span("navigate"):
            clock.advance(3)
            with recorder.span("enrichment"):
                clock.advance(1)
                with recorder.span("fetch:GO"):
                    clock.advance(2)
            clock.advance(4)
        clock.advance(1)
    # Two sibling fetches that ran at once on the fetcher's pool.
    for name in ("fetch:LocusLink", "fetch:OMIM"):
        child = recorder.open_span(name, parent=fetch)
        child.start = fetch.start + 0.1
        recorder.close_span(child)
        child.end = fetch.end - 0.1
    return recorder.root


def test_attribution_partitions_the_traced_time():
    clock = FakeClock()
    root = _traced_question(clock)
    totals = layers.attribute(root)
    assert totals["mediator.decompose_ms"] == pytest.approx(2)
    # The overlapping fetch:* children do not count twice.
    assert totals["wrappers.fetch_ms"] == pytest.approx(1 + 2)
    assert totals["mediator.reconcile_ms"] == pytest.approx(5)
    assert totals["oem.answer_ms"] == pytest.approx(7)
    assert totals["mediator.enrichment_ms"] == pytest.approx(1)
    # query's own 2 s are the only unattributed span time.
    assert layers.unattributed(root) == pytest.approx(2)
    assert sum(totals.values()) + layers.unattributed(root) == pytest.approx(root.duration)
