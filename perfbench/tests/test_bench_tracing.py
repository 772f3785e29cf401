import json
import types
from pathlib import Path

import pytest

import speed
import tracing


def test_self_time_excludes_children_and_roots_are_kept():
    tracer = tracing.Tracer()
    with tracer.span("outer"):
        with tracer.span("inner"):
            sum(range(10000))
    outer, inner = tracer.stats["outer"], tracer.stats["inner"]
    assert outer.calls == inner.calls == 1
    assert outer.self_time == pytest.approx(outer.total - inner.total)
    assert [name for name, _, _ in tracer.roots] == ["outer"]
    assert tracer.roots[0][2] == pytest.approx(inner.total)


def test_probe_samples_are_left_out_of_span_times():
    probe = speed.SpeedProbe()
    tracer = tracing.Tracer(probe=probe)
    with tracer.span("outer"):
        probe.sample()
        with tracer.span("inner"):
            probe.sample()
    (t0, t1), = tracer.intervals["outer"]
    outer, inner = tracer.stats["outer"], tracer.stats["inner"]
    assert outer.total == pytest.approx(t1 - t0 - sum(probe.durations))
    assert inner.total < 0.5 * probe.durations[1]
    assert outer.self_time == pytest.approx(outer.total - inner.total)
    assert probe.within(t0, t1) == pytest.approx(sum(probe.durations))
    assert probe.normalized(t0, t1) == pytest.approx(outer.total / probe.factor(t0, t1))


def test_ticking_samples_on_a_timer_and_stops():
    probe = speed.SpeedProbe()
    with probe.ticking():
        start = speed.perf()
        while speed.perf() - start < 6 * speed.PERIOD:
            sum(range(1000))
    taken = len(probe.times)
    assert taken >= 3
    start = speed.perf()
    while speed.perf() - start < 3 * speed.PERIOD:
        sum(range(1000))
    assert len(probe.times) == taken


def test_group_counts_only_the_outermost_span():
    tracer = tracing.Tracer()
    with tracer.span("search", group="head"):
        with tracer.span("fit", group="head"):
            pass
    with tracer.span("fit", group="head"):
        pass
    expected = tracer.stats["search"].total + tracer.stats["fit"].total
    expected -= tracer.roots[0][2]  # the fit nested in the search
    assert tracer.groups["head"] == pytest.approx(expected)


def test_patched_wraps_counts_and_restores():
    module = types.SimpleNamespace()
    module.__dict__["double"] = lambda x: 2 * x
    original = module.double

    def count(args, kwargs, result, stats):
        stats.counts["items"] += args[0]
        return result

    tracer = tracing.Tracer()
    with tracing.patched(tracer, [tracing.point(module, "double", "m.double", after=count)]):
        assert module.double(3) == 6
        assert module.double(4) == 8
    assert module.double is original
    assert tracer.stats["m.double"].calls == 2
    assert tracer.stats["m.double"].counts["items"] == 7


def test_require_treats_an_unused_span_as_an_error():
    tracer = tracing.Tracer()
    with tracer.span("used"):
        pass
    tracer.require(["used"])
    with pytest.raises(RuntimeError, match="never"):
        tracer.require(["never"])


def test_benchmark_json_names_the_metrics_every_workload_reports():
    import workloads

    spec = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    per_layer = {m["name"] for m in spec["per_layer"]}
    assert end_to_end == set(workloads.END_TO_END) | {"setup_s", "peak_rss_mb"}
    assert per_layer == set(workloads.PER_LAYER)
    for totals in workloads.SPAN_TOTALS.values():
        assert set(totals) <= set(workloads.DETAILS)
    assert not (end_to_end | per_layer) & set(workloads.DETAILS)
    assert {w["name"] for w in spec["workloads"]} == set(workloads.TRAINING) | {"encode"}
