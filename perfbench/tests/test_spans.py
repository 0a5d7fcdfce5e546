"""Self-tests of the span arithmetic: tail percentile, self time, layers."""

import json
from pathlib import Path

import pytest

import spans as sp


def test_tail_is_highest_ladder_percentile_with_ten_samples_beyond():
    assert sp.tail(range(1, 101)) == (90.0, 90)
    assert sp.tail(range(1, 1001)) == (99.0, 990)
    assert sp.tail(range(1, 21)) == (50.0, 10)
    assert sp.tail(range(1, 20)) == (0.0, 0.0)
    assert sp.tail(reversed(range(1, 101))) == (90.0, 90)


def test_self_time_subtracts_what_children_cover():
    spans = [("runner.execute", 0.0, 10.0, -1),
             ("gnls.gnls_step", 1.0, 4.0, 0),
             ("field.poisson_solve", 2.0, 3.0, 1),
             ("gnls.gnls_step", 5.0, 9.0, 0)]
    assert sp.self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 4.0])
    layers, unattributed = sp.layer_self(spans, (-1.0, 12.0))
    assert layers == pytest.approx({"driver": 3.0, "gnls": 6.0, "field": 1.0})
    assert unattributed == pytest.approx(3.0)
    assert sum(layers.values()) + unattributed == pytest.approx(13.0)


def test_overlapping_children_are_covered_once():
    spans = [("a.f", 0.0, 10.0, -1), ("a.g", 1.0, 4.0, 0), ("a.h", 3.0, 6.0, 0)]
    assert sp.self_times(spans)[0] == pytest.approx(5.0)


def test_inclusive_time_counts_nested_repeats_once():
    spans = [("gnls.gnls_state_from_map", 0.0, 2.0, -1),
             ("gnls.gnls_seed_from_map", 0.5, 1.5, 0),
             ("gauge.best_reference_frame", 3.0, 3.5, -1)]
    names = {"gnls.gnls_state_from_map", "gnls.gnls_seed_from_map",
             "gauge.best_reference_frame"}
    assert sp.inclusive_s(spans, names) == pytest.approx(2.5)
    assert sp.layer_of("gnls.gnls_seed_from_map") == "gauge"
    assert sp.layer_of("numpy.fft.fftn") == "fft"


def _synthetic_trace():
    spans = [("setup.import", 0.0, 1.0, -1), ("cli.main", 1.0, 9.0, -1)]
    for k in range(2):
        t = 2.0 + 3.0 * k
        step = len(spans)
        spans.append(("gnls.gnls_step", t, t + 2.0, 1))
        spans.append(("field.poisson_solve", t + 0.1, t + 0.5, step))
        spans.append(("numpy.fft.fftn", t + 0.2, t + 0.3, step + 1))
        spans.append(("numpy.fft.ifft", t + 0.6, t + 0.7, step))
    spans.append(("numpy.fft.fft", 8.0, 8.5, 1))  # outside any step
    return {"spans": spans, "t_start": 0.0, "t_end": 10.0,
            "fft_points": 5, "fft_bytes": 80}


def test_layer_metrics_per_step_counts_and_closure():
    m = sp.layer_metrics(_synthetic_trace())
    assert m["steppers.calls"][0] == 2
    assert m["fft.per_step.fwd_nd"][0] == 1 and m["fft.per_step.inv_1d"][0] == 1
    assert m["fft.per_step.fwd_1d"][0] == 0
    assert m["fft.per_step"][0] == 2
    assert m["fft.transforms_1d"][0] == 3 and m["fft.transforms_nd"][0] == 2
    assert m["gauge.poisson_per_step"][0] == 1
    assert m["trace.unattributed_s"][0] == pytest.approx(1.0)
    assert m["gnls.step_ms.p50"][0] == pytest.approx(2000.0)


def test_broken_nesting_fails_the_closure_check():
    trace = _synthetic_trace()
    trace["spans"].append(("numpy.fft.fft", 8.8, 9.5, 1))  # outlives its parent
    with pytest.raises(ValueError):
        sp.layer_metrics(trace)


def test_benchmark_json_lists_every_per_layer_metric():
    listed = json.loads((Path(sp.__file__).parents[1] / "BENCHMARK.json").read_text())
    names = {m["name"] for m in listed["per_layer"]}
    produced = set(sp.layer_metrics(_synthetic_trace()))
    assert names == produced | {"snapshot.bytes", "diagnostics.csv_bytes", "trace.overhead_s"}
