import json
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from dispatchsim import engine, events, harness, policies
from dispatchsim.config import parse_lines
from dispatchsim.demand import StochasticConfig
from dispatchsim.policies import NearestPolicy

from perfbench import run
from perfbench.tracing import HANDLERS, Tracer, instrument, self_time_by_name
from perfbench.workloads import Day, Round

BENCHMARK = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())


def test_self_time_subtracts_direct_children_only():
    # root [0, 10] holds a [1, 4] and b [5, 6]; a holds g [2, 3].
    # a and b share a name, so their self times add up.
    name_id = [0, 1, 2, 1]
    parent = [-1, 0, 1, 0]
    start = [0.0, 1.0, 2.0, 5.0]
    end = [10.0, 4.0, 3.0, 6.0]
    own = self_time_by_name(name_id, parent, start, end, 3)
    np.testing.assert_allclose(own, [6.0, 2.0 + 1.0, 1.0])
    assert own.sum() == pytest.approx(10.0)


def test_spans_record_nesting_and_self_times_cover_the_root():
    tracer = Tracer()
    inner = tracer.span("layer.inner", lambda x: x + 1)
    outer = tracer.span("layer.outer", lambda x: inner(inner(x)))
    assert outer(1) == 3
    name_id, parent, start, end = tracer.arrays()
    assert [tracer.names[i] for i in name_id] == ["layer.outer", "layer.inner", "layer.inner"]
    assert list(parent) == [-1, 0, 0]
    assert all(end >= start)
    own = tracer.self_seconds()
    assert own["layer.outer"] + own["layer.inner"] == pytest.approx(end[0] - start[0])
    assert tracer.span_counts() == {"layer.outer": 1, "layer.inner": 2}


def test_span_is_closed_when_the_call_raises():
    tracer = Tracer()

    def fail():
        raise KeyError("x")

    wrapped = tracer.span("layer.fail", fail)
    with pytest.raises(KeyError):
        wrapped()
    after = tracer.span("layer.after", lambda: None)
    after()
    assert list(tracer.arrays()[1]) == [-1, -1]
    assert tracer.end[0] >= tracer.start[0]


def test_instrument_restores_every_original():
    before = (
        events.EventQueue.push,
        engine.Environment.handle_new_call,
        policies.nearest_index_masked,
        harness.run_day,
        NearestPolicy.choose_call,
    )
    with instrument(Tracer()):
        assert events.EventQueue.push is not before[0]
    after = (
        events.EventQueue.push,
        engine.Environment.handle_new_call,
        policies.nearest_index_masked,
        harness.run_day,
        NearestPolicy.choose_call,
    )
    assert after == before


def _small_day(seed):
    rng = np.random.default_rng(seed)
    stochastic = StochasticConfig()
    fleet = engine.build_fleet(4, stochastic, rng, rng)
    cfg = parse_lines([f"seed={seed}", "daily_calls=300"])
    calls = harness.build_calls(
        harness.demand_source_from_config(cfg, 300), cfg, 0, 300, rng, rng
    )
    policy = NearestPolicy()
    return engine.run_day(
        fleet, calls, policy, policy, speed=0.05, driver_rng=np.random.default_rng(seed)
    )


def test_traced_day_equals_untraced_day_and_counts_every_event():
    plain = _small_day(3)
    tracer = Tracer()
    with instrument(tracer):
        traced = _small_day(3)
    assert traced == plain
    spans = tracer.span_counts()
    handled = sum(spans.get(f"engine.{h}", 0) for h in HANDLERS.values())
    assert handled == plain.events_processed
    assert spans["events.push"] == plain.events_processed
    outcomes = sum(v for k, v in tracer.counts.items() if k.startswith("engine.proposals."))
    assert outcomes == spans["engine.propose_assignment"]


def _names(section):
    return [m["name"] for m in BENCHMARK[section]]


def test_per_layer_metrics_are_the_ones_benchmark_json_lists():
    rnd = SimpleNamespace(seconds=1.0, grad_steps=0)
    metrics = run.layer_metrics(Tracer(), rnd, rnd)
    assert list(metrics) == _names("per_layer")
    units = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {k: unit for k, (_, unit) in metrics.items()} == units


class _FakeWorkload:
    name = "fake"
    days_per_round = 1
    setup_repeats = 3
    decision_stride = 1
    work_unit = "simulated events"

    def work(self, rnd):
        return rnd.events

    def setup(self, seed):
        return seed

    def run(self, inputs, checker, out_dir):
        metrics = engine.DayMetrics(events_processed=10)
        return Round(0.5, [Day([], [], 1.0, metrics)])

    def finish(self, rnd, checker, out_dir):
        pass


def test_end_to_end_metrics_are_the_ones_benchmark_json_lists(tmp_path):
    rounds, metrics, problems, _ = run.end_to_end(_FakeWorkload(), 1, 0.0, tmp_path / "out")
    assert len(rounds) == 1 and problems == []
    assert list(metrics) == _names("end_to_end")
    units = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {k: unit for k, (_, unit) in metrics.items()} == units
    assert metrics["work_per_s"][0] == pytest.approx(20.0)


class _RaisingWorkload(_FakeWorkload):
    def run(self, inputs, checker, out_dir):
        raise RuntimeError("simulated fault")


def test_a_round_that_raises_is_reported_not_raised(tmp_path, capsys):
    rounds, metrics, _, _ = run.end_to_end(_RaisingWorkload(), 1, 0.0, tmp_path / "out")
    assert rounds == [None] and metrics is None
    assert "simulated fault" in capsys.readouterr().err
