"""`benchmarks/bench_records.py`: the trip writer and one measured run, on small inputs."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from dispatchsim.demand import load_trip_records

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture
def bench_records(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "benchmarks"))  # for its `bench_pairs` import
    spec = importlib.util.spec_from_file_location(
        "bench_records", ROOT / "benchmarks" / "bench_records.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_trip_file_is_deterministic_and_spread_over_the_week(bench_records, tmp_path):
    first, second = tmp_path / "a.csv", tmp_path / "b.csv"
    bench_records.write_trip_csv(first, rows=703)
    bench_records.write_trip_csv(second, rows=703)
    assert first.read_bytes() == second.read_bytes()
    records, dropped = load_trip_records(first.read_text())
    assert dropped == 0 and records.shape == (703, 5)
    assert np.bincount((records[:, 0] // 1440.0).astype(int)).tolist() == [101] * 3 + [100] * 4
    with pytest.raises(ValueError, match="at least 7"):
        bench_records.write_trip_csv(first, rows=6)


def test_measure_draws_seven_capped_days(bench_records, tmp_path, monkeypatch):
    trips = tmp_path / "trips.csv"
    bench_records.write_trip_csv(trips, rows=700)
    monkeypatch.setattr(bench_records, "DAILY_CAP", 500)
    run = bench_records.measure(trips, ROOT / "src")
    assert run["rows"] == 700 and run["dropped"] == 0
    assert len(run["days_s"]) == len(run["calls"]) == 7
    assert all(0 < n <= 500 for n in run["calls"])
    assert run["load_rss_rise_mb"] >= 0 and run["peak_rss_mb"] > 0
    assert run["days_sha256"] == bench_records.measure(trips, ROOT / "src")["days_sha256"]
