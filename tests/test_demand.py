import numpy as np
import pytest

from dispatchsim.demand import (
    CSV_HEADER,
    ARRIVAL_JITTER_MIN,
    DemandError,
    DemandSource,
    GaussianCluster,
    StochasticConfig,
    flat_hourly_rates,
    generate_daily_calls,
    load_trip_records,
    _uniform_locations,
    sample_rejection_prob,
    sample_tolerance,
    sample_tolerances,
)
from dispatchsim.geometry import BoundingBox, Coordinate


def rng(seed=0):
    return np.random.default_rng(seed)


# -- CSV ingestion ---------------------------------------------------------


def test_load_single_row():
    text = CSV_HEADER + "\n4230,0.25,0.50,0.75,0.10\n"
    records, dropped = load_trip_records(text)
    assert dropped == 0
    assert records.dtype == np.float64
    assert records.tolist() == [[4230.0, 0.25, 0.50, 0.75, 0.10]]


def test_load_rejects_out_of_range_minute():
    text = CSV_HEADER + "\n10080,0.2,0.2,0.3,0.3\n"
    with pytest.raises(DemandError, match="line 2"):
        load_trip_records(text)


def test_load_rejects_bad_header_and_rows():
    with pytest.raises(DemandError, match="line 1"):
        load_trip_records("wrong,header\n")
    with pytest.raises(DemandError, match="line 2"):
        load_trip_records(CSV_HEADER + "\n1,2,3\n")
    with pytest.raises(DemandError, match="line 3"):
        load_trip_records(CSV_HEADER + "\n10,0.1,0.1,0.2,0.2\n20,x,0.1,0.2,0.2\n")


def test_load_drops_out_of_box_rows_and_counts():
    rows = [
        "10,0.1,0.1,0.2,0.2",
        "20,0.3,0.3,0.4,0.4",
        "30,0.5,0.5,0.6,0.6",
        "40,1.5,0.5,0.6,0.6",  # origin outside unit box
    ]
    text = CSV_HEADER + "\n" + "\n".join(rows) + "\n"
    records, dropped = load_trip_records(text)
    # manual filter oracle: exactly one row has an endpoint outside [0,1]^2
    assert dropped == 1
    assert len(records) == 3
    # a tighter box drops more
    tight = BoundingBox(0.0, 0.45, 0.0, 0.45)
    records2, dropped2 = load_trip_records(text, tight)
    assert dropped2 == 2
    assert len(records2) == 2


def test_load_empty_result_is_an_error():
    with pytest.raises(DemandError):
        load_trip_records(CSV_HEADER + "\n5,2.0,2.0,2.0,2.0\n")


# -- daily call generation ----------------------------------------------------


def test_synthetic_single_hour_poisson_window():
    rates = np.zeros(168)
    rates[10] = 60.0  # hour 10 of Monday, 60 calls/hour
    source = DemandSource(mode="synthetic", hourly_rates=rates)
    calls = generate_daily_calls(source, 0, 10**6, rng(42))
    times = [t for t, _, _ in calls]
    assert all(600.0 <= t < 660.0 for t in times)
    # Poisson(60): [20, 120] holds with overwhelming probability
    assert 20 <= len(times) <= 120


def test_daily_cap_and_ordering():
    source = DemandSource(mode="synthetic", hourly_rates=flat_hourly_rates(100.0))
    calls = generate_daily_calls(source, 3, 5, rng(1))
    assert len(calls) <= 5
    times = [t for t, _, _ in calls]
    assert times == sorted(times)
    assert all(t1 < t2 for t1, t2 in zip(times, times[1:]))


WEDNESDAY_CSV = CSV_HEADER + "\n4230,0.2,0.2,0.8,0.8\n"  # minute of day 1350


def test_records_mode_jitter_window():
    records, _ = load_trip_records(WEDNESDAY_CSV)
    source = DemandSource(mode="records", records=records)
    calls = generate_daily_calls(source, 2, 50, rng(7))
    base = 4230.0 - 2 * 1440.0
    assert calls
    for t, origin, dest in calls:
        assert abs(t - base) <= ARRIVAL_JITTER_MIN + 1e-6
        assert origin == Coordinate(0.2, 0.2) and dest == Coordinate(0.8, 0.8)


def test_records_mode_missing_day_errors():
    records, _ = load_trip_records(WEDNESDAY_CSV)
    source = DemandSource(mode="records", records=records)
    with pytest.raises(DemandError):
        generate_daily_calls(source, 5, 10, rng(0))


def test_generation_is_deterministic_per_seed():
    source = DemandSource(
        mode="synthetic",
        hourly_rates=flat_hourly_rates(30.0),
        clusters=[GaussianCluster(Coordinate(0.5, 0.5), 0.1)],
    )
    a = generate_daily_calls(source, 1, 1000, rng(99))
    b = generate_daily_calls(source, 1, 1000, rng(99))
    assert a == b


def test_generated_coordinates_inside_box():
    source = DemandSource(
        mode="synthetic",
        hourly_rates=flat_hourly_rates(50.0),
        clusters=[GaussianCluster(Coordinate(0.95, 0.95), 0.3)],
    )
    calls = generate_daily_calls(source, 0, 10000, rng(3))
    box = BoundingBox()
    for _, origin, dest in calls:
        assert box.contains(origin) and box.contains(dest)


def test_source_validation():
    with pytest.raises(DemandError):
        DemandSource(mode="records", records=[])
    with pytest.raises(DemandError):
        DemandSource(mode="synthetic", hourly_rates=np.zeros(168))
    with pytest.raises(DemandError):
        DemandSource(mode="synthetic", hourly_rates=np.ones(24))


@pytest.mark.parametrize(
    "records",
    [None, [[4230.0, 0.2, 0.2, 0.8, 0.8]], np.zeros((0, 5)), np.zeros(5), np.zeros((3, 4)),
     np.zeros((3, 5), dtype=np.float32)],
    ids=["none", "list", "empty", "1d", "four_columns", "float32"],
)
def test_records_must_be_a_nonempty_n_by_5_float64_array(records):
    with pytest.raises(DemandError, match=r"nonempty \(n, 5\) float64"):
        DemandSource(mode="records", records=records)


@pytest.mark.parametrize("bad", [float("inf"), float("nan")])
def test_non_finite_hourly_rate_is_rejected(bad):
    # an infinite rate would draw zero gaps forever; the source refuses it
    rates = flat_hourly_rates(1.0)
    rates[37] = bad
    with pytest.raises(DemandError, match="finite"):
        DemandSource(mode="synthetic", hourly_rates=rates)


GOOD_CLUSTER = GaussianCluster(Coordinate(0.5, 0.5), 0.1, 1.0)
ZERO_CLUSTER = GaussianCluster(Coordinate(0.5, 0.5), 0.1, 0.0)
# each weight is finite, their sum overflows to inf
HUGE_CLUSTER = GaussianCluster(Coordinate(0.5, 0.5), 0.1, 1e308)


def _with_good(bad):
    return [GOOD_CLUSTER, bad]


@pytest.mark.parametrize(
    "clusters, message",
    [
        (_with_good(GaussianCluster(Coordinate(0.2, 0.2), 0.1, -1.0)), "cluster 1: weight -1.0"),
        (_with_good(GaussianCluster(Coordinate(0.2, 0.2), 0.1, float("nan"))), "cluster 1: weight nan"),
        (_with_good(GaussianCluster(Coordinate(0.2, 0.2), 0.1, float("inf"))), "cluster 1: weight inf"),
        (_with_good(GaussianCluster(Coordinate(0.2, 0.2), 0.0, 1.0)), "cluster 1: sigma 0.0"),
        (_with_good(GaussianCluster(Coordinate(0.2, 0.2), -0.1, 1.0)), "cluster 1: sigma -0.1"),
        (_with_good(GaussianCluster(Coordinate(0.2, 0.2), float("nan"), 1.0)), "cluster 1: sigma nan"),
        (_with_good(GaussianCluster(Coordinate(float("inf"), 0.2), 0.1, 1.0)), "cluster 1: center"),
        ([ZERO_CLUSTER, ZERO_CLUSTER], "finite, positive sum, not 0.0"),
        ([HUGE_CLUSTER, HUGE_CLUSTER], "finite, positive sum, not inf"),
    ],
)
def test_bad_cluster_is_rejected(clusters, message):
    with pytest.raises(DemandError, match=message):
        DemandSource(mode="synthetic", hourly_rates=flat_hourly_rates(1.0), clusters=clusters)


def test_uniform_locations_match_scalar_draws():
    box = BoundingBox(-3.0, 0.5, 10.0, 12.0)
    g, ref = rng(9), rng(9)
    block = _uniform_locations(g, box, 3000)
    expected = [
        Coordinate(ref.uniform(box.x_min, box.x_max), ref.uniform(box.y_min, box.y_max))
        for _ in range(6000)
    ]
    assert [Coordinate(*row[i : i + 2]) for row in block.tolist() for i in (0, 2)] == expected
    assert g.bit_generator.state == ref.bit_generator.state
    assert _uniform_locations(g, box, 0).shape == (0, 4)


def test_block_tolerances_match_scalar_draws():
    cfg = StochasticConfig(tolerance_shape=0.7, tolerance_scale=2.5)
    g, ref = rng(12), rng(12)
    draws = sample_tolerances(cfg, g, 20_000).tolist()
    assert draws == [sample_tolerance(cfg, ref) for _ in range(20_000)]
    assert g.bit_generator.state == ref.bit_generator.state


# -- stochastic attributes ----------------------------------------------------


def test_tolerance_gamma_mean():
    cfg = StochasticConfig(tolerance_shape=2.0, tolerance_scale=3.0)
    g = rng(5)
    draws = np.array([sample_tolerance(cfg, g) for _ in range(100_000)])
    assert abs(draws.mean() - 6.0) < 0.2  # gamma mean = shape * scale
    assert np.all(draws > 0)


def test_tolerance_exponential_special_case_ks():
    # shape 1 makes the gamma an Exponential(scale); compare with analytic CDF
    cfg = StochasticConfig(tolerance_shape=1.0, tolerance_scale=5.0)
    g = rng(11)
    draws = np.sort([sample_tolerance(cfg, g) for _ in range(100_000)])
    cdf = 1.0 - np.exp(-draws / 5.0)
    n = len(draws)
    empirical_hi = np.arange(1, n + 1) / n
    empirical_lo = np.arange(0, n) / n
    ks = max(np.max(np.abs(empirical_hi - cdf)), np.max(np.abs(cdf - empirical_lo)))
    assert ks < 0.01


def test_rejection_beta_moments():
    cfg = StochasticConfig(reject_alpha=2.0, reject_beta=8.0)
    g = rng(21)
    draws = np.array([sample_rejection_prob(cfg, g) for _ in range(100_000)])
    assert abs(draws.mean() - 0.2) < 0.01  # beta mean = a / (a + b)
    assert np.all((draws >= 0) & (draws <= 1))

    uniform_cfg = StochasticConfig(reject_alpha=1.0, reject_beta=1.0)
    g = rng(22)
    u = np.array([sample_rejection_prob(uniform_cfg, g) for _ in range(100_000)])
    assert abs(u.var() - 1.0 / 12.0) < 0.005


def test_stochastic_config_validation():
    with pytest.raises(ValueError):
        StochasticConfig(tolerance_shape=0.0)
    with pytest.raises(ValueError):
        StochasticConfig(reject_beta=-1.0)


@pytest.mark.parametrize("field", ["tolerance_shape", "tolerance_scale", "reject_alpha", "reject_beta"])
def test_stochastic_config_refuses_nan(field):
    with pytest.raises(ValueError, match=f"{field} must be strictly positive"):
        StochasticConfig(**{field: float("nan")})
