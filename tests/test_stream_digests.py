"""Byte-level pins of what each RNG stream produces for a day's calls and fleet.

Every digest is the SHA-256 of one line per call (or vehicle), with each
float written by `float.hex`, so any change in draw order, draw count or
arithmetic moves it.  The values were computed with per-call scalar draws;
block draws that consume each stream in the same order must reproduce them.
The outcome digests pin what a simulated day writes into each call: its
status, vehicle, event times and status history.
"""

import hashlib

import numpy as np
import pytest

from dispatchsim.config import parse_lines
from dispatchsim.demand import (
    CSV_HEADER,
    DemandSource,
    GaussianCluster,
    StochasticConfig,
    flat_hourly_rates,
    load_trip_records,
)
from dispatchsim.engine import build_fleet, run_day
from dispatchsim.geometry import BoundingBox, Coordinate
from dispatchsim.harness import build_calls
from dispatchsim.policies import make_baseline

CFG = parse_lines(["tolerance_shape=1.5", "tolerance_scale=3.0"])

ODD_BOX = BoundingBox(-2.0, 3.0, 1.0, 2.5)

# Day 2 (Wednesday) rows, two of them within the jitter of the day's edges
# so the in-day filter drops some draws; one Thursday row never qualifies.
RECORDS_CSV = "\n".join(
    [
        CSV_HEADER,
        "2885.0,0.10,0.20,0.30,0.40",
        "3300.5,0.55,0.65,0.75,0.85",
        "3600.0,0.90,0.10,0.20,0.80",
        "4000.25,0.33,0.33,0.66,0.66",
        "4317.0,0.05,0.95,0.95,0.05",
        "4400.0,0.50,0.50,0.50,0.50",
    ]
) + "\n"

# Wednesday rows out of time order among rows of other days (4320.0 is
# Thursday's first minute), and one Wednesday row outside the box: the
# drawn indices address the day's kept rows in file order, so sorting them
# would redraw the day.
RECORDS_SHUFFLED_CSV = "\n".join(
    [
        CSV_HEADER,
        "4317.0,0.05,0.95,0.95,0.05",
        "1500.0,0.40,0.40,0.60,0.60",
        "3300.5,0.55,0.65,0.75,0.85",
        "9000.0,0.10,0.10,0.90,0.90",
        "2885.0,0.10,0.20,0.30,0.40",
        "3100.0,1.50,0.50,0.50,0.50",
        "4000.25,0.33,0.33,0.66,0.66",
        "100.0,0.70,0.20,0.20,0.70",
        "3600.0,0.90,0.10,0.20,0.80",
        "4320.0,0.25,0.25,0.75,0.75",
        "2890.75,0.60,0.30,0.10,0.95",
        "3600.0,0.15,0.85,0.45,0.35",
    ]
) + "\n"


def _h(x: float) -> str:
    return float(x).hex()


def calls_digest(calls) -> str:
    lines = [
        ",".join(
            [str(c.id), _h(c.created_at), *map(_h, c.origin), *map(_h, c.destination), _h(c.max_wait)]
        )
        for c in calls
    ]
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def fleet_digest(fleet) -> str:
    lines = [
        ",".join(
            [
                str(v.id),
                *map(_h, v.location),
                *map(_h, v.move_destination),
                str(int(v.busy)),
                _h(v.free_at),
                _h(v.reject_prob),
            ]
        )
        for v in fleet
    ]
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def uniform_truncated():
    source = DemandSource(mode="synthetic", hourly_rates=flat_hourly_rates(20.0), box=ODD_BOX)
    calls = build_calls(
        source, CFG, 3, 300, np.random.default_rng(101), np.random.default_rng(102)
    )
    assert len(calls) == 300  # about 480 arrivals, so the cap cut the day
    assert all(ODD_BOX.contains(c.origin) and ODD_BOX.contains(c.destination) for c in calls)
    return calls


def clusters_clamped():
    clusters = [
        GaussianCluster(Coordinate(0.97, 0.04), 0.08, 2.0),
        GaussianCluster(Coordinate(0.40, 0.60), 0.15, 1.0),
        GaussianCluster(Coordinate(0.50, 0.50), 0.10, 0.0),  # never picked
        GaussianCluster(Coordinate(0.10, 0.90), 0.05, 0.5),
    ]
    source = DemandSource(
        mode="synthetic", hourly_rates=flat_hourly_rates(15.0), clusters=clusters
    )
    calls = build_calls(
        source, CFG, 5, 1000, np.random.default_rng(201), np.random.default_rng(202)
    )
    coords = [v for c in calls for v in (*c.origin, *c.destination)]
    assert 0.0 in coords and 1.0 in coords  # the clamp fired at both edges
    return calls


def records_jittered():
    records, dropped = load_trip_records(RECORDS_CSV)
    assert dropped == 0
    source = DemandSource(mode="records", records=records)
    calls = build_calls(
        source, CFG, 2, 400, np.random.default_rng(301), np.random.default_rng(302)
    )
    assert 300 < len(calls) < 400  # the in-day filter dropped some jittered rows
    return calls


def records_shuffled():
    records, dropped = load_trip_records(RECORDS_SHUFFLED_CSV)
    assert dropped == 1
    source = DemandSource(mode="records", records=records)
    calls = build_calls(
        source, CFG, 2, 400, np.random.default_rng(311), np.random.default_rng(312)
    )
    assert 300 < len(calls) < 400
    return calls


def one_generator_for_both_streams():
    rng = np.random.default_rng(401)
    source = DemandSource(mode="synthetic", hourly_rates=flat_hourly_rates(8.0))
    return build_calls(source, CFG, 1, 1000, rng, rng)


CALL_DIGESTS = {
    uniform_truncated: (
        "7b01087a1dfce93883f6767e184570a5e26d466733fb7d40e5d02a56c6cbd1fc"
    ),
    clusters_clamped: (
        "fc9fa2fcaf05672e9ad51837080975205990a868d82bf173f6f09c3642cd2eed"
    ),
    records_jittered: (
        "34aa2052f48c5d2f07424c2a0b492fdaeaadcc4b419d18dace0e4835f7d238be"
    ),
    records_shuffled: (
        "6cdf5da7d34ca0ebed064bde709fed61f8142a57d3f3b1cb0439024e2146cb49"
    ),
    one_generator_for_both_streams: (
        "31f3a4d24b96124ad00db7a9d3f2280453f520c0980dbc19d49589046e7acce6"
    ),
}


@pytest.mark.parametrize("case", list(CALL_DIGESTS), ids=lambda f: f.__name__)
def test_build_calls_digest_is_pinned(case):
    assert calls_digest(case()) == CALL_DIGESTS[case]


def shared_generator_fleet():
    rng = np.random.default_rng(501)
    return build_fleet(60, StochasticConfig(), rng, rng, ODD_BOX)


def distinct_generator_fleet():
    return build_fleet(
        60, StochasticConfig(reject_alpha=0.5, reject_beta=0.5),
        np.random.default_rng(601), np.random.default_rng(602),
    )


FLEET_DIGESTS = {
    shared_generator_fleet: (
        "8c54dec86c5b1cb4a1281435784ada996704debbd623c5398c3e9f627dadcb09"
    ),
    distinct_generator_fleet: (
        "4ead618ecfeb14ea4463882ebaa7e5549b20b745bf3d8aaf933c2e4b8f6ee4d9"
    ),
}


@pytest.mark.parametrize("case", list(FLEET_DIGESTS), ids=lambda f: f.__name__)
def test_build_fleet_digest_is_pinned(case):
    assert fleet_digest(case()) == FLEET_DIGESTS[case]


# -- what a simulated day does to each call -------------------------------------


def _opt(x) -> str:
    return "-" if x is None else _h(x)


def outcomes_digest(calls, metrics) -> str:
    lines = [
        ",".join(
            [
                str(c.id),
                c.status.value,
                "-" if c.assigned_vehicle is None else str(c.assigned_vehicle),
                *map(_opt, (c.assigned_at, c.pickup_time, c.completion_time, c.canceled_at)),
                "/".join(s.value for s in c.status_history),
            ]
        )
        for c in calls
    ]
    lines.append(
        ",".join(
            [
                str(metrics.calls_created),
                str(metrics.calls_served),
                str(metrics.calls_canceled),
                str(metrics.pending),
                _h(metrics.sum_delay),
                _h(metrics.sum_service_time),
                str(metrics.events_processed),
            ]
        )
    )
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def outcome_day(policy_name):
    """About 3,000 calls on 30 vehicles: drivers reject, customers give up."""
    source = DemandSource(mode="synthetic", hourly_rates=flat_hourly_rates(125.0))
    calls = build_calls(
        source, CFG, 4, 5000, np.random.default_rng(701), np.random.default_rng(702)
    )
    fleet = build_fleet(
        30, StochasticConfig(), np.random.default_rng(703), np.random.default_rng(704)
    )
    policy = make_baseline(policy_name)
    outcomes = []
    policy.on_proposal_outcome = lambda env, kind, outcome, eta, drive: outcomes.append(outcome)
    metrics = run_day(
        fleet, calls, policy, policy, speed=0.05, driver_rng=np.random.default_rng(705)
    )
    assert 2800 < len(calls) < 3200
    assert metrics.calls_served > 1000 and metrics.calls_canceled > 500
    assert len(set(outcomes)) == 3  # accepted, driver- and customer-rejected proposals
    return outcomes_digest(calls, metrics)


OUTCOME_DIGESTS = {
    "nn": "0788f2cb7a20ad1a4080c954c0ecc341731882c85cbe4eb1491cc3617e47d2bc",
    "fifo": "5e03e5a3d32c559acba5252153c8389d7c2617fae5ba330d182849eebba85abc",
}


@pytest.mark.parametrize("policy_name", list(OUTCOME_DIGESTS))
def test_day_outcome_digest_is_pinned(policy_name):
    assert outcome_day(policy_name) == OUTCOME_DIGESTS[policy_name]
