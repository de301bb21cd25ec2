"""End-to-end acceptance checks for the simulator and the learning harness.

Each test here exercises a whole-system guarantee: conservation laws over
randomized days, oracle equivalence for the baselines, exactness of the
reward arithmetic and gradients, learning outcomes on desk-scale
experiments, determinism, and throughput.  The experiment configurations
are frozen, so every check is deterministic.
"""

import math
import time

import numpy as np
import pytest

from dispatchsim.agent import AgentConfig, DQNAgent, discounted_reward
from dispatchsim.config import parse_lines, serialize
from dispatchsim.demand import StochasticConfig, sample_tolerance
from dispatchsim.engine import Environment, build_fleet, run_day
from dispatchsim.entities import ALLOWED_TRANSITIONS, Call, CallPool, CallStatus, CallTable, Vehicle
from dispatchsim.geometry import Coordinate
from dispatchsim.harness import (
    demand_source_from_config,
    build_calls,
    run_evaluation,
    run_training,
)
from dispatchsim.policies import FifoPolicy, LifoPolicy, NearestPolicy, make_baseline
from dispatchsim.qnet import QNetwork, load_checkpoint, save_checkpoint
from dispatchsim.rng import substream


# -- 1. conservation and lifecycle over randomized days --------------------------


def _random_day(rng: np.random.Generator):
    n_vehicles = int(rng.integers(1, 6))
    n_calls = int(rng.integers(5, 41))
    stochastic = StochasticConfig()
    fleet = build_fleet(n_vehicles, stochastic, rng, rng)
    times = np.sort(rng.uniform(0, 1440, size=n_calls))
    calls = [
        Call(
            id=i,
            created_at=float(times[i]),
            origin=Coordinate(float(rng.uniform()), float(rng.uniform())),
            destination=Coordinate(float(rng.uniform()), float(rng.uniform())),
            max_wait=sample_tolerance(stochastic, rng),
        )
        for i in range(n_calls)
    ]
    name = ("fifo", "lifo", "nn", "random")[int(rng.integers(4))]
    policy = make_baseline(name, rng=rng)
    speed = float(rng.uniform(0.02, 0.2))
    metrics = run_day(fleet, calls, policy, policy, speed=speed, driver_rng=rng)
    return metrics, calls


def _history_is_valid(history) -> bool:
    if history[0] is not CallStatus.WAITING:
        return False
    return all(b in ALLOWED_TRANSITIONS[a] for a, b in zip(history, history[1:]))


def test_conservation_and_lifecycle_over_1000_random_days():
    start = time.perf_counter()
    violations = 0
    for case in range(1000):
        rng = np.random.default_rng(900_000 + case)
        metrics, calls = _random_day(rng)
        if (
            metrics.calls_created
            != metrics.calls_served + metrics.calls_canceled + metrics.pending
        ):
            violations += 1
        if any(not _history_is_valid(c.status_history) for c in calls):
            violations += 1
    assert violations == 0
    assert time.perf_counter() - start < 120.0


# -- 2. baseline choices equal brute force on random snapshots ---------------------


def test_baseline_choices_match_brute_force_on_10k_snapshots():
    rng = np.random.default_rng(4242)
    env = Environment([Vehicle(0, Coordinate(0.0, 0.0), Coordinate(0.0, 0.0))], speed=0.1,
                      driver_rng=np.random.default_rng(0))
    env.calls = table = CallTable(10_000)  # each snapshot writes its rows and is pooled afresh
    vehicle = env.fleet[0]
    fifo, lifo, nn = FifoPolicy(), LifoPolicy(), NearestPolicy()
    mismatches = 0
    for _ in range(10_000):
        n = int(rng.integers(1, 101))
        ids = rng.choice(10_000, size=n, replace=False)
        times = rng.uniform(0, 1440, size=n)
        xs = rng.uniform(0, 1, size=n)
        ys = rng.uniform(0, 1, size=n)
        ax, ay = rng.uniform(0, 1, size=2)

        time_snap = list(zip((int(i) for i in ids), times))
        loc_snap = list(zip((int(i) for i in ids), xs, ys))
        table.floats[0, ids], table.floats[1, ids], table.floats[4, ids] = xs, ys, times
        env.pool = CallPool(table)
        for cid in sorted(ids.tolist()):
            env.pool.add(cid)
        vehicle.location = Coordinate(float(ax), float(ay))

        if fifo.choose_call(env, vehicle) != min(time_snap, key=lambda e: (e[1], e[0]))[0]:
            mismatches += 1
        if lifo.choose_call(env, vehicle) != min(time_snap, key=lambda e: (-e[1], e[0]))[0]:
            mismatches += 1
        brute = min(
            loc_snap, key=lambda e: (abs(e[1] - ax) + abs(e[2] - ay), e[0])
        )[0]
        if nn.choose_call(env, vehicle) != brute:
            mismatches += 1
    assert mismatches == 0


# -- 3. reward closed form vs explicit geometric sums ------------------------------


@pytest.mark.parametrize("gamma", [0.5, 0.9, 0.99])
def test_discounted_reward_matches_geometric_sum_to_1e9(gamma):
    taus = np.arange(1, 10_001, dtype=np.int64)
    # cumulative geometric sums: sum_{i=0}^{tau-1} gamma^i, in 64-bit
    powers = np.power(gamma, np.arange(10_000, dtype=np.float64))
    cums = np.cumsum(powers)
    r = 7.25
    expected = r * cums / taus
    got = np.array([discounted_reward(r, gamma, float(t)) for t in taus])
    rel = np.abs(got - expected) / expected
    assert rel.max() <= 1e-9


@pytest.mark.parametrize("gamma", [0.5, 0.9, 0.99])
def test_exp_beta_tau_equals_gamma_pow_tau_to_1e12(gamma):
    beta = -math.log(gamma)
    for tau in range(1, 10_001):
        direct = gamma**tau
        via_beta = math.exp(-beta * tau)
        if direct < 1e-280:
            # both forms underflow together; relative comparison is
            # meaningless in the subnormal range
            assert via_beta < 1e-280
            continue
        assert abs(via_beta - direct) / direct <= 1e-12


# -- 4. analytic gradients vs central finite differences ---------------------------


def test_gradient_check_on_20_random_networks():
    rng = np.random.default_rng(20_26)
    max_rel = 0.0
    for _ in range(20):
        hidden = [int(rng.integers(2, 7)) for _ in range(int(rng.integers(1, 3)))]
        dims = (int(rng.integers(2, 6)), *hidden, 1)
        net = QNetwork(dims, rng=rng, dtype=np.float64)
        x = rng.uniform(0.1, 1.0, size=(5, dims[0]))
        target = net.forward(x) + rng.uniform(0.2, 0.6, size=5)

        _, grads = net.loss_and_gradients(x, target)
        eps = 1e-5
        for p, g in zip(net.parameters(), grads):
            flat_p = p.reshape(-1)
            flat_g = g.reshape(-1)
            for j in range(flat_p.size):
                orig = flat_p[j]
                flat_p[j] = orig + eps
                lp, _ = net.loss_and_gradients(x, target)
                flat_p[j] = orig - eps
                lm, _ = net.loss_and_gradients(x, target)
                flat_p[j] = orig
                numeric = (lp - lm) / (2 * eps)
                rel = abs(numeric - flat_g[j]) / max(
                    abs(numeric), abs(flat_g[j]), 1e-6
                )
                max_rel = max(max_rel, rel)
    assert max_rel <= 1e-5


# -- 5. double-q learning recovers the exact solution of a toy decision process -----


def test_double_q_matches_value_iteration_on_toy_process():
    start = time.perf_counter()
    # 2 states x 2 actions, deterministic rewards, sojourns and successors
    R = [[4.0, 1.0], [2.0, 6.0]]
    TAU = [[2.0, 1.0], [1.0, 3.0]]
    NS = [[1, 0], [0, 1]]
    GAMMA = 0.9

    def feat(s, a):
        v = np.zeros(4, dtype=np.float32)
        v[2 * s + a] = 1.0
        return v

    def cands(s):
        return np.stack([feat(s, 0), feat(s, 1)])

    # independent oracle: exact value iteration to fixed point
    q_star = np.zeros((2, 2))
    for _ in range(10_000):
        q_next = np.empty_like(q_star)
        for s in range(2):
            for a in range(2):
                q_next[s, a] = R[s][a] + GAMMA ** TAU[s][a] * q_star[NS[s][a]].max()
        if np.abs(q_next - q_star).max() < 1e-12:
            q_star = q_next
            break
        q_star = q_next

    cfg = AgentConfig(
        gamma=GAMMA,
        learning_starts=64,
        update_steps=100,
        batch_size=16,
        learning_rate=0.003,
        buffer_capacity=1000,
        hidden_dims=(32,),
    )
    agent = DQNAgent(
        "toy", cfg, np.random.default_rng(0), np.random.default_rng(1), input_dim=4
    )
    for s in range(2):
        for a in range(2):
            for _ in range(32):
                agent.buffer.push(feat(s, a), R[s][a], TAU[s][a], cands(NS[s][a]))
    for _ in range(9000):
        agent.train_step()

    learned = np.array(
        [[float(agent.online.forward(feat(s, a))[0]) for a in range(2)] for s in range(2)]
    )
    assert (learned.argmax(axis=1) == q_star.argmax(axis=1)).all()
    rel = np.abs(learned - q_star) / np.abs(q_star)
    assert rel.max() <= 0.05
    assert time.perf_counter() - start < 60.0


# -- 6 and 7. desk-scale learning outcomes -----------------------------------------


HARD_CONFIG = [
    "seed=7",
    "daily_calls=1000",
    "train_daily_calls=1000",
    "train_days=10",
    "train_reps=4",  # 40 simulated training days in total
    "eval_days=10",
    "eval_seeds=5",
    "scenarios=hard",  # 5 vehicles at 1,000 calls/day
    "policies=dqn,random,lifo",
    "learning_starts=500",
    "update_steps=200",
    "buffer_capacity=20000",
    "epsilon_factor=0.9992",
    "learning_rate=0.002",
]

VERY_EASY_CONFIG = [
    "seed=7",
    "daily_calls=1000",
    "eval_days=10",
    "eval_seeds=3",
    "scenarios=very_easy",  # 30 vehicles at 1,000 calls/day
    "policies=fifo,lifo,nn,random,dqn",
    "tolerance_scale=0.26",
    "train_daily_calls=1000",
    "train_days=5",
    "train_reps=2",
    "learning_starts=500",
    "update_steps=200",
    "epsilon_factor=0.9992",
    "learning_rate=0.002",
]


def _train_and_evaluate(config_lines):
    cfg = parse_lines(config_lines)
    policy, _, _ = run_training(cfg)
    report, _ = run_evaluation(cfg, dqn_policy=policy)
    return {(r.policy, r.metric): r.mean for r in report}


@pytest.fixture(scope="session")
def hard_scenario_results():
    return _train_and_evaluate(HARD_CONFIG)


@pytest.fixture(scope="session")
def very_easy_results():
    return _train_and_evaluate(VERY_EASY_CONFIG)


def test_trained_agent_beats_random_and_lifo_in_hard_scenario(hard_scenario_results):
    start = time.perf_counter()
    vals = hard_scenario_results
    assert vals[("dqn", "avg_delay_min")] <= vals[("random", "avg_delay_min")]
    assert vals[("dqn", "avg_delay_min")] <= vals[("lifo", "avg_delay_min")]
    assert vals[("dqn", "cancel_rate")] <= vals[("random", "cancel_rate")]
    assert time.perf_counter() - start < 15 * 60.0


def test_all_policies_comparable_in_very_easy_scenario(very_easy_results):
    start = time.perf_counter()
    vals = very_easy_results
    delays = {
        p: vals[(p, "avg_delay_min")]
        for p in ("fifo", "lifo", "nn", "random", "dqn")
    }
    best = min(delays.values())
    for policy, delay in delays.items():
        assert (delay - best) / best <= 0.15, (policy, delay, best)
    assert time.perf_counter() - start < 10 * 60.0


# -- 8. cancellation exactness -----------------------------------------------------


def test_unassigned_calls_cancel_exactly_at_tolerance_expiry():
    rng = np.random.default_rng(808)
    for case in range(1000):
        t = float(rng.uniform(0, 1200))
        w = float(rng.uniform(0.01, 200))
        c = Call(
            id=0,
            created_at=t,
            origin=Coordinate(0.1, 0.1),
            destination=Coordinate(0.9, 0.9),
            max_wait=w,
        )
        policy = make_baseline("fifo")
        run_day([], [c], policy, policy, speed=0.1, driver_rng=rng)
        assert c.status is CallStatus.CANCELED
        assert c.canceled_at == t + w  # exact event-time equality


# -- 9. byte-identical evaluation reports ------------------------------------------


def test_repeated_evaluation_reports_are_byte_identical(tmp_path):
    from dispatchsim.cli import main

    config = tmp_path / "exp.cfg"
    config.write_text(
        "seed=33\ndaily_calls=120\neval_days=2\neval_seeds=2\n"
        "scenarios=easy,hard\npolicies=fifo,nn,random\n"
    )
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert main(["evaluate", "--config", str(config), "--out-dir", str(out_a)]) == 0
    assert main(["evaluate", "--config", str(config), "--out-dir", str(out_b)]) == 0
    assert (out_a / "report.csv").read_bytes() == (out_b / "report.csv").read_bytes()
    assert (out_a / "per_day.csv").read_bytes() == (out_b / "per_day.csv").read_bytes()


# -- 10. throughput at test-phase scale ---------------------------------------------


def test_nn_policy_day_with_100k_calls_1000_vehicles_under_60s():
    # base rate above the cap so the day holds exactly 100,000 calls
    cfg = parse_lines(["seed=5", "daily_calls=100000", "synthetic_base_rate=4600"])
    source = demand_source_from_config(cfg, 100_000)
    calls = build_calls(
        source, cfg, 0, 100_000, substream(5, "demand"), substream(5, "tolerance")
    )
    fleet = build_fleet(
        1000, cfg.stochastic, substream(5, "placement"), substream(5, "rejection")
    )
    policy = make_baseline("nn")
    start = time.perf_counter()
    metrics = run_day(
        fleet, calls, policy, policy, speed=cfg.speed, driver_rng=substream(5, "driver")
    )
    elapsed = time.perf_counter() - start
    assert metrics.calls_created == 100_000
    assert (
        metrics.calls_served + metrics.calls_canceled + metrics.pending
        == metrics.calls_created
    )
    assert elapsed < 60.0


# -- 11. checkpoint round trip -------------------------------------------------------


def test_checkpoint_round_trip_bytes_and_probe_outputs(tmp_path):
    net = QNetwork((15, 64, 32, 1), rng=np.random.default_rng(77))
    probes = np.random.default_rng(78).uniform(-2, 2, (100, 15)).astype(np.float32)
    before = net.forward(probes)

    first = tmp_path / "first.ckpt"
    second = tmp_path / "second.ckpt"
    save_checkpoint(net, "new_call", first)
    loaded, name = load_checkpoint(first)
    save_checkpoint(loaded, name, second)
    assert first.read_bytes() == second.read_bytes()
    np.testing.assert_array_equal(loaded.forward(probes), before)
