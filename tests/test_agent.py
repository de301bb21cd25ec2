"""Reward shaping, replay storage and the double-q update rule."""

import copy
import math
import tracemalloc
from typing import NamedTuple, Optional

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dispatchsim import agent as agent_module
from dispatchsim import harness
from dispatchsim.agent import (
    HEAD,
    MIN_SOJOURN,
    AgentConfig,
    DQNAgent,
    ReplayBuffer,
    discounted_reward,
    plain_reward,
)
from dispatchsim.config import parse_lines
from dispatchsim.engine import ProposalOutcome
from dispatchsim.features import FEATURE_DIM, VARYING_COLUMNS
from dispatchsim.qnet import QNetwork


def agent(name="t", input_dim=4, seed=0, **overrides):
    cfg = AgentConfig(**overrides)
    return DQNAgent(
        name,
        cfg,
        init_rng=np.random.default_rng(seed),
        explore_rng=np.random.default_rng(seed + 1),
        input_dim=input_dim,
    )


# -- rewards -------------------------------------------------------------------


def test_plain_reward_examples():
    assert plain_reward(10.0, 2.0) == 12.0
    assert plain_reward(0.0, 0.0) == 0.0
    assert plain_reward(23.5, 1.5) == 25.0


def test_discounted_reward_examples():
    assert discounted_reward(10.0, 0.9, 1.0) == pytest.approx(10.0)
    assert discounted_reward(10.0, 0.9, 2.0) == pytest.approx(9.5)
    assert discounted_reward(6.0, 0.9, 3.0) == pytest.approx(5.42)


def test_discounted_reward_clamps_short_sojourns():
    assert discounted_reward(10.0, 0.9, 0.2) == pytest.approx(10.0)
    assert discounted_reward(10.0, 0.9, -3.0) == pytest.approx(10.0)


@settings(max_examples=150)
@given(
    st.floats(0.0, 100.0),
    st.sampled_from([0.5, 0.9, 0.99]),
    st.integers(1, 500),
)
def test_discounted_reward_equals_geometric_sum(r, gamma, tau):
    geometric = sum(gamma**i * r / tau for i in range(tau))
    assert discounted_reward(r, gamma, float(tau)) == pytest.approx(
        geometric, rel=1e-9, abs=1e-12
    )


def test_beta_gamma_equivalence():
    cfg = AgentConfig()
    for tau in (0.5, 1.0, 7.3, 100.0):
        assert math.exp(-cfg.beta * tau) == pytest.approx(cfg.gamma**tau, rel=1e-12)


def test_config_validation():
    with pytest.raises(ValueError):
        AgentConfig(gamma=1.5)
    with pytest.raises(ValueError):
        AgentConfig(epsilon_min=0.5, epsilon_max=0.1)
    with pytest.raises(ValueError):
        AgentConfig(batch_size=0)
    with pytest.raises(ValueError):
        AgentConfig(learning_rate=0.0)


def test_config_refuses_learning_starts_above_buffer_capacity():
    with pytest.raises(ValueError, match="learning_starts must not exceed buffer_capacity"):
        AgentConfig(learning_starts=20, buffer_capacity=10)
    assert AgentConfig(learning_starts=10, buffer_capacity=10).learning_starts == 10


@pytest.mark.parametrize("field, value", [
    ("gamma", math.nan),
    ("epsilon_max", math.nan),
    ("epsilon_min", math.nan),
    ("epsilon_factor", math.nan),
    ("epsilon_factor", 2.0),
    ("epsilon_factor", -1.0),
    ("epsilon_factor", 0.0),
    ("learning_rate", math.nan),
    ("learning_starts", math.nan),
    ("reward_bonus", math.nan),
    ("reward_bonus", math.inf),
    ("reward_bonus", -math.inf),
])
def test_config_refuses_nan_and_out_of_range_values(field, value):
    with pytest.raises(ValueError):
        AgentConfig(**{field: value})


@pytest.mark.parametrize("field, value", [("epsilon_factor", 1.0), ("reward_bonus", -3.0)])
def test_config_accepts_the_edges_of_its_ranges(field, value):
    assert getattr(AgentConfig(**{field: value}), field) == value


# -- replay buffer ---------------------------------------------------------------


class Stored(NamedTuple):
    """One transition, as pushed or as read back from a buffer's records."""

    state_action: np.ndarray  # chosen (state, action) feature vector
    reward: float
    sojourn: float
    next_candidates: Optional[np.ndarray]  # None iff terminal


def view(buf, slot):
    record = buf.records[slot]
    reward, sojourn = HEAD.unpack_from(record)
    return Stored(
        state_action=np.frombuffer(record, np.float32, buf.width, HEAD.size),
        reward=reward,
        sojourn=sojourn,
        next_candidates=buf.next_candidates([record])[0] if len(record) > buf.rows_at else None,
    )


def snapshot(buf):
    """The buffer's transitions, oldest first."""
    return [view(buf, slot) for slot in [*range(buf._next, buf.size), *range(buf._next)]]


def sample(buf, n, rng):
    """`n` transitions drawn as `train_step` draws its minibatch."""
    return [view(buf, slot) for slot in rng.integers(0, buf.size, size=n).tolist()]


def tr(reward, dim=4):
    return Stored(np.zeros(dim, dtype=np.float32), float(reward), 1.0, None)


def test_buffer_evicts_oldest_first():
    buf = ReplayBuffer(3, 4)
    for i in range(5):
        buf.push(*tr(i))
    assert buf.size == 3
    assert [t.reward for t in snapshot(buf)] == [2.0, 3.0, 4.0]


def test_buffer_snapshot_before_wrap():
    buf = ReplayBuffer(10, 4)
    for i in range(4):
        buf.push(*tr(i))
    assert [t.reward for t in snapshot(buf)] == [0.0, 1.0, 2.0, 3.0]


def test_buffer_sampling_is_uniform_over_contents():
    buf = ReplayBuffer(4, 4)
    for i in range(4):
        buf.push(*tr(i))
    rng = np.random.default_rng(0)
    counts = {float(i): 0 for i in range(4)}
    for t in sample(buf, 20_000, rng):
        counts[t.reward] += 1
    for c in counts.values():
        assert abs(c / 20_000 - 0.25) < 0.02


def test_buffer_rejects_bad_capacity():
    with pytest.raises(ValueError):
        ReplayBuffer(0, 4)


@pytest.mark.parametrize("width, varying", [
    (4, VARYING_COLUMNS["new_call"]),  # varying columns beyond the row
    (4, VARYING_COLUMNS["free_vehicle"]),
    (FEATURE_DIM, slice(3, 3)),
    (FEATURE_DIM, slice(5, 2)),
    (FEATURE_DIM, slice(-1, None)),
    (0, slice(None)),
])
def test_buffer_refuses_a_layout_without_varying_columns_in_its_rows(width, varying):
    with pytest.raises(ValueError, match="varying"):
        ReplayBuffer(4, width, varying)


class ListBuffer:
    """The replay buffer as a list of transitions: the layout the records encode."""

    def __init__(self, capacity):
        self.capacity = capacity
        self.items = []
        self.next = 0

    def push(self, item):
        if len(self.items) < self.capacity:
            self.items.append(item)
        else:
            self.items[self.next] = item
        self.next = (self.next + 1) % self.capacity

    def sample(self, n, rng):
        idx = rng.integers(0, len(self.items), size=n)
        return [self.items[i] for i in idx]

    def snapshot(self):
        return self.items[self.next :] + self.items[: self.next]


def random_transition(rng, rows, width=3, varying=slice(None)):
    """A transition with `rows` next candidates, or a terminal one for None.

    The candidate rows repeat the first row's values outside the `varying`
    columns, as `features` writes them.
    """
    candidates = None
    if rows is not None:
        candidates = rng.standard_normal((rows, width)).astype(np.float32)
        shared = shared_columns(width, varying)
        candidates[:, shared] = candidates[0, shared]
    return Stored(
        state_action=rng.standard_normal(width).astype(np.float32),
        reward=float(rng.uniform(-5.0, 5.0)),
        sojourn=float(rng.uniform(0.0, 30.0)),
        next_candidates=candidates,
    )


def layout(kind):
    """(width, varying columns) of a buffer laid out for epoch `kind`, or for none."""
    return (3, slice(None)) if kind is None else (FEATURE_DIM, VARYING_COLUMNS[kind])


def shared_columns(width, varying):
    return np.delete(np.arange(width), varying)


def assert_same_transitions(got, expected):
    assert len(got) == len(expected)
    for g, e in zip(got, expected):
        np.testing.assert_array_equal(g.state_action, e.state_action)
        assert g.state_action.dtype == np.float32
        assert (g.reward, g.sojourn) == (e.reward, e.sojourn)
        if e.next_candidates is None:
            assert g.next_candidates is None
        else:
            np.testing.assert_array_equal(g.next_candidates, e.next_candidates)


@settings(max_examples=150, deadline=None)
@given(
    capacity=st.integers(1, 7),
    pushes=st.lists(st.one_of(st.none(), st.integers(1, 12)), min_size=1, max_size=60),
    seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from([None, "new_call", "free_vehicle"]),
)
def test_buffer_columns_match_a_list_of_transitions(capacity, pushes, seed, kind):
    width, varying = layout(kind)
    buf, ref = ReplayBuffer(capacity, width, varying), ListBuffer(capacity)
    rng = np.random.default_rng(seed)
    for rows in pushes:
        item = random_transition(rng, rows, width, varying)
        buf.push(*item)
        ref.push(item)
        assert buf.size == len(ref.items)
        assert_same_transitions(snapshot(buf), ref.snapshot())
        assert_same_transitions(
            sample(buf, 5, np.random.default_rng(seed)), ref.sample(5, np.random.default_rng(seed))
        )


def test_buffer_fills_and_wraps_like_a_list():
    for kind in (None, "free_vehicle"):
        check_fill_and_wrap(kind)


def check_fill_and_wrap(kind):
    capacity = 600
    width, varying = layout(kind)
    shared = shared_columns(width, varying)
    buf, ref = ReplayBuffer(capacity, width, varying), ListBuffer(capacity)
    rng = np.random.default_rng(11)
    for k in range(4 * capacity):
        rows = None if k % 5 == 0 else int(rng.integers(1, 13))
        item = random_transition(rng, rows, width, varying)
        buf.push(*item)
        ref.push(item)
    assert_same_transitions(snapshot(buf), ref.snapshot())
    assert_same_transitions(
        sample(buf, 200, np.random.default_rng(3)), ref.sample(200, np.random.default_rng(3))
    )
    # each slot's record is its reward and sojourn, one chosen row, one set of
    # shared values and exactly the varying columns of the rows it holds
    varying_floats = width - len(shared)
    assert [len(r) for r in buf.records] == [
        HEAD.size + 4 * (width + len(shared))
        + 4 * varying_floats * (0 if t.next_candidates is None else len(t.next_candidates))
        for t in ref.items
    ]
    assert len(buf.records) == capacity


def test_buffer_refuses_a_push_of_another_width():
    buf = ReplayBuffer(4, 3)
    buf.push(*random_transition(np.random.default_rng(0), 2, width=3))
    held = buf.records[0]
    with pytest.raises(ValueError):
        buf.push(*random_transition(np.random.default_rng(1), None, width=4))
    with pytest.raises(ValueError):
        buf.push(np.zeros(3, np.float32), 0.0, 1.0, np.zeros((2, 4), np.float32))
    with pytest.raises(ValueError):
        buf.push(np.zeros(3, np.float32), 0.0, 1.0, np.zeros(3, np.float32))
    with pytest.raises(ValueError):  # a live transition needs a next candidate
        buf.push(np.zeros(3, np.float32), 0.0, 1.0, np.zeros((0, 3), np.float32))
    with pytest.raises(TypeError):  # refused before any record is written
        buf.push(np.zeros(3, np.float32), None, 1.0, None)
    assert buf.size == 1 and buf.records[0] is held and buf._next == 1


def test_a_push_into_a_full_buffer_replaces_only_the_oldest_record():
    buf = ReplayBuffer(3, 3)
    rng = np.random.default_rng(6)
    for rows in (2, None, 1):
        buf.push(*random_transition(rng, rows))
    held = list(buf.records)
    item = random_transition(rng, 4)
    buf.push(*item)
    assert len(buf.records) == 3 and buf.records[0] is not held[0]
    assert buf.records[1] is held[1] and buf.records[2] is held[2]
    assert_same_transitions([view(buf, 0)], [item])
    # a refused push into a full buffer leaves every record in place
    held = list(buf.records)
    with pytest.raises(ValueError):
        buf.push(np.zeros(4, np.float32), 0.0, 1.0, None)
    with pytest.raises(ValueError):
        buf.push(np.zeros(3, np.float32), 0.0, 1.0, np.zeros((2, 4), np.float32))
    with pytest.raises(TypeError):
        buf.push(np.zeros(3, np.float32), None, 1.0, None)
    assert len(buf.records) == 3 and all(r is h for r, h in zip(buf.records, held))
    # and the next push still replaces the oldest
    buf.push(*random_transition(rng, None))
    assert buf.records[1] is not held[1] and buf.records[0] is held[0] and buf.records[2] is held[2]


def test_new_call_buffer_keeps_each_vehicle_row_once():
    a = agent("new_call", input_dim=FEATURE_DIM)
    item = random_transition(np.random.default_rng(4), 200, FEATURE_DIM, VARYING_COLUMNS["new_call"])
    a.buffer.push(*item)
    full = item.next_candidates.nbytes  # 200 x 15 float32: 12,000 bytes
    held = len(a.buffer.records[0])  # the head, the chosen row, 8 shared and 200 x 7 varying floats
    assert held == 16 + 4 * (15 + 8 + 200 * 7) == 5_708 <= 0.5 * full
    assert_same_transitions(snapshot(a.buffer), [item])
    # another name or input width shares no column
    for other in (agent("new_call", input_dim=4), agent("t", input_dim=FEATURE_DIM)):
        assert (other.buffer.lo, other.buffer.hi) == (0, other.buffer.width)


def test_every_stored_slot_rebuilds_the_matrix_features_built(monkeypatch):
    # the buffer keeps the shared columns of row 0 only, so this holds only
    # while `features` writes them into every row as one broadcast
    handed = {}  # (agent, slot) -> the last candidate matrix pushed there
    pushed = []  # the agent of every push
    close_decision = DQNAgent.close_decision

    def record(self, clock, candidates=None):
        slot = self.buffer._next
        close_decision(self, clock, candidates)
        if self.buffer._next != slot:  # the close stored its transition in `slot`
            handed[self.name, slot] = None if candidates is None else candidates.copy()
            pushed.append(self.name)

    monkeypatch.setattr(DQNAgent, "close_decision", record)
    cfg = parse_lines([
        "seed=5", "train_daily_calls=120", "train_days=2", "scenarios=hard,easy",
        "learning_starts=50", "batch_size=8", "update_steps=40", "buffer_capacity=150",
    ])
    policy, _curves, _days = harness.run_training(cfg)
    for a in (policy.new_call_agent, policy.free_vehicle_agent):
        buf = a.buffer
        slots = sorted(slot for name, slot in handed if name == a.name)
        assert pushed.count(a.name) > buf.capacity  # some slots were overwritten
        assert slots == list(range(buf.capacity))
        live = [slot for slot in slots if handed[a.name, slot] is not None]
        assert 0 < len(live) < len(slots)
        for slot in slots:
            mat = handed[a.name, slot]
            if mat is None:
                assert len(buf.records[slot]) == buf.rows_at
            else:
                rows, sizes = buf.next_candidates([buf.records[slot]])
                assert rows.shape == mat.shape and sizes.tolist() == [len(mat)]
                assert rows.tobytes() == mat.tobytes()


def traced_bytes(fn, in_file=None):
    """Bytes that `fn` allocates and keeps, optionally only those made in `in_file`."""
    tracemalloc.start()
    try:
        kept = fn()  # noqa: F841  (alive while the snapshot is taken)
        snap = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    if in_file is not None:
        snap = snap.filter_traces([tracemalloc.Filter(True, in_file)])
    return sum(stat.size for stat in snap.statistics("filename"))


def test_an_empty_buffer_allocates_no_columns():
    assert traced_bytes(lambda: ReplayBuffer(10**12, 3)) < 64 * 1024
    buf = ReplayBuffer(10**12, 3)
    rng = np.random.default_rng(2)
    items = [random_transition(rng, rows) for rows in (3, None, 1, 12)]
    for item in items:
        buf.push(*item)
    assert buf.size == 4
    assert_same_transitions(snapshot(buf), items)


def test_fresh_dqn_policy_allocates_no_buffer_columns():
    cfg = parse_lines([f"buffer_capacity={10**12}"])
    policy_bytes = traced_bytes(lambda: harness.fresh_dqn_policy(cfg, 1), agent_module.__file__)
    assert policy_bytes < 64 * 1024


# -- action selection ---------------------------------------------------------------


def test_act_greedy_when_not_training():
    a = agent(input_dim=2)
    a.train_mode = False
    a.online.weights[0][...] = 0.0
    # make q equal to the first input coordinate
    net = a.online
    for w in net.weights:
        w[...] = 0.0
    for b in net.biases:
        b[...] = 0.0
    net.weights[0][0, 0] = 1.0
    net.weights[1][0, 0] = 1.0
    if len(net.weights) > 2:
        net.weights[2][0, 0] = 1.0
    cands = np.array([[0.1, 0.0], [0.9, 0.0], [0.5, 0.0]], dtype=np.float32)
    for _ in range(10):
        assert a.act(cands) == 1
    assert a.epsilon == a.cfg.epsilon_max  # no decay outside training


def test_act_ties_pick_first_index():
    a = agent(input_dim=2)
    a.train_mode = False
    for w in a.online.weights:
        w[...] = 0.0
    cands = np.zeros((4, 2), dtype=np.float32)
    assert a.act(cands) == 0


def test_act_argmax_invariant_to_output_bias_shift():
    a = agent(input_dim=3, seed=5)
    a.train_mode = False
    cands = np.random.default_rng(2).uniform(0, 1, (6, 3)).astype(np.float32)
    first = a.act(cands)
    a.online.biases[-1][...] += 100.0
    assert a.act(cands) == first


def test_epsilon_decay_sequence():
    a = agent(input_dim=2)
    cands = np.zeros((2, 2), dtype=np.float32)
    seen = []
    for _ in range(5):
        a.act(cands)
        seen.append(a.epsilon)
    expected = [max(0.05, 1.0 * 0.99995 ** (k + 1)) for k in range(5)]
    assert seen == pytest.approx(expected, rel=1e-12)


def test_epsilon_floor():
    a = agent(input_dim=2)
    a.epsilon = 0.0500001
    cands = np.zeros((2, 2), dtype=np.float32)
    a.act(cands)
    a.act(cands)
    assert a.epsilon == 0.05


def test_act_exploration_frequency_matches_epsilon():
    # freeze decay at epsilon 0.5 so the frequency is measurable
    a = agent(input_dim=2, seed=9, epsilon_factor=1.0, epsilon_max=0.5)
    for w in a.online.weights:
        w[...] = 0.0
    a.online.weights[0][0, 0] = 1.0
    a.online.weights[-1][0, 0] = 1.0
    cands = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=np.float32)
    picks = [a.act(cands) for _ in range(20_000)]
    # greedy always picks 0; exploration picks 1 half the time
    frac_other = sum(p == 1 for p in picks) / len(picks)
    assert abs(frac_other - 0.25) < 0.02


def test_act_raises_on_empty():
    a = agent(input_dim=2)
    with pytest.raises(ValueError):
        a.act(np.zeros((0, 2), dtype=np.float32))


# -- transition lifecycle --------------------------------------------------------------


def feat(v):
    return np.full(4, v, dtype=np.float32)


def cands(*vals):
    return np.stack([feat(v) for v in vals])


def test_pending_transition_completes_at_next_epoch():
    a = agent()
    a.arm_decision(feat(1.0), clock=10.0)
    a.resolve_proposal(ProposalOutcome.ACCEPTED, eta=2.0, drive=4.0)
    assert a.buffer.size == 0  # still pending
    nxt = cands(0.5, 0.6)
    a.close_decision(16.0, nxt)
    assert a.buffer.size == 1
    t = snapshot(a.buffer)[0]
    np.testing.assert_array_equal(t.state_action, feat(1.0))
    assert t.sojourn == pytest.approx(6.0)
    np.testing.assert_array_equal(t.next_candidates, nxt)
    expected = discounted_reward(plain_reward(4.0, a.cfg.reward_bonus), a.cfg.gamma, 6.0)
    assert t.reward == pytest.approx(expected)


def test_rejected_proposal_stores_zero_reward():
    a = agent()
    for outcome in (ProposalOutcome.DRIVER_REJECTED, ProposalOutcome.CUSTOMER_REJECTED):
        a.arm_decision(feat(2.0), clock=0.0)
        a.resolve_proposal(outcome, eta=1.0, drive=1.0)
        a.close_decision(3.0, cands(0.0))
    rewards = [t.reward for t in snapshot(a.buffer)]
    assert rewards == [0.0, 0.0]


def test_day_end_marks_pending_terminal():
    a = agent()
    a.arm_decision(feat(3.0), clock=100.0)
    a.resolve_proposal(ProposalOutcome.ACCEPTED, eta=1.0, drive=1.0)
    a.close_decision(clock=1440.0)
    t = snapshot(a.buffer)[0]
    assert t.next_candidates is None
    assert t.sojourn == pytest.approx(1340.0)


def test_same_timestamp_epochs_get_positive_sojourn():
    a = agent()
    a.arm_decision(feat(1.0), clock=50.0)
    a.resolve_proposal(ProposalOutcome.ACCEPTED, eta=1.0, drive=1.0)
    a.close_decision(50.0, cands(0.0))
    assert snapshot(a.buffer)[0].sojourn == MIN_SOJOURN


def test_epoch_without_pending_records_nothing():
    a = agent()
    a.close_decision(5.0, cands(0.0))
    assert a.buffer.size == 0


def test_unarmed_resolution_is_ignored():
    a = agent()
    a.resolve_proposal(ProposalOutcome.ACCEPTED, eta=1.0, drive=1.0)
    a.close_decision(5.0, cands(0.0))
    assert a.buffer.size == 0


@pytest.mark.parametrize("candidates", [cands(0.0), None], ids=["next_epoch", "day_end"])
def test_an_unresolved_decision_stores_nothing_and_stays_closed(candidates):
    a = agent()
    a.arm_decision(feat(1.0), clock=10.0)  # a busy pick: no proposal resolves it
    a.close_decision(12.0, candidates)
    a.resolve_proposal(ProposalOutcome.ACCEPTED, eta=1.0, drive=1.0)  # too late
    a.close_decision(20.0, candidates)
    assert a.buffer.size == 0 and list(a.reward_history) == []


def test_a_second_resolution_changes_nothing():
    a = agent()
    a.arm_decision(feat(1.0), clock=10.0)
    a.resolve_proposal(ProposalOutcome.DRIVER_REJECTED, eta=1.0, drive=1.0)
    a.resolve_proposal(ProposalOutcome.ACCEPTED, eta=2.0, drive=4.0)
    assert list(a.reward_history) == [0.0]
    a.close_decision(16.0, cands(0.5))
    assert [(t.reward, t.sojourn) for t in snapshot(a.buffer)] == [(0.0, 6.0)]


# -- learning updates -------------------------------------------------------------------


def test_no_training_below_warmup():
    a = agent(learning_starts=100, buffer_capacity=200)
    for _ in range(99):
        a.buffer.push(*tr(1.0))
    assert a.train_step() is None
    assert a.gradient_steps == 0
    a.buffer.push(*tr(1.0))
    assert a.train_step() is not None
    assert a.gradient_steps == 1


def make_linear(net, w_row):
    for w in net.weights:
        w[...] = 0.0
    for b in net.biases:
        b[...] = 0.0
    # leaky-free path: route input 0 and 1 through separate hidden units
    net.weights[0][0, 0] = w_row[0]
    net.weights[0][1, 1] = w_row[1]
    net.weights[-1][0, 0] = 1.0
    net.weights[-1][1, 0] = 1.0


def test_double_q_target_uses_online_argmax_target_value():
    # make the two networks disagree on which candidate is best, then check
    # the regression target follows online's argmax but target's value
    a = agent(
        input_dim=2,
        learning_starts=1,
        batch_size=1,
        update_steps=10_000,
        gamma=0.9,
        hidden_dims=(2,),
    )

    nxt = np.array([[1.0, 0.0], [0.0, 1.0]], dtype=np.float32)
    # online prefers candidate 1, target values it at 5
    make_linear(a.online, (1.0, 2.0))
    make_linear(a.target, (7.0, 5.0))
    t = Stored(np.array([0.3, 0.4], dtype=np.float32), 2.0, 3.0, nxt)
    a.buffer.push(*t)

    q_online = a.online.forward(nxt)
    assert int(np.argmax(q_online)) == 1
    expected_y = 2.0 + 0.9**3.0 * float(a.target.forward(nxt[1])[0])
    pred = float(a.online.forward(t.state_action)[0])
    loss = a.train_step()
    d = abs(pred - expected_y)
    expected_loss = 0.5 * d * d if d < 1 else d - 0.5
    assert loss == pytest.approx(expected_loss, rel=1e-5)


def capture_targets(a):
    """Record the regression targets train_step hands to the online network."""
    seen = []
    train_batch = a.online.train_batch

    def capture(x, y, lr):
        seen.append(np.array(y, copy=True))
        return train_batch(x, y, lr)

    a.online.train_batch = capture
    return seen


def reference_targets(a, batch):
    """Per-sample double-q targets: one online and one target forward each."""
    y = np.empty(len(batch), dtype=np.float32)
    for i, t in enumerate(batch):
        if t.next_candidates is None:
            y[i] = t.reward
        else:
            best = int(np.argmax(a.online.forward(t.next_candidates)))
            q_eval = float(a.target.forward(t.next_candidates[best])[0])
            y[i] = t.reward + a.cfg.gamma**t.sojourn * q_eval
    return y


def test_batched_targets_match_per_sample_reference():
    a = agent(input_dim=4, learning_starts=1, batch_size=32, seed=3)
    # a target network that disagrees with the online one
    a.target.copy_from(QNetwork(a.online.dims, rng=np.random.default_rng(99)))
    rng = np.random.default_rng(5)
    for k in range(12):
        rows = (1, 2, 7, None)[k % 4]
        a.buffer.push(
            rng.standard_normal(4).astype(np.float32),
            float(rng.uniform(0.0, 10.0)),
            float(rng.uniform(0.5, 30.0)),
            None if rows is None else rng.standard_normal((rows, 4)).astype(np.float32),
        )
    seen = capture_targets(a)
    for _ in range(5):
        batch = sample(a.buffer, a.cfg.batch_size, copy.deepcopy(a.explore_rng))
        expected = reference_targets(a, batch)
        terminal = [t.next_candidates is None for t in batch]
        assert any(terminal) and not all(terminal)
        a.train_step()
        np.testing.assert_allclose(seen[-1], expected, rtol=1e-6)


def test_batched_target_breaks_online_ties_by_first_row():
    a = agent(input_dim=2, learning_starts=1, batch_size=8, gamma=0.9, hidden_dims=(2,))
    # online scores rows 1 and 2 equally (1.0) and row 0 lower; target values
    # them at 7 and 5, so only the first tied row gives 7
    make_linear(a.online, (1.0, 1.0))
    make_linear(a.target, (7.0, 5.0))
    nxt = np.array([[0.5, 0.0], [1.0, 0.0], [0.0, 1.0]], dtype=np.float32)
    a.buffer.push(np.array([0.3, 0.4], dtype=np.float32), 2.0, 3.0, nxt)
    a.buffer.push(np.array([0.1, 0.2], dtype=np.float32), 4.0, 1.0, None)
    seen = capture_targets(a)
    batch = sample(a.buffer, a.cfg.batch_size, copy.deepcopy(a.explore_rng))
    terminal = [t.next_candidates is None for t in batch]
    assert any(terminal) and not all(terminal)
    a.train_step()
    expected = [4.0 if end else 2.0 + 0.9**3.0 * 7.0 for end in terminal]
    np.testing.assert_allclose(seen[0], expected, rtol=1e-6)


def test_terminal_target_is_plain_reward():
    a = agent(input_dim=2, learning_starts=1, batch_size=1)
    t = Stored(np.array([0.2, 0.1], dtype=np.float32), 4.0, 10.0, None)
    a.buffer.push(*t)
    pred = float(a.online.forward(t.state_action)[0])
    loss = a.train_step()
    d = abs(pred - 4.0)
    expected_loss = 0.5 * d * d if d < 1 else d - 0.5
    assert loss == pytest.approx(expected_loss, rel=1e-5)


def test_target_sync_cadence():
    a = agent(input_dim=2, learning_starts=1, batch_size=1, update_steps=3)
    a.buffer.push(np.ones(2, dtype=np.float32), 1.0, 1.0, None)
    before = a.target.weights[0].copy()
    a.train_step()
    a.train_step()
    np.testing.assert_array_equal(a.target.weights[0], before)  # not yet synced
    a.train_step()  # third step triggers the sync
    np.testing.assert_array_equal(a.target.weights[0], a.online.weights[0])
    assert not np.array_equal(a.target.weights[0], before)


def test_accepted_proposal_triggers_training_once_warm():
    a = agent(input_dim=4, learning_starts=1, batch_size=1)
    a.buffer.push(feat(0.5), 1.0, 1.0, None)
    a.arm_decision(feat(1.0), clock=0.0)
    a.resolve_proposal(ProposalOutcome.ACCEPTED, eta=1.0, drive=1.0)
    assert a.gradient_steps == 1
    a.arm_decision(feat(1.0), clock=1.0)
    a.resolve_proposal(ProposalOutcome.DRIVER_REJECTED, eta=1.0, drive=1.0)
    assert a.gradient_steps == 1  # rejections do not train
