"""Reward shaping, replay storage and the double-q update rule."""

import copy
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dispatchsim.agent import (
    MIN_SOJOURN,
    AgentConfig,
    DQNAgent,
    ReplayBuffer,
    Transition,
    discounted_reward,
    plain_reward,
)
from dispatchsim.engine import ProposalOutcome
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


# -- replay buffer ---------------------------------------------------------------


def tr(reward, dim=4):
    return Transition(
        state_action=np.zeros(dim, dtype=np.float32),
        reward=float(reward),
        sojourn=1.0,
        next_candidates=None,
        terminal=True,
    )


def test_buffer_evicts_oldest_first():
    buf = ReplayBuffer(3)
    for i in range(5):
        buf.push(tr(i))
    assert buf.size == 3
    assert [t.reward for t in buf.snapshot()] == [2.0, 3.0, 4.0]


def test_buffer_snapshot_before_wrap():
    buf = ReplayBuffer(10)
    for i in range(4):
        buf.push(tr(i))
    assert [t.reward for t in buf.snapshot()] == [0.0, 1.0, 2.0, 3.0]


def test_buffer_sampling_is_uniform_over_contents():
    buf = ReplayBuffer(4)
    for i in range(4):
        buf.push(tr(i))
    rng = np.random.default_rng(0)
    counts = {float(i): 0 for i in range(4)}
    for t in buf.sample(20_000, rng):
        counts[t.reward] += 1
    for c in counts.values():
        assert abs(c / 20_000 - 0.25) < 0.02


def test_buffer_rejects_bad_capacity():
    with pytest.raises(ValueError):
        ReplayBuffer(0)


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
    a.observe_epoch(nxt, clock=16.0)
    assert a.buffer.size == 1
    t = a.buffer.snapshot()[0]
    np.testing.assert_array_equal(t.state_action, feat(1.0))
    assert t.sojourn == pytest.approx(6.0)
    assert not t.terminal
    np.testing.assert_array_equal(t.next_candidates, nxt)
    expected = discounted_reward(plain_reward(4.0, a.cfg.reward_bonus), a.cfg.gamma, 6.0)
    assert t.reward == pytest.approx(expected)


def test_rejected_proposal_stores_zero_reward():
    a = agent()
    for outcome in (ProposalOutcome.DRIVER_REJECTED, ProposalOutcome.CUSTOMER_REJECTED):
        a.arm_decision(feat(2.0), clock=0.0)
        a.resolve_proposal(outcome, eta=1.0, drive=1.0)
        a.observe_epoch(cands(0.0), clock=3.0)
    rewards = [t.reward for t in a.buffer.snapshot()]
    assert rewards == [0.0, 0.0]


def test_day_end_marks_pending_terminal():
    a = agent()
    a.arm_decision(feat(3.0), clock=100.0)
    a.resolve_proposal(ProposalOutcome.ACCEPTED, eta=1.0, drive=1.0)
    a.finish_day(clock=1440.0)
    t = a.buffer.snapshot()[0]
    assert t.terminal
    assert t.next_candidates is None
    assert t.sojourn == pytest.approx(1340.0)


def test_same_timestamp_epochs_get_positive_sojourn():
    a = agent()
    a.arm_decision(feat(1.0), clock=50.0)
    a.resolve_proposal(ProposalOutcome.ACCEPTED, eta=1.0, drive=1.0)
    a.observe_epoch(cands(0.0), clock=50.0)
    assert a.buffer.snapshot()[0].sojourn == MIN_SOJOURN


def test_epoch_without_pending_records_nothing():
    a = agent()
    a.observe_epoch(cands(0.0), clock=5.0)
    assert a.buffer.size == 0


def test_unarmed_resolution_is_ignored():
    a = agent()
    a.resolve_proposal(ProposalOutcome.ACCEPTED, eta=1.0, drive=1.0)
    a.observe_epoch(cands(0.0), clock=5.0)
    assert a.buffer.size == 0


# -- learning updates -------------------------------------------------------------------


def test_no_training_below_warmup():
    a = agent(learning_starts=100, buffer_capacity=200)
    for _ in range(99):
        a.buffer.push(tr(1.0))
    assert a.train_step() is None
    assert a.gradient_steps == 0
    a.buffer.push(tr(1.0))
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
    t = Transition(
        state_action=np.array([0.3, 0.4], dtype=np.float32),
        reward=2.0,
        sojourn=3.0,
        next_candidates=nxt,
        terminal=False,
    )
    a.buffer.push(t)

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
        if t.terminal:
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
            Transition(
                state_action=rng.standard_normal(4).astype(np.float32),
                reward=float(rng.uniform(0.0, 10.0)),
                sojourn=float(rng.uniform(0.5, 30.0)),
                next_candidates=(
                    None if rows is None
                    else rng.standard_normal((rows, 4)).astype(np.float32)
                ),
                terminal=rows is None,
            )
        )
    seen = capture_targets(a)
    for _ in range(5):
        batch = a.buffer.sample(a.cfg.batch_size, copy.deepcopy(a.explore_rng))
        expected = reference_targets(a, batch)
        assert any(t.terminal for t in batch) and not all(t.terminal for t in batch)
        a.train_step()
        np.testing.assert_allclose(seen[-1], expected, rtol=1e-6)


def test_batched_target_breaks_online_ties_by_first_row():
    a = agent(input_dim=2, learning_starts=1, batch_size=8, gamma=0.9, hidden_dims=(2,))
    # online scores rows 1 and 2 equally (1.0) and row 0 lower; target values
    # them at 7 and 5, so only the first tied row gives 7
    make_linear(a.online, (1.0, 1.0))
    make_linear(a.target, (7.0, 5.0))
    nxt = np.array([[0.5, 0.0], [1.0, 0.0], [0.0, 1.0]], dtype=np.float32)
    a.buffer.push(
        Transition(
            state_action=np.array([0.3, 0.4], dtype=np.float32),
            reward=2.0,
            sojourn=3.0,
            next_candidates=nxt,
            terminal=False,
        )
    )
    a.buffer.push(
        Transition(
            state_action=np.array([0.1, 0.2], dtype=np.float32),
            reward=4.0,
            sojourn=1.0,
            next_candidates=None,
            terminal=True,
        )
    )
    seen = capture_targets(a)
    batch = a.buffer.sample(a.cfg.batch_size, copy.deepcopy(a.explore_rng))
    assert any(t.terminal for t in batch) and not all(t.terminal for t in batch)
    a.train_step()
    expected = [4.0 if t.terminal else 2.0 + 0.9**3.0 * 7.0 for t in batch]
    np.testing.assert_allclose(seen[0], expected, rtol=1e-6)


def test_terminal_target_is_plain_reward():
    a = agent(input_dim=2, learning_starts=1, batch_size=1)
    t = Transition(
        state_action=np.array([0.2, 0.1], dtype=np.float32),
        reward=4.0,
        sojourn=10.0,
        next_candidates=None,
        terminal=True,
    )
    a.buffer.push(t)
    pred = float(a.online.forward(t.state_action)[0])
    loss = a.train_step()
    d = abs(pred - 4.0)
    expected_loss = 0.5 * d * d if d < 1 else d - 0.5
    assert loss == pytest.approx(expected_loss, rel=1e-5)


def test_target_sync_cadence():
    a = agent(input_dim=2, learning_starts=1, batch_size=1, update_steps=3)
    a.buffer.push(
        Transition(
            state_action=np.ones(2, dtype=np.float32),
            reward=1.0,
            sojourn=1.0,
            next_candidates=None,
            terminal=True,
        )
    )
    before = a.target.weights[0].copy()
    a.train_step()
    a.train_step()
    np.testing.assert_array_equal(a.target.weights[0], before)  # not yet synced
    a.train_step()  # third step triggers the sync
    np.testing.assert_array_equal(a.target.weights[0], a.online.weights[0])
    assert not np.array_equal(a.target.weights[0], before)


def test_accepted_proposal_triggers_training_once_warm():
    a = agent(input_dim=4, learning_starts=1, batch_size=1)
    a.buffer.push(
        Transition(
            state_action=feat(0.5),
            reward=1.0,
            sojourn=1.0,
            next_candidates=None,
            terminal=True,
        )
    )
    a.arm_decision(feat(1.0), clock=0.0)
    a.resolve_proposal(ProposalOutcome.ACCEPTED, eta=1.0, drive=1.0)
    assert a.gradient_steps == 1
    a.arm_decision(feat(1.0), clock=1.0)
    a.resolve_proposal(ProposalOutcome.DRIVER_REJECTED, eta=1.0, drive=1.0)
    assert a.gradient_steps == 1  # rejections do not train
