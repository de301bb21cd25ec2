"""Learning agents: reward shaping, replay buffer and double deep q-learning.

Two agents are trained, one per decision-epoch kind.  Each owns an online
and a target network; the online network selects the best next candidate
and the target network evaluates it.  Discounting is continuous-time:
a transition observed after sojourn tau is discounted by gamma**tau
(equivalently e**(-beta*tau) with beta = -ln(gamma)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from .engine import ProposalOutcome
from .features import FEATURE_DIM, free_vehicle_candidates, new_call_candidates
from .policies import DispatchPolicy
from .qnet import QNetwork, save_checkpoint

MIN_SOJOURN = 1e-9  # same-timestamp epochs still need a positive sojourn


@dataclass(frozen=True)
class AgentConfig:
    gamma: float = 0.9
    reward_bonus: float = 2.0
    epsilon_max: float = 1.0
    epsilon_min: float = 0.05
    epsilon_factor: float = 0.99995
    learning_starts: int = 10_000
    update_steps: int = 10_000
    batch_size: int = 32
    learning_rate: float = 0.001
    buffer_capacity: int = 20_000
    hidden_dims: tuple = (64, 32)

    def __post_init__(self):
        if not 0.0 < self.gamma < 1.0:
            raise ValueError("gamma must be in (0, 1)")
        if not 0.0 <= self.epsilon_min <= self.epsilon_max <= 1.0:
            raise ValueError("epsilon bounds out of order")
        for name in ("learning_starts", "update_steps", "batch_size", "buffer_capacity"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")

    @property
    def beta(self) -> float:
        return -math.log(self.gamma)


def plain_reward(tau_d_hat: float, bonus: float) -> float:
    """Undiscounted assignment reward: estimated drive time plus fixed bonus."""
    return tau_d_hat + bonus


def discounted_reward(reward: float, gamma: float, tau: float) -> float:
    """Time-discounted reward accumulated uniformly over the sojourn tau.

    Closed form R*(gamma**tau - 1)/(tau*(gamma - 1)); for integer tau this
    equals the geometric sum of tau slices of R/tau.  tau below 1 minute is
    clamped to 1 (degenerate instantaneous trip).
    """
    tau = max(tau, 1.0)
    return reward * (gamma**tau - 1.0) / (tau * (gamma - 1.0))


@dataclass
class Transition:
    state_action: np.ndarray  # chosen (state, action) feature vector
    reward: float
    sojourn: float
    next_candidates: Optional[np.ndarray]  # None iff terminal
    terminal: bool


class ReplayBuffer:
    """Ring buffer with strictly oldest-first eviction and uniform sampling."""

    def __init__(self, capacity: int):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._items: List[Optional[Transition]] = [None] * capacity
        self._next = 0
        self.size = 0

    def push(self, item: Transition) -> None:
        self._items[self._next] = item
        self._next = (self._next + 1) % self.capacity
        self.size = min(self.size + 1, self.capacity)

    def sample(self, n: int, rng: np.random.Generator) -> List[Transition]:
        idx = rng.integers(0, self.size, size=n)
        return [self._items[i] for i in idx]

    def snapshot(self) -> List[Transition]:
        """Contents oldest-first (test hook)."""
        if self.size < self.capacity:
            return [t for t in self._items[: self.size]]
        return self._items[self._next :] + self._items[: self._next]


class DQNAgent:
    """One decision agent with online/target networks and its replay buffer."""

    def __init__(
        self,
        name: str,
        cfg: AgentConfig,
        init_rng: np.random.Generator,
        explore_rng: np.random.Generator,
        input_dim: int = FEATURE_DIM,
    ):
        self.name = name
        self.cfg = cfg
        dims = (input_dim, *cfg.hidden_dims, 1)
        self.online = QNetwork(dims, rng=init_rng)
        self.target = self.online.clone()
        self.buffer = ReplayBuffer(cfg.buffer_capacity)
        self.explore_rng = explore_rng
        self.epsilon = cfg.epsilon_max
        self.train_mode = True
        self.gradient_steps = 0
        self._steps_since_sync = 0

        # epoch bookkeeping
        self._pending: Optional[dict] = None  # awaiting next_candidates
        self._armed: Optional[dict] = None  # decision awaiting proposal outcome

        # learning-curve samples
        self.reward_history: List[float] = []
        self.q_history: List[float] = []
        self.loss_history: List[float] = []

    # -- action selection -------------------------------------------------------

    def act(self, candidates: np.ndarray) -> int:
        """Epsilon-greedy index into the candidate matrix; decays epsilon."""
        n = candidates.shape[0]
        if n == 0:
            raise ValueError("act called with no candidates")
        if self.train_mode and self.explore_rng.random() < self.epsilon:
            idx = int(self.explore_rng.integers(n))
            q_chosen = None
        else:
            q = self.online.forward(candidates)
            idx = int(np.argmax(q))  # first maximal index on ties
            q_chosen = float(q[idx])
        if self.train_mode:
            self.epsilon = max(self.cfg.epsilon_min, self.epsilon * self.cfg.epsilon_factor)
            if q_chosen is not None:
                self.q_history.append(q_chosen)
        return idx

    # -- transition recording -----------------------------------------------------

    def observe_epoch(self, candidates: np.ndarray, clock: float) -> None:
        """Complete the pending transition with this epoch's candidate set."""
        if self._pending is None:
            return
        p = self._pending
        self.buffer.push(
            Transition(
                state_action=p["state_action"],
                reward=p["reward"],
                sojourn=max(clock - p["clock"], MIN_SOJOURN),
                next_candidates=candidates.copy(),
                terminal=False,
            )
        )
        self._pending = None

    def arm_decision(self, state_action: np.ndarray, clock: float) -> None:
        self._armed = {"state_action": state_action.copy(), "clock": clock}

    def resolve_proposal(self, outcome: ProposalOutcome, eta: float, drive: float) -> None:
        """Open a pending transition for the proposal just resolved."""
        if self._armed is None:
            return
        if outcome is ProposalOutcome.ACCEPTED:
            reward = discounted_reward(
                plain_reward(drive, self.cfg.reward_bonus), self.cfg.gamma, eta + drive
            )
        else:
            reward = 0.0
        self._pending = {
            "state_action": self._armed["state_action"],
            "reward": reward,
            "clock": self._armed["clock"],
        }
        self._armed = None
        self.reward_history.append(reward)
        if outcome is ProposalOutcome.ACCEPTED:
            self.train_step()

    def finish_day(self, clock: float) -> None:
        """Mark any pending transition terminal at the day boundary."""
        if self._pending is not None:
            p = self._pending
            self.buffer.push(
                Transition(
                    state_action=p["state_action"],
                    reward=p["reward"],
                    sojourn=max(clock - p["clock"], MIN_SOJOURN),
                    next_candidates=None,
                    terminal=True,
                )
            )
            self._pending = None
        self._armed = None

    # -- learning ---------------------------------------------------------------

    def train_step(self) -> Optional[float]:
        """One double-q gradient step; skipped until the buffer warms up.

        The targets of the whole minibatch take two forwards: the online
        network scores every next candidate of the non-terminal samples at
        once, a segment argmax picks each sample's first best row, and the
        target network evaluates the picked rows.
        """
        if self.buffer.size < self.cfg.learning_starts:
            return None
        batch = self.buffer.sample(self.cfg.batch_size, self.explore_rng)
        x = np.stack([t.state_action for t in batch])
        y = np.array([t.reward for t in batch], dtype=np.float32)
        live = [i for i, t in enumerate(batch) if not t.terminal]
        if live:
            rows = np.concatenate([batch[i].next_candidates for i in live])
            sizes = [len(batch[i].next_candidates) for i in live]
            starts = np.cumsum([0] + sizes[:-1])
            q_online = self.online.forward(rows)
            seg_max = np.repeat(np.maximum.reduceat(q_online, starts), sizes)
            n = len(q_online)
            # lowest row of each segment that attains its max, as np.argmax
            best = np.minimum.reduceat(
                np.where(q_online == seg_max, np.arange(n), n), starts
            )
            q_eval = self.target.forward(rows[best])
            for i, q in zip(live, q_eval.tolist()):
                t = batch[i]
                y[i] = t.reward + self.cfg.gamma**t.sojourn * q
        loss = self.online.train_batch(x, y, self.cfg.learning_rate)
        self.loss_history.append(loss)
        self.gradient_steps += 1
        self._steps_since_sync += 1
        if self._steps_since_sync >= self.cfg.update_steps:
            self.sync_target()
        return loss

    def sync_target(self) -> None:
        self.target.copy_from(self.online)
        self._steps_since_sync = 0

    def save(self, path) -> None:
        save_checkpoint(self.online, self.name, path)

    def load_network(self, net: QNetwork) -> None:
        self.online = net
        self.target = net.clone()


class DQNPolicy(DispatchPolicy):
    """Engine-facing policy wrapping the two learning agents."""

    name = "dqn"

    def __init__(self, new_call_agent: DQNAgent, free_vehicle_agent: DQNAgent):
        self.new_call_agent = new_call_agent
        self.free_vehicle_agent = free_vehicle_agent

    def set_train_mode(self, on: bool) -> None:
        for agent in (self.new_call_agent, self.free_vehicle_agent):
            agent.train_mode = on

    def choose_vehicle(self, env, call):
        agent = self.new_call_agent
        mat, ids = new_call_candidates(env, call)
        if not ids:
            return None
        if agent.train_mode:
            agent.observe_epoch(mat, env.clock)
        idx = agent.act(mat)
        if agent.train_mode:
            agent.arm_decision(mat[idx], env.clock)
        return ids[idx]

    def choose_call(self, env, vehicle):
        agent = self.free_vehicle_agent
        mat, ids = free_vehicle_candidates(env, vehicle)
        if not ids:
            return None
        if agent.train_mode:
            agent.observe_epoch(mat, env.clock)
        idx = agent.act(mat)
        if agent.train_mode:
            agent.arm_decision(mat[idx], env.clock)
        return ids[idx]

    def on_proposal_outcome(self, env, epoch_kind, outcome, eta, drive):
        agent = (
            self.new_call_agent if epoch_kind == "new_call" else self.free_vehicle_agent
        )
        if agent.train_mode:
            agent.resolve_proposal(outcome, eta, drive)

    def on_day_end(self, env):
        for agent in (self.new_call_agent, self.free_vehicle_agent):
            if agent.train_mode:
                agent.finish_day(env.clock)
