"""Learning agents: reward shaping, replay buffer and double deep q-learning.

Two agents are trained, one per decision-epoch kind.  Each owns an online
and a target network; the online network selects the best next candidate
and the target network evaluates it.  Discounting is continuous-time:
a transition observed after sojourn tau is discounted by gamma**tau
(equivalently e**(-beta*tau) with beta = -ln(gamma)).

Each agent's replay buffer keeps its transitions as columns, one row per
slot (chosen feature row, reward, sojourn, terminal flag), plus one FIFO
store of next-candidate rows that each slot indexes by first row and row
count.  A minibatch is a fancy-indexed gather from those columns and one
gather from the row store.  `Transition` is the unit a push takes and the
view the test hooks `sample` and `snapshot` build; training never makes one
per sample.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
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
        if not 0.0 < self.epsilon_factor <= 1.0:
            raise ValueError("epsilon_factor must be in (0, 1]")
        for name in ("learning_starts", "update_steps", "batch_size", "buffer_capacity",
                     "learning_rate"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")
        if not -math.inf < self.reward_bonus < math.inf:
            raise ValueError("reward_bonus must be finite")

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
    """One stored transition; what `ReplayBuffer` hands out is a copy of its columns."""

    state_action: np.ndarray  # chosen (state, action) feature vector
    reward: float
    sojourn: float
    next_candidates: Optional[np.ndarray]  # None iff terminal
    terminal: bool


class ReplayBuffer:
    """Oldest-first eviction at `capacity` and uniform sampling, kept as columns.

    Slot k holds one transition: `state_action[k]` (float32, as wide as the
    first push), `reward[k]`, `sojourn[k]`, `terminal[k]`, and `row_start[k]`
    and `row_count[k]`, which place its next-candidate rows in `rows`.  A
    terminal slot has no rows.  The slot columns are allocated at the first
    push and double as the buffer fills, up to `capacity` slots; slots fill
    in push order, then the oldest is overwritten.  `rows` is one FIFO
    float32 store: a push appends its rows at the tail and an eviction drops
    the oldest slot's rows from the head.  When an append does not fit and
    the live rows fill less than half of the store, they move down to its
    start, else the store doubles.  `row_start` counts rows from the first
    ever pushed; `rows[0]` is row `_row_base`.  `Transition` is only the
    unit of `push` and the view `sample` and `snapshot` build on demand.
    """

    MIN_SLOTS = 256

    def __init__(self, capacity: int):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self.size = 0
        self._next = 0  # the slot the next push writes
        self.state_action: Optional[np.ndarray] = None
        self.reward = self.sojourn = self.terminal = None
        self.row_start = self.row_count = None
        self.rows: Optional[np.ndarray] = None
        self._row_base = self._head = self._tail = 0  # row numbers of rows[0], head, tail

    def push(self, item: Transition) -> None:
        state_action = np.asarray(item.state_action, dtype=np.float32)
        if self.state_action is None:
            self._allocate(state_action.shape[-1])
        width = self.state_action.shape[1]
        if state_action.shape != (width,):
            raise ValueError(f"state_action of shape {state_action.shape}, buffer holds {width}")
        rows = None
        if not item.terminal:
            rows = np.asarray(item.next_candidates, dtype=np.float32)
            if rows.ndim != 2 or rows.shape[1] != width:
                raise ValueError(f"next_candidates of shape {rows.shape}, buffer holds {width}")
        slot = self._next
        if self.size < self.capacity:
            if slot == len(self.reward):
                self._grow_slots()
            self.size += 1
        else:
            self._head += int(self.row_count[slot])  # the oldest slot's rows head the store
        self.state_action[slot] = state_action
        self.reward[slot] = item.reward
        self.sojourn[slot] = item.sojourn
        self.terminal[slot] = item.terminal
        self.row_start[slot] = self._tail
        self.row_count[slot] = 0 if rows is None else len(rows)
        if rows is not None:
            self._append_rows(rows)
        self._next = (slot + 1) % self.capacity

    def _allocate(self, width: int) -> None:
        slots = min(self.capacity, self.MIN_SLOTS)
        self.state_action = np.empty((slots, width), dtype=np.float32)
        self.reward = np.empty(slots)
        self.sojourn = np.empty(slots)
        self.terminal = np.empty(slots, dtype=bool)
        self.row_start = np.empty(slots, dtype=np.int64)
        self.row_count = np.empty(slots, dtype=np.int64)
        self.rows = np.empty((slots, width), dtype=np.float32)

    def _grow_slots(self) -> None:
        slots = min(self.capacity, 2 * len(self.reward))
        for name in ("state_action", "reward", "sojourn", "terminal", "row_start", "row_count"):
            old = getattr(self, name)
            new = np.empty((slots, *old.shape[1:]), dtype=old.dtype)
            new[: self.size] = old[: self.size]
            setattr(self, name, new)

    def _append_rows(self, rows: np.ndarray) -> None:
        n = len(rows)
        end = self._tail + n - self._row_base
        if end > len(self.rows):
            live = self._tail - self._head
            head = self._head - self._row_base
            if 2 * (live + n) <= len(self.rows):
                self.rows[:live] = self.rows[head : head + live]
            else:
                store = np.empty((max(2 * len(self.rows), live + n), self.rows.shape[1]),
                                 dtype=np.float32)
                store[:live] = self.rows[head : head + live]
                self.rows = store
            self._row_base = self._head
            end = live + n
        self.rows[end - n : end] = rows
        self._tail += n

    def sample_slots(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """`n` slots drawn uniformly, with replacement, from one `rng` call."""
        return rng.integers(0, self.size, size=n)

    def candidate_rows(self, slots: np.ndarray) -> np.ndarray:
        """The next-candidate rows of `slots`, slot after slot, in one gather."""
        counts = self.row_count[slots]
        firsts = self.row_start[slots] - self._row_base
        offsets = np.cumsum(counts) - counts  # where each slot's rows begin in the result
        return self.rows[np.arange(counts.sum()) + np.repeat(firsts - offsets, counts)]

    def _view(self, slot: int) -> Transition:
        terminal = bool(self.terminal[slot])
        return Transition(
            state_action=self.state_action[slot].copy(),
            reward=float(self.reward[slot]),
            sojourn=float(self.sojourn[slot]),
            next_candidates=None if terminal else self.candidate_rows(np.array([slot])),
            terminal=terminal,
        )

    def sample(self, n: int, rng: np.random.Generator) -> List[Transition]:
        """`n` transitions drawn as `train_step` draws its minibatch (test hook)."""
        return [self._view(slot) for slot in self.sample_slots(n, rng).tolist()]

    def snapshot(self) -> List[Transition]:
        """Contents oldest-first (test hook)."""
        order = [*range(self._next, self.size), *range(self._next)]
        return [self._view(slot) for slot in order]


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
        self._armed: Optional[tuple] = None  # (state_action, clock) awaiting an outcome
        self._pending: Optional[tuple] = None  # (state_action, reward, clock) awaiting next

        # learning-curve samples, 8 bytes each
        self.reward_history = array("d")
        self.q_history = array("d")
        self.loss_history = array("d")

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

    def _close_pending(self, clock: float, candidates: Optional[np.ndarray]) -> None:
        """Push the pending transition; no next candidates means terminal."""
        if self._pending is None:
            return
        state_action, reward, start = self._pending
        terminal = candidates is None
        self.buffer.push(
            Transition(
                state_action=state_action,
                reward=reward,
                sojourn=max(clock - start, MIN_SOJOURN),
                next_candidates=candidates,  # the buffer copies the rows
                terminal=terminal,
            )
        )
        self._pending = None

    def observe_epoch(self, candidates: np.ndarray, clock: float) -> None:
        """Complete the pending transition with this epoch's candidate set."""
        self._close_pending(clock, candidates)

    def arm_decision(self, state_action: np.ndarray, clock: float) -> None:
        self._armed = (state_action.copy(), clock)

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
        state_action, clock = self._armed
        self._pending = (state_action, reward, clock)
        self._armed = None
        self.reward_history.append(reward)
        if outcome is ProposalOutcome.ACCEPTED:
            self.train_step()

    def finish_day(self, clock: float) -> None:
        """Mark any pending transition terminal at the day boundary."""
        self._close_pending(clock, None)
        self._armed = None

    # -- learning ---------------------------------------------------------------

    def train_step(self) -> Optional[float]:
        """One double-q gradient step; skipped until the buffer warms up.

        The targets of the whole minibatch take two forwards: the online
        network scores every next candidate of the non-terminal samples at
        once, a segment argmax picks each sample's first best row, and the
        target network evaluates the picked rows.
        """
        buf = self.buffer
        if buf.size < self.cfg.learning_starts:
            return None
        slots = buf.sample_slots(self.cfg.batch_size, self.explore_rng)
        x = buf.state_action[slots]
        y = buf.reward[slots].astype(np.float32)
        live = np.flatnonzero(~buf.terminal[slots])
        if len(live):
            live_slots = slots[live]
            rows = buf.candidate_rows(live_slots)
            sizes = buf.row_count[live_slots]
            starts = np.cumsum(sizes) - sizes
            q_online = self.online.forward(rows)
            seg_max = np.repeat(np.maximum.reduceat(q_online, starts), sizes)
            n = len(q_online)
            # lowest row of each segment that attains its max, as np.argmax
            best = np.minimum.reduceat(
                np.where(q_online == seg_max, np.arange(n), n), starts
            )
            q_eval = self.target.forward(rows[best])
            # Python floats: numpy's array ** differs from the scalar pow in the last bit
            gamma = self.cfg.gamma
            for i, reward, sojourn, q in zip(
                live.tolist(),
                buf.reward[live_slots].tolist(),
                buf.sojourn[live_slots].tolist(),
                q_eval.tolist(),
            ):
                y[i] = reward + gamma**sojourn * q
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
        return _decide(self.new_call_agent, env, *new_call_candidates(env, call))

    def choose_call(self, env, vehicle):
        return _decide(self.free_vehicle_agent, env, *free_vehicle_candidates(env, vehicle))

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


def _decide(agent: DQNAgent, env, mat: np.ndarray, ids: list):
    """One decision epoch: close the pending transition, act, arm the pick."""
    if not ids:
        return None
    if agent.train_mode:
        agent.observe_epoch(mat, env.clock)
    idx = agent.act(mat)
    if agent.train_mode:
        agent.arm_decision(mat[idx], env.clock)
    return ids[idx]
