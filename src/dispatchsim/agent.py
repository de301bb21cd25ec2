"""Learning agents: reward shaping, replay buffer and double deep q-learning.

Two agents are trained, one per decision-epoch kind.  Each owns an online
and a target network; the online network selects the best next candidate
and the target network evaluates it.  Discounting is continuous-time: a
transition observed after sojourn tau is discounted by gamma**tau (that is,
e**(-beta*tau) with beta = -ln(gamma)).  An agent holds one decision open
at a time and stores it as one transition when it closes.

Each agent's replay buffer keeps one byte string per transition, and a
push takes the arrays the agent holds.  A record keeps its next
candidates' columns that differ between rows (`features.VARYING_COLUMNS`
of its epoch kind) once per row, and the columns all rows share once,
read from row 0: `features` writes those columns as one broadcast, and
the buffer relies on that without checking it.
"""

from __future__ import annotations

import math
import struct
from array import array
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from .engine import ProposalOutcome
from .features import FEATURE_DIM, VARYING_COLUMNS, free_vehicle_candidates, new_call_candidates
from .policies import DispatchPolicy
from .qnet import QNetwork, save_checkpoint

MIN_SOJOURN = 1e-9  # same-timestamp epochs still need a positive sojourn
HEAD = struct.Struct("=dd")  # a replay record's reward and sojourn


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
        if self.learning_starts > self.buffer_capacity:
            raise ValueError("learning_starts must not exceed buffer_capacity")

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


class ReplayBuffer:
    """Oldest-first eviction at `capacity` and uniform sampling, one record a slot.

    The layout is fixed at construction.  Rows are `width` floats, and a
    transition's next-candidate rows differ only in the columns lo:hi of the
    slice `varying` (all by default) and share the others.  `records[k]` is
    the bytes of slot k: one `front` (its reward and sojourn as float64 and
    its chosen row as float32), then its shared values (zeros if terminal)
    and the varying columns of its candidates, row after row (none exactly
    when terminal), as float32.  The list grows by appends up to `capacity`
    slots; then the oldest record is replaced.
    """

    def __init__(self, capacity: int, width: int, varying: slice = slice(None)):
        lo, hi = varying.start or 0, width if varying.stop is None else varying.stop
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        if not 0 <= lo < hi <= width:
            raise ValueError(f"rows of {width} floats with columns {lo}:{hi} varying")
        self.capacity, self.width, self.lo, self.hi = capacity, width, lo, hi
        self.front = np.dtype([("head", "f8", 2), ("row", "f4", width)])
        self.shared_at = self.front.itemsize  # byte offsets in a record
        self.rows_at = self.shared_at + 4 * (width - hi + lo)
        self._next = 0  # the slot the next push writes
        self.records: List[bytes] = []

    @property
    def size(self) -> int:
        return len(self.records)

    def push(self, state_action: np.ndarray, reward: float, sojourn: float,
             next_candidates: Optional[np.ndarray]) -> None:
        """Store one transition; no next candidates means terminal.

        The shared values are read from row 0 alone: `features` writes them
        into every row as one broadcast, so the other rows hold the same bits.
        """
        width, lo, hi = self.width, self.lo, self.hi
        head = HEAD.pack(float(reward), float(sojourn))
        state_action = np.asarray(state_action, dtype=np.float32)
        if state_action.shape != (width,):
            raise ValueError(f"state_action of shape {state_action.shape}, buffer holds {width}")
        if next_candidates is None:
            tail = [bytes(self.rows_at - self.shared_at)]
        else:
            rows = np.asarray(next_candidates, dtype=np.float32)
            if rows.ndim != 2 or rows.shape[1] != width or not len(rows):
                raise ValueError(f"next_candidates of shape {rows.shape}, buffer holds "
                                 f"one or more rows of {width}")
            row = rows[0].tobytes()
            tail = [row[: 4 * lo], row[4 * hi :], rows[:, lo:hi].tobytes()]
        slot = self._next
        # appends while the buffer fills, then replaces the oldest record
        self.records[slot : slot + 1] = [b"".join([head, state_action.tobytes(), *tail])]
        self._next = (slot + 1) % self.capacity

    def next_candidates(self, records) -> Tuple[np.ndarray, np.ndarray]:
        """The candidate rows of live `records`, record after record, and each one's row count."""
        lo, hi, shared_at, rows_at = self.lo, self.hi, self.shared_at, self.rows_at
        sizes = np.array([len(r) - rows_at for r in records]) // (4 * (hi - lo))
        flat = np.frombuffer(b"".join([r[rows_at:] for r in records]), np.float32)
        common = np.frombuffer(b"".join([r[shared_at:rows_at] for r in records]), np.float32)
        common = np.repeat(common.reshape(len(records), -1), sizes, axis=0)
        rows = np.empty((len(common), self.width), np.float32)  # float32 copies: bit-exact
        rows[:, lo:hi] = flat.reshape(len(rows), hi - lo)
        rows[:, :lo], rows[:, hi:] = common[:, :lo], common[:, lo:]
        return rows, sizes


class DQNAgent:
    """One decision agent with online/target networks and its replay buffer.

    Its last decision is one open record `[state_action, clock, reward]`, the
    reward None until the proposal resolves.  `close_decision` stores it at
    the next epoch or as terminal at the day's end, and drops it if it never
    resolved (a busy pick).  The target syncs every `update_steps` steps.
    """

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
        varying = VARYING_COLUMNS.get(name) if input_dim == FEATURE_DIM else None
        self.buffer = ReplayBuffer(cfg.buffer_capacity, input_dim, varying or slice(None))
        self.explore_rng = explore_rng
        self.epsilon = cfg.epsilon_max
        self.train_mode = True
        self.gradient_steps = 0
        self._open: Optional[list] = None  # the last decision

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

    def close_decision(self, clock: float, candidates: Optional[np.ndarray] = None) -> None:
        """Close the open decision, storing it if it resolved; no candidates means terminal."""
        decision, self._open = self._open, None
        if decision is not None and decision[2] is not None:
            state_action, start, reward = decision
            # the buffer copies the rows
            self.buffer.push(state_action, reward, max(clock - start, MIN_SOJOURN), candidates)

    def arm_decision(self, state_action: np.ndarray, clock: float) -> None:
        self._open = [state_action.copy(), clock, None]

    def resolve_proposal(self, outcome: ProposalOutcome, eta: float, drive: float) -> None:
        """Give the open decision its proposal's reward; a decision resolves once."""
        decision = self._open
        if decision is None or decision[2] is not None:
            return
        if outcome is ProposalOutcome.ACCEPTED:
            reward = discounted_reward(
                plain_reward(drive, self.cfg.reward_bonus), self.cfg.gamma, eta + drive
            )
        else:
            reward = 0.0
        decision[2] = reward
        self.reward_history.append(reward)
        if outcome is ProposalOutcome.ACCEPTED:
            self.train_step()

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
        draw = self.explore_rng.integers(0, buf.size, size=self.cfg.batch_size)
        batch = [buf.records[s] for s in draw.tolist()]
        fronts = np.frombuffer(b"".join([r[: buf.shared_at] for r in batch]), buf.front)
        x = np.ascontiguousarray(fronts["row"])
        y = fronts["head"][:, 0].astype(np.float32)  # the rewards
        # Python floats: numpy's array ** differs from the scalar pow in the last bit
        heads = fronts["head"].tolist()
        live = [i for i, r in enumerate(batch) if len(r) > buf.rows_at]
        if live:
            rows, sizes = buf.next_candidates([batch[i] for i in live])
            starts = np.cumsum(sizes) - sizes
            q_online = self.online.forward(rows)
            seg_max = np.repeat(np.maximum.reduceat(q_online, starts), sizes)
            n = len(q_online)
            # lowest row of each segment that attains its max, as np.argmax
            best = np.minimum.reduceat(
                np.where(q_online == seg_max, np.arange(n), n), starts
            )
            q_eval = self.target.forward(rows[best])
            gamma = self.cfg.gamma
            for i, q in zip(live, q_eval.tolist()):
                reward, sojourn = heads[i]
                y[i] = reward + gamma ** sojourn * q
        loss = self.online.train_batch(x, y, self.cfg.learning_rate)
        self.loss_history.append(loss)
        self.gradient_steps += 1
        if self.gradient_steps % self.cfg.update_steps == 0:
            self.target.copy_from(self.online)
        return loss

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
                agent.close_decision(env.clock)


def _decide(agent: DQNAgent, env, mat: np.ndarray, ids: list):
    """One decision epoch: close the open decision, act, arm the pick."""
    if not ids:
        return None
    if agent.train_mode:
        agent.close_decision(env.clock, mat)
    idx = agent.act(mat)
    if agent.train_mode:
        agent.arm_decision(mat[idx], env.clock)
    return ids[idx]
