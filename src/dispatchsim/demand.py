"""Demand ingestion and generation.

Two sources are supported: replayed trip records (CSV) and a synthetic
nonhomogeneous Poisson stream shaped by an hour-of-week rate profile.
Stochastic per-call / per-vehicle attributes (waiting tolerance, driver
rejection probability) are sampled here as well.
"""

from __future__ import annotations

import io
import math
from array import array
from dataclasses import dataclass, field
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .geometry import BoundingBox, Coordinate, MINUTES_PER_DAY, MINUTES_PER_WEEK

CSV_HEADER = "minute_of_week,origin_x,origin_y,dest_x,dest_y"

# Records-mode arrivals are resampled with this much uniform jitter (minutes)
# so repeated days are not carbon copies of the source rows.
ARRIVAL_JITTER_MIN = 15.0


class DemandError(Exception):
    """Malformed or empty demand input."""


@dataclass(frozen=True)
class GaussianCluster:
    center: Coordinate
    sigma: float
    weight: float = 1.0


@dataclass
class DemandSource:
    """Where calls come from: replayed records or a synthetic process."""

    mode: str  # "records" | "synthetic"
    records: Optional[np.ndarray] = None  # (n, 5), as `load_trip_records` returns it
    hourly_rates: Optional[np.ndarray] = None  # 168 calls/hour values
    clusters: List[GaussianCluster] = field(default_factory=list)
    box: BoundingBox = BoundingBox()

    def __post_init__(self):
        if self.mode == "records":
            records = self.records
            if not (isinstance(records, np.ndarray) and records.dtype == np.float64
                    and records.ndim == 2 and records.shape[1] == 5 and len(records)):
                raise DemandError("records mode requires a nonempty (n, 5) float64 record array")
        elif self.mode == "synthetic":
            rates = np.asarray(
                self.hourly_rates if self.hourly_rates is not None else [],
                dtype=float,
            )
            if rates.shape != (168,):
                raise DemandError("synthetic mode requires 168 hourly rates")
            if not np.isfinite(rates).all():
                # an infinite rate draws zero gaps forever
                raise DemandError("hourly rates must be finite")
            if np.any(rates < 0) or not np.any(rates > 0):
                raise DemandError("hourly rates must be nonnegative with at least one positive")
            self.hourly_rates = rates
            _check_clusters(self.clusters)
        else:
            raise DemandError(f"unknown demand mode {self.mode!r}")


def _check_clusters(clusters: Sequence[GaussianCluster]) -> None:
    """Reject clusters that would make the pick weights or the spread meaningless."""
    for i, c in enumerate(clusters):
        if not all(map(math.isfinite, c.center)):
            raise DemandError(f"cluster {i}: center {tuple(c.center)} must be finite")
        if not (math.isfinite(c.sigma) and c.sigma > 0):
            raise DemandError(f"cluster {i}: sigma {c.sigma} must be finite and positive")
        if not (math.isfinite(c.weight) and c.weight >= 0):
            raise DemandError(f"cluster {i}: weight {c.weight} must be finite and nonnegative")
    if clusters:
        # the total that _cluster_location's probabilities are divided by
        with np.errstate(over="ignore"):
            total = float(np.sum([c.weight for c in clusters]))
        if not (math.isfinite(total) and total > 0):
            raise DemandError(f"cluster weights must have a finite, positive sum, not {total}")


@dataclass(frozen=True)
class StochasticConfig:
    """Parameters of the tolerance (gamma) and rejection (beta) densities."""

    tolerance_shape: float = 2.0
    tolerance_scale: float = 4.0
    reject_alpha: float = 2.0
    reject_beta: float = 8.0

    def __post_init__(self):
        for name in ("tolerance_shape", "tolerance_scale", "reject_alpha", "reject_beta"):
            if not getattr(self, name) > 0:  # a nan fails too
                raise ValueError(f"{name} must be strictly positive")


def load_trip_records(
    stream, box: BoundingBox = BoundingBox()
) -> Tuple[np.ndarray, int]:
    """Parse the trip CSV; returns (records, dropped_out_of_box_count).

    `records` is an (n, 5) float64 array in file order whose row i holds
    the minute of week, origin x, origin y, destination x and destination
    y of the i-th kept row.  Rows with any endpoint outside the bounding
    box are dropped and counted.  Malformed rows raise DemandError with the
    1-based line number.
    """
    if isinstance(stream, (bytes, bytearray)):
        stream = io.StringIO(stream.decode("utf-8"))
    elif isinstance(stream, str):
        stream = io.StringIO(stream)

    header = stream.readline().strip()
    if header != CSV_HEADER:
        raise DemandError(f"line 1: expected header {CSV_HEADER!r}, got {header!r}")

    values = array("d")
    dropped = 0
    for lineno, raw in enumerate(stream, start=2):
        line = raw.strip()
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != 5:
            raise DemandError(f"line {lineno}: expected 5 fields, got {len(parts)}")
        try:
            row = list(map(float, parts))
        except ValueError as exc:
            raise DemandError(f"line {lineno}: {exc}") from None
        minute, ox, oy, dx, dy = row
        if not 0.0 <= minute < MINUTES_PER_WEEK:
            raise DemandError(
                f"line {lineno}: minute_of_week {minute} outside [0, {MINUTES_PER_WEEK})"
            )
        if not (box.contains((ox, oy)) and box.contains((dx, dy))):
            dropped += 1
            continue
        values.extend(row)
    if not values:
        raise DemandError("no usable trip records after filtering")
    return np.frombuffer(values).reshape(-1, 5), dropped


# gamma support is (0, inf); tolerances are floored here to guard the
# measure-zero underflow to 0.0
MIN_TOLERANCE = 1e-9


def sample_tolerance(cfg: StochasticConfig, rng: np.random.Generator) -> float:
    """Draw a waiting tolerance (minutes) from the configured gamma density."""
    return max(rng.gamma(cfg.tolerance_shape, cfg.tolerance_scale), MIN_TOLERANCE)


def sample_tolerances(cfg: StochasticConfig, rng: np.random.Generator, n: int) -> np.ndarray:
    """`n` waiting tolerances in one draw: the values of `n` `sample_tolerance` calls."""
    draws = rng.gamma(cfg.tolerance_shape, cfg.tolerance_scale, size=n)
    return np.maximum(draws, MIN_TOLERANCE)


def sample_rejection_prob(cfg: StochasticConfig, rng: np.random.Generator) -> float:
    """Draw a driver rejection probability from the configured beta density."""
    return float(rng.beta(cfg.reject_alpha, cfg.reject_beta))


def _uniform_locations(rng: np.random.Generator, box: BoundingBox, m: int) -> np.ndarray:
    """Origins and destinations of `m` calls, uniform over `box`.

    One (m, 4) block whose row i is origin x, origin y, destination x and
    destination y of call i: the same 4m draws, in the same order, as four
    scalar `rng.uniform` calls per call.
    """
    low = [box.x_min, box.y_min, box.x_min, box.y_min]
    high = [box.x_max, box.y_max, box.x_max, box.y_max]
    return rng.uniform(low, high, size=(m, 4))


def _cluster_location(
    rng: np.random.Generator,
    clusters: Sequence[GaussianCluster],
    p: np.ndarray,
    box: BoundingBox,
) -> Coordinate:
    """A cluster picked with probabilities `p`, then x and y around it, clamped into `box`."""
    c = clusters[rng.choice(len(clusters), p=p)]
    x = float(np.clip(rng.normal(c.center.x, c.sigma), box.x_min, box.x_max))
    y = float(np.clip(rng.normal(c.center.y, c.sigma), box.y_min, box.y_max))
    return Coordinate(x, y)


def _strictly_increasing(times: Sequence[float]) -> np.ndarray:
    """`times` sorted, each one not above its predecessor moved 1e-6 after it, cut to the day."""
    times = np.sort(np.asarray(times, dtype=float))
    if not (times[1:] > times[:-1]).all():
        fixed = times.tolist()
        eps = 1e-6
        for i in range(1, len(fixed)):
            if fixed[i] <= fixed[i - 1]:
                fixed[i] = fixed[i - 1] + eps
        times = np.array(fixed)
    return times[times < MINUTES_PER_DAY]


def _synthetic_arrivals(
    rates: np.ndarray, day_of_week: int, rng: np.random.Generator
) -> array:
    """Nonhomogeneous Poisson arrivals over one day, by thinning, as C doubles."""
    day_rates = rates[day_of_week * 24 : (day_of_week + 1) * 24].tolist()
    lam_max = max(day_rates)
    times = array("d")
    if lam_max <= 0.0:
        return times
    per_min = lam_max / 60.0
    scale = 1.0 / per_min
    exponential, uniform = rng.exponential, rng.random
    t = 0.0
    while True:
        t += exponential(scale)
        if t >= MINUTES_PER_DAY:
            break
        if uniform() * lam_max <= day_rates[int(t // 60.0)]:
            times.append(t)
    return times


@dataclass(eq=False)
class DayDemand:
    """One day's calls as columns, in arrival order.

    `times` is the (m,) array of arrival minutes, strictly increasing, and
    `locations` the (m, 4) array whose row i is origin x, origin y,
    destination x and destination y of call i.  `len()` is the call count;
    iterating gives (arrival_minute, origin, destination) tuples.
    """

    times: np.ndarray
    locations: np.ndarray

    def __len__(self) -> int:
        return len(self.times)

    def __iter__(self) -> Iterator[Tuple[float, Coordinate, Coordinate]]:
        for t, (ox, oy, dx, dy) in zip(self.times.tolist(), self.locations.tolist()):
            yield t, Coordinate(ox, oy), Coordinate(dx, dy)

    def __eq__(self, other) -> bool:
        return isinstance(other, DayDemand) and all(
            map(np.array_equal, (self.times, self.locations), (other.times, other.locations))
        )


def generate_daily_calls(
    source: DemandSource,
    day_of_week: int,
    daily_cap: int,
    rng: np.random.Generator,
) -> DayDemand:
    """One day's time-ordered calls: arrival minutes, origins and destinations.

    Records mode resamples same-day-of-week rows with replacement and
    +/-15 min arrival jitter; synthetic mode thins a Poisson stream against
    the hour-of-week rate profile.  At most `daily_cap` calls are returned.

    Draw order on `rng`, a contract that the pinned digests hold:
    - records: `daily_cap` indices into the day's rows in file order, then
      `daily_cap` jitters; calls with equal jittered times keep draw order;
    - synthetic: the thinning loop (an exponential gap, then a uniform
      accept test, per candidate arrival), then for each of the m kept
      calls in time order its origin and then its destination.  Uniform
      locations take x then y; clustered ones take a cluster pick, x, y.
    Draws that follow each other from one distribution are taken as one
    array draw, which gives the same values as the scalar draws.
    """
    if daily_cap < 1:
        raise ValueError("daily_cap must be >= 1")
    if not 0 <= day_of_week <= 6:
        raise ValueError("day_of_week must be in 0..6")

    if source.mode == "records":
        rows = source.records[source.records[:, 0] // MINUTES_PER_DAY == day_of_week]
        if not len(rows):
            raise DemandError(f"no trip records for day_of_week={day_of_week}")
        picked = rows[rng.integers(0, len(rows), size=daily_cap)]
        jitter = rng.uniform(-ARRIVAL_JITTER_MIN, ARRIVAL_JITTER_MIN, size=daily_cap)
        times = (picked[:, 0] - day_of_week * MINUTES_PER_DAY) + jitter
        in_day = np.flatnonzero((0.0 <= times) & (times < MINUTES_PER_DAY))
        kept = in_day[np.argsort(times[in_day], kind="stable")]
        times = _strictly_increasing(times[kept])
        return DayDemand(times, picked[kept[: len(times)], 1:])

    times = _strictly_increasing(_synthetic_arrivals(source.hourly_rates, day_of_week, rng))
    times = times[:daily_cap]
    if not source.clusters:
        return DayDemand(times, _uniform_locations(rng, source.box, len(times)))
    weights = np.array([c.weight for c in source.clusters], dtype=float)
    p = weights / weights.sum()
    rows = [
        (*_cluster_location(rng, source.clusters, p, source.box),
         *_cluster_location(rng, source.clusters, p, source.box))
        for _ in range(len(times))
    ]
    return DayDemand(times, np.array(rows, dtype=float).reshape(-1, 4))


def flat_hourly_rates(rate_per_hour: float) -> np.ndarray:
    """A constant 168-hour rate profile."""
    return np.full(168, float(rate_per_hour))
