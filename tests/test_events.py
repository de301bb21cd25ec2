import heapq
import itertools
import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from dispatchsim import events as ev
from dispatchsim.events import CausalityError, EventQueue


def test_pop_order_with_time_ties():
    q = EventQueue()
    q.push(5.0, ev.NEW_CALL, 1)
    q.push(2.0, ev.NEW_CALL, 2)
    q.push(2.0, ev.NEW_CALL, 3)
    popped = [q.pop() for _ in range(3)]
    # ties at t=2 resolve by insertion sequence
    assert [(p[0], p[1]) for p in popped] == [(2.0, 2), (2.0, 3), (5.0, 1)]
    assert [p[3] for p in popped] == [2, 3, 1]


def test_empty_pop_returns_none():
    assert EventQueue().pop() is None


def test_push_before_clock_is_causality_error():
    q = EventQueue()
    with pytest.raises(CausalityError):
        q.push(1.0, ev.FREE_VEHICLE, 0, clock=2.0)


def test_push_at_nan_is_causality_error():
    q = EventQueue()
    q.push(3.0, ev.NEW_CALL, 0)
    with pytest.raises(CausalityError, match="t=nan"):
        q.push(float("nan"), ev.NEW_CALL, 1)
    with pytest.raises(CausalityError):
        q.push(4.0, ev.CANCELLATION, 0, clock=float("nan"))
    assert q.pop()[0] == 3.0 and q.pop() is None


@given(st.lists(st.floats(0, 1e6, allow_nan=False), min_size=0, max_size=200))
def test_pops_are_sorted(times):
    q = EventQueue()
    for t in times:
        q.push(t, ev.NEW_CALL, 0)
    out = []
    while True:
        e = q.pop()
        if e is None:
            break
        out.append(e[0])
    assert out == sorted(times)


def test_large_random_push_pop_order():
    r = random.Random(4)
    times = [r.uniform(0, 1440) for _ in range(10_000)]
    q = EventQueue()
    for t in times:
        q.push(t, ev.CANCELLATION, 0)
    out = []
    while len(q):
        out.append(q.pop()[0])
    assert out == sorted(times)


# Times lie on a grid of halves and inf, so equal times meet both in the run
# and in the heap, and pushes at inf meet a run that ends at inf.
GRID = [0.5 * i for i in range(12)] + [math.inf]


@pytest.mark.parametrize("run_length", [0, 37, ev.BLOCK + 1, 2 * ev.BLOCK + 300])
@pytest.mark.parametrize("seed", range(25))
def test_random_interleavings_match_a_heap(seed, run_length):
    # The run is the time-ordered prefix of the pushes.  Runs longer than
    # `BLOCK` pop through several blocks; odd seeds push the events before
    # the first pop in time order, so all of them join the run, and even
    # seeds in random order, so the heap takes them from the first decrease.
    r = random.Random(seed)
    q, ref, seq = EventQueue(), [], itertools.count(1)
    clock = 0.0

    def push(time):
        kind, id_a, id_b = r.randrange(6), r.randrange(5), r.randrange(-1, 5)
        q.push(time, kind, id_a, id_b, clock)
        heapq.heappush(ref, (time, next(seq), kind, id_a, id_b))

    run = [r.choice(GRID) for _ in range(run_length)]
    if seed % 2:
        run.sort()
    for time in run:  # before the first pop
        push(time)
        assert len(q) == len(ref)
    for _ in range(400):
        if r.random() < 0.45:
            push(clock + r.choice(GRID))
        else:
            got = q.pop()
            assert got == (heapq.heappop(ref) if ref else None)
            if got is not None:
                clock = got[0]
        assert len(q) == len(ref)
    while ref:
        assert q.pop() == heapq.heappop(ref)
        assert len(q) == len(ref)
    assert q.pop() is None and len(q) == 0


def test_arming_100k_events_keeps_them_as_columns():
    # one (time, seq, kind, id_a, id_b) tuple per armed event took about 15 MB
    times = [0.0144 * i for i in range(100_000)]
    tracemalloc.start()
    try:
        q = EventQueue()
        for cid, t in enumerate(times):
            q.push(t, ev.NEW_CALL, cid)
        traced, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert traced < 4_000_000
    assert len(q) == 100_000
    assert q.pop() == (0.0, 1, ev.NEW_CALL, 0, -1)
    assert len(q) == 99_999


def test_pushed_times_and_ids_pop_back_equal_and_as_python_numbers_from_the_run():
    pushed = [(5e-324, 1, np.int64(7)), (np.float64(0.1), 2, 3), (2, np.int32(4), 5),
              (1e300, 6, -1), (float("inf"), 2**40, 2**62)]
    q = EventQueue()
    for round_ in ("run", "heap"):  # pushes before the first pop, then after it
        for time, id_a, id_b in pushed:
            q.push(time, ev.CANCELLATION, id_a, id_b)
        popped = [q.pop() for _ in pushed]
        assert [(p[0], p[3], p[4]) for p in popped] == pushed
        if round_ == "run":
            assert all(type(p[0]) is float and type(p[3]) is int and type(p[4]) is int
                       for p in popped)
    assert q.pop() is None


@pytest.mark.parametrize("bad", [(2.0, 200, 2), (2.0, ev.NEW_CALL, 2**63), (2.0, ev.NEW_CALL, 2, -2**64),
                                 (10**400, ev.NEW_CALL, 2)])
def test_a_push_the_columns_refuse_leaves_the_queue_as_it_was(bad):
    # the kind is a signed byte, each id a C long long and the time a C double
    q = EventQueue()
    q.push(1.0, ev.NEW_CALL, 1)
    with pytest.raises(OverflowError):
        q.push(*bad)
    q.push(3.0, ev.NEW_CALL, 3)
    assert len(q) == 2
    assert [q.pop() for _ in range(3)] == [(1.0, 1, ev.NEW_CALL, 1, -1), (3.0, 2, ev.NEW_CALL, 3, -1), None]
