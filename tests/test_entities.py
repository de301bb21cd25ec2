import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dispatchsim.entities import (
    ALLOWED_TRANSITIONS,
    ASSIGNED,
    CANCELED,
    EDGES,
    STATUSES,
    WAITING,
    Call,
    CallPool,
    CallStatus,
    CallTable,
    FleetState,
    Vehicle,
)
from dispatchsim.geometry import Coordinate


def make_call(**kw):
    defaults = dict(
        id=0,
        created_at=0.0,
        origin=Coordinate(0.1, 0.1),
        destination=Coordinate(0.5, 0.5),
        max_wait=5.0,
    )
    defaults.update(kw)
    return Call(**defaults)


def test_call_happy_path_transitions():
    c = make_call()
    c.set_status(CallStatus.ASSIGNED)
    c.set_status(CallStatus.PICKED_UP)
    c.set_status(CallStatus.COMPLETED)
    assert c.status_history == [
        CallStatus.WAITING,
        CallStatus.ASSIGNED,
        CallStatus.PICKED_UP,
        CallStatus.COMPLETED,
    ]


def test_call_cancel_and_rejection_edges():
    c = make_call()
    c.set_status(CallStatus.CANCELED)
    c2 = make_call(id=1)
    c2.set_status(CallStatus.ASSIGNED)
    c2.set_status(CallStatus.WAITING)  # rejection re-queue


@pytest.mark.parametrize(
    "src,dst",
    [
        (CallStatus.WAITING, CallStatus.PICKED_UP),
        (CallStatus.WAITING, CallStatus.COMPLETED),
        (CallStatus.COMPLETED, CallStatus.WAITING),
        (CallStatus.CANCELED, CallStatus.ASSIGNED),
        (CallStatus.PICKED_UP, CallStatus.WAITING),
    ],
)
def test_call_rejects_illegal_edges(src, dst):
    c = make_call()
    c.status = src
    with pytest.raises(ValueError):
        c.set_status(dst)


def test_transition_graph_has_no_extra_edges():
    edge_count = sum(len(v) for v in ALLOWED_TRANSITIONS.values())
    assert edge_count == 5  # W->A, W->C, A->P, A->W, P->C
    assert not ALLOWED_TRANSITIONS[CallStatus.COMPLETED]
    assert not ALLOWED_TRANSITIONS[CallStatus.CANCELED]


def test_illegal_transition_message_names_the_call_and_the_edge():
    c = make_call(id=7)
    c.set_status(CallStatus.CANCELED)
    with pytest.raises(ValueError, match=r"^call 7: illegal status transition canceled -> assigned$"):
        c.set_status(CallStatus.ASSIGNED)
    table = CallTable(3)
    table.set_status(2, CANCELED)
    with pytest.raises(ValueError, match=r"^call 2: illegal status transition canceled -> canceled$"):
        table[2].set_status(CallStatus.CANCELED)
    assert table[2].status_history == [CallStatus.WAITING, CallStatus.CANCELED]


def test_edge_table_is_the_transition_graph():
    edges = {(STATUSES[a], STATUSES[b]) for a, b in zip(*np.nonzero(EDGES))}
    assert edges == {(a, b) for a, targets in ALLOWED_TRANSITIONS.items() for b in targets}


def test_call_fields_live_in_its_table_row():
    c = make_call(id=4, created_at=2.5, max_wait=3.0)
    assert (c.table.first_id, c.row, len(c.table)) == (4, 0, 1)
    assert c.origin == Coordinate(0.1, 0.1) and type(c.origin) is Coordinate
    assert c.assigned_vehicle is None and c.pickup_time is None
    c.assigned_vehicle, c.pickup_time = 9, 4.0
    assert np.asarray(c.table.assigned_vehicle)[0] == 9 and c.table.pickup_time[0] == 4.0
    c.pickup_time = None
    assert math.isnan(c.table.floats[7, 0]) and c.pickup_time is None


def test_adopted_calls_keep_their_state_and_history():
    calls = [make_call(id=i, created_at=float(i)) for i in range(3)]
    calls[1].set_status(CallStatus.ASSIGNED)
    calls[1].assigned_vehicle = 5
    table = CallTable.adopt(calls)
    assert all(c.table is table and c.row == c.id for c in calls)
    assert list(np.asarray(table.created_at)) == [0.0, 1.0, 2.0]
    assert [c.status for c in table] == [CallStatus.WAITING, CallStatus.ASSIGNED, CallStatus.WAITING]
    assert table[1].assigned_vehicle == 5 and table[-1].id == 2
    assert calls[1].status_history == [CallStatus.WAITING, CallStatus.ASSIGNED]
    with pytest.raises(ValueError, match="call ids must be 0..n-1 in order"):
        CallTable.adopt([make_call(id=1)])


def _call_facts(c):
    return (c.table, c.row, c.table.floats[:, c.row].tobytes(), c.status, c.assigned_vehicle,
            list(c.status_history))


@pytest.mark.parametrize("fault", ["wrong id", "history edit"])
def test_a_refused_call_adoption_leaves_every_call_on_its_table(fault):
    calls = [make_call(id=i, created_at=float(i)) for i in range(3)]
    calls[1].set_status(CallStatus.ASSIGNED)
    calls[1].assigned_vehicle = 5
    if fault == "wrong id":
        calls.append(make_call(id=5))
        refusal = pytest.raises(ValueError, match=r"calls\[3\] has id 5")
    else:  # a history holding a non-status has no status code
        calls[2].status_history.append("edited")
        refusal = pytest.raises(KeyError)
    before = list(map(_call_facts, calls))
    with refusal:
        CallTable.adopt(calls)
    assert list(map(_call_facts, calls)) == before


def test_a_refused_fleet_adoption_leaves_every_vehicle_on_its_store():
    fleet = [Vehicle(vid, Coordinate(0.25, 0.125 * vid), Coordinate(0.5, 0.5), busy=vid == 1,
                     free_at=2.0 * vid, reject_prob=0.25) for vid in (0, 1, 3)]

    def facts(v):
        return (v.table, v.row, v.location, v.move_destination, v.busy, v.free_at, v.reject_prob)

    before = list(map(facts, fleet))
    with pytest.raises(ValueError, match=r"fleet\[2\] has id 3; vehicle ids must be 0..n-1"):
        FleetState.adopt(fleet)
    assert list(map(facts, fleet)) == before


def test_history_edits_persist_and_later_statuses_append():
    table = CallTable(2)
    history = table[0].status_history
    history.append("edited")
    table.set_status(0, CANCELED)
    assert table[0].status_history is history
    assert history == [CallStatus.WAITING, "edited", CallStatus.CANCELED]
    assert table[1].status_history == [CallStatus.WAITING]


def _logged(table, row):
    """Row `row`'s statuses by a plain filter of the log."""
    return [STATUSES[code] for r, code in zip(table.log_rows, table.log_codes) if r == row]


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_history_reads_are_the_log_plus_the_held_lists_edits(data):
    rows = 3
    table = CallTable(rows)
    holders = []  # calls kept alive between steps; each holds the last list it read
    held = {}  # row -> [the list its holders share, what it should hold, log length at its last read]

    def read(c):
        """`c.status_history`, checked against the log and the held list's own edits."""
        got = c.status_history
        entry = held.get(c.row)
        if entry is None:
            assert got == _logged(table, c.row)
            if any(h is c for h in holders):
                held[c.row] = [got, list(got), len(table.log_rows)]
        else:
            assert got is entry[0]
            lo, entry[2] = entry[2], len(table.log_rows)
            entry[1] += [STATUSES[code] for r, code in zip(table.log_rows[lo:], table.log_codes[lo:])
                         if r == c.row]
            assert got == entry[1]
        return got

    for _ in range(data.draw(st.integers(0, 40))):
        op = data.draw(st.sampled_from(["status", "fresh", "hold", "held", "edit", "drop", "adopt"]))
        row = data.draw(st.integers(0, rows - 1))
        mine = [h for h in holders if h.row == row]
        # an index, not the call: Hypothesis keeps what it draws alive
        pick = data.draw(st.integers(0, max(len(mine) - 1, 0)))
        if op == "status":
            now = STATUSES[table.status[row]]
            if ALLOWED_TRANSITIONS[now]:
                new = data.draw(st.sampled_from(sorted(ALLOWED_TRANSITIONS[now], key=STATUSES.index)))
                table.set_status(row, STATUSES.index(new))
        elif op == "fresh":
            read(table[row])
        elif op == "hold":
            holders.append(table[row])
            read(holders[-1])
        elif op == "held" and mine:
            read(mine[pick])
        elif op == "edit" and mine:
            got = read(mine[pick])
            status = data.draw(st.sampled_from(STATUSES))
            where = data.draw(st.integers(0, len(got)))
            kind = data.draw(st.sampled_from(["insert", "append", "delete"]))
            for edited in (got, held[row][1]):
                if kind == "insert":
                    edited.insert(where, status)
                elif kind == "append":
                    edited.append(status)
                elif edited:
                    del edited[where % len(edited)]
            del got
        elif op == "drop" and mine:
            holders.remove(mine[pick])
            del mine
            if not any(h._history is held.get(row, [None])[0] for h in holders):
                held.pop(row, None)  # no one holds it: the next read builds it from the log
        elif op == "adopt":
            # one call per row, with the edits its holders made; the others let go
            calls = [next((h for h in holders if h.row == r), None) or table[r] for r in range(rows)]
            holders = [c for c in calls if any(h is c for h in holders)]
            histories = [list(read(c)) for c in calls]
            table = CallTable.adopt(calls)
            held.clear()
            assert list(table.log_rows) == [r for r, h in enumerate(histories) for _ in h]
            assert [STATUSES[code] for code in table.log_codes] == [s for h in histories for s in h]
            assert [read(c) for c in calls] == histories
            del calls
    for row in range(rows):
        read(table[row])


def test_reads_between_statuses_index_the_log_again_only_when_its_tail_outgrows_the_index(monkeypatch):
    rows = 1000
    table = CallTable(rows)
    built = []
    index = CallTable._index
    monkeypatch.setattr(CallTable, "_index", lambda t: built.append(len(t.log_rows)) or index(t))
    for n, code in enumerate((ASSIGNED, WAITING, ASSIGNED), start=2):
        for row in range(rows):
            table.set_status(row, code)
            assert len(table[row].status_history) == n
            assert 2 * table._indexed >= len(table.log_rows)  # the scanned tail is at most the indexed part
    assert built == [1001, 2003]


def test_reading_every_history_keeps_only_the_index():
    import tracemalloc

    rows = 20_000
    table = CallTable(rows)
    for code in (STATUSES.index(CallStatus.ASSIGNED), STATUSES.index(CallStatus.WAITING)):
        for row in range(rows):
            table.set_status(row, code)
    tracemalloc.start()
    try:
        # what keeping one list per row held: the lists a read now builds and drops
        lists = [[] for _ in range(rows)]
        for row, code in zip(table.log_rows, table.log_codes):
            lists[row].append(STATUSES[code])
        kept_lists, _ = tracemalloc.get_traced_memory()
        del lists
        tracemalloc.reset_peak()
        base, _ = tracemalloc.get_traced_memory()
        for c in table:
            assert len(c.status_history) == 3
        del c
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert kept - base <= 500_000  # the index: one byte a log entry, four a row
    assert peak - base < kept_lists
    assert kept_lists > 1_500_000


def test_call_requires_positive_tolerance():
    with pytest.raises(ValueError):
        make_call(max_wait=0.0)


@pytest.mark.parametrize("created_at", [math.nan, math.inf, -math.inf])
def test_call_rejects_a_non_finite_creation_time(created_at):
    with pytest.raises(ValueError, match="call 4: created_at must be finite"):
        make_call(id=4, created_at=created_at)


def test_call_rejects_a_nan_tolerance():
    with pytest.raises(ValueError, match="call 6: max_wait must be positive, got nan"):
        make_call(id=6, max_wait=math.nan)


def test_the_pool_refuses_an_id_outside_its_table():
    pool = CallPool(CallTable(3))
    for cid in (-1, 3):
        with pytest.raises(IndexError, match=f"call {cid} is not a row of the pool's table"):
            pool.add(cid)
    assert len(pool) == 0


def _assert_idle_index(state):
    assert state.idle_ids == np.flatnonzero(state.idle).tolist()


# (vehicle, op): op 0 sets busy, 1 sets idle through `busy`, 2 through `set_idle`
toggles = st.lists(st.tuples(st.integers(0, 7), st.integers(0, 2)), max_size=60)


@settings(max_examples=100)
@given(toggles, toggles)
def test_idle_ids_follow_the_idle_mask(before, after):
    fleet = FleetState(8).views()
    state = fleet[0].table
    _assert_idle_index(state)

    def apply(ops):
        for vid, op in ops:
            if op == 0:
                fleet[vid].busy = True
            elif op == 1:
                fleet[vid].busy = False
            else:
                fleet[vid].set_idle(Coordinate(0.25, 0.5))
            assert fleet[vid].busy == (op == 0)
            _assert_idle_index(state)

    apply(before)
    adopted = FleetState.adopt(fleet)
    _assert_idle_index(adopted)
    assert adopted.idle_ids == state.idle_ids
    state = adopted
    apply(after)


def test_set_busy_is_idempotent():
    state = FleetState(3)
    state.set_busy(1, True)
    state.set_busy(1, True)
    assert state.idle_ids == [0, 2]
    state.set_busy(0, False)
    assert state.idle_ids == [0, 2] and list(state.idle) == [1, 0, 1]


def test_vehicle_idle_invariant():
    v = Vehicle(id=0, location=Coordinate(0.2, 0.3), move_destination=Coordinate(0.2, 0.3))
    assert not v.busy
    assert v.time_to_free(clock=10.0) == 0.0
    v.busy = True
    v.free_at = 17.5
    assert v.time_to_free(clock=10.0) == 7.5
    v.set_idle(Coordinate(0.9, 0.9))
    assert v.move_destination == v.location == Coordinate(0.9, 0.9)
    assert v.time_to_free(clock=20.0) == 0.0


def test_vehicle_rejects_bad_probability():
    with pytest.raises(ValueError):
        Vehicle(id=0, location=Coordinate(0, 0), move_destination=Coordinate(0, 0), reject_prob=1.5)
