import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dispatchsim.entities import (
    ALLOWED_TRANSITIONS,
    ASSIGNED,
    CANCELED,
    COMPLETED,
    EDGES,
    PATHS,
    PICKED_UP,
    STATUSES,
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


@pytest.mark.parametrize(
    "src,dst",
    [
        (CallStatus.WAITING, CallStatus.PICKED_UP),
        (CallStatus.WAITING, CallStatus.COMPLETED),
        (CallStatus.COMPLETED, CallStatus.WAITING),
        (CallStatus.CANCELED, CallStatus.ASSIGNED),
        (CallStatus.PICKED_UP, CallStatus.WAITING),
        (CallStatus.ASSIGNED, CallStatus.WAITING),  # a refused proposal never assigns
    ],
)
def test_call_rejects_illegal_edges(src, dst):
    c = make_call()
    c.status = src
    with pytest.raises(ValueError):
        c.set_status(dst)


def test_transition_graph_is_a_tree_rooted_at_waiting_and_paths_are_its_paths():
    edges = [(a, b) for a, targets in ALLOWED_TRANSITIONS.items() for b in targets]
    assert len(edges) == 4  # W->A, W->C, A->P, P->C
    parent = dict((b, a) for a, b in edges)
    # one parent a status, none for the root
    assert len(parent) == 4 and CallStatus.WAITING not in parent
    for code, status in enumerate(STATUSES):
        path = (status,)
        for _ in STATUSES:  # bounded, so that a cycle fails instead of looping
            if path[0] in parent:
                path = (parent[path[0]],) + path
        assert path[0] is CallStatus.WAITING
        assert PATHS[code] == path
    assert PATHS[COMPLETED] == (CallStatus.WAITING, CallStatus.ASSIGNED, CallStatus.PICKED_UP,
                                CallStatus.COMPLETED)


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


def test_a_refused_call_adoption_leaves_every_call_on_its_table():
    calls = [make_call(id=i, created_at=float(i)) for i in range(3)]
    calls[1].set_status(CallStatus.ASSIGNED)
    calls[1].assigned_vehicle = 5
    calls.append(make_call(id=5))
    before = list(map(_call_facts, calls))
    with pytest.raises(ValueError, match=r"calls\[3\] has id 5"):
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
    held = table[0]
    history = held.status_history
    history.append("edited")
    table.set_status(0, CANCELED)
    assert held.status_history is history
    assert history == [CallStatus.WAITING, "edited", CallStatus.CANCELED]
    assert table[1].status_history == [CallStatus.WAITING]


def test_a_call_made_with_a_status_reports_its_path():
    c = make_call(status=CallStatus.PICKED_UP)
    assert c.status_history == [CallStatus.WAITING, CallStatus.ASSIGNED, CallStatus.PICKED_UP]
    c.set_status(CallStatus.COMPLETED)
    assert c.status_history[-1] is CallStatus.COMPLETED


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_fresh_reads_are_the_path_and_held_reads_keep_their_edits(data):
    rows = 2
    table = CallTable(rows)
    # [call, the list its reads return, what that list should hold, path statuses it took]
    held = []

    def read(entry):
        c, got, want, taken = entry
        path = PATHS[c.table.status[c.row]]
        want += path[taken:]  # the path's later statuses
        entry[3] = len(path)
        assert c.status_history is got and got == want

    for _ in range(data.draw(st.integers(0, 20))):
        op = data.draw(st.sampled_from(["status", "fresh", "hold", "held", "edit", "adopt"]))
        row = data.draw(st.integers(0, rows - 1))
        # an index, not a call: Hypothesis keeps what it draws alive
        pick = data.draw(st.integers(0, max(len(held) - 1, 0)))
        if op == "status":
            targets = sorted(ALLOWED_TRANSITIONS[STATUSES[table.status[row]]], key=STATUSES.index)
            if targets:
                table.set_status(row, STATUSES.index(data.draw(st.sampled_from(targets))))
        elif op == "fresh":
            assert table[row].status_history == table.history(row) == list(PATHS[table.status[row]])
        elif op == "hold":
            c = table[row]
            held.append([c, c.status_history, [], 0])
            read(held[-1])
        elif op == "held" and held:
            read(held[pick])
        elif op == "edit" and held:
            entry = held[pick]
            read(entry)
            status = data.draw(st.sampled_from(STATUSES))
            where = data.draw(st.integers(0, len(entry[1])))
            delete = data.draw(st.booleans()) and len(entry[1]) > 0
            for edited in entry[1:3]:
                if delete:
                    del edited[where % len(edited)]
                else:
                    edited.insert(where, status)
        elif op == "adopt":
            # one call per row, a held one where there is one; the other held calls let go
            calls = [next((e[0] for e in held if e[0].row == r), None) or table[r]
                     for r in range(rows)]
            held = [e for e in held if any(e[0] is c for c in calls)]
            table = CallTable.adopt(calls)
            del calls
    for entry in held:
        read(entry)
    for row in range(rows):
        assert table[row].status_history == list(PATHS[table.status[row]])


def test_statuses_and_history_reads_keep_nothing_per_row():
    rows = 20_000
    table = CallTable(rows)
    tracemalloc.start()
    try:
        base, _ = tracemalloc.get_traced_memory()
        for code in (ASSIGNED, PICKED_UP, COMPLETED):
            for row in range(rows):
                table.set_status(row, code)
        for c in table:
            assert len(c.status_history) == 4
        del c
        kept, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert kept - base < rows  # less than a byte a row


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
    fleet = list(FleetState(8))
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
