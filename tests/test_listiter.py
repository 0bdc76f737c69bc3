"""The list/iterator walkthrough: hop accounting and pair integrity."""

from __future__ import annotations

import pytest

from bestow.runtime import (
    LinkedList,
    ListHolder,
    bestow_iterator,
    bestow_list,
    expected_hops,
    run_list_iterator,
    spawn,
)
from bestow.runtime import demo


def test_linked_list_basics():
    lst = LinkedList(range(5))
    assert lst.size == 5
    assert lst.hops == 0  # building the list is not traversal
    assert lst.get(0) == 0
    assert lst.hops == 1
    assert lst.get(4) == 4
    assert lst.hops == 6
    with pytest.raises(IndexError):
        lst.get(5)
    with pytest.raises(IndexError):
        lst.get(-1)


def test_indexed_scan_is_quadratic():
    lst = LinkedList(range(10))
    total = sum(lst.get(i) for i in range(10))  # type: ignore[misc]
    assert total == 45
    assert lst.hops == 55  # 10 * 11 / 2


def test_iterator_scan_is_linear():
    lst = LinkedList(range(10))
    it = lst.iterator()
    seen = []
    while it.has_next():
        seen.append(it.get_next())
    assert seen == list(range(10))
    assert lst.hops == 10
    with pytest.raises(StopIteration):
        it.get_next()


def test_has_next_costs_nothing():
    lst = LinkedList(range(3))
    it = lst.iterator()
    for _ in range(100):
        it.has_next()
    assert lst.hops == 0


def test_expected_hops_formulas():
    assert expected_hops("get", 4, 100) == 4 * 100 * 101 // 2
    assert expected_hops("bestowed-iterator", 4, 100) == 400
    assert expected_hops("atomic-pairs", 4, 100) == 100
    with pytest.raises(ValueError):
        expected_hops("mystery", 1, 1)


def test_holder_guards_its_list():
    holder = spawn(ListHolder, 3)
    try:
        lent = bestow_list(holder)
        assert lent.perform(lambda l: l.size).result(timeout=5) == 3
        # touching the list via checked_list off-owner trips the assertion
        inst = holder.perform(lambda a: a).result(timeout=5)
        with pytest.raises(AssertionError):
            inst.checked_list()
    finally:
        holder.stop()
        holder.join(timeout=5)


def test_bestowed_iterator_state_lives_with_the_owner():
    holder = spawn(ListHolder, 4)
    try:
        it = bestow_iterator(holder)
        assert it.owner is holder
        first = it.perform(lambda i: i.get_next()).result(timeout=5)
        second = it.perform(lambda i: i.get_next()).result(timeout=5)
        assert (first, second) == (0, 1)
        hops = holder.perform(lambda a: a.checked_list().hops).result(timeout=5)
        assert hops == 2
    finally:
        holder.stop()
        holder.join(timeout=5)


@pytest.mark.parametrize("elements", [1, 10, 50])
def test_get_mode_hops_exact(elements):
    stats = run_list_iterator(3, elements, "get")
    assert stats.hops == 3 * elements * (elements + 1) // 2
    assert stats.client_sums == [stats.expected_sum] * 3


@pytest.mark.parametrize("elements", [1, 10, 50])
def test_iterator_mode_hops_exact(elements):
    stats = run_list_iterator(3, elements, "bestowed-iterator")
    assert stats.hops == 3 * elements
    assert stats.client_sums == [stats.expected_sum] * 3


def test_atomic_pairs_never_tear():
    stats = run_list_iterator(4, 100, "atomic-pairs")
    assert stats.hops == 100
    assert stats.torn_pairs == 0
    assert stats.pairs == 50
    assert sum(stats.client_sums) == stats.expected_sum
    assert len(stats.client_sums) == 4


def test_atomic_pairs_odd_element_count():
    stats = run_list_iterator(2, 7, "atomic-pairs")
    assert stats.hops == 7
    assert stats.torn_pairs == 0
    assert stats.pairs == 3  # the last draw holds a single element
    assert sum(stats.client_sums) == 21


def test_single_client_degenerate_cases():
    stats = run_list_iterator(1, 0, "bestowed-iterator")
    assert stats.hops == 0
    assert stats.client_sums == [0]
    stats = run_list_iterator(1, 1, "atomic-pairs")
    assert stats.hops == 1
    assert stats.pairs == 0
    assert stats.client_sums == [0]


def test_unknown_mode_rejected():
    with pytest.raises(ValueError):
        run_list_iterator(1, 1, "nope")


@pytest.mark.parametrize("count", ["0", "-2"])
@pytest.mark.parametrize("flag", ["--clients", "--elements"])
def test_demo_rejects_counts_below_one(flag, count, capsys):
    # A run with no client or no element checks nothing, so it must not
    # print a verdict: bad input exits 2.
    with pytest.raises(SystemExit) as exc:
        demo.main(["list-iterator", "--mode", "get", flag, count])
    assert exc.value.code == 2
    assert f"{flag} must be at least 1" in capsys.readouterr().err
