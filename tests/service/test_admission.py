"""Admission control: bounds, backpressure, per-client fairness."""

from __future__ import annotations

import threading
import time

import pytest

from repro.service.admission import AdmissionController, BackpressureError


class TestBounds:
    def test_fast_path_admits_up_to_capacity(self):
        controller = AdmissionController(max_concurrent=2, max_queued=0)
        controller.acquire("a")
        controller.acquire("b")
        assert controller.in_flight == 2
        with pytest.raises(BackpressureError):
            controller.acquire("c")
        controller.release()
        controller.acquire("c")
        assert controller.in_flight == 2

    def test_queue_full_rejection_and_stats(self):
        controller = AdmissionController(max_concurrent=1, max_queued=1)
        controller.acquire("a")

        entered = threading.Event()
        released = threading.Event()

        def waiter():
            with controller.admit("b"):
                entered.set()
                released.wait(timeout=5)

        thread = threading.Thread(target=waiter)
        thread.start()
        # Wait until the waiter occupies the single queue slot.
        while controller.queued < 1 and not entered.is_set():
            time.sleep(0.001)
        with pytest.raises(BackpressureError):
            controller.acquire("c")
        assert controller.stats.shed == 1
        assert controller.stats.timed_out == 0
        assert controller.stats.per_client_rejected["c"] == 1
        controller.release()  # waiter takes the slot
        assert entered.wait(timeout=5)
        released.set()
        thread.join(timeout=5)
        assert controller.stats.admitted == 2
        assert controller.stats.max_queue_depth == 1

    def test_timeout_sheds_the_waiter(self):
        controller = AdmissionController(max_concurrent=1, max_queued=4)
        controller.acquire("a")
        with pytest.raises(BackpressureError, match="timed out") as excinfo:
            controller.acquire("b", timeout=0.02)
        assert excinfo.value.kind == "timeout"
        assert excinfo.value.waited_s >= 0.02
        assert controller.stats.timed_out == 1
        assert controller.stats.shed == 0
        controller.release()
        # The withdrawn ticket must not block later admissions.
        controller.acquire("b")
        assert controller.in_flight == 1

    def test_shed_and_timed_out_are_counted_apart(self):
        """A full queue is a shed, an expired deadline a timeout — never both."""
        controller = AdmissionController(max_concurrent=1, max_queued=0)
        controller.acquire("holder")
        with pytest.raises(BackpressureError) as excinfo:
            controller.acquire("full")  # queue full -> shed
        assert excinfo.value.kind == "shed"
        bigger = AdmissionController(max_concurrent=1, max_queued=4)
        bigger.acquire("holder")
        with pytest.raises(BackpressureError):
            bigger.acquire("slow", timeout=0.01)  # deadline -> timed out
        assert controller.stats.shed == 1 and controller.stats.timed_out == 0
        assert bigger.stats.shed == 0 and bigger.stats.timed_out == 1
        assert bigger.stats.per_client_rejected == {"slow": 1}
        snapshot = bigger.stats_snapshot()
        assert (snapshot.shed, snapshot.timed_out) == (0, 1)

    def test_acquire_reports_queue_wait_on_the_shared_clock(self):
        controller = AdmissionController(max_concurrent=1, max_queued=4)
        assert controller.acquire("fast") == 0.0  # uncontended fast path
        waited = []
        done = threading.Event()

        def waiter():
            waited.append(controller.acquire("queued"))
            done.set()

        thread = threading.Thread(target=waiter)
        thread.start()
        while controller.queued < 1:
            time.sleep(0.001)
        time.sleep(0.02)
        controller.release()
        assert done.wait(timeout=5)
        thread.join(timeout=5)
        assert waited[0] >= 0.015  # the waiter really waited
        controller.release()

    def test_idle_clients_are_pruned_from_scheduling_state(self):
        """Per-request client ids must not accumulate in the rotation."""
        controller = AdmissionController(max_concurrent=2, max_queued=4)
        for index in range(50):
            with controller.admit(f"req-{index}"):
                pass
        assert len(controller._queues) == 0
        assert len(controller._rotation) == 0
        # Fast-path admissions never register; force a queued one and drain.
        controller.acquire("a")
        controller.acquire("b")
        done = threading.Event()

        def waiter():
            with controller.admit("queued-client"):
                done.set()

        thread = threading.Thread(target=waiter)
        thread.start()
        while controller.queued < 1:
            time.sleep(0.001)
        controller.release()
        assert done.wait(timeout=5)
        thread.join(timeout=5)
        assert len(controller._queues) == 0
        assert len(controller._rotation) == 0
        controller.release()

    def test_context_manager_releases_on_error(self):
        controller = AdmissionController(max_concurrent=1, max_queued=0)
        with pytest.raises(RuntimeError, match="boom"):
            with controller.admit("a"):
                raise RuntimeError("boom")
        assert controller.in_flight == 0
        controller.acquire("a")  # slot is free again


class TestFairness:
    def test_round_robin_across_clients(self):
        """With one slot and clients A (many waiters) and B (one), B must be
        granted ahead of A's backlog — round-robin, not FIFO."""
        controller = AdmissionController(max_concurrent=1, max_queued=10)
        controller.acquire("holder")

        order = []
        order_lock = threading.Lock()
        threads = []

        def run(client):
            with controller.admit(client):
                with order_lock:
                    order.append(client)

        # Three A-waiters enqueue first, then one B-waiter.
        for index in range(3):
            thread = threading.Thread(target=run, args=("a",))
            thread.start()
            threads.append(thread)
            while controller.queued < index + 1:
                time.sleep(0.001)
        thread_b = threading.Thread(target=run, args=("b",))
        thread_b.start()
        threads.append(thread_b)
        while controller.queued < 4:
            time.sleep(0.001)

        controller.release()  # free the held slot; waiters drain one by one
        for thread in threads:
            thread.join(timeout=5)
        assert len(order) == 4
        # B is granted second (after one A), not last behind A's whole backlog.
        assert order[1] == "b" or order[0] == "b"
        assert controller.stats.admitted == 5
        assert controller.in_flight == 0


class TestWakeupBound:
    def test_draining_n_waiters_costs_n_wakeups(self):
        """Thundering-herd regression: each grant wakes exactly one waiter.

        The original implementation broadcast ``notify_all`` on a shared
        condition for every release, waking every queued waiter per grant —
        O(n^2) wakeups to drain n waiters.  With per-ticket events, draining
        n waiters must cost exactly n wakeups."""
        n = 8
        controller = AdmissionController(max_concurrent=1, max_queued=n)
        controller.acquire("holder")

        threads = []

        def run(client):
            with controller.admit(client):
                time.sleep(0.002)

        for index in range(n):
            thread = threading.Thread(target=run, args=(f"c{index}",))
            thread.start()
            threads.append(thread)
            while controller.queued < index + 1:
                time.sleep(0.001)

        assert controller.stats.wakeups == 0  # nothing granted yet
        controller.release()  # waiters drain one release at a time
        for thread in threads:
            thread.join(timeout=5)
        assert controller.in_flight == 0
        assert controller.stats.admitted == n + 1
        # One wakeup per queued grant — not O(n) per release.
        assert controller.stats.wakeups == n
