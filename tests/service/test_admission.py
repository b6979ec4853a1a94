"""Admission control: bounds, backpressure, FIFO grants.

Every thread a test starts is a daemon and every wait is bounded, so a
failing test fails instead of leaving a thread blocked in ``acquire`` that
keeps the run from exiting.
"""

from __future__ import annotations

import sys
import threading
import time

import pytest

from repro.service.admission import AdmissionController, BackpressureError


@pytest.fixture
def gate(admission_bounds):
    """``gate(max_concurrent, max_queued)``: a controller under those bounds."""

    def make(max_concurrent, max_queued):
        admission_bounds(max_concurrent, max_queued)
        return AdmissionController()

    return make


def _start(target, *args):
    thread = threading.Thread(target=target, args=args, daemon=True)
    thread.start()
    return thread


def _wait_until(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "condition not reached in time"
        time.sleep(0.001)


def _queue_waiters(controller, count, run):
    """Start ``count`` threads running ``run(index)``, one at a time, each
    queued before the next starts, so arrival order is ``0 .. count-1``."""
    threads = []
    for index in range(count):
        threads.append(_start(run, index))
        _wait_until(lambda: controller.queued == index + 1)
    return threads


class TestBounds:
    def test_fast_path_admits_up_to_capacity(self, gate):
        controller = gate(2, 0)
        controller.acquire()
        controller.acquire()
        assert controller.in_flight == 2
        with pytest.raises(BackpressureError):
            controller.acquire()
        controller.release()
        controller.acquire()
        assert controller.in_flight == 2

    def test_queue_full_is_shed(self, gate):
        controller = gate(1, 1)
        controller.acquire()

        entered = threading.Event()
        released = threading.Event()

        def waiter(_):
            with controller.admit(timeout=5):
                entered.set()
                released.wait(timeout=5)

        (thread,) = _queue_waiters(controller, 1, waiter)
        with pytest.raises(BackpressureError) as excinfo:
            controller.acquire(timeout=5)
        assert excinfo.value.kind == "shed"
        assert excinfo.value.waited_s == 0.0
        controller.release()  # the waiter takes the slot
        assert entered.wait(timeout=5)
        released.set()
        thread.join(timeout=5)
        assert not thread.is_alive()
        assert (controller.in_flight, controller.queued) == (0, 0)

    def test_timeout_rejects_the_waiter(self, gate):
        controller = gate(1, 4)
        controller.acquire()
        with pytest.raises(BackpressureError, match="timed out") as excinfo:
            controller.acquire(timeout=0.02)
        assert excinfo.value.kind == "timeout"
        assert excinfo.value.waited_s >= 0.02
        assert controller.queued == 0
        controller.release()
        # The withdrawn waiter must not block later admissions.
        assert controller.acquire(timeout=5) == 0.0
        assert controller.in_flight == 1

    def test_acquire_reports_queue_wait_on_the_shared_clock(self, gate):
        controller = gate(1, 4)
        assert controller.acquire() == 0.0  # uncontended fast path
        waited = []
        done = threading.Event()

        def waiter(_):
            waited.append(controller.acquire(timeout=5))
            done.set()

        (thread,) = _queue_waiters(controller, 1, waiter)
        time.sleep(0.02)
        controller.release()
        assert done.wait(timeout=5)
        thread.join(timeout=5)
        assert waited[0] >= 0.015  # the waiter really waited
        controller.release()

    def test_context_manager_releases_on_error(self, gate):
        controller = gate(1, 0)
        with pytest.raises(RuntimeError, match="boom"):
            with controller.admit():
                raise RuntimeError("boom")
        assert controller.in_flight == 0
        controller.acquire()  # slot is free again


class TestFifo:
    def test_single_ticket_clients_are_granted_in_arrival_order(self, gate):
        controller = gate(1, 10)
        controller.acquire()
        order = []

        def run(index):
            with controller.admit(timeout=5):
                order.append(index)

        threads = _queue_waiters(controller, 4, run)
        controller.release()  # waiters drain one by one
        for thread in threads:
            thread.join(timeout=5)
            assert not thread.is_alive()
        assert order == [0, 1, 2, 3]
        assert (controller.in_flight, controller.queued) == (0, 0)

    def test_a_released_slot_goes_to_the_waiter_not_a_newcomer(self, gate):
        controller = gate(1, 10)
        controller.acquire()
        granted = threading.Event()
        finish = threading.Event()

        def waiter(_):
            with controller.admit(timeout=5):
                granted.set()
                finish.wait(timeout=5)

        (thread,) = _queue_waiters(controller, 1, waiter)
        outcome = []

        def newcomer():
            try:
                outcome.append(controller.acquire(timeout=0.01))
            except BackpressureError as error:
                outcome.append(error.kind)

        controller.release()  # hands the slot to the queued waiter
        late = _start(newcomer)
        late.join(timeout=5)
        assert outcome == ["timeout"]
        assert granted.wait(timeout=5)
        finish.set()
        thread.join(timeout=5)
        assert not thread.is_alive()
        assert (controller.in_flight, controller.queued) == (0, 0)

    def test_one_release_lets_exactly_one_of_n_waiters_proceed(self, gate):
        """Each grant wakes one waiter: the others stay queued."""
        n = 8
        controller = gate(1, n)
        controller.acquire()
        proceeded = []
        finish = threading.Event()

        def run(index):
            with controller.admit(timeout=5):
                proceeded.append(index)
                finish.wait(timeout=5)

        threads = _queue_waiters(controller, n, run)
        controller.release()
        _wait_until(lambda: len(proceeded) == 1)
        time.sleep(0.02)  # a second wakeup would show up here
        assert proceeded == [0]
        assert controller.queued == n - 1
        assert controller.in_flight == 1
        finish.set()
        for thread in threads:
            thread.join(timeout=5)
            assert not thread.is_alive()
        assert proceeded == list(range(n))
        assert (controller.in_flight, controller.queued) == (0, 0)


class TestStress:
    def test_no_slot_leaks_under_contention(self, gate):
        """More threads than cores, a short switch interval and deadlines
        that expire while grants are handed over: at most ``MAX_CONCURRENT``
        callers ever hold a slot, and every slot comes back."""
        controller = gate(2, 16)
        guard = threading.Lock()
        holding = [0]
        peak = [0]
        outcomes = []

        def client(index):
            for step in range(40):
                try:
                    with controller.admit(timeout=0.0005 if (index + step) % 3 else 1):
                        with guard:
                            holding[0] += 1
                            peak[0] = max(peak[0], holding[0])
                        time.sleep(0.0002)
                        with guard:
                            holding[0] -= 1
                    outcomes.append("ok")
                except BackpressureError as error:
                    outcomes.append(error.kind)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [_start(client, index) for index in range(8)]
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert len(outcomes) == 8 * 40
        assert set(outcomes) <= {"ok", "timeout"}
        assert peak[0] <= 2
        assert (controller.in_flight, controller.queued) == (0, 0)
