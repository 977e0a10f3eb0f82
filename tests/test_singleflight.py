"""The single-flight primitive every coalescing layer shares.

``repro.singleflight`` is what the prefix page cache, the VPS result
cache, the execution context and the MQO subplan registry all build on,
so its guarantees are pinned here directly, without any of them: one
leader per key, a failed leader wakes every waiter and one of them leads
next, a waiter whose ``poll`` raises detaches without disturbing the
flight, and the async wait runs on the fabric's virtual-time loop.
"""

from __future__ import annotations

import asyncio
import random
import sys
import threading
import time

import pytest

from repro.core.simclock import SimLoop
from repro.singleflight import Flight, FlightTable, LeaderExited

N = 8


def _run(table: FlightTable, lock, cache: dict, key, body, claims: list):
    """The owner-side loop every user of the table writes: look in the
    owner's cache and claim in one hold of the owner's lock, then lead
    inside the scope, or wait and claim again on failure.  Each claim is
    logged to ``claims``."""
    while True:
        with lock:
            if key in cache:
                return cache[key]
            flight, leader = table.claim(key)
            claims.append(leader)
        if leader:
            with table.lead(flight):
                value = body()
                table.resolve(flight, value, lambda: cache.__setitem__(key, value))
            return value
        if flight.wait():
            return flight.result


def _start(threads):
    for thread in threads:
        thread.start()


def _join(threads):
    for thread in threads:
        thread.join(10.0)
        assert not thread.is_alive()


def _until(condition):
    deadline = time.monotonic() + 10.0
    while not condition():
        assert time.monotonic() < deadline, "timed out"
        time.sleep(0.001)


class TestLeaderRunsOnce:
    def test_n_threads_on_one_key_run_the_body_once(self):
        lock = threading.Lock()
        table = FlightTable(lock)
        gate = threading.Event()
        calls = []

        def body():
            calls.append(1)
            gate.wait(10.0)
            return "page"

        results = []
        cache = {}
        claims = []

        def caller():
            results.append(_run(table, lock, cache, "k", body, claims))

        threads = [threading.Thread(target=caller) for _ in range(N)]
        _start(threads)
        _until(lambda: len(claims) == N)  # every caller is on the flight
        gate.set()
        _join(threads)
        assert calls == [1]
        assert results == ["page"] * N
        assert len(table) == 0  # the flight retired with its result

    def test_claim_reports_the_same_flight_to_later_callers(self):
        table = FlightTable(threading.Lock())
        first, leader = table.claim("k")
        second, follower = table.claim("k")
        assert leader and not follower
        assert second is first and "k" in table

    def test_resolve_stores_before_the_flight_retires(self):
        """``store`` runs under the owner's lock while the flight is still
        in the table: a caller never finds neither flight nor result."""
        lock = threading.Lock()
        table = FlightTable(lock)
        seen = []
        flight, _ = table.claim("k")
        kept = table.resolve(
            flight, 7, lambda: seen.append(("k" in table, lock.locked())) or "kept"
        )
        assert seen == [(True, True)]
        assert kept == "kept"
        assert flight.done and flight.result == 7 and "k" not in table


class TestStress:
    def test_many_threads_many_keys_each_body_runs_once(self):
        """More threads than cores over shared keys, with a tiny switch
        interval so claims and resolves interleave as much as they can: a
        lost claim or a gap between flight and result would run some
        key's body twice."""
        lock = threading.Lock()
        table = FlightTable(lock)
        cache: dict = {}
        runs: dict = {}
        runs_lock = threading.Lock()
        keys = list(range(40))

        def body_for(key):
            def body():
                with runs_lock:
                    runs[key] = runs.get(key, 0) + 1
                time.sleep(0)
                return key * 2
            return body

        seen = []

        def worker(seed):
            order = keys[:]
            random.Random(seed).shuffle(order)
            for key in order:
                seen.append(_run(table, lock, cache, key, body_for(key), []) == key * 2)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(i,)) for i in range(16)]
            _start(threads)
            _join(threads)
        finally:
            sys.setswitchinterval(interval)
        assert runs == {key: 1 for key in keys}
        assert len(seen) == 16 * len(keys) and all(seen)
        assert len(table) == 0


class TestLeaderFailure:
    def test_a_raising_leader_wakes_every_waiter_and_one_leads_next(self):
        lock = threading.Lock()
        table = FlightTable(lock)
        gate = threading.Event()
        attempts = []
        attempts_lock = threading.Lock()

        def body():
            with attempts_lock:
                attempts.append(threading.get_ident())
                first = len(attempts) == 1
            if first:
                gate.wait(10.0)
                raise RuntimeError("leader broke")
            return "retried"

        results = {}
        errors = {}
        cache = {}
        claims = []

        def caller(index):
            try:
                results[index] = _run(table, lock, cache, "k", body, claims)
            except RuntimeError as exc:
                errors[index] = exc

        threads = [threading.Thread(target=caller, args=(i,)) for i in range(N)]
        _start(threads)
        _until(lambda: len(claims) == N)  # every caller is on the flight
        gate.set()
        _join(threads)
        # The failure reached only its own leader; exactly one waiter
        # promoted itself and the rest shared the retry's result.
        assert len(errors) == 1
        assert list(results.values()) == ["retried"] * (N - 1)
        assert len(attempts) == 2
        assert claims.count(True) == 2  # the first leader, one promotion
        assert len(table) == 0

    def test_a_leader_that_exits_without_a_result_fails_its_flight(self):
        table = FlightTable(threading.Lock())
        flight, _ = table.claim("k")
        with table.lead(flight):
            pass
        assert flight.done and isinstance(flight.error, LeaderExited)
        assert flight.wait() is False
        assert "k" not in table

    def test_the_scope_fails_every_open_flight_with_the_raised_error(self):
        table = FlightTable(threading.Lock())
        a, _ = table.claim("a")
        b, _ = table.claim("b")
        boom = RuntimeError("batch failed")
        with pytest.raises(RuntimeError):
            with table.lead(a, b):
                table.resolve(a, 1)
                raise boom
        assert a.error is None and a.result == 1
        assert b.error is boom
        assert len(table) == 0


class TestWaiterDetach:
    def test_a_waiter_whose_poll_raises_leaves_the_flight_intact(self):
        lock = threading.Lock()
        table = FlightTable(lock)
        flight, leader = table.claim("k")
        assert leader
        polled = threading.Event()

        class Cancelled(Exception):
            pass

        def cancelled_poll():
            polled.set()
            raise Cancelled("client went away")

        outcome = {}

        def detacher():
            try:
                flight.wait(cancelled_poll)
            except Cancelled:
                outcome["detached"] = True

        def patient():
            outcome["patient"] = flight.wait(lambda: None)

        threads = [threading.Thread(target=detacher), threading.Thread(target=patient)]
        _start(threads)
        assert polled.wait(10.0)
        threads[0].join(10.0)
        assert outcome == {"detached": True}
        # The flight is untouched: still open, still in the table.
        assert not flight.done and "k" in table
        table.resolve(flight, "page")
        _join(threads)
        assert outcome == {"detached": True, "patient": True}
        assert flight.result == "page"


class TestAsyncWait:
    def test_the_async_wait_resolves_on_a_simloop_at_zero_real_sleep(self):
        table = FlightTable(threading.Lock())
        flight, _ = table.claim("k")
        polls = []

        async def leader():
            await asyncio.sleep(30.0)  # thirty virtual seconds of work
            table.resolve(flight, "page")

        async def waiter():
            ok = await flight.wait_async(0.02, lambda: polls.append(1))
            return ok, flight.result, asyncio.get_running_loop().time()

        async def both():
            task = asyncio.get_running_loop().create_task(leader())
            outcome = await waiter()
            await task
            return outcome

        loop = SimLoop()
        try:
            real_start = time.monotonic()
            ok, result, virtual_now = loop.run_until_complete(both())
            real = time.monotonic() - real_start
        finally:
            loop.close()
        assert ok is True and result == "page"
        assert virtual_now >= 30.0
        # ~1,500 virtual polls; none of them sleeps for real.
        assert len(polls) >= 1000
        assert real < 5.0

    def test_an_async_waiter_sees_a_failed_flight(self):
        table = FlightTable(threading.Lock())
        flight, _ = table.claim("k")

        async def scenario():
            async def leader():
                await asyncio.sleep(1.0)
                table.fail(flight, RuntimeError("broke"))

            task = asyncio.get_running_loop().create_task(leader())
            ok = await flight.wait_async(0.05)
            await task
            return ok

        loop = SimLoop()
        try:
            assert loop.run_until_complete(scenario()) is False
        finally:
            loop.close()
        assert "k" not in table


def test_flight_starts_open():
    flight = Flight("k")
    assert not flight.done and flight.result is None and flight.error is None
