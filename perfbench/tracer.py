"""Outside-in span tracer: times the public functions of each layer.

The program has no real-time spans of its own, so the benchmark wraps
the entry points of every layer from outside, before the program is
built.  Two things force "before":

* ``WebBase.attach_store`` stores ``store.record_page`` (a bound method)
  as the Web server's page sink, so a later patch of the class would
  never be seen by that sink;
* ``from ... import name`` copies a function into the importing module
  (``build_world`` into ``repro.core.webbase``, ``parse_html`` into
  ``repro.web.page``), so a module-level function is replaced in every
  loaded ``repro`` module that holds it, not only where it is defined.
  ``repro.web.page`` itself is shadowed by the function ``page`` that
  ``repro.web`` re-exports, so modules are reached through
  ``sys.modules``.

Each thread keeps a stack of open spans.  A span's *self* time is its
duration minus the time of the spans it opened on the same thread, so
work a span hands to a worker thread shows up as its wait (self wall
minus self CPU), and the worker's own spans carry that work.  CPU is
``time.thread_time``.  A function that returns a generator is timed
while it is iterated; one that returns an access handle (or a batch of
them) is timed until every handle is terminal.
"""

from __future__ import annotations

import functools
import inspect
import sys
import threading
import time

# (layer, module, attribute path).  A class path names the class whose own
# ``__dict__`` holds the method; subclasses that override it are listed too.
TARGETS: tuple[tuple[str, str, str], ...] = (
    ("setup.world", "repro.sites.world", "build_world"),
    ("setup.map_by_example", "repro.core.sessions", "build_all_builders"),
    ("setup.compile", "repro.navigation.compiler", "compile_map"),
    ("core.query", "repro.core.webbase", "WebBase.query"),
    ("core.query", "repro.core.webbase", "WebBase.query_stream"),
    ("navigation.maintenance", "repro.core.webbase", "WebBase.run_maintenance"),
    ("ur.plan", "repro.ur.planner", "StructuredUR.plan"),
    ("ur.answer", "repro.ur.planner", "StructuredUR.answer"),
    ("ur.answer", "repro.ur.planner", "StructuredUR.answer_stream"),
    ("relational.join_order", "repro.relational.planner", "JoinOrderPlanner.plan"),
    ("relational.algebra", "repro.relational.algebra", "evaluate"),
    ("relational.algebra", "repro.relational.algebra", "evaluate_batch"),
    ("relational.algebra", "repro.relational.relation", "Relation.select"),
    ("relational.algebra", "repro.relational.relation", "Relation.project"),
    ("relational.algebra", "repro.relational.relation", "Relation.rename"),
    ("relational.algebra", "repro.relational.relation", "Relation.derive"),
    ("relational.algebra", "repro.relational.relation", "Relation.union"),
    ("relational.algebra", "repro.relational.relation", "Relation.intersect"),
    ("relational.algebra", "repro.relational.relation", "Relation.difference"),
    ("relational.algebra", "repro.relational.relation", "Relation.natural_join"),
    ("logical.fetch", "repro.logical.schema", "LogicalSchema.fetch"),
    ("logical.fetch", "repro.logical.schema", "LogicalSchema.fetch_batch"),
    ("vps.cache", "repro.vps.cache", "ResultCache.fetch"),
    ("vps.cache", "repro.vps.cache", "ResultCache.fetch_batch"),
    ("core.fetch", "repro.core.execution", "ExecutionContext.run_fetch"),
    ("core.fetch", "repro.core.execution", "ExecutionContext.run_fetch_batch"),
    ("navigation.executor", "repro.navigation.executor", "NavigationExecutor.fetch"),
    ("flogic.solve", "repro.flogic.engine", "Engine.solve"),
    ("navigation.extract", "repro.navigation.extract", "TableWrapper.extract"),
    ("navigation.extract", "repro.navigation.extract", "LabeledWrapper.extract"),
    ("web.render", "repro.web.server", "WebServer.fetch"),
    ("web.parse", "repro.web.page", "parse_html"),
    ("mqo.subsume", "repro.mqo.optimizer", "MultiQueryOptimizer.subsume"),
    ("mqo.subsume", "repro.mqo.optimizer", "MultiQueryOptimizer.record_answer"),
    ("store", "repro.store.tiered", "TieredStore.record_page"),
    ("store", "repro.store.tiered", "TieredStore.record_intent"),
    ("store", "repro.store.tiered", "TieredStore.record_revision"),
    ("store", "repro.store.tiered", "TieredStore.record_quarantine"),
    ("store", "repro.store.tiered", "TieredStore.record_standing"),
    ("store", "repro.store.tiered", "TieredStore.persist_result"),
    ("store", "repro.store.tiered", "TieredStore.persist_answer"),
    ("store", "repro.store.tiered", "TieredStore.persist_snapshot"),
    ("store", "repro.store.tiered", "TieredStore.save_navmaps"),
)

#: Layers whose returned rows are the rows the relational layer examines.
ROW_SOURCES = frozenset({"vps.cache"})

# Per-layer accumulator slots.
CALLS, SELF_WALL, SELF_CPU, TOTAL_WALL, TOTAL_CPU, ROWS = range(6)


def _count_rows(value) -> int:
    rows = getattr(value, "rows", None)
    if rows is not None:
        return len(rows)
    if isinstance(value, list):
        return sum(len(getattr(item, "rows", ())) for item in value)
    return 0


def _settle(value) -> None:
    """Block until an access handle, or every handle of a batch, is terminal."""
    handles = getattr(value, "handles", None)
    if handles is not None:
        for handle in handles:
            handle.wait()
    elif hasattr(value, "wait") and hasattr(value, "cancel_requested"):
        value.wait()


class Tracer:
    """Per-thread span stacks feeding per-layer self/total time counters."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: list[dict[str, list[float]]] = []
        # Off: installed wrappers call straight through (see span_cost).
        self.active = True

    # -- spans -------------------------------------------------------------

    def _state(self):
        local = self._local
        try:
            return local.stack, local.stats
        except AttributeError:
            local.stack = []
            local.stats = {}
            with self._lock:
                self._threads.append(local.stats)
            return local.stack, local.stats

    def enter(self, layer: str) -> None:
        stack, _ = self._state()
        stack.append([layer, time.perf_counter(), time.thread_time(), 0.0, 0.0])

    def leave(self, rows: int = 0) -> None:
        wall_end = time.perf_counter()
        cpu_end = time.thread_time()
        stack, stats = self._state()
        layer, wall0, cpu0, child_wall, child_cpu = stack.pop()
        wall = wall_end - wall0
        cpu = cpu_end - cpu0
        acc = stats.get(layer)
        if acc is None:
            acc = stats[layer] = [0, 0.0, 0.0, 0.0, 0.0, 0]
        acc[CALLS] += 1
        acc[SELF_WALL] += wall - child_wall
        acc[SELF_CPU] += cpu - child_cpu
        acc[ROWS] += rows
        if not any(frame[0] == layer for frame in stack):
            # Inclusive time counts only the outermost span of a layer, so
            # a recursive layer is not counted twice.
            acc[TOTAL_WALL] += wall
            acc[TOTAL_CPU] += cpu
        if stack:
            parent = stack[-1]
            parent[3] += wall
            parent[4] += cpu

    # -- aggregates --------------------------------------------------------

    def snapshot(self) -> dict[str, list[float]]:
        """Per-layer sums over every thread: calls, self wall/cpu seconds,
        total wall/cpu seconds, rows."""
        merged: dict[str, list[float]] = {}
        with self._lock:
            threads = list(self._threads)
        for stats in threads:
            for layer, acc in list(stats.items()):
                into = merged.setdefault(layer, [0, 0.0, 0.0, 0.0, 0.0, 0])
                for slot, value in enumerate(acc):
                    into[slot] += value
        return merged

    def reset(self) -> None:
        """Zero every counter (call while no traced work is running)."""
        with self._lock:
            for stats in self._threads:
                stats.clear()

    # -- installation ------------------------------------------------------

    def wrap(self, layer: str, fn):
        tracer = self
        count = layer in ROW_SOURCES
        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def traced_gen(*args, **kwargs):
                inner = fn(*args, **kwargs)
                if not tracer.active:
                    return (yield from inner)
                try:
                    while True:
                        tracer.enter(layer)
                        try:
                            item = next(inner)
                        except StopIteration as stop:
                            tracer.leave()
                            return stop.value
                        except BaseException:
                            tracer.leave()
                            raise
                        tracer.leave()
                        yield item
                finally:
                    inner.close()

            return traced_gen

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            tracer.enter(layer)
            rows = 0
            try:
                value = fn(*args, **kwargs)
                _settle(value)
                if count:
                    rows = _count_rows(value)
                return value
            finally:
                tracer.leave(rows)

        return traced

    def install(self) -> None:
        """Wrap every target (call once per process)."""
        for layer, module_name, path in TARGETS:
            module = sys.modules[module_name]
            owner_name, _, attr = path.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                original = owner.__dict__[attr]
                setattr(owner, attr, self.wrap(layer, original))
                continue
            original = getattr(module, attr)
            wrapped = self.wrap(layer, original)
            for name, loaded in list(sys.modules.items()):
                if loaded is None or not name.startswith("repro"):
                    continue
                namespace = vars(loaded)
                for key, value in list(namespace.items()):
                    if value is original:
                        namespace[key] = wrapped

    def span_cost(self, run, repeats: int = 3) -> float:
        """CPU seconds one span adds, measured on the program itself: ``run``
        is timed with spans off and on, alternately, and the best of each
        is compared.  Call after the traced phase's snapshot, because the
        spans recorded here are counted too."""
        off = on = float("inf")
        spans = 0
        try:
            for _ in range(repeats):
                self.active = False
                start = time.process_time()
                run()
                off = min(off, time.process_time() - start)
                self.active = True
                calls = self._calls()
                start = time.process_time()
                run()
                on = min(on, time.process_time() - start)
                spans = self._calls() - calls
        finally:
            self.active = True
        return max(on - off, 0.0) / spans if spans else 0.0

    def _calls(self) -> int:
        return sum(int(acc[CALLS]) for acc in self.snapshot().values())


def import_program() -> None:
    """Import every module of the program, so that no import happens
    while a timer runs and every module in ``TARGETS`` is loaded before
    :meth:`Tracer.install`."""
    import importlib
    import pkgutil

    import repro

    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if not info.name.endswith("__main__"):
            importlib.import_module(info.name)
