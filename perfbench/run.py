#!/usr/bin/env python3
"""The repository benchmark: three closed-loop workloads over the webbase.

Run from the repository root::

    python3 perfbench/run.py --workload cold_nav --seed 1 --seconds 15 --trace 0

Workloads (see perfbench/README.md for why each exists):

* ``cold_nav``      in-process ``WebBase`` with the default config (no
  result cache); one caller cycles through a seeded pool of distinct queries;
* ``warm_repeat``   in-process ``WebBase`` with ``CachePolicy.lru()``; the
  same pool fills the cache during set-up and is then repeated;
* ``service_churn`` the service in its own process (LRU cache, tiered
  store, multi-query optimizer); one client connection reads (see
  ``CLIENTS``), and after every ``ROUND`` reads a write (mutate one site,
  then sweep it) runs while the connection is idle.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` installs the
outside-in tracer (perfbench/tracer.py) and prints the per-layer metrics.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
splits the operations into reads and writes.  Every answer read in the
timed phase is checked against a fresh cache-off webbase that replays
the same writes; a wrong answer counts as failed and fails the run.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import select
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import queries  # noqa: E402  (sits beside this file)
import tracer as tracer_mod  # noqa: E402

tracer_mod.import_program()

from repro.core.execution import WebBaseConfig  # noqa: E402
from repro.core.webbase import WebBase  # noqa: E402
from repro.service.client import ServiceClient, ServiceError  # noqa: E402
from repro.sites.world import mutate_site_listings  # noqa: E402
from repro.vps.cache import CachePolicy  # noqa: E402

#: Set-ups per run whose median is ``setup_s`` (one is ~0.1 s of
#: construction plus a ~1.5 s warm-up pass, or ~0.5 s to spawn the
#: service; too short to repeat within a tenth on its own).
SETUP_REPS = 5
#: Whole timed cycles the planner's live statistics may take to settle
#: before the per-cycle counts must repeat exactly (two suffice on every
#: seed tried; see README).
SETTLE_CYCLES = 2
#: Pool queries replayed with spans off and on to measure a span's cost.
SPAN_COST_QUERIES = 8
#: Writes an in-process workload times beside its reads: two passes over
#: the mutable sites, three writes to a site at a time, so each site's
#: median is of six ~2 ms writes.
WRITE_PROBES = 2 * queries.WRITES_PER_SITE * len(queries.WRITE_HOSTS)
#: service_churn: reads between two writes, and the drill-down reads
#: before each pool query, which narrow a query read just before
#: (containment reuse).  Three of every four reads drill down and about
#: 70% of reads are served by containment, which keeps the p50 inside that
#: group instead of on the step between it and the executed reads.  With
#: one connection and the delayed-ACK floor a run makes ~28 writes, so
#: every mutable site gets its three.
ROUND = 12
REFINES = 3
#: service_churn connections.  One, because with two the multi-query
#: optimizer serves stale gold answers in some runs (a shared-subplan
#: follower persists its answer without the leader's hosts; see README,
#: "Findings"), and a workload must not fail.  Setting 2 reproduces it.
CLIENTS = 1
#: Scratch space inside the checkout (stores of the service child).
WORK = ROOT / ".perfbench_work"


# -- helpers ---------------------------------------------------------------


def percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def peak_rss_self_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def web_pages(webbase: WebBase) -> int:
    return sum(stats.requests for stats in webbase.world.server.stats.values())


def counter(snapshot: dict, name: str) -> float:
    return float(snapshot["counters"].get(name, 0))


def histogram_sum_count(snapshot: dict, name: str) -> tuple[float, float]:
    hist = snapshot["histograms"].get(name) or {}
    return float(hist.get("sum", 0.0)), float(hist.get("count", 0))


def counts_of(snapshot: dict, pages: float) -> dict[str, float]:
    """The counts that must repeat exactly for a single caller."""
    return {
        "pages": pages,
        "live_fetches": counter(snapshot, "engine.fetches"),
        "cache_hits": counter(snapshot, "cache.hits"),
        "cache_requests": counter(snapshot, "cache.requests"),
    }


def delta(after: dict[str, float], before: dict[str, float]) -> dict[str, float]:
    return {key: after[key] - before[key] for key in after}


def hit_ratio(counts: dict[str, float]) -> float:
    return counts["cache_hits"] / counts["cache_requests"] if counts["cache_requests"] else 0.0


def spread(values: list[float]) -> float:
    """(max - min) / mean; 0 for fewer than two values or a zero mean."""
    if len(values) < 2 or not statistics.fmean(values):
        return 0.0
    return (max(values) - min(values)) / statistics.fmean(values)


def dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def end_to_end(setups, latencies, throughput, cpu_ms, rss_mb, write_seconds):
    return {
        "setup_s": (statistics.median(setups), "s"),
        "latency_p50_ms": (percentile(latencies, 50) * 1e3, "ms"),
        "latency_p95_ms": (percentile(latencies, 95) * 1e3, "ms"),
        "throughput_qps": (throughput, "1/s"),
        "cpu_ms_per_query": (cpu_ms, "ms"),
        "peak_rss_mb": (rss_mb, "MB"),
        "write_latency_p50_ms": (write_seconds * 1e3, "ms"),
    }


def write_p50(writes: list[tuple[str, float]]) -> float:
    """The mean over sites of each site's median write.  Sites differ in
    how much a maintenance sweep re-crawls (about 1.7 ms against 2.8 ms
    in-process), so a median over all writes, or over the sites, would sit
    on the step between the cheap and the dear sites and jump across it;
    the per-site median of three or more drops a collector pause."""
    by_host: dict[str, list[float]] = {}
    for host, seconds in writes:
        by_host.setdefault(host, []).append(seconds)
    return statistics.fmean(statistics.median(v) for v in by_host.values())


def per_layer(
    spans,
    setup_spans,
    before: dict,
    after: dict,
    *,
    constructions: int,
    reads: int,
    answer_rows: int,
    cpu_seconds: float,
    counts: dict[str, float],
    count_reads: int,
    unit_counts: list[dict[str, float]],
    writes: int,
    span_cost_s: float,
    refetches: float = 0.0,
    store_bytes: int = 0,
    rtt_ms: float | None = None,
):
    """Per-layer metrics from one traced timed phase (per read unless the
    name says otherwise).  ``before``/``after`` are the program's metrics
    snapshots around the phase.  ``counts`` (pages, live fetches, cache
    hits and requests) cover ``count_reads`` reads: the steady cycle for a
    single caller, so they repeat exactly from run to run.  ``unit_counts``
    are the same counts per cycle or round, for their spread."""

    def acc(layer, slot):
        return float(spans.get(layer, [0, 0.0, 0.0, 0.0, 0.0, 0])[slot])

    def cpu_ms(layer):
        return acc(layer, tracer_mod.SELF_CPU) * 1e3 / reads

    def setup_seconds(layer):
        total = setup_spans.get(layer, [0, 0.0, 0.0, 0.0, 0.0, 0])
        return float(total[tracer_mod.TOTAL_WALL]) / constructions

    def moved(name):
        return counter(after, name) - counter(before, name)

    prefix_hits = moved("nav.prefix_hits")
    prefix_all = prefix_hits + moved("nav.prefix_misses")
    traced = {layer: acc_ for layer, acc_ in spans.items() if not layer.startswith("setup.")}
    span_calls = sum(float(acc_[tracer_mod.CALLS]) for acc_ in traced.values())
    self_cpu_total = sum(float(acc_[tracer_mod.SELF_CPU]) for acc_ in traced.values())
    server_ms = (
        acc("core.query", tracer_mod.TOTAL_WALL) + acc("mqo.subsume", tracer_mod.TOTAL_WALL)
    ) * 1e3 / reads
    queue_sum, queue_count = (
        a - b
        for a, b in zip(
            histogram_sum_count(after, "service.queue_wait_seconds"),
            histogram_sum_count(before, "service.queue_wait_seconds"),
        )
    )
    metrics = {
        "setup.world_s": (setup_seconds("setup.world"), "s"),
        "setup.map_by_example_s": (setup_seconds("setup.map_by_example"), "s"),
        "setup.compile_s": (setup_seconds("setup.compile"), "s"),
        "ur.plan_cpu_ms": (cpu_ms("ur.plan"), "ms"),
        "relational.join_order_cpu_ms": (cpu_ms("relational.join_order"), "ms"),
        "relational.algebra_cpu_ms": (cpu_ms("relational.algebra"), "ms"),
        "relational.rows_examined_per_row": (
            acc("vps.cache", tracer_mod.ROWS) / answer_rows if answer_rows else 0.0,
            "ratio",
        ),
        "ur.answer_cpu_ms": (cpu_ms("ur.answer"), "ms"),
        "logical.fetch_cpu_ms": (cpu_ms("logical.fetch"), "ms"),
        "vps.cache_cpu_ms": (cpu_ms("vps.cache"), "ms"),
        "vps.hit_ratio": (hit_ratio(counts), "ratio"),
        "vps.cache_entries": (float(after["gauges"].get("cache.entries", 0)), "count"),
        "vps.refetches_per_write": (refetches / writes if writes else 0.0, "count"),
        "core.fetch_cpu_ms": (cpu_ms("core.fetch"), "ms"),
        "core.fetch_wait_ms": (
            (acc("core.fetch", tracer_mod.SELF_WALL) - acc("core.fetch", tracer_mod.SELF_CPU))
            * 1e3
            / reads,
            "ms",
        ),
        "core.live_fetches": (counts["live_fetches"] / count_reads, "count"),
        "core.retries": (moved("engine.retries") / reads, "count"),
        "navigation.executor_cpu_ms": (cpu_ms("navigation.executor"), "ms"),
        "flogic.solve_cpu_ms": (cpu_ms("flogic.solve"), "ms"),
        "navigation.extract_cpu_ms": (cpu_ms("navigation.extract"), "ms"),
        "navigation.prefix_hit_ratio": (
            prefix_hits / prefix_all if prefix_all else 0.0,
            "ratio",
        ),
        "navigation.maintenance_ms_per_write": (
            acc("navigation.maintenance", tracer_mod.TOTAL_WALL) * 1e3 / writes
            if writes
            else 0.0,
            "ms",
        ),
        "web.render_cpu_ms": (cpu_ms("web.render"), "ms"),
        "web.parse_cpu_ms": (cpu_ms("web.parse"), "ms"),
        "web.pages": (counts["pages"] / count_reads, "count"),
        "mqo.subsume_cpu_ms": (cpu_ms("mqo.subsume"), "ms"),
        "mqo.subsumed_ratio": (moved("mqo.subsumed") / reads, "ratio"),
        "store.cpu_ms": (cpu_ms("store"), "ms"),
        "store.bytes_per_query": (store_bytes / reads, "B"),
        "service.overhead_ms": (rtt_ms - server_ms if rtt_ms is not None else 0.0, "ms"),
        "service.queue_wait_ms": (
            queue_sum * 1e3 / queue_count if queue_count else 0.0,
            "ms",
        ),
        "web.pages_spread": (spread([c["pages"] for c in unit_counts]), "ratio"),
        "core.live_fetches_spread": (
            spread([c["live_fetches"] for c in unit_counts]),
            "ratio",
        ),
        "vps.hit_ratio_spread": (spread([hit_ratio(c) for c in unit_counts]), "ratio"),
        "trace.spans_per_query": (span_calls / reads, "count"),
        "trace.overhead_ms": (span_calls * span_cost_s * 1e3 / reads, "ms"),
        "trace.unattributed_cpu_ms": (
            (cpu_seconds - self_cpu_total) * 1e3 / reads,
            "ms",
        ),
    }
    return metrics


# -- in-process workloads ---------------------------------------------------


def run_in_process(args, policy: CachePolicy, zero_fetch: bool) -> dict:
    """cold_nav (``policy`` off) and warm_repeat (``policy`` LRU)."""
    tracer = tracer_mod.Tracer()
    if args.trace:
        tracer.install()
    pool = [text for text, _ in queries.query_pool(args.seed)]

    setups = []
    webbase = None
    for _ in range(SETUP_REPS):
        webbase = None
        gc.collect()
        started = time.perf_counter()
        webbase = WebBase.create(WebBaseConfig(cache=policy))
        for text in pool:
            webbase.query(text)
        setups.append(time.perf_counter() - started)
    setup_spans = tracer.snapshot()
    gc.collect()
    tracer.reset()

    # -- writes for write_latency_p50_ms go to a second webbase of the same
    # config, so the reads' state and counts are untouched.  They run one
    # site (WRITES_PER_SITE writes) at a time, spread evenly over the timed
    # phase between reads and outside their timing: the machine's speed
    # drifts over seconds, and the ~70 ms of writes done in one burst would
    # catch a single speed.  Neither they nor this webbase's construction
    # are traced.
    tracer.active = False
    writer = WebBase.create(WebBaseConfig(cache=policy))
    tracer.active = True
    write_latencies: list[tuple[str, float]] = []
    problems: list[str] = []
    write_failed = 0
    maintenance_seconds = 0.0

    def write_one_site() -> tuple[float, float]:
        """WRITES_PER_SITE writes; returns the (wall, cpu) they took."""
        nonlocal write_failed, maintenance_seconds
        wall, cpu = time.perf_counter(), time.process_time()
        tracer.active = False
        for _ in range(queries.WRITES_PER_SITE):
            index = len(write_latencies)
            spec = queries.write_spec(args.seed, index)
            host = spec.pop("host")
            t0 = time.perf_counter()
            try:
                mutate_site_listings(writer.world, host=host, **spec)
                m0 = time.perf_counter()
                writer.run_maintenance(host)
                maintenance_seconds += time.perf_counter() - m0
            except Exception as exc:  # noqa: BLE001 - counted as a failed write
                write_failed += 1
                problems.append("write %d failed: %r" % (index, exc))
            write_latencies.append((host, time.perf_counter() - t0))
        tracer.active = True
        return time.perf_counter() - wall, time.process_time() - cpu

    # -- timed phase: whole cycles over the pool, same order each cycle.
    # Rates are medians over whole cycles, so a burst of load from outside
    # the benchmark moves one cycle, not the run.
    latencies: list[float] = []
    answers: list[tuple[str, str]] = []
    answer_rows = 0
    cycles: list[dict[str, float]] = []
    cycle_walls: list[float] = []
    cycle_cpus: list[float] = []
    write_every = args.seconds * queries.WRITES_PER_SITE / WRITE_PROBES
    gc.collect()
    snapshot_before = webbase.metrics.snapshot()
    first = counts_of(snapshot_before, web_pages(webbase))
    cpu_start = time.process_time()
    started = time.perf_counter()
    deadline = started + args.seconds
    next_write = started + write_every / 2
    paused_cpu = 0.0
    running = True
    while running:
        cycle_start = counts_of(webbase.metrics.snapshot(), web_pages(webbase))
        cycle_wall, cycle_cpu = time.perf_counter(), time.process_time()
        cycle_paused = [0.0, 0.0]
        for text in pool:
            t0 = time.perf_counter()
            answer = webbase.query(text)
            t1 = time.perf_counter()
            latencies.append(t1 - t0)
            answers.append((text, queries.digest(answer.schema, answer.rows)))
            answer_rows += len(answer.rows)
            if t1 >= deadline:
                running = False
                break
            if t1 >= next_write and len(write_latencies) < WRITE_PROBES:
                wall, cpu = write_one_site()
                cycle_paused[0] += wall
                cycle_paused[1] += cpu
                paused_cpu += cpu
                next_write += write_every
        else:
            cycle_walls.append(time.perf_counter() - cycle_wall - cycle_paused[0])
            cycle_cpus.append(time.process_time() - cycle_cpu - cycle_paused[1])
            after = counts_of(webbase.metrics.snapshot(), web_pages(webbase))
            cycles.append(delta(after, cycle_start))
    cpu_seconds = time.process_time() - cpu_start - paused_cpu
    snapshot_after = webbase.metrics.snapshot()
    spans = tracer.snapshot()
    rss_mb = peak_rss_self_mb()
    totals = delta(counts_of(snapshot_after, web_pages(webbase)), first)
    while len(write_latencies) < WRITE_PROBES:  # a run cut short by slow reads
        write_one_site()
    span_cost = 0.0
    if args.trace:
        span_cost = tracer.span_cost(
            lambda: [webbase.query(text) for text in pool[:SPAN_COST_QUERIES]]
        )

    # -- count checks: a single caller repeats its counts exactly once the
    # planner's live statistics (fed back from every query) have settled,
    # which takes up to SETTLE_CYCLES timed cycles on warm_repeat.
    steady = cycles[SETTLE_CYCLES:]
    if len(steady) < 2:
        problems.append("fewer than %d whole cycles; raise --seconds" % (SETTLE_CYCLES + 2))
    elif any(cycle != steady[0] for cycle in steady):
        problems.append("per-cycle counts do not settle: %s" % cycles)
    if zero_fetch and (totals["live_fetches"] or totals["pages"]):
        problems.append("timed phase made live fetches: %s" % totals)

    # -- oracle: a fresh cache-off webbase answers every distinct text.
    webbase = writer = None
    gc.collect()
    reference = WebBase.create(WebBaseConfig())
    expected = {
        text: queries.digest(answer.schema, answer.rows)
        for text in sorted({text for text, _ in answers})
        for answer in [reference.query(text)]
    }
    wrong = sum(1 for text, got in answers if expected[text] != got)
    if wrong:
        problems.append("%d wrong answers" % wrong)

    reads = len(latencies)
    operations = {
        "read": {"attempted": reads, "failed": wrong},
        "write": {"attempted": WRITE_PROBES, "failed": write_failed},
    }
    if args.trace:
        # Writes run untraced; their maintenance time is the harness's.
        spans["navigation.maintenance"] = [WRITE_PROBES, 0.0, 0.0, maintenance_seconds, 0.0, 0]
        metrics = per_layer(
            spans,
            setup_spans,
            snapshot_before,
            snapshot_after,
            constructions=SETUP_REPS,
            reads=reads,
            answer_rows=answer_rows,
            cpu_seconds=cpu_seconds,
            counts=steady[0],
            count_reads=len(pool),
            unit_counts=steady,
            writes=WRITE_PROBES,
            span_cost_s=span_cost,
        )
    else:
        metrics = end_to_end(
            setups,
            latencies,
            statistics.median(len(pool) / wall for wall in cycle_walls),
            statistics.median(cycle_cpus) * 1e3 / len(pool),
            rss_mb,
            write_p50(write_latencies),
        )
    return {"operations": operations, "problems": problems, "metrics": metrics}


def cold_nav(args) -> dict:
    return run_in_process(args, CachePolicy.noop(), zero_fetch=False)


def warm_repeat(args) -> dict:
    return run_in_process(args, CachePolicy.lru(), zero_fetch=True)


# -- service_churn ----------------------------------------------------------


class Child:
    """The service process (perfbench/service_child.py)."""

    def __init__(self, store: Path, trace: bool) -> None:
        command = [sys.executable, str(HERE / "service_child.py"), "--store", str(store)]
        if trace:
            command.append("--trace")
        self.proc = subprocess.Popen(
            command,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
            cwd=str(ROOT),
        )

    def message(self, timeout: float = 60.0) -> dict:
        ready, _, _ = select.select([self.proc.stdout], [], [], timeout)
        line = self.proc.stdout.readline() if ready else ""
        if not line:
            raise RuntimeError("service child sent nothing (exit %s)" % self.proc.poll())
        return json.loads(line)

    def command(self, text: str) -> None:
        self.proc.stdin.write(text + "\n")
        self.proc.stdin.flush()

    def cpu_seconds(self) -> float:
        """The child's CPU so far (user + system, every thread), read by
        the child itself: ``/proc/<pid>/stat`` counts 10 ms ticks, too
        coarse for one round of reads."""
        self.command("cpu")
        return self.message()["cpu"]

    def peak_rss_mb(self) -> float:
        with open("/proc/%d/status" % self.proc.pid) as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM for the service child")

    def stop(self) -> None:
        """Drain the service and wait for the process to end."""
        try:
            self.command("stop")
            self.message()
        finally:
            self.proc.stdin.close()
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
            self.proc.stdout.close()

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()


def start_service(store: Path, trace: bool) -> tuple[Child, ServiceClient, float]:
    """Spawn the child and wait until it answers; returns the set-up time."""
    started = time.perf_counter()
    child = Child(store, trace)
    try:
        port = child.message()["port"]
        client = ServiceClient(port=port, connect_timeout=0.0)
        client.ping()
    except BaseException:
        child.kill()
        raise
    return child, client, time.perf_counter() - started


def service_churn(args) -> dict:
    work = WORK / str(os.getpid())
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    pool = queries.query_pool(args.seed)
    setups = []
    child = client = None
    try:
        for rep in range(SETUP_REPS):
            if child is not None:
                client.close()
                child.stop()
            store = work / ("store%d" % rep)
            child, client, seconds = start_service(store, bool(args.trace))
            setups.append(seconds)
        return drive_service(args, pool, child, client, store, setups)
    finally:
        if child is not None:
            child.kill()
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()  # only when no other run is using it
        except OSError:
            pass


def drive_service(args, pool, child: Child, first: ServiceClient, store: Path, setups) -> dict:
    clients = [first]
    try:
        for text, _ in pool:  # untimed warm-up: fills the cache and gold answers
            first.query(text)
        clients += [
            ServiceClient(port=first.port, connect_timeout=0.0) for _ in range(CLIENTS - 1)
        ]
        child.command("mark")
        setup_spans = child.message()["setup"]
        timed = churn(args, pool, child, clients, store)
    finally:
        for client in clients:
            client.close()
    child.command("finish " + json.dumps([text for text, _ in pool]))
    timed.update(child.message())
    child.stop()
    timed["setup_spans"] = setup_spans
    return check_service(args, timed, setups)


def churn(args, pool, child: Child, clients, store: Path) -> dict:
    """The timed phase: rounds of reads on the connections, each round
    followed by one write while every connection is idle.  Writes are
    scheduled by read index, so every run refetches the same share."""
    reads = queries.churn_reads(args.seed, pool, 100000, REFINES)
    rounds = [reads[i : i + ROUND] for i in range(0, len(reads), ROUND)]
    lock = threading.Lock()
    cursor = [0]
    phase = [0]
    results: list[tuple[int, str, str | None, float, int]] = []
    write_latencies: list[tuple[str, float]] = []
    problems: list[str] = []
    write_failed = [0]
    snapshots = [clients[0].metrics()]
    barrier = threading.Barrier(CLIENTS)
    stop = threading.Event()
    store_start = dir_bytes(store)
    cpu_start = child.cpu_seconds()
    round_walls: list[float] = []
    round_cpus: list[float] = []
    round_start = [time.perf_counter(), cpu_start]
    deadline = round_start[0] + args.seconds

    def drive(index: int) -> None:
        client = clients[index]
        while True:
            current = phase[0]
            batch = rounds[current]
            while True:
                with lock:
                    position = cursor[0]
                    cursor[0] += 1
                if position >= len(batch):
                    break
                text = batch[position]
                t0 = time.perf_counter()
                try:
                    outcome = client.query(text)
                except (ServiceError, OSError) as exc:
                    got, rows = None, 0
                    with lock:
                        problems.append("read %r failed: %r" % (text, exc))
                else:
                    got = queries.digest(outcome.schema, outcome.rows)
                    rows = len(outcome.rows)
                t1 = time.perf_counter()
                with lock:
                    results.append((current, text, got, t1 - t0, rows))
            barrier.wait()
            if index == 0:
                round_walls.append(time.perf_counter() - round_start[0])
                round_cpus.append(child.cpu_seconds() - round_start[1])
                snapshots.append(client.metrics())
                if time.perf_counter() >= deadline or current + 1 >= len(rounds):
                    stop.set()
                else:
                    spec = queries.write_spec(args.seed, current)
                    t0 = time.perf_counter()
                    try:
                        client.mutate(json.dumps(spec))
                        client.sweep(spec["host"])
                    except (ServiceError, OSError) as exc:
                        write_failed[0] += 1
                        problems.append("write %d failed: %r" % (current, exc))
                    write_latencies.append((spec["host"], time.perf_counter() - t0))
                    cursor[0] = 0
                    phase[0] = current + 1
            barrier.wait()
            if index == 0:
                round_start[:] = [time.perf_counter(), child.cpu_seconds()]
            if stop.is_set():
                return

    threads = [
        threading.Thread(target=drive, args=(i,), name="perfbench-client-%d" % i)
        for i in range(CLIENTS)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return {
        "round_walls": round_walls,
        "round_cpus": round_cpus,
        "cpu_seconds": child.cpu_seconds() - cpu_start,
        "rss_mb": child.peak_rss_mb(),
        "store_bytes": dir_bytes(store) - store_start,
        "results": results,
        "write_latencies": write_latencies,
        "write_failed": write_failed[0],
        "problems": problems,
        "snapshots": snapshots,
    }


def check_service(args, timed: dict, setups) -> dict:
    """Oracle and metrics for one service_churn run."""
    results = timed["results"]
    write_latencies = timed["write_latencies"]
    # A fresh cache-off webbase replays the writes phase by phase and
    # answers every distinct text read in each phase.
    reference = WebBase.create(WebBaseConfig())
    by_phase: dict[int, set[str]] = {}
    for current, text, _, _, _ in results:
        by_phase.setdefault(current, set()).add(text)
    expected: dict[tuple[int, str], str] = {}
    for current in range(max(by_phase) + 1):
        for text in sorted(by_phase.get(current, ())):
            answer = reference.query(text)
            expected[(current, text)] = queries.digest(answer.schema, answer.rows)
        if current < len(write_latencies):
            spec = queries.write_spec(args.seed, current)
            host = spec.pop("host")
            mutate_site_listings(reference.world, host=host, **spec)
            reference.run_maintenance(host)
    failed_reads = sum(1 for _, _, got, _, _ in results if got is None)
    wrong = sum(
        1
        for current, text, got, _, _ in results
        if got is not None and expected[(current, text)] != got
    )
    problems = list(timed["problems"])
    if wrong:
        problems.append("%d wrong answers" % wrong)
    operations = {
        "read": {"attempted": len(results), "failed": failed_reads + wrong},
        "write": {"attempted": len(write_latencies), "failed": timed["write_failed"]},
    }
    latencies = [latency for _, _, _, latency, _ in results]
    if not args.trace:
        metrics = end_to_end(
            setups,
            latencies,
            statistics.median(ROUND / wall for wall in timed["round_walls"]),
            sum(timed["round_cpus"]) * 1e3 / len(results),
            timed["rss_mb"],
            write_p50(write_latencies),
        )
        return {"operations": operations, "problems": problems, "metrics": metrics}

    snapshots = timed["snapshots"]
    # Every web page the service fetches lands in the bronze tier.
    rounds = [counts_of(s, counter(s, "store.bronze_pages")) for s in snapshots]
    per_round = [delta(b, a) for a, b in zip(rounds, rounds[1:])]
    # Cache misses in the round after a write are the refetches it forced.
    refetches = sum(c["cache_requests"] - c["cache_hits"] for c in per_round[1:])
    metrics = per_layer(
        timed["spans"],
        timed["setup_spans"],
        snapshots[0],
        snapshots[-1],
        constructions=1,
        reads=len(results),
        answer_rows=sum(result[4] for result in results),
        cpu_seconds=timed["cpu_seconds"],
        counts=delta(rounds[-1], rounds[0]),
        count_reads=len(results),
        unit_counts=per_round,
        writes=len(write_latencies),
        span_cost_s=timed["span_cost"],
        refetches=refetches,
        store_bytes=timed["store_bytes"],
        rtt_ms=statistics.fmean(latencies) * 1e3,
    )
    return {"operations": operations, "problems": problems, "metrics": metrics}


WORKLOADS = {
    "cold_nav": cold_nav,
    "warm_repeat": warm_repeat,
    "service_churn": service_churn,
}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    outcome = WORKLOADS[args.workload](args)
    operations = outcome["operations"]
    attempted = sum(op["attempted"] for op in operations.values())
    failed = sum(op["failed"] for op in operations.values())
    correct = not outcome["problems"]
    for problem in outcome["problems"]:
        print("perfbench: %s" % problem, file=sys.stderr)
    print(json.dumps({"workload": args.workload, "operations": operations}))
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in outcome["metrics"].items()
                },
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
