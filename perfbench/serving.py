"""Serving workloads: ``get_batch`` and ``put_churn``.

The server's frontend (:class:`repro.serve.WorkerServer`, 2 shard worker
processes, default transport, read path and engine) runs on this
process's event loop; the load comes from the same loop as closed-loop
:class:`repro.serve.McCuckooClient` connections, one request in flight
per connection, one BATCH frame per request.  The load pauses at every
slice boundary so the probe in :mod:`refclock` runs on idle CPUs.
"""

from __future__ import annotations

import asyncio
import os
import random
import signal
import statistics
import struct
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, List, Optional, Set, Tuple

from repro.maintenance import MaintenanceConfig
from repro.serve import (
    McCuckooClient,
    ProtocolError,
    ErrorReply,
    ServeError,
    ServerConfig,
    ShardedLogStore,
    WorkerServer,
)

import oracles
from refclock import RefClock, SliceMeter, peak_rss_mb

N_SHARDS = 4
N_WORKERS = 2
SLICE_S = 0.5
WARMUP_S = 1.5
SETUPS = 5
REQUEST_TIMEOUT_S = 5.0
RESTART_TIMEOUT_S = 30.0
#: requests per connection replayed in-process for ``offchip_per_op``
REPLAY_REQUESTS = 300

BATCH = 32
BATCH_MISSING = 3  # of 32: ~90 % resident keys, ~10 % never inserted
GET_RESIDENT = 16384
GET_VALUE_BYTES = 24

CHURN_HOT = 64  # per connection: updated, never deleted
CHURN_COLD = 1536  # per connection: half live, half absent at any time
CHURN_VALUE_BYTES = 48
#: one round per connection: (verb, pool) in a fixed order
CHURN_ROUND = (
    ("put", "hot"), ("get", "any"), ("put", "hot"), ("delete", "cold"),
    ("get", "any"), ("put", "absent"), ("put", "hot"), ("get", "any"),
    ("delete", "cold"), ("put", "absent"),
)
#: ops per BATCH frame: whole rounds.  Single-op requests would leave
#: the workload bound by wakeups between processes, which this shared
#: host's noise moves far more than the probe tracks (run-to-run spread
#: of ops/s reached 0.45); frames of whole rounds keep it CPU-bound.
CHURN_BATCH = 3 * len(CHURN_ROUND)

_FAILURES = (ServeError, ProtocolError, OSError, asyncio.TimeoutError)


def n_connections() -> int:
    return max(1, min(2, len(os.sched_getaffinity(0))))


def _distinct_keys(rng: random.Random, count: int, taken: Set[int]) -> List[int]:
    keys: List[int] = []
    while len(keys) < count:
        key = rng.getrandbits(64)
        if key not in taken:
            taken.add(key)
            keys.append(key)
    return keys


def _value(key: int, version: int, size: int) -> bytes:
    word = struct.pack("<QQ", key, version * 0x9E3779B97F4A7C15 & (2**64 - 1))
    return (word * (size // 16 + 1))[:size]


def preload_requests(model: oracles.Model):
    """The model's items as BATCH frames of 64 PUTs."""
    items = list(model.items())
    for i in range(0, len(items), 64):
        yield [("put", key, value) for key, value in items[i:i + 64]]


def user_bytes(model: oracles.Model) -> int:
    return sum(8 + len(value) for value in model.values())


# ----------------------------------------------------------------------
# load control
# ----------------------------------------------------------------------


class Control:
    """Gate, quiescence and per-slice tallies shared by the load tasks."""

    def __init__(self) -> None:
        self.gate = asyncio.Event()
        self.idle = asyncio.Event()
        self.idle.set()
        self.stop = False
        self.inflight = 0
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.slice_ops = 0
        self.slice_latencies: List[float] = []
        #: failed ops by cause (error code or exception type), for the report
        self.causes: Dict[str, int] = {}

    def note(self, cause: str, ops: int) -> None:
        self.causes[cause] = self.causes.get(cause, 0) + ops

    def begin(self) -> None:
        self.inflight += 1
        self.idle.clear()

    def end(self, ops: int, failed: int, latency: float, wrong: int = 0) -> None:
        """Tally one request: ``failed`` of its ``ops`` failed, ``wrong``
        of those because the program answered differently from the model."""
        self.attempted += ops
        self.failed += failed
        self.wrong += wrong
        self.slice_ops += ops - failed
        self.slice_latencies.append(latency)
        self.inflight -= 1
        if self.inflight == 0:
            self.idle.set()

    def open(self) -> None:
        self.slice_ops = 0
        self.slice_latencies = []
        self.gate.set()

    async def pause(self) -> None:
        self.gate.clear()
        await self.idle.wait()


async def _request(coro):
    return await asyncio.wait_for(coro, REQUEST_TIMEOUT_S)


# ----------------------------------------------------------------------
# get_batch
# ----------------------------------------------------------------------


class GetBatchInputs:
    def __init__(self, seed: int) -> None:
        rng = random.Random(seed)
        taken: Set[int] = set()
        self.seed = seed
        self.resident = _distinct_keys(rng, GET_RESIDENT, taken)
        self.missing = _distinct_keys(rng, GET_RESIDENT // 8, taken)
        self.model: oracles.Model = {
            key: _value(key, 0, GET_VALUE_BYTES) for key in self.resident
        }

    def stream(self, connection: int):
        rng = random.Random(self.seed * 1000 + connection + 1)
        resident, missing = self.resident, self.missing
        while True:
            keys = [resident[rng.randrange(len(resident))]
                    for _ in range(BATCH - BATCH_MISSING)]
            keys += [missing[rng.randrange(len(missing))]
                     for _ in range(BATCH_MISSING)]
            rng.shuffle(keys)
            yield keys

    def replay(self, config: ServerConfig) -> Tuple[float, float]:
        """Replay the preload and the run's first requests through an
        in-process durable store built like the workers' shards: the
        paper's off-chip accesses per GET, and log bytes per user byte
        (the served store is not durable, so STATS has no log bytes)."""
        store = ShardedLogStore(n_shards=config.n_shards,
                                expected_items=config.expected_items,
                                seed=config.seed, durable=True)
        for key, value in self.model.items():
            store.put(key, value)
        ratio = store.stats_snapshot()["store_log_bytes"] / user_bytes(self.model)
        before = _offchip_total(store)
        ops = 0
        for connection in range(n_connections()):
            stream = self.stream(connection)
            for _ in range(REPLAY_REQUESTS):
                keys = next(stream)
                store.get_many(keys)
                ops += len(keys)
        return (_offchip_total(store) - before) / ops, ratio


async def _get_batch_loop(client: McCuckooClient, stream, model, ctl: Control) -> None:
    while not ctl.stop:
        if not ctl.gate.is_set():
            await ctl.gate.wait()
            continue
        keys = next(stream)
        ctl.begin()
        start = time.perf_counter()
        wrong = 0
        try:
            replies = await _request(client.batch([("get", key) for key in keys]))
            failed = oracles.get_batch_failures(model, keys, replies)
            wrong = failed - oracles.error_replies(replies)
            for reply in replies:
                if isinstance(reply, ErrorReply):
                    ctl.note(reply.code.name, 1)
        except _FAILURES as error:
            failed = len(keys)
            ctl.note(type(error).__name__, failed)
        ctl.end(len(keys), failed, time.perf_counter() - start, wrong)


# ----------------------------------------------------------------------
# put_churn
# ----------------------------------------------------------------------


class ChurnInputs:
    """Keys partitioned per connection, so the model is exact."""

    def __init__(self, seed: int) -> None:
        rng = random.Random(seed)
        taken: Set[int] = set()
        self.seed = seed
        self.parts = [
            (_distinct_keys(rng, CHURN_HOT, taken),
             _distinct_keys(rng, CHURN_COLD, taken))
            for _ in range(n_connections())
        ]
        self.model: oracles.Model = {}
        for hot, cold in self.parts:
            for key in hot + cold[: CHURN_COLD // 2]:
                self.model[key] = _value(key, 0, CHURN_VALUE_BYTES)

    @property
    def universe(self) -> List[int]:
        return [key for hot, cold in self.parts for key in hot + cold]

    def stream(self, connection: int, model: oracles.Model):
        """Endless ``(verb, key, value)`` ops for one connection; pools
        follow the ops as issued, so the stream depends only on the seed."""
        rng = random.Random(self.seed * 1000 + connection + 1)
        hot, cold = self.parts[connection]
        live = [key for key in cold if key in model]
        absent = [key for key in cold if key not in model]
        everything = hot + cold
        version = 0
        while True:
            for verb, pool in CHURN_ROUND:
                version += 1
                if pool == "hot":
                    key = hot[rng.randrange(len(hot))]
                elif pool == "any":
                    key = everything[rng.randrange(len(everything))]
                elif pool == "cold":
                    key = live.pop(rng.randrange(len(live)))
                    absent.append(key)
                else:
                    key = absent.pop(rng.randrange(len(absent)))
                    live.append(key)
                value = _value(key, version, CHURN_VALUE_BYTES) if verb == "put" else b""
                yield verb, key, value

    def replay(self, config: ServerConfig) -> Tuple[float, float]:
        """The paper's off-chip accesses per op of the run's first
        requests, replayed through an in-process store built like the
        workers' shards (STATS gives the log bytes, so no ratio here)."""
        store = ShardedLogStore(n_shards=config.n_shards,
                                expected_items=config.expected_items,
                                seed=config.seed, durable=True)
        model = dict(self.model)
        for key, value in model.items():
            store.put(key, value)
        before = _offchip_total(store)
        ops = 0
        for connection in range(n_connections()):
            stream = self.stream(connection, model)
            for _ in range(REPLAY_REQUESTS * CHURN_BATCH):
                verb, key, value = next(stream)
                if verb == "get":
                    store.get(key)
                elif verb == "put":
                    store.put(key, value)
                else:
                    store.delete(key)
                ops += 1
        return (_offchip_total(store) - before) / ops, 0.0


async def _churn_loop(client: McCuckooClient, stream, model, ctl: Control,
                      unknown: Set[int]) -> None:
    while not ctl.stop:
        if not ctl.gate.is_set():
            await ctl.gate.wait()
            continue
        ops = [next(stream) for _ in range(CHURN_BATCH)]
        ctl.begin()
        start = time.perf_counter()
        failed = wrong = 0
        try:
            replies = await _request(client.batch(
                [(verb, key, value) if verb == "put" else (verb, key)
                 for verb, key, value in ops]))
            for (verb, key, value), reply in zip(ops, replies):
                if isinstance(reply, ErrorReply):
                    failed += 1
                    ctl.note(reply.code.name, 1)
                    if verb != "get":
                        unknown.add(key)  # outcome unknown: no readback
                    continue
                bad = oracles.churn_failure(model, verb, key, value, reply)
                failed += bad
                wrong += bad
        except _FAILURES as error:
            failed = len(ops)
            ctl.note(type(error).__name__, failed)
            unknown.update(key for verb, key, _ in ops if verb != "get")
        ctl.end(len(ops), failed, time.perf_counter() - start, wrong)


# ----------------------------------------------------------------------
# the harness
# ----------------------------------------------------------------------


def _offchip_total(store: ShardedLogStore) -> int:
    return sum(store.shard(i).mem.snapshot().off_chip_total
               for i in range(store.n_shards))


def worker_pids(server: WorkerServer) -> List[int]:
    return [handle.hello["pid"] for _, handle in server.pool.live_handles()
            if handle is not None]


class Served:
    """One server plus its model and the run's failure tallies."""

    def __init__(self, workload: str, seed: int) -> None:
        self.workload = workload
        self.seed = seed
        if workload == "get_batch":
            self.inputs = GetBatchInputs(seed)
            self.config = ServerConfig(n_shards=N_SHARDS,
                                       expected_items=GET_RESIDENT, seed=seed)
        else:
            self.inputs = ChurnInputs(seed)
            self.config = ServerConfig(
                n_shards=N_SHARDS,
                expected_items=len(self.inputs.model) * 2,
                seed=seed,
                durable=True,
                maintenance=MaintenanceConfig(),
            )
        self.model: oracles.Model = {}
        self.server: Optional[WorkerServer] = None
        self.address: Tuple[str, int] = ("127.0.0.1", 0)
        self.ctl = Control()
        self.unknown: Set[int] = set()
        self.store_ratios: List[float] = []
        self.replay_ratio = 0.0

    def store_bytes_ratio(self) -> float:
        """Log bytes per live user byte: STATS sampled at the slice
        boundaries when the server is durable, else the replay's."""
        if self.store_ratios:
            return statistics.fmean(self.store_ratios)
        return self.replay_ratio

    async def start(self) -> float:
        """Start the server and preload it; returns the seconds it took."""
        start = time.perf_counter()
        self.server = WorkerServer(self.config, n_workers=N_WORKERS)
        self.address = await self.server.start()
        self.model = dict(self.inputs.model)
        async with McCuckooClient(*self.address, pool_size=1) as client:
            for ops in preload_requests(self.inputs.model):
                replies = await _request(client.batch(ops))
                bad = sum(not getattr(reply, "created", False) for reply in replies)
                self.ctl.attempted += len(ops)
                self.ctl.failed += bad
        return time.perf_counter() - start

    async def stop(self) -> None:
        if self.server is not None:
            server, self.server = self.server, None
            # The stop may join workers on the loop's default executor; end
            # that thread before the next server forks its workers, since
            # forking a process that has threads can deadlock the child.
            executor = ThreadPoolExecutor(max_workers=1)
            asyncio.get_running_loop().set_default_executor(executor)
            try:
                await server.stop()
            finally:
                executor.shutdown(wait=True)

    def pids(self) -> List[int]:
        return worker_pids(self.server) if self.server is not None else []

    async def run_load(self, seconds: float, meter: Optional[SliceMeter],
                       stats_client: Optional[McCuckooClient]) -> None:
        """Closed-loop load for ``seconds``, cut into slices when metered."""
        ctl = self.ctl
        ctl.stop = False
        clients = [McCuckooClient(*self.address, pool_size=1)
                   for _ in range(n_connections())]
        tasks = []
        for connection, client in enumerate(clients):
            if self.workload == "get_batch":
                loop = _get_batch_loop(client, self._streams[connection],
                                       self.model, ctl)
            else:
                loop = _churn_loop(client, self._streams[connection],
                                   self.model, ctl, self.unknown)
            tasks.append(asyncio.ensure_future(loop))
        try:
            if meter is not None:
                meter.start()
            elapsed = 0.0
            while elapsed < seconds:
                ctl.open()
                await asyncio.sleep(min(SLICE_S, seconds - elapsed))
                await ctl.pause()
                if meter is None:
                    elapsed += SLICE_S
                    continue
                piece = meter.close(ctl.slice_ops, ctl.slice_latencies)
                elapsed += piece.wall_s
                if stats_client is not None and self.config.durable:
                    stats = await _request(stats_client.stats())
                    self.store_ratios.append(
                        stats["store_log_bytes"] / user_bytes(self.model))
                meter.resume()
        finally:
            ctl.stop = True
            ctl.gate.set()
            for task in tasks:
                task.cancel()
            await asyncio.gather(*tasks, return_exceptions=True)
            for client in clients:
                await client.close()

    def make_streams(self) -> None:
        if self.workload == "get_batch":
            self._streams = [self.inputs.stream(c) for c in range(n_connections())]
        else:
            self._streams = [self.inputs.stream(c, self.model)
                             for c in range(n_connections())]

    async def kill_and_readback(self) -> None:
        """SIGKILL one worker, wait for its restart, then read back every
        key the run touched: acknowledged writes survive, deletes stay."""
        before = len(self.pids())
        os.kill(self.pids()[0], signal.SIGKILL)
        async with McCuckooClient(*self.address, pool_size=1) as client:
            deadline = time.monotonic() + RESTART_TIMEOUT_S
            while True:
                if time.monotonic() > deadline:
                    raise RuntimeError("killed worker was not restarted in time")
                await asyncio.sleep(0.05)
                try:
                    stats = await _request(client.stats())
                except _FAILURES:
                    continue
                if stats.get("worker_restarts", 0) >= 1 and stats.get("workers_up") == before:
                    break
            keys = [key for key in self.inputs.universe if key not in self.unknown]
            for i in range(0, len(keys), BATCH):
                chunk = keys[i:i + BATCH]
                self.ctl.attempted += len(chunk)
                try:
                    replies = await _request(client.batch([("get", k) for k in chunk]))
                    values = [oracles.value_of(reply) for reply in replies]
                    lost = oracles.readback_failures(self.model, chunk, values)
                    self.ctl.failed += lost
                    self.ctl.wrong += lost
                except (ValueError,) + _FAILURES:
                    self.ctl.failed += len(chunk)


class Measurement:
    """What one set-up, warm-up and timed phase produced."""

    def __init__(self, served: Served, meter: SliceMeter) -> None:
        self.served = served
        self.meter = meter
        self.setups: List[float] = []
        self.rss_mb = 0.0
        self.offchip = 0.0
        self.stash_items = 0.0
        self.trace = None


async def measure(workload: str, seed: int, seconds: float,
                  tracer=None, replay: bool = True) -> Measurement:
    """Set-up (timed :data:`SETUPS` times), warm-up, timed phase, checks.

    With a ``tracer`` its totals over the timed phase are kept; with
    ``replay`` the off-chip count is taken from an in-process replay.
    """
    served = Served(workload, seed)
    clock = RefClock(served.pids)
    out = Measurement(served, SliceMeter(clock, served.pids))
    try:
        for i in range(SETUPS):
            before = clock.probe()
            raw = await served.start()
            after = clock.probe()
            factors = [p.factor() for p in (before, after) if not p.contaminated]
            out.setups.append(raw * statistics.fmean(factors or [before.factor()]))
            if i < SETUPS - 1:
                await served.stop()
        served.make_streams()
        await served.run_load(WARMUP_S, None, None)
        async with McCuckooClient(*served.address, pool_size=1) as stats_client:
            start_totals = tracer.totals() if tracer is not None else None
            await served.run_load(seconds, out.meter, stats_client)
            if tracer is not None:
                out.trace = tracing_delta(tracer, start_totals)
            stats = await _request(stats_client.stats())
            out.stash_items = stats.get("index_stash_population", 0)
        out.meter.check()
        out.rss_mb = peak_rss_mb(os.getpid()) + sum(peak_rss_mb(p) for p in served.pids())
        if workload == "put_churn":
            await served.kill_and_readback()
    finally:
        await served.stop()
    if replay:
        out.offchip, served.replay_ratio = served.inputs.replay(served.config)
    return out


def tracing_delta(tracer, before):
    import tracing
    return tracing.Totals(tracing.delta(tracer.totals(), before))


def _summary(m: Measurement) -> Dict:
    served, meter = m.served, m.meter
    p50, p90, p99 = meter.latency_quantiles_ms()
    raw50, raw90, raw99 = meter.latency_quantiles_ms(raw=True)
    return {
        "attempted": served.ctl.attempted,
        "failed": served.ctl.failed,
        "wrong": served.ctl.wrong,
        "metrics": {
            "ops_per_s": (meter.ops / meter.ref_s, "1/s"),
            "req_p50_ms": (p50, "ms"),
            "req_p90_ms": (p90, "ms"),
            "cpu_us_per_op": (meter.cpu_ref_us_per_op(True, True), "us"),
            "rss_mb": (m.rss_mb, "MB"),
            "setup_s": (statistics.median(m.setups), "s"),
            "store_bytes_per_user_byte": (served.store_bytes_ratio(), "B/B"),
            "offchip_per_op": (m.offchip, "accesses/op"),
        },
        "info": {
            "raw_ops_per_s": meter.ops / meter.wall_s,
            "raw_req_p50_ms": raw50,
            "raw_req_p90_ms": raw90,
            "raw_req_p99_ms": raw99,
            "raw_setup_s": statistics.median(m.setups) / meter.mean_factor,
            "req_p99_ms": p99,
            "requests": sum(len(s.latencies_s) for s in meter.slices),
            "server_cpu_us_per_op": meter.cpu_ref_us_per_op(False, True),
            "workers_cpu_us_per_op": meter.cpu_ref_us_per_op(True, False),
            "timed_ops": meter.ops,
            "mean_factor": meter.mean_factor,
            "probes": meter.clock.probes,
            "probes_contaminated": meter.clock.contaminated,
            **{f"failed_{cause}": n for cause, n in served.ctl.causes.items()},
        },
    }


async def run(workload: str, seed: int, seconds: float, trace: bool) -> Dict:
    if not trace:
        return _summary(await measure(workload, seed, seconds))
    import tracing

    plain = await measure(workload, seed, seconds / 2, replay=False)
    tracer = tracing.Tracer()
    tracer.install()
    traced = await measure(workload, seed, seconds / 2, tracer=tracer, replay=False)
    pm, tm = plain.meter, traced.meter
    values = tracing.layer_metrics(traced.trace, tm.ops, tm.mean_factor)
    values.update({
        "server.cpu_us_per_op": pm.cpu_ref_us_per_op(False, True),
        "workers.cpu_us_per_op": pm.cpu_ref_us_per_op(True, False),
        "index.stash_items": plain.stash_items,
        "index.fill_us_per_op": 0.0,
        "index.lookup_us_per_op": 0.0,
        "index.churn_us_per_op": 0.0,
        "trace.overhead_pct": 100.0 * (
            (pm.ops / pm.ref_s) / (tm.ops / tm.ref_s) - 1.0),
    })
    ctl_p, ctl_t = plain.served.ctl, traced.served.ctl
    return {
        "attempted": ctl_p.attempted + ctl_t.attempted,
        "failed": ctl_p.failed + ctl_t.failed,
        "wrong": ctl_p.wrong + ctl_t.wrong,
        "metrics": tracing.with_units(values),
        "info": {
            "untraced_ops_per_s": pm.ops / pm.ref_s,
            "traced_ops_per_s": tm.ops / tm.ref_s,
        },
    }
