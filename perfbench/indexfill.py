"""``index_fill``: the index kernels alone, with no serving stack.

Each cycle builds a fresh :class:`repro.core.mccuckoo.McCuckoo` (d=3,
``DeletionMode.RESET`` and the ``auto`` engine, as the serving store
builds its shards), fills it from empty to :data:`FILL_LOAD` with
``put_many``, runs ``lookup_many`` twice over every resident key and as
many never-inserted ones (lookups are then more than half the kernel
calls, so the median call latency sits inside the lookup cluster), then ``delete_many``/``put_many`` churn at that load,
all in batches of :data:`BATCH`.  A cycle is one slice of reference time,
run on one CPU (the allowed CPUs take turns); its set-up (table and key
construction) is timed on its own.
"""

from __future__ import annotations

import os
import random
import statistics
import time
from typing import Dict, List

from repro.core.config import DeletionMode
from repro.core.mccuckoo import McCuckoo

import oracles
from refclock import RefClock, SliceMeter, peak_rss_mb

N_BUCKETS = 4096  # per sub-table: capacity 3 * 4096 = 12288
FILL_LOAD = 0.9
BATCH = 128
CHURN_BATCHES = 24  # each: delete BATCH resident keys, insert BATCH new ones
WARMUP_CYCLES = 1
#: bytes a bucket holds off-chip (8-byte key + 8-byte value reference)
SLOT_BYTES = 16


class Cycle:
    """One cycle's inputs, derived from the run seed and the cycle number."""

    def __init__(self, seed: int, number: int) -> None:
        rng = random.Random(seed * 100003 + number)
        self.seed = rng.getrandbits(32)
        fill = int(FILL_LOAD * 3 * N_BUCKETS)
        fresh = CHURN_BATCHES * BATCH
        taken = set()
        keys: List[int] = []
        while len(keys) < fill * 2 + fresh:
            key = rng.getrandbits(64)
            if key not in taken:
                taken.add(key)
                keys.append(key)
        self.fill = keys[:fill]
        self.missing = keys[fill:fill * 2]
        self.fresh = keys[fill * 2:]
        order = self.fill + self.missing
        rng.shuffle(order)
        again = list(order)
        rng.shuffle(again)
        self.lookups = order + again
        self.victims = rng.sample(self.fill, fresh)
        self.table = McCuckoo(N_BUCKETS, d=3, seed=self.seed,
                              deletion_mode=DeletionMode.RESET, engine="auto")

    @property
    def ops(self) -> int:
        return len(self.fill) + len(self.lookups) + 2 * len(self.fresh)


def _batches(items: List, size: int = BATCH):
    return [items[i:i + size] for i in range(0, len(items), size)]


class IndexRun:
    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.cycles = 0
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.setups: List[float] = []
        self.phase_ref_s = {"fill": 0.0, "lookup": 0.0, "churn": 0.0}
        self.phase_ops = {"fill": 0, "lookup": 0, "churn": 0}
        self.offchip = 0
        self.stash_items: List[int] = []
        self.store_ratios: List[float] = []

    def _cycle(self, meter: SliceMeter) -> None:
        # One CPU per cycle, in turn, so the cycle's reference time comes
        # from the probes of the CPU it ran on.
        cpu = self.cycles % len(meter.clock.cpus)
        meter.clock.pin(cpu)
        factor = meter.last_factor(cpu)
        start = time.perf_counter()
        cycle = Cycle(self.seed, self.cycles)
        self.cycles += 1
        self.setups.append((time.perf_counter() - start) * factor)
        table = cycle.table
        model: Dict[int, int] = {}
        latencies: List[float] = []
        results = []
        phases = {}
        perf = time.perf_counter
        mem0 = table.mem.snapshot().off_chip_total
        meter.resume()

        t_phase = perf()
        for batch in _batches(cycle.fill):
            t0 = perf()
            outcomes = table.put_many([(key, key & 0xFFFF) for key in batch])
            latencies.append(perf() - t0)
            results.append(("put", batch, outcomes))
        phases["fill"] = perf() - t_phase
        stash = len(table.stash) if table.stash is not None else 0

        t_phase = perf()
        for batch in _batches(cycle.lookups):
            t0 = perf()
            outcomes = table.lookup_many(batch)
            latencies.append(perf() - t0)
            results.append(("lookup", batch, outcomes))
        phases["lookup"] = perf() - t_phase

        t_phase = perf()
        for gone, new in zip(_batches(cycle.victims), _batches(cycle.fresh)):
            t0 = perf()
            outcomes = table.delete_many(gone)
            latencies.append(perf() - t0)
            results.append(("delete", gone, outcomes))
            t0 = perf()
            outcomes = table.put_many([(key, key & 0xFFFF) for key in new])
            latencies.append(perf() - t0)
            results.append(("put", new, outcomes))
        phases["churn"] = perf() - t_phase

        piece = meter.close(cycle.ops, latencies, cpu)
        self.offchip += table.mem.snapshot().off_chip_total - mem0
        for name, raw in phases.items():
            self.phase_ref_s[name] += raw * piece.factor
        self.phase_ops["fill"] += len(cycle.fill)
        self.phase_ops["lookup"] += len(cycle.lookups)
        self.phase_ops["churn"] += 2 * len(cycle.fresh)
        self.stash_items.append(stash)
        self._check(table, results, model)
        self.store_ratios.append(
            (table.capacity * SLOT_BYTES + table.onchip_bytes + stash * SLOT_BYTES)
            / (len(table) * SLOT_BYTES))

    def _check(self, table, results, model: Dict[int, int]) -> None:
        """Replay the cycle's outcomes against the model, in the order they ran."""
        for verb, keys, outcomes in results:
            self.attempted += len(keys)
            if verb == "put":
                bad = 0
                for key, outcome in zip(keys, outcomes):
                    bad += outcome.failed or key in model
                    model[key] = key & 0xFFFF
            elif verb == "delete":
                bad = 0
                for key, outcome in zip(keys, outcomes):
                    bad += outcome.deleted != (key in model)
                    model.pop(key, None)
            else:
                bad = oracles.lookup_failures(table, keys, outcomes, model)
            self.failed += bad
            self.wrong += bad
        self.attempted += 2
        bad = oracles.size_failure(table, model) + oracles.counter_invariant_failure(
            table, model)
        self.failed += bad
        self.wrong += bad

    def run(self, seconds: float) -> SliceMeter:
        meter = SliceMeter(RefClock())
        meter.start()
        while meter.wall_s < seconds:
            self._cycle(meter)
        meter.check()
        return meter

    def warm_up(self) -> None:
        meter = SliceMeter(RefClock())
        meter.start()
        for _ in range(WARMUP_CYCLES):
            self._cycle(meter)
        self.setups.clear()
        for name in self.phase_ref_s:
            self.phase_ref_s[name] = 0.0
            self.phase_ops[name] = 0
        self.offchip = 0
        self.stash_items.clear()
        self.store_ratios.clear()


def measure(seed: int, seconds: float):
    index = IndexRun(seed)
    index.warm_up()
    meter = index.run(seconds)
    return index, meter


def _end_to_end(index: IndexRun, meter: SliceMeter) -> Dict:
    p50, p90, p99 = meter.latency_quantiles_ms()
    raw50, raw90, raw99 = meter.latency_quantiles_ms(raw=True)
    return {
        "attempted": index.attempted,
        "failed": index.failed,
        "wrong": index.wrong,
        "metrics": {
            "ops_per_s": (meter.ops / meter.ref_s, "1/s"),
            "req_p50_ms": (p50, "ms"),
            "req_p90_ms": (p90, "ms"),
            "cpu_us_per_op": (meter.cpu_ref_us_per_op(False, True), "us"),
            "rss_mb": (peak_rss_mb(os.getpid()), "MB"),
            "setup_s": (statistics.median(index.setups), "s"),
            "store_bytes_per_user_byte": (statistics.fmean(index.store_ratios), "B/B"),
            "offchip_per_op": (index.offchip / meter.ops, "accesses/op"),
        },
        "info": {
            "raw_ops_per_s": meter.ops / meter.wall_s,
            "raw_req_p50_ms": raw50,
            "raw_req_p90_ms": raw90,
            "raw_req_p99_ms": raw99,
            "req_p99_ms": p99,
            "cycles": index.cycles,
            "timed_ops": meter.ops,
            "mean_factor": meter.mean_factor,
            "probes": meter.clock.probes,
            "probes_contaminated": meter.clock.contaminated,
        },
    }


def run(seed: int, seconds: float, trace: bool) -> Dict:
    if not trace:
        return _end_to_end(*measure(seed, seconds))
    import tracing

    plain, plain_meter = measure(seed, seconds / 2)
    tracer = tracing.Tracer()
    tracer.install()
    traced = IndexRun(seed)
    traced.warm_up()
    before = tracer.totals()
    traced_meter = traced.run(seconds / 2)
    totals = tracing.Totals(tracing.delta(tracer.totals(), before))
    values = tracing.layer_metrics(totals, traced_meter.ops, traced_meter.mean_factor)
    ops = plain.phase_ops
    values.update({
        "server.cpu_us_per_op": plain_meter.cpu_ref_us_per_op(False, True),
        "workers.cpu_us_per_op": 0.0,
        "index.stash_items": statistics.fmean(plain.stash_items),
        "index.fill_us_per_op": plain.phase_ref_s["fill"] * 1e6 / ops["fill"],
        "index.lookup_us_per_op": plain.phase_ref_s["lookup"] * 1e6 / ops["lookup"],
        "index.churn_us_per_op": plain.phase_ref_s["churn"] * 1e6 / ops["churn"],
        "trace.overhead_pct": 100.0 * (
            (plain_meter.ops / plain_meter.ref_s)
            / (traced_meter.ops / traced_meter.ref_s) - 1.0),
    })
    return {
        "attempted": plain.attempted + traced.attempted,
        "failed": plain.failed + traced.failed,
        "wrong": plain.wrong + traced.wrong,
        "metrics": tracing.with_units(values),
        "info": {
            "untraced_ops_per_s": plain_meter.ops / plain_meter.ref_s,
            "traced_ops_per_s": traced_meter.ops / traced_meter.ref_s,
        },
    }
