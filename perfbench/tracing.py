"""Traced runs: timers around the layers' public functions.

:func:`install` replaces each traced name where its caller looks it up:
module functions in the module that imported them (so
``repro.serve.client.encode_request`` is traced apart from
``repro.serve.workers.encode_request``), methods on their class.  It must
run before the server starts: worker processes are forked and inherit
the wrappers, and a shared-memory array made before the fork carries
every process's totals back, one slot per process.  The untraced run
never imports this module.

A wrapper's *self* time is its time minus the time of wrapped calls made
inside it, so each layer's figure excludes the layers below it.
"""

from __future__ import annotations

import functools
import os
import time
from multiprocessing.sharedctypes import RawArray
from typing import Dict, List, Tuple

SELF_S, INCL_S, CALLS, KCALLS, ITEMS, OFF_R, OFF_W, KICKS = range(8)
FIELDS = 8
#: process slots: this process, the workers, and their restarts
MAX_PROCS = 16


def _points():
    """``(point, owner, attribute names, kernel kind)`` for every layer."""
    import repro.serve.client as client_mod
    import repro.serve.server as server_mod
    import repro.serve.workers as workers_mod
    from repro.apps.kvstore import DurableValueLog, LogStructuredStore, ValueLog
    from repro.core.mccuckoo import McCuckoo
    from repro.core.resize import ResizableMcCuckoo
    from repro.hashing import DEFAULT_FAMILY
    from repro.maintenance import Checkpointer, Compactor
    from repro.memory.model import MemoryModel
    from repro.serve import ShardedLogStore, ShmRing

    return [
        ("client.codec", client_mod, ("encode_request", "decode_reply"), None),
        ("server.codec", server_mod, ("decode_request", "encode_reply"), None),
        ("workers.ipc_codec", workers_mod,
         ("encode_request", "decode_reply", "encode_key_run", "decode_key_run",
          "decode_key_run_header", "decode_request", "encode_reply"), None),
        ("workers.ring_push", ShmRing, ("try_push",), None),
        ("workers.ring_pop", ShmRing, ("pop", "advance"), None),
        ("store", ShardedLogStore,
         ("get", "get_many", "get_many_u64", "put", "delete"), None),
        ("kvstore.read", LogStructuredStore, ("get", "get_many", "get_many_u64"), None),
        ("kvstore.write", LogStructuredStore, ("put", "delete"), None),
        ("kvstore.log_append", ValueLog, ("append", "append_tombstone"), None),
        ("kvstore.log_append", DurableValueLog, ("append",), None),
        ("index.table", ResizableMcCuckoo,
         ("put", "lookup", "lookup_many", "lookup_many_u64", "delete", "try_update"), None),
        ("index.lookup", McCuckoo, ("lookup", "lookup_many", "lookup_many_u64"), "lookup"),
        ("index.insert", McCuckoo, ("put", "put_many"), "insert"),
        ("index.delete", McCuckoo, ("delete", "delete_many"), "delete"),
        ("index.update", McCuckoo, ("try_update",), "update"),
        ("hashing", type(DEFAULT_FAMILY),
         ("candidates", "candidates_many", "candidates_matrix"), None),
        ("memory.record", MemoryModel, ("record",), None),
        ("maintenance.compact", Compactor, ("compact",), None),
        ("maintenance.checkpoint", Checkpointer, ("checkpoint",), None),
    ]


def _items(kind: str, many: bool, result) -> Tuple[int, int]:
    """(items, kicks) of one outermost index-kernel call."""
    if kind == "insert":
        if many:
            return len(result), sum(outcome.kicks for outcome in result)
        return 1, result.kicks
    return (len(result) if many else 1), 0


class Tracer:
    """The installed wrappers and the shared totals they write."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._index: Dict[str, int] = {}
        self.array = None
        self.base = 0
        self.stack: List[float] = []
        self.in_kernel = False

    # -- slots ---------------------------------------------------------

    @property
    def width(self) -> int:
        return 1 + len(self.names) * FIELDS

    def _claim(self) -> None:
        """Take the first free process slot (runs in each forked child)."""
        self.stack.clear()
        self.in_kernel = False
        pid = os.getpid()
        for slot in range(1, MAX_PROCS):
            start = slot * self.width
            if self.array[start] == 0:
                self.array[start] = pid
                self.base = start + 1
                return
        self.base = -1  # out of slots: the wrappers write nowhere

    # -- install -------------------------------------------------------

    def install(self) -> None:
        points = _points()
        for point, _, _, _ in points:
            if point not in self._index:
                self._index[point] = len(self.names)
                self.names.append(point)
        self.array = RawArray("d", MAX_PROCS * self.width)
        self.array[0] = os.getpid()
        self.base = 1
        os.register_at_fork(after_in_child=self._claim)
        for point, owner, attrs, kind in points:
            for attr in attrs:
                original = getattr(owner, attr)
                if isinstance(owner, type):
                    original = owner.__dict__.get(attr, original)
                many = attr.endswith(("_many", "_many_u64"))
                setattr(owner, attr,
                        self._wrap(original, self._index[point], kind, many))

    def _wrap(self, fn, point: int, kind, many: bool):
        tracer = self
        stack = self.stack
        perf = time.perf_counter
        offset = point * FIELDS

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            kernel = kind is not None and not tracer.in_kernel
            if kernel:
                tracer.in_kernel = True
                mem = args[0].mem
                before = mem.snapshot()
            stack.append(0.0)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf() - t0
                children = stack.pop()
                if stack:
                    stack[-1] += elapsed
                if kernel:
                    tracer.in_kernel = False
                if tracer.base >= 0:
                    arr = tracer.array
                    base = tracer.base + offset
                    arr[base + SELF_S] += elapsed - children
                    arr[base + INCL_S] += elapsed
                    arr[base + CALLS] += 1
            if kernel and tracer.base >= 0:
                after = mem.snapshot()
                items, kicks = _items(kind, many, result)
                arr[base + KCALLS] += 1
                arr[base + ITEMS] += items
                arr[base + KICKS] += kicks
                arr[base + OFF_R] += after.off_chip.reads - before.off_chip.reads
                arr[base + OFF_W] += after.off_chip.writes - before.off_chip.writes
            return result

        return wrapper

    # -- totals --------------------------------------------------------

    def totals(self) -> Dict[Tuple[str, str], List[float]]:
        """``{(point, role): fields}`` summed over processes, where role
        is ``"frontend"`` for this process and ``"workers"`` for the rest."""
        out: Dict[Tuple[str, str], List[float]] = {}
        width = self.width
        for slot in range(MAX_PROCS):
            start = slot * width
            if self.array[start] == 0:
                continue
            role = "frontend" if slot == 0 else "workers"
            for point, index in self._index.items():
                base = start + 1 + index * FIELDS
                fields = out.setdefault((point, role), [0.0] * FIELDS)
                for field in range(FIELDS):
                    fields[field] += self.array[base + field]
        return out


def delta(after, before):
    return {
        key: [a - b for a, b in zip(fields, before.get(key, [0.0] * FIELDS))]
        for key, fields in after.items()
    }


class Totals:
    """Lookups over one phase's :func:`delta`."""

    def __init__(self, fields) -> None:
        self.fields = fields

    def get(self, point: str, field: int, role: str = "all") -> float:
        roles = ("frontend", "workers") if role == "all" else (role,)
        return sum(self.fields.get((point, r), [0.0] * FIELDS)[field] for r in roles)


def layer_metrics(t: Totals, ops: int, factor: float) -> Dict[str, float]:
    """The per-layer metrics every workload shares, in reference time."""
    ops = max(1, ops)

    def us(*points: str, role: str = "all", field: int = SELF_S) -> float:
        return sum(t.get(p, field, role) for p in points) * factor * 1e6 / ops

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    index_points = ("index.table", "index.lookup", "index.insert",
                    "index.delete", "index.update")
    writes = t.get("kvstore.write", CALLS)
    inserts = t.get("index.insert", ITEMS)
    lookups = t.get("index.lookup", ITEMS)
    deletes = t.get("index.delete", ITEMS)
    return {
        "client.codec_us_per_op": us("client.codec", role="frontend"),
        "server.codec_us_per_op": us("server.codec", role="frontend"),
        "workers.frames_per_op": t.get("workers.ring_push", CALLS, "frontend") / ops,
        "workers.ring_us_per_op": us("workers.ring_push", "workers.ring_pop"),
        "workers.ipc_codec_us_per_op": us("workers.ipc_codec"),
        "store.us_per_op": us("store"),
        "kvstore.us_per_op": us("kvstore.read", "kvstore.write"),
        "kvstore.log_append_us_per_write": ratio(
            t.get("kvstore.log_append", SELF_S) * factor * 1e6, writes),
        "index.us_per_op": us(*index_points),
        "index.keys_per_call": ratio(lookups, t.get("index.lookup", KCALLS)),
        "index.calls_per_op": sum(t.get(p, KCALLS) for p in index_points) / ops,
        "index.kicks_per_insert": ratio(t.get("index.insert", KICKS), inserts),
        "index.offchip_reads_per_lookup": ratio(t.get("index.lookup", OFF_R), lookups),
        "index.offchip_writes_per_insert": ratio(t.get("index.insert", OFF_W), inserts),
        "index.offchip_per_delete": ratio(
            t.get("index.delete", OFF_R) + t.get("index.delete", OFF_W), deletes),
        "hashing.us_per_op": us("hashing"),
        "memory.record_calls_per_op": t.get("memory.record", CALLS) / ops,
        "maintenance.compactions": t.get("maintenance.compact", CALLS) * 1000 / ops,
        "maintenance.compact_us_per_op": us("maintenance.compact", field=INCL_S),
        "maintenance.checkpoints": t.get("maintenance.checkpoint", CALLS) * 1000 / ops,
        "maintenance.checkpoint_us_per_op": us("maintenance.checkpoint", field=INCL_S),
    }


#: name → unit of every per-layer metric, in the order they are printed
UNITS = {
    "client.codec_us_per_op": "us",
    "server.codec_us_per_op": "us",
    "server.cpu_us_per_op": "us",
    "workers.cpu_us_per_op": "us",
    "workers.frames_per_op": "frames/op",
    "workers.ring_us_per_op": "us",
    "workers.ipc_codec_us_per_op": "us",
    "store.us_per_op": "us",
    "kvstore.us_per_op": "us",
    "kvstore.log_append_us_per_write": "us",
    "index.us_per_op": "us",
    "index.keys_per_call": "keys/call",
    "index.calls_per_op": "calls/op",
    "index.kicks_per_insert": "kicks/insert",
    "index.stash_items": "count",
    "index.offchip_reads_per_lookup": "accesses",
    "index.offchip_writes_per_insert": "accesses",
    "index.offchip_per_delete": "accesses",
    "index.fill_us_per_op": "us",
    "index.lookup_us_per_op": "us",
    "index.churn_us_per_op": "us",
    "hashing.us_per_op": "us",
    "memory.record_calls_per_op": "calls/op",
    "maintenance.compactions": "1/kop",
    "maintenance.compact_us_per_op": "us",
    "maintenance.checkpoints": "1/kop",
    "maintenance.checkpoint_us_per_op": "us",
    "trace.overhead_pct": "%",
}


def with_units(values: Dict[str, float]) -> Dict[str, Tuple[float, str]]:
    missing = set(UNITS) - set(values)
    if missing:
        raise KeyError(f"per-layer metrics not computed: {sorted(missing)}")
    return {name: (float(values[name]), UNITS[name]) for name in UNITS}
