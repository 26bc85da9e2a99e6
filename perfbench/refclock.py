"""Reference time: wall and CPU time rescaled by a fixed probe's speed.

On a small shared host the same code runs at very different speeds from
one half-minute to the next, so raw rates cannot tell a regression from a
slow moment.  The load therefore pauses at short, regular slice
boundaries; at each pause :func:`probe_kernel` runs on every allowed CPU
in turn and its speed, over :data:`NOMINAL_ITERS_PER_S`, is the factor by
which the slice's wall time, CPU time and latencies are multiplied.  A
reference second is the time the work would take on a host whose probe
runs at the nominal speed.

The probe is part of the benchmark's definition: changing
:func:`probe_kernel`, :data:`PROBE_ITERS` or :data:`NOMINAL_ITERS_PER_S`
changes every time-based metric.
"""

from __future__ import annotations

import os
import statistics
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Iterable, List, Optional

import numpy as np

#: probe speed, in kernel iterations per second, at which one raw second
#: is one reference second (about the median speed between load slices on
#: the 2-vCPU host the README's figures come from)
NOMINAL_ITERS_PER_S = 7.0e5
PROBE_ITERS = 4000
PROBE_REPS = 3
#: a probe whose run overlapped more than this share of its wall time
#: with CPU use by the program's processes is discarded as contaminated
CONTAMINATION_SHARE = 0.05

_MULT = np.uint64(6364136223846793005)
_INC = np.uint64(1442695040888963407)


_PIPE: List[int] = []


def probe_kernel(iters: int) -> int:
    """The program's kind of work: interpreted loops over ints, a dict and
    bytes, small NumPy operations, and a pipe write and read every other
    iteration (the serving path spends about as long in system calls as
    in interpreted code).  Returns a checksum so nothing is elided."""
    if not _PIPE:
        _PIPE.extend(os.pipe())
    read_fd, write_fd = _PIPE
    table: dict = {}
    buf = bytearray(256)
    arr = np.arange(64, dtype=np.uint64)
    acc = 0
    for i in range(iters):
        k = (i * 0x9E3779B1) & 0x3FF
        table[k] = table.get(k, 0) + 1
        acc = (acc * 31 + k) & 0xFFFFFFFF
        buf[i & 0xFF] = acc & 0xFF
        if i & 1:
            os.write(write_fd, buf[i & 0xFF:(i & 0xFF) + 1])
            acc ^= os.read(read_fd, 1)[0]
        if i & 31 == 0:
            arr = arr * _MULT + _INC
            acc ^= int(arr[i & 63] >> np.uint64(48))
    return acc + len(table) + bytes(buf).count(0)


def cpu_ns(pid: int) -> int:
    """CPU time of every thread of ``pid`` in ns (0 once it has exited)."""
    total = 0
    try:
        tids = os.listdir(f"/proc/{pid}/task")
    except OSError:
        return 0
    for tid in tids:
        try:
            with open(f"/proc/{pid}/task/{tid}/schedstat") as handle:
                total += int(handle.read().split()[0])
        except (OSError, ValueError, IndexError):
            pass
    return total


def _other_threads_ns(skip_tid: int) -> int:
    total = 0
    for tid in os.listdir("/proc/self/task"):
        if int(tid) == skip_tid:
            continue
        try:
            with open(f"/proc/self/task/{tid}/schedstat") as handle:
                total += int(handle.read().split()[0])
        except (OSError, ValueError, IndexError):
            pass
    return total


def peak_rss_mb(pid: int) -> float:
    """``VmHWM`` of ``pid`` in MB (0 if it is gone)."""
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


@dataclass
class Probe:
    speeds: List[float]
    """Kernel iterations per second on each allowed CPU, in order."""
    contaminated: bool

    def factor(self, cpu: Optional[int] = None) -> float:
        """Speed over the nominal speed: of one CPU (an index into the
        allowed CPUs), or the mean over all of them."""
        speed = statistics.fmean(self.speeds) if cpu is None else self.speeds[cpu]
        return speed / NOMINAL_ITERS_PER_S


class RefClock:
    """Runs the probe on each allowed CPU and checks it ran alone.

    ``program_pids`` lists the program's other processes (the workers);
    their CPU use, and that of any thread of this process besides the
    probing one, must stay under :data:`CONTAMINATION_SHARE` of the
    probe's wall time, or the probe is reported contaminated.
    """

    def __init__(self, program_pids: Callable[[], Iterable[int]] = tuple) -> None:
        self.program_pids = program_pids
        self.cpus = sorted(os.sched_getaffinity(0))
        self.probes = 0
        self.contaminated = 0

    def _others_ns(self) -> int:
        return _other_threads_ns(threading.get_native_id()) + sum(
            cpu_ns(pid) for pid in self.program_pids()
        )

    def pin(self, cpu: int) -> None:
        """Run this process on one allowed CPU (by index) until the next probe."""
        os.sched_setaffinity(0, {self.cpus[cpu]})

    def probe(self) -> Probe:
        before = self._others_ns()
        start = time.perf_counter()
        speeds = []
        try:
            for cpu in self.cpus:
                os.sched_setaffinity(0, {cpu})
                reps = []
                for _ in range(PROBE_REPS):
                    t0 = time.perf_counter()
                    probe_kernel(PROBE_ITERS)
                    reps.append(time.perf_counter() - t0)
                speeds.append(PROBE_ITERS / statistics.median(reps))
        finally:
            os.sched_setaffinity(0, self.cpus)
        wall_ns = (time.perf_counter() - start) * 1e9
        used = self._others_ns() - before
        contaminated = used > CONTAMINATION_SHARE * wall_ns
        self.probes += 1
        self.contaminated += contaminated
        return Probe(speeds, contaminated)


@dataclass
class Slice:
    wall_s: float
    factor: float
    ops: int
    cpu_self_ns: int = 0
    cpu_workers_ns: int = 0
    latencies_s: List[float] = field(default_factory=list)

    @property
    def ref_s(self) -> float:
        return self.wall_s * self.factor


class ContaminatedProbeError(RuntimeError):
    """Too many probes overlapped CPU use by the program's processes."""


class SliceMeter:
    """Cuts a timed phase into slices and converts them to reference time.

    Call :meth:`start` before the first slice, then :meth:`close` at each
    boundary once the load is quiescent, and :meth:`resume` when it
    restarts.  A slice's factor is the mean of the clean probes at its two
    ends, over every CPU or, for a load pinned to one CPU, over that one.
    """

    def __init__(self, clock: RefClock, worker_pids: Callable[[], Iterable[int]] = tuple) -> None:
        self.clock = clock
        self.worker_pids = worker_pids
        self.slices: List[Slice] = []
        self._last: Optional[Probe] = None
        self._t0 = 0.0
        self._cpu0 = (0, 0)

    def _cpu(self):
        return cpu_ns(os.getpid()), sum(cpu_ns(pid) for pid in self.worker_pids())

    def start(self) -> None:
        for _ in range(3):
            probe = self.clock.probe()
            if not probe.contaminated:
                self._last = probe
                break
        else:
            raise ContaminatedProbeError("no clean probe before the timed phase")
        self.resume()

    def close(self, ops: int, latencies: Optional[List[float]] = None,
              cpu: Optional[int] = None) -> Slice:
        wall = time.perf_counter() - self._t0
        cpu1 = self._cpu()
        now = self.clock.probe()
        ends = [p.factor(cpu) for p in (self._last, now)
                if p is not None and not p.contaminated]
        piece = Slice(
            wall_s=wall,
            factor=statistics.fmean(ends),
            ops=ops,
            cpu_self_ns=cpu1[0] - self._cpu0[0],
            cpu_workers_ns=cpu1[1] - self._cpu0[1],
            latencies_s=latencies if latencies is not None else [],
        )
        self.slices.append(piece)
        if not now.contaminated:
            self._last = now
        return piece

    def resume(self) -> None:
        """Start the next slice (after :meth:`close`)."""
        self._cpu0 = self._cpu()
        self._t0 = time.perf_counter()

    def check(self) -> None:
        """Refuse a phase whose probes were mostly contaminated."""
        if self.clock.contaminated * 2 > self.clock.probes:
            raise ContaminatedProbeError(
                f"{self.clock.contaminated} of {self.clock.probes} probes ran "
                "while the program's processes used CPU"
            )

    def last_factor(self, cpu: Optional[int] = None) -> float:
        """The factor of the latest clean probe."""
        assert self._last is not None, "start() not called"
        return self._last.factor(cpu)

    # -- totals --------------------------------------------------------

    @property
    def ops(self) -> int:
        return sum(s.ops for s in self.slices)

    @property
    def wall_s(self) -> float:
        return sum(s.wall_s for s in self.slices)

    @property
    def ref_s(self) -> float:
        return sum(s.ref_s for s in self.slices)

    @property
    def mean_factor(self) -> float:
        return self.ref_s / self.wall_s

    def cpu_ref_us_per_op(self, workers: bool, self_proc: bool) -> float:
        total = sum(
            ((s.cpu_self_ns if self_proc else 0)
             + (s.cpu_workers_ns if workers else 0)) * s.factor
            for s in self.slices
        )
        return total / 1e3 / max(1, self.ops)

    def latency_quantiles_ms(self, raw: bool = False):
        """(p50, p90, p99) request latency in ms, reference or raw time.

        p50 and p90 are the medians over slices of each slice's own
        percentile, so one slow slice cannot move them; p99 is taken over
        every request of the phase."""
        def pick(values: List[float], q: float) -> float:
            return values[min(len(values) - 1, int(q * len(values)))]

        p50s: List[float] = []
        p90s: List[float] = []
        pooled: List[float] = []
        for s in self.slices:
            scale = (1.0 if raw else s.factor) * 1e3
            values = sorted(lat * scale for lat in s.latencies_s)
            if values:
                p50s.append(pick(values, 0.50))
                p90s.append(pick(values, 0.90))
                pooled.extend(values)
        if not pooled:
            return 0.0, 0.0, 0.0
        pooled.sort()
        return statistics.median(p50s), statistics.median(p90s), pick(pooled, 0.99)
