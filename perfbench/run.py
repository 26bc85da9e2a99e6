"""Run one benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload {get_batch,put_churn,index_fill} \
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout: the program is imported from
``src/``.  ``--trace 0`` prints the end-to-end metrics; ``--trace 1``
prints the per-layer metrics of a traced run plus its overhead.  The last
line of standard output is the JSON result; the lines before it give the
raw wall-clock figures for reference.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import shutil
import signal
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("get_batch", "put_churn", "index_fill")
#: a run still going after this long is stopped and reported as failed
CEILING_S = 150
#: grace for the orderly shutdown after the ceiling before a hard exit
GRACE_S = 15


class RunCeiling(BaseException):
    """The run exceeded its time ceiling (or was interrupted)."""


def _prepare_environment(scratch: Path) -> None:
    """Fresh-interpreter hygiene: default program settings, a single
    thread per process, and every temporary file (worker log
    directories) inside the checkout."""
    for name in list(os.environ):
        if name.startswith("REPRO_"):
            del os.environ[name]
    # The program uses no BLAS kernels; a BLAS thread pool would only add
    # spin-waiting threads that the probe self-check counts against it.
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[name] = "1"
    scratch.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(scratch)
    tempfile.tempdir = str(scratch)
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))


def _reap_children() -> None:
    """Kill and wait for any process this run started that is still alive,
    then stop the shared-memory resource tracker, which unlinks any segment
    an interrupted server left registered."""
    try:
        from multiprocessing import resource_tracker
        tracker = resource_tracker._resource_tracker
    except ImportError:
        tracker = None
    spare = getattr(tracker, "_pid", None)
    me = str(os.getpid())
    for entry in os.listdir("/proc"):
        if not entry.isdigit() or int(entry) == spare:
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if fields[1] == me:
            try:
                os.kill(int(entry), signal.SIGKILL)
                os.waitpid(int(entry), 0)
            except (OSError, ChildProcessError):
                pass
    if spare is not None:
        try:
            tracker._stop()
        except Exception:
            pass


def _cleanup(scratch: Path) -> None:
    _reap_children()
    shutil.rmtree(scratch, ignore_errors=True)
    try:
        scratch.parent.rmdir()
    except OSError:
        pass


def _install_ceiling(scratch: Path) -> None:
    state = {"fired": False}

    def on_signal(signum, frame):
        if state["fired"]:
            _cleanup(scratch)
            os._exit(3)
        state["fired"] = True
        signal.alarm(GRACE_S)
        raise RunCeiling(signal.Signals(signum).name)

    def restore_in_child() -> None:
        # the program's forked workers keep their own signal behaviour
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
        signal.signal(signal.SIGINT, signal.default_int_handler)

    for signum in (signal.SIGALRM, signal.SIGTERM, signal.SIGINT):
        signal.signal(signum, on_signal)
    os.register_at_fork(after_in_child=restore_in_child)
    signal.alarm(CEILING_S)


def _result(summary: dict) -> dict:
    attempted = summary["attempted"]
    failed = summary["failed"]
    return {
        "correct": summary["wrong"] == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in summary["metrics"].items()
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    scratch = ROOT / ".bench_tmp" / str(os.getpid())
    _install_ceiling(scratch)
    started = time.perf_counter()
    try:
        _prepare_environment(scratch)
        if args.workload == "index_fill":
            import indexfill
            summary = indexfill.run(args.seed, args.seconds, bool(args.trace))
        else:
            import serving
            summary = asyncio.run(
                serving.run(args.workload, args.seed, args.seconds, bool(args.trace))
            )
    except RunCeiling as stop:
        print(f"perfbench: run stopped ({stop}) after "
              f"{time.perf_counter() - started:.1f} s", file=sys.stderr)
        traceback.print_exc()
        return 3
    finally:
        signal.alarm(0)
        _cleanup(scratch)
    for name, value in sorted(summary.get("info", {}).items()):
        print(f"# {name} = {value:.6g}")
    print(json.dumps(_result(summary)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
