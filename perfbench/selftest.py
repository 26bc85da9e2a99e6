"""Oracle self-test: each oracle must count exactly the one fault planted.

    python3 perfbench/selftest.py

Runs at tiny sizes against the real program (a 2-worker server and a
small table).  Every oracle is first run on clean output, where it must
count 0, then on output with one planted fault, where it must count 1:

* a wrong GET value (a key rewritten behind the model's back),
* a wrong PUT ``created`` flag (a key inserted behind the model's back),
* a write lost across a worker kill (a key deleted behind the model's back
  before the SIGKILL; the post-restart readback must miss exactly it),
* a broken copy counter (one counter of a live copy overwritten).

Exits 0 when every count matches, 1 otherwise.
"""

from __future__ import annotations

import asyncio
import os
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run as runner  # noqa: E402

_results = []


def expect(name: str, planted: int, counted: int) -> None:
    ok = planted == counted
    _results.append(ok)
    print(f"{'ok  ' if ok else 'FAIL'} {name}: planted {planted}, counted {counted}")


async def _serving_checks() -> None:
    import oracles
    import serving
    from repro.serve import McCuckooClient

    serving.GET_RESIDENT = 64
    served = serving.Served("get_batch", seed=7)
    try:
        await served.start()
        keys = served.inputs.resident[:32]
        async with McCuckooClient(*served.address, pool_size=1) as client:
            ops = [("get", key) for key in keys]
            expect("GET value, clean", 0,
                   oracles.get_batch_failures(served.model, keys, await client.batch(ops)))
            await client.put(keys[5], b"planted")
            expect("GET value, one rewritten key", 1,
                   oracles.get_batch_failures(served.model, keys, await client.batch(ops)))

            fresh = served.inputs.missing[:2]
            model = served.model
            clean = oracles.put_failure(model, fresh[0], b"v", await client.put(fresh[0], b"v"))
            expect("PUT created, clean", 0, clean)
            await client.put(fresh[1], b"behind the model's back")
            expect("PUT created, one pre-inserted key", 1,
                   oracles.put_failure(model, fresh[1], b"v", await client.put(fresh[1], b"v")))
            deleted = await client.delete(fresh[0])
            expect("DELETE deleted, clean", 0, oracles.delete_failure(model, fresh[0], deleted))
    finally:
        await served.stop()

    serving.CHURN_HOT, serving.CHURN_COLD = 4, 16
    for planted in (0, 1):
        churn = serving.Served("put_churn", seed=11)
        try:
            await churn.start()
            if planted:
                async with McCuckooClient(*churn.address, pool_size=1) as client:
                    await client.delete(next(iter(churn.model)))
            failed_before = churn.ctl.failed
            await churn.kill_and_readback()
            expect(f"readback after worker kill, {planted} lost write(s)", planted,
                   churn.ctl.failed - failed_before)
        finally:
            await churn.stop()


def _counter_checks() -> None:
    import oracles
    from repro.core.config import DeletionMode
    from repro.core.mccuckoo import McCuckoo

    rng = random.Random(3)
    table = McCuckoo(64, d=3, seed=3, deletion_mode=DeletionMode.RESET)
    model = {}
    for _ in range(150):
        key = rng.getrandbits(64)
        table.put(key, key & 0xFF)
        model[key] = key & 0xFF
    keys = list(model)
    expect("lookup, clean", 0,
           oracles.lookup_failures(table, keys, table.lookup_many(keys), model))
    wrong = dict(model)
    wrong[keys[0]] ^= 1
    expect("lookup, one wrong value", 1,
           oracles.lookup_failures(table, keys, table.lookup_many(keys), wrong))
    expect("counter invariant, clean", 0, oracles.counter_invariant_failure(table, keys))
    victim = next(key for key in keys if len(table.copies_of(key)) == 1)
    bucket = table.copies_of(victim)[0]
    table._counters.poke(bucket, 2)  # planted: a sole copy claims two
    expect("counter invariant, one broken counter", 1,
           oracles.counter_invariant_failure(table, keys))


def main() -> int:
    scratch = runner.ROOT / ".bench_tmp" / str(os.getpid())
    try:
        runner._prepare_environment(scratch)
        _counter_checks()
        asyncio.run(_serving_checks())
    finally:
        runner._cleanup(scratch)
    return 0 if _results and all(_results) else 1


if __name__ == "__main__":
    sys.exit(main())
