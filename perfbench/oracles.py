"""Output oracles, computed apart from the program.

Every check compares a reply or a table against the benchmark's own dict
model, or against the paper's copy-counter invariant read through public
accessors only; none compares against stored output of an earlier run.
Each function returns the number of failed operations it saw.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, Iterable, List, Optional, Sequence

from repro.serve import DeleteReply, ErrorReply, PutReply, ValueReply

Model = Dict[int, bytes]


def value_of(reply) -> Optional[bytes]:
    """A GET reply's value, ``None`` when absent; raises on an error reply."""
    if isinstance(reply, ErrorReply) or not isinstance(reply, ValueReply):
        raise ValueError(f"not a GET answer: {reply!r}")
    return reply.value if reply.found else None


def get_batch_failures(model: Model, keys: Sequence[int], replies: Sequence) -> int:
    """One failure per GET whose reply is an error or disagrees with the model."""
    if len(replies) != len(keys):
        return len(keys)
    failed = 0
    for key, reply in zip(keys, replies):
        try:
            failed += value_of(reply) != model.get(key)
        except ValueError:
            failed += 1
    return failed


def error_replies(replies: Sequence) -> int:
    return sum(isinstance(reply, ErrorReply) for reply in replies)


def get_failure(model: Model, key: int, value: Optional[bytes]) -> int:
    return int(value != model.get(key))


def put_failure(model: Model, key: int, value: bytes, created: bool) -> int:
    """Check a PUT's ``created`` flag, then apply the PUT to the model."""
    failed = int(created != (key not in model))
    model[key] = value
    return failed


def delete_failure(model: Model, key: int, deleted: bool) -> int:
    """Check a DELETE's ``deleted`` flag, then apply it to the model."""
    failed = int(deleted != (key in model))
    model.pop(key, None)
    return failed


def churn_failure(model: Model, verb: str, key: int, value: bytes, reply) -> int:
    """Check one churn op's reply, applying an answered PUT or DELETE to
    the model; a reply of the wrong kind is a failure."""
    if verb == "get" and isinstance(reply, ValueReply):
        return get_failure(model, key, value_of(reply))
    if verb == "put" and isinstance(reply, PutReply):
        return put_failure(model, key, value, reply.created)
    if verb == "delete" and isinstance(reply, DeleteReply):
        return delete_failure(model, key, reply.deleted)
    return 1


def readback_failures(model: Model, keys: Sequence[int], values: Sequence[Optional[bytes]]) -> int:
    """After a crash: every acknowledged write survives, every deleted
    key stays absent."""
    return sum(value != model.get(key) for key, value in zip(keys, values))


def lookup_failures(table, keys: Sequence[int], outcomes: Sequence, model: Dict[int, int]) -> int:
    """Index lookups against the model (``found`` and the stored value)."""
    failed = 0
    for key, outcome in zip(keys, outcomes):
        want = model.get(key)
        if want is None:
            failed += outcome.found
        else:
            failed += not (outcome.found and outcome.value == want)
    return failed


def counter_invariant_failure(table, resident: Iterable[int]) -> int:
    """The paper's counter invariant, as one check per table.

    Each live copy of a key with ``v`` copies holds counter value ``v``,
    so ``counter_histogram()[v]`` must equal ``v`` times the number of
    resident keys that ``copies_of`` finds in ``v`` buckets.
    """
    tally = Counter(len(table.copies_of(key)) for key in resident)
    histogram = table.counter_histogram()
    values = (set(tally) | set(histogram)) - {0}
    return int(any(histogram.get(v, 0) != v * tally.get(v, 0) for v in values))


def size_failure(table, model: Dict[int, int]) -> int:
    return int(len(table) != len(model))


__all__: List[str] = [
    "churn_failure",
    "counter_invariant_failure",
    "delete_failure",
    "error_replies",
    "get_batch_failures",
    "get_failure",
    "lookup_failures",
    "put_failure",
    "readback_failures",
    "size_failure",
    "value_of",
]
