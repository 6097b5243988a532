"""Per-process execution slots for concurrency *inside* a pipeline.

The :class:`~repro.exec.session.Session` owns the worker slots of a run.
When it executes jobs inline (``workers == 1`` plan fan-out, or a single
job with ``workers > 1``), it installs the slot count here so composite
pipeline stages — ``race(a,b,...)`` — can fan their branches out over
threads *within* the executing process.  The race stage reads the slots
and the session grants them, so they live in the pipeline layer, below
the execution core.  Jobs dispatched to worker processes run with the
default of one slot (the process pool already uses the machine); results
are identical either way, only the wall clock changes.

The scope is **thread-local**: the session enters it in the thread that
executes the job inline (the thread that called ``Session.run`` or
iterates ``Session.stream``), and the stages of that job read it from the
same thread.  Concurrent sessions in different threads therefore cannot
clobber each other's slot counts; threads without a scope see the default
of one slot.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Iterator

_LOCAL = threading.local()


@contextmanager
def slot_scope(slots: int) -> Iterator[int]:
    """Grant ``slots`` concurrent execution slots to pipelines in the scope."""
    previous = getattr(_LOCAL, "slots", 1)
    _LOCAL.slots = max(1, int(slots))
    try:
        yield _LOCAL.slots
    finally:
        _LOCAL.slots = previous


def branch_slots() -> int:
    """Slots available for fanning out composite-stage branches (>= 1)."""
    return getattr(_LOCAL, "slots", 1)
