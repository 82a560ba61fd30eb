"""The package's one helper thread, shared by the CSV reader and the decision core.

Callers on any thread queue their jobs on it in turn; there is no thread
count, option or environment variable to set.
"""

from __future__ import annotations

import _queue
import contextvars
import os
import threading
from functools import partial


def _outcome(fn, catch=Exception) -> tuple:
    """(fn(), None), or (None, the exception it raised)."""
    try:
        return fn(), None
    except catch as exc:
        return None, exc


# The job queue of the helper thread, started on first use. A forked child
# has no helper (only the forking thread survives a fork) and starts its own.
_helper_jobs = None


def _forget_helper() -> None:
    global _helper_jobs
    _helper_jobs = None


os.register_at_fork(after_in_child=_forget_helper)


def _serve(jobs) -> None:
    while True:
        context, fn, reply = jobs.get()
        # any exception, so that the waiting caller always gets a reply
        reply.put(_outcome(partial(context.run, fn), catch=BaseException))


def _beside(fn):
    """Start fn() on the helper thread; return a function that waits for its outcome.

    The job runs in a copy of the caller's context, so the caller's
    np.errstate, a context variable since numpy 2, holds in it. Where no
    thread can be started, it runs here.
    """
    global _helper_jobs
    jobs = _helper_jobs
    if jobs is None:
        # two threads racing here start one helper each; both serve correctly
        jobs = _queue.SimpleQueue()
        try:
            threading.Thread(target=_serve, args=(jobs,), daemon=True).start()
        except RuntimeError:  # no thread to be had
            outcome = _outcome(fn)
            return lambda: outcome
        _helper_jobs = jobs
    reply = _queue.SimpleQueue()
    jobs.put((contextvars.copy_context(), fn, reply))
    return reply.get
