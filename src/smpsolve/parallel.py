"""Independent work items split across two processes.

:func:`fork_map` runs the second half of a list of items in a child made
by ``os.fork()``, while this process runs the first half.  A forked child
shares the parent's memory until either writes to it, so the ensembles,
noise and laws the items read are not copied or sent; only each item's
result comes back, pickled through a pipe.  The split changes no
arithmetic: every item runs the same code on the same data as it would
serially, so the results are the same to the bit.
"""
from __future__ import annotations

import os
import pickle
import sys
import threading
import warnings
from typing import Callable, List, Sequence, TypeVar

T = TypeVar("T")
R = TypeVar("R")

# the least path-step nodes of work for which a child pays for itself.
# Forking and reaping a 160 MB process takes 2.6-6.7 ms; stepping a
# competitor, or writing a dumped table, takes 8-12 ns a node, so half the
# work must exceed the fork.  Measured break-even of ``fork_map`` over the
# production competitor streams at 80 steps (2 CPUs, 1 BLAS thread): about
# 0.6M nodes; the gate keeps a margin above it
FORK_MIN_NODES = 2_000_000

# set in a fork_map child: a nested call there runs serially
_in_child = False


def usable_cpus() -> int:
    """The number of CPUs this process may run on; 1 where the platform cannot say."""
    if not hasattr(os, "sched_getaffinity"):
        return 1
    return len(os.sched_getaffinity(0))


def fork_map(fn: Callable[[T], R], items: Sequence[T], nodes: int) -> List[R]:
    """``[fn(x) for x in items]``, with the second half run in a forked child.

    This process runs the first ``(len(items) + 1) // 2`` items and the
    child the rest.  ``nodes`` is the size of the whole work in path-step
    nodes.  The child runs only where it can pay and is safe: ``os.fork``
    exists, this process may run on two or more CPUs, it has no other
    Python thread, it is not itself a ``fork_map`` child, there are two
    items or more and ``nodes`` is at least ``FORK_MIN_NODES``; otherwise
    every item runs here.  The child's results, its first exception
    (re-raised here with its type and message, after the first half's) and
    the warnings it recorded (re-issued here, in order) come back through a
    pipe.  The child is reaped before this returns or raises, also on an
    interrupt, and a child that ends with no result raises
    :class:`ChildProcessError` naming its exit status.  A child's side
    effects other than its result, its warnings and the files it writes
    are lost, and it must print nothing.
    """
    items = list(items)
    half = (len(items) + 1) // 2
    if (
        len(items) < 2
        or nodes < FORK_MIN_NODES
        or _in_child
        or not hasattr(os, "fork")
        or usable_cpus() < 2
        or threading.active_count() > 1
    ):
        return [fn(x) for x in items]
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(read_fd)
        _child(fn, items[half:], write_fd)
    os.close(write_fd)
    status = None
    try:
        with os.fdopen(read_fd, "rb") as pipe:
            head = [fn(x) for x in items[:half]]
            payload = pipe.read()
        status = os.waitpid(pid, 0)[1]
    finally:
        if status is None:
            # signal, like traceback in the child, is imported only where
            # it is used, and adds nothing to the package's import time
            import signal

            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    if not payload:
        raise ChildProcessError(f"fork_map child ended with no result: {_describe(status)}")
    ok, value, caught = pickle.loads(payload)
    _reissue(caught)
    if not ok:
        error, child_traceback = value
        raise error from _ChildTraceback(child_traceback)
    return head + value


class _ChildTraceback(Exception):
    """The traceback of a child's exception, as text: the cause of its re-raise."""


def _child(fn, items, write_fd) -> None:
    """Run ``items`` in the forked child, send the outcome, and end the process."""
    global _in_child
    _in_child = True
    code = 1
    try:
        import traceback

        with warnings.catch_warnings(record=True) as caught:
            try:
                outcome = True, [fn(x) for x in items]
            except Exception as exc:
                outcome = False, (exc, traceback.format_exc())
        sent = [(str(w.message), w.category, w.filename, w.lineno) for w in caught]
        try:
            payload = pickle.dumps((*outcome, sent))
        except Exception as exc:
            # an unpicklable result or exception: its type and message as text
            failed, text = (exc, traceback.format_exc()) if outcome[0] else outcome[1]
            error = RuntimeError(f"{type(failed).__qualname__}: {failed}")
            payload = pickle.dumps((False, (error, text), sent))
        with os.fdopen(write_fd, "wb") as pipe:
            pipe.write(payload)
        code = 0
    finally:
        # never return into the parent's stack, and flush none of its buffers
        os._exit(code)


def _describe(status: int) -> str:
    code = os.waitstatus_to_exitcode(status)
    return f"killed by signal {-code}" if code < 0 else f"exit status {code}"


def _reissue(caught) -> None:
    """Issue the child's warnings here, against the registry of the module
    that raised each, so a warning already shown here is not shown twice."""
    if not caught:
        return
    modules = {getattr(m, "__file__", None): m for m in list(sys.modules.values())}
    for message, category, filename, lineno in caught:
        module = modules.get(filename)
        registry = None if module is None else vars(module).setdefault("__warningregistry__", {})
        name = None if module is None else module.__name__
        warnings.warn_explicit(message, category, filename, lineno, module=name, registry=registry)
