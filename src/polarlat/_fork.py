"""Parallel map over forked processes, for the grid scans.

:func:`fork_map` computes ``[fn(x) for x in items]`` on up to ``processes``
processes: item i goes to process ``i % processes``, the calling process
takes share 0, and each other share runs in a child made by ``os.fork``,
which starts no interpreter and imports nothing.  A child sends its results
back pickled through a pipe and ends with ``os._exit``; the results are
merged in item order, so they equal a serial run's whenever ``fn`` depends
on its item and on data made before the call alone.

Fork is used only on Linux; elsewhere every item runs in the calling
process.  Forking copies one thread only, so a caller that wants more than
one process should run one BLAS thread (the command line does).
"""

from __future__ import annotations

import os
import pickle
import sys

from .errors import PolarlatError

_FORKS = sys.platform == "linux"


def _share(fn, items, k, processes):
    """(results, None) for items k::processes, or (results so far, (index,
    exception)) at the first item that raises."""
    results = []
    for i in range(k, len(items), processes):
        try:
            results.append(fn(items[i]))
        except Exception as exc:  # relayed to, and raised by, the caller
            return results, (i, exc)
    return results, None


def _child(write, fn, items, k, processes):
    """Run share k in a forked child, send it through ``write`` and exit:
    status 0 only after the whole result is written."""
    status = 1
    try:
        with os.fdopen(write, "wb") as fh:
            pickle.dump(_share(fn, items, k, processes), fh)
        status = 0
    finally:
        os._exit(status)


def fork_map(fn, items, processes):
    """``[fn(x) for x in items]`` on ``min(processes, len(items))`` processes.

    Raises what a serial run raises: each process stops at its first
    exception, and the one with the lowest item index is re-raised with its
    type, message and attributes.  A child that ends without its result
    raises PolarlatError naming its exit status.  No child outlives the
    call: on every path, any child not yet reaped is killed and reaped.
    """
    items = list(items)
    processes = max(1, min(processes, len(items))) if _FORKS else 1
    reads, live = [], []  # result pipes; forked children not yet reaped
    try:
        for k in range(1, processes):
            read, write = os.pipe()
            reads.append(read)
            try:
                pid = os.fork()
                if pid == 0:
                    _child(write, fn, items, k, processes)  # does not return
            finally:
                os.close(write)
            live.append(pid)
        shares = [_share(fn, items, 0, processes)]
        for pid, read in zip(list(live), reads):
            chunks = []
            while chunk := os.read(read, 1 << 16):
                chunks.append(chunk)
            status = os.waitpid(pid, 0)[1]
            live.remove(pid)
            if status:
                code = os.waitstatus_to_exitcode(status)
                raise PolarlatError(
                    f"worker process {pid} ended without a result ("
                    + (f"exit status {code})" if code >= 0
                       else f"killed by signal {-code})"))
            shares.append(pickle.loads(b"".join(chunks)))
    finally:
        for read in reads:
            os.close(read)
        if live:  # only on a failure path
            import signal

            for pid in live:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
    failures = [err for _results, err in shares if err is not None]
    if failures:
        raise min(failures, key=lambda err: err[0])[1]
    merged = [None] * len(items)
    for k, (results, _err) in enumerate(shares):
        merged[k::processes] = results
    return merged
