"""Deal a list of jobs over one process per usable CPU, by ``os.fork``.

``table`` deals its beta columns and ``verify`` its suite columns and gkm
rows through ``forked_map``.  Process 0 is the calling process; the others
are fork children that send their results back through a pipe with
``marshal``, so nothing here imports multiprocessing, pickle or threading.
"""

from __future__ import annotations

import marshal
import os
import sys


def usable_cpus() -> int:
    if not hasattr(os, "fork"):
        return 1
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def forked_map(fn, jobs: list) -> list:
    """[fn(job) for job in jobs], dealt over one process per usable CPU.

    With w = min(usable CPUs, len(jobs)), at least 1, the jobs are dealt in
    rounds of w, every other round in reverse: processes 0, 1, ..., w-1, then
    w-1, ..., 0, and so on.  Both callers list their jobs heaviest first by
    ``indexing.heaviest_first`` (``verify`` suite by suite), and on such a
    list this evens the loads out better than a plain round-robin deal, which
    gives process 0 the heaviest job of every round.  Process 0 is this one
    and the others are fork children, so fn must return values that marshal
    can write.  Every child is reaped before this returns or raises.  A job
    that raises an Exception in a child raises here as the same class with
    the same arguments where this process can rebuild it (its cause holds the
    child's traceback), so a caller sees one error whichever process ran the
    job; a child that failed otherwise raises RuntimeError.
    """
    w = max(1, min(usable_cpus(), len(jobs)))
    shares = [[] for _ in range(w)]  # the job indices of each process
    for i in range(len(jobs)):
        k = i % w
        shares[k if i // w % 2 == 0 else w - 1 - k].append(i)
    children = []
    try:
        for k in range(1, w):
            read, write = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(read)
                os.close(write)
                raise
            if pid == 0:
                _run_child(fn, [jobs[i] for i in shares[k]], write)
            os.close(write)
            children.append((pid, read))
        results = [None] * len(jobs)
        for i in shares[0]:
            results[i] = fn(jobs[i])
    finally:
        replies = [_reap(pid, read) for pid, read in children]
    for k, (status, data) in enumerate(replies, start=1):
        if status:
            raise RuntimeError(f"worker {k} of {w} failed with exit status {status}")
        done, value = marshal.loads(data)
        if not done:
            module, qualname, args, trace = value
            raise _rebuilt(module, qualname, args) from RuntimeError(
                f"worker {k} of {w} raised:\n{trace}")
        for i, result in zip(shares[k], value):
            results[i] = result
    return results


def _run_child(fn, jobs: list, write: int):
    """In a fork child: write the results or the job's exception to write, and exit.

    The pipe carries marshal((True, [fn(job) for job in jobs])), or
    marshal((False, (module, qualname, args, traceback))) for the first job
    that raised an Exception.
    """
    status = 1
    try:
        try:
            reply = (True, [fn(job) for job in jobs])
        except Exception as exc:
            reply = (False, _described(exc))
        data = marshal.dumps(reply)
        with open(write, "wb") as pipe:
            pipe.write(data)
        status = 0
    except BaseException:  # a fork child must never unwind into its parent's code
        sys.excepthook(*sys.exc_info())
        sys.stderr.flush()
    finally:
        os._exit(status)


def _described(exc: Exception) -> tuple[str, str, tuple, str]:
    """(module, qualname, args, traceback text) of exc, all marshal-able."""
    import traceback  # on the failure path only

    args = exc.args
    try:
        marshal.dumps(args)
    except ValueError:
        args = (str(exc),)
    cls = type(exc)
    return cls.__module__, cls.__qualname__, args, "".join(traceback.format_exception(exc))


def _rebuilt(module: str, qualname: str, args: tuple) -> Exception:
    """The exception a child described; RuntimeError where this process cannot rebuild it."""
    try:
        cls = sys.modules[module]
        for name in qualname.split("."):
            cls = getattr(cls, name)
        exc = cls(*args)
        if isinstance(exc, Exception):
            return exc
    except Exception:  # a class this process lacks, or one args cannot rebuild
        pass
    return RuntimeError(f"{module}.{qualname}{args!r}")


def _reap(pid: int, read: int) -> tuple[int, bytes]:
    """Read a child's pipe to its end and wait for it: (exit status, bytes)."""
    try:
        with open(read, "rb") as pipe:
            data = pipe.read()
    finally:
        status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    return status, data
