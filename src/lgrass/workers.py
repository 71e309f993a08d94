"""Deal a list of jobs over one process per usable CPU, by ``os.fork``.

``table`` deals its beta columns, and ``verify`` its column builds, suite
columns and gkm rows, through ``forked_map``.  Process 0 is the calling
process; the others are fork children that send their results back through
a pipe with ``marshal``, so nothing here imports multiprocessing, pickle or
threading.  A child writes one length-prefixed record per job once its last
job is done, and the caller decodes them one at a time, so it never holds a
child's whole reply as bytes beside the values decoded from it.
Where the OS can pin processes, each process of a map runs on a CPU of its
own, and the caller gets its own CPU set back when the map ends.  Linux
often starts a fork child on its parent's CPU and can leave it there for
about a second, so without the pins a sub-second map may run its processes
one after another.  The placement is a hint: a CPU the kernel refuses
leaves that process unpinned, and the outputs never depend on it.
"""

from __future__ import annotations

import errno
import marshal
import os
import sys


def usable_cpus() -> int:
    return len(_usable_cpus())


def _usable_cpus() -> list:
    """The CPUs this process may run on, in order; as many Nones where the OS cannot list them."""
    if not hasattr(os, "fork"):
        return [None]
    if hasattr(os, "sched_getaffinity"):
        return sorted(os.sched_getaffinity(0))
    return [None] * (os.cpu_count() or 1)


def _pin(cpu: int | None) -> None:
    """Run this process on cpu alone; None, or a CPU the kernel refuses, leaves it as it is."""
    if cpu is None:
        return
    try:
        os.sched_setaffinity(0, {cpu})
    except OSError as exc:
        if exc.errno != errno.EINVAL:
            raise


def forked_map(fn, jobs: list) -> list:
    """[fn(job) for job in jobs], dealt over one process per usable CPU.

    With w = min(usable CPUs, len(jobs)), at least 1, the jobs are dealt in
    rounds of w, every other round in reverse: processes 0, 1, ..., w-1, then
    w-1, ..., 0, and so on.  Both callers list their jobs heaviest first by
    ``indexing.heaviest_first`` (``verify`` suite by suite), and on such a
    list this evens the loads out better than a plain round-robin deal, which
    gives process 0 the heaviest job of every round.  Process 0 is this one
    and the others are fork children, so fn must return values that marshal
    can write; each child's results come back one job per record (see
    ``_run_child``).  Every child is reaped before this returns or raises.  A job
    that raises an Exception in a child raises here as the same class with
    the same arguments where this process can rebuild it (its cause holds the
    child's traceback), so a caller sees one error whichever process ran the
    job; a child that failed otherwise, or exited before the record of its
    last job, raises RuntimeError.

    With w > 1 and ``os.sched_setaffinity``, process k runs pinned to the k-th
    of this process's usable CPUs, read once per map, and this process gets
    its CPU set back before this returns or raises.  So fn sees one usable
    CPU, and a ``forked_map`` inside a job runs serially.  Placement is a
    hint: a CPU the kernel refuses leaves that process unpinned.
    """
    usable = _usable_cpus()
    w = max(1, min(len(usable), len(jobs)))
    pinned = w > 1 and hasattr(os, "sched_setaffinity")  # which sched_getaffinity comes with
    cpus = usable if pinned else [None] * w
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
                _run_child(fn, [jobs[i] for i in shares[k]], write, cpus[k])
            os.close(write)
            children.append((pid, read))
        _pin(cpus[0])  # after the forks, so that a child the kernel refuses stays unpinned
        results = [None] * len(jobs)
        for i in shares[0]:
            results[i] = fn(jobs[i])
    finally:
        try:
            if pinned:
                os.sched_setaffinity(0, usable)
        finally:
            replies = [_reap(pid, read) for pid, read in children]
    for k, (status, records) in enumerate(replies, start=1):
        if status:
            raise RuntimeError(f"worker {k} of {w} failed with exit status {status}")
        if records and not records[-1][0]:
            module, qualname, args, trace = records[-1][1]
            raise _rebuilt(module, qualname, args) from RuntimeError(
                f"worker {k} of {w} raised:\n{trace}")
        if len(records) != len(shares[k]):
            raise RuntimeError(f"worker {k} of {w} exited without a reply")
        for i, (_, result) in zip(shares[k], records):
            results[i] = result
    return results


_LENGTH = 8  # bytes of the big-endian length before each record


def _send(pipe, value) -> None:
    """Write one record: the length of marshal(value), then those bytes."""
    data = marshal.dumps(value)
    pipe.write(len(data).to_bytes(_LENGTH, "big"))
    pipe.write(data)


def _run_child(fn, jobs: list, write: int, cpu: int | None):
    """In a fork child: pin to cpu, run the jobs, write their records to write, and exit.

    Every job runs before the first record is written, so a full pipe never
    stalls a job.  Then the pipe carries one record (True, fn(job)) per job,
    in order; or, if a job raised an Exception, the one record
    (False, (module, qualname, args, traceback)) of the first that did.
    """
    status = 1
    try:
        _pin(cpu)
        try:
            records = [(True, fn(job)) for job in jobs]
        except Exception as exc:
            records = [(False, _described(exc))]
        with open(write, "wb") as pipe:
            for record in records:
                _send(pipe, record)
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


def _reap(pid: int, read: int) -> tuple[int, list]:
    """Read a child's records to the end of its pipe and wait for it: (exit status, records).

    Each record is decoded as soon as it is read, so its bytes go before the
    next is read.  A short read is the end of the pipe, so a record cut short
    ends the list.
    """
    records = []
    try:
        with open(read, "rb") as pipe:
            while True:
                head = pipe.read(_LENGTH)
                if len(head) < _LENGTH:
                    break
                size = int.from_bytes(head, "big")
                data = pipe.read(size)
                if len(data) < size:
                    break
                records.append(marshal.loads(data))
                del data  # before the next record's bytes are read
    finally:
        status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    return status, records
