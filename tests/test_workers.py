import os

import pytest

from lgrass import workers
from lgrass.workers import forked_map

# The 3-process tests of tests/test_cli.py (TestTableCommand::test_same_bytes_on_1_2_3_processes
# and test_failing_column_writes_nothing_and_reaps, and every TestVerifyProcesses test
# through same_on_1_2_3) make forked_map see CPUs {0, 1, 2}; on a machine with fewer
# than 3 CPUs the kernel refuses CPU 2, and that worker runs unpinned.

AFFINITY = hasattr(os, "sched_getaffinity") and hasattr(os, "sched_setaffinity")
two_cpus = pytest.mark.skipif(not AFFINITY or len(os.sched_getaffinity(0)) < 2,
                              reason="needs at least 2 usable CPUs and sched_setaffinity")


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_child_exiting_without_a_reply_raises_runtime_error(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.delattr(os, "sched_setaffinity", raising=False)
    parent = os.getpid()

    def job(j):
        if os.getpid() != parent:
            os._exit(0)
        return j

    with pytest.raises(RuntimeError, match="worker 1 of 2 exited without a reply"):
        forked_map(job, [0, 1])
    assert_no_child_left()


@two_cpus
def test_each_process_runs_on_a_cpu_of_its_own():
    seen = forked_map(lambda j: sorted(os.sched_getaffinity(0)), [0, 1])
    assert all(len(cpus) == 1 for cpus in seen)
    assert seen[0] != seen[1]


@two_cpus
@pytest.mark.parametrize("where", [None, "parent", "child"])
def test_caller_gets_its_cpus_back(where):
    before = os.sched_getaffinity(0)
    assert len(before) >= 2  # an earlier map left no pin behind
    parent = os.getpid()

    def job(j):
        if where is not None and (os.getpid() == parent) == (where == "parent"):
            raise ArithmeticError("injected job failure")
        return j

    if where is None:
        assert forked_map(job, [0, 1, 2]) == [0, 1, 2]
    else:
        with pytest.raises(ArithmeticError, match="injected job failure"):
            forked_map(job, [0, 1, 2])
    assert os.sched_getaffinity(0) == before
    assert_no_child_left()


def test_same_results_without_sched_setaffinity(monkeypatch):
    jobs = list(range(7))
    pinned = forked_map(lambda j: j * j, jobs)
    monkeypatch.delattr(os, "sched_setaffinity", raising=False)
    assert forked_map(lambda j: j * j, jobs) == pinned == [j * j for j in jobs]
    if hasattr(os, "sched_getaffinity"):  # and no process was pinned
        every = os.sched_getaffinity(0)
        assert forked_map(lambda j: os.sched_getaffinity(0), jobs) == [every] * len(jobs)
    assert_no_child_left()


def test_job_inside_a_map_runs_serially():
    def job(j):
        pids = forked_map(lambda _: os.getpid(), [0, 1, 2])
        return workers.usable_cpus(), pids == [os.getpid()] * 3

    assert forked_map(job, [0, 1]) == [(1, True), (1, True)]
    assert_no_child_left()


def use_cpus(monkeypatch, count):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)


def test_results_larger_than_a_pipe_buffer_come_back_intact(monkeypatch):
    use_cpus(monkeypatch, 3)
    jobs = list(range(7))

    def job(j):
        return bytes([j]) * (200_000 + j), list(range(j * 30_000))

    assert forked_map(job, jobs) == [job(j) for j in jobs]
    assert_no_child_left()


def test_second_job_of_a_child_raises_as_itself(monkeypatch):
    use_cpus(monkeypatch, 2)  # process 0 runs jobs 0 and 3, the child 1 and 2

    def job(j):
        if j == 2:
            raise KeyError("second job", 2)
        return j

    with pytest.raises(KeyError) as exc:
        forked_map(job, [0, 1, 2, 3])
    assert exc.value.args == ("second job", 2)
    assert "worker 1 of 2 raised" in str(exc.value.__cause__)
    assert_no_child_left()


def test_child_exiting_after_its_first_record_raises_runtime_error(monkeypatch):
    use_cpus(monkeypatch, 2)  # the child runs jobs 1 and 2
    parent = os.getpid()
    real = workers._send
    sent = []

    def send_one(pipe, record):
        if os.getpid() != parent and sent:
            pipe.flush()
            os._exit(0)
        sent.append(record)
        real(pipe, record)

    monkeypatch.setattr(workers, "_send", send_one)
    with pytest.raises(RuntimeError, match=r"^worker 1 of 2 exited without a reply$"):
        forked_map(lambda j: j, [0, 1, 2, 3])
    assert_no_child_left()
