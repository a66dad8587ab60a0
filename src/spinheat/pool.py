"""A pool of worker processes made by ``os.fork``, for a sweep's points and
for the grid points of ``engine.invariant_checks``.

``pool_results(run, tasks, jobs, lost)`` gives ``run(task)`` of every task
in task order, as an inline loop would, and raises the first exception in
task order as an inline loop would: a worker sends a task's exception back
as its result. At most one worker runs per task, per job and per CPU this
process may run on; the tasks run inline where ``os.fork`` does not exist
or one worker would do. Each worker sends its results back by pickle over
a pipe, so they do not depend on the worker count. Forking is safe with
the threads ``import spinheat`` leaves (the main thread and OpenBLAS's idle
worker): OpenBLAS shuts its pool down around ``fork`` itself, and a worker
runs on the one BLAS thread that the package set. Python 3.12 and later
may warn on forking a process that has threads.
"""

import os
import pickle

# signal.SIGKILL, fixed by POSIX; the signal module would add 1 ms to every
# run kind's start-up
SIGKILL = 9


def usable_cpus():
    """The CPUs this process may run on: its affinity set where the
    platform has one, else every CPU of the host."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _outcome(run, task):
    """``run(task)``, or the exception it raised."""
    try:
        return run(task)
    except Exception as err:
        return err


def _worker(run, tasks, write_fd):
    """Run ``run`` over ``tasks`` in a forked child, pickle the outcomes to
    ``write_fd`` and leave by ``os._exit``: the child must not flush the
    parent's buffered output or run its exit hooks."""
    status = 1
    try:
        outcomes = [_outcome(run, task) for task in tasks]
        with open(write_fd, "wb") as pipe:
            pickle.dump(outcomes, pipe, protocol=pickle.HIGHEST_PROTOCOL)
        status = 0
    finally:
        os._exit(status)


def _worker_results(data, status, tasks, lost):
    """The outcomes a worker sent, or ``lost(task, reason)`` for each of
    its tasks when it died or sent too little."""
    code = os.waitstatus_to_exitcode(status)
    if code == 0:
        try:
            return pickle.loads(data)
        except (EOFError, pickle.UnpicklingError):
            reason = "exited with status 0, result cut short"
    elif code < 0:
        reason = f"killed by signal {-code}"
    else:
        reason = f"exited with status {code}"
    return [lost(task, reason) for task in tasks]


def pool_results(run, tasks, jobs, lost):
    """``run(task)`` of every task, in task order, or the first exception
    in task order raised; no task's result may be an exception. With
    ``workers`` = min(jobs, tasks, usable CPUs) above one, forked worker
    ``w`` runs ``tasks[w::workers]``, and ``lost(task, reason)`` (a result
    or an exception) stands in for each task of a worker that died."""
    workers = min(jobs, len(tasks), usable_cpus())
    if workers < 2 or not hasattr(os, "fork"):
        return [run(task) for task in tasks]
    results = [None] * len(tasks)
    running = []  # (worker, pid, read end) of each worker not yet reaped
    try:
        for worker in range(workers):
            read_fd, write_fd = os.pipe()
            pid = os.fork()
            if pid == 0:
                os.close(read_fd)
                _worker(run, tasks[worker::workers], write_fd)
            # closed before the next fork, or that worker would hold this
            # write end open and the read below would never see EOF
            os.close(write_fd)
            running.append((worker, pid, open(read_fd, "rb")))
        while running:
            worker, pid, pipe = running[0]
            with pipe:
                data = pipe.read()
            _, status = os.waitpid(pid, 0)
            running.pop(0)
            results[worker::workers] = _worker_results(
                data, status, tasks[worker::workers], lost)
    finally:
        # reached with workers left only when the parent itself raised
        for _, pid, pipe in running:
            pipe.close()
            os.kill(pid, SIGKILL)
            os.waitpid(pid, 0)
    for result in results:
        if isinstance(result, Exception):
            raise result
    return results
