"""Task functions for the tests of suite.pool_map.

A pool worker finds the function of each task by its module and name, so a
spawned worker imports the module that defines it. These functions live
apart from the test modules, so that such a worker imports this module and
grouplab, not pytest and sympy. A spawned worker inherits no monkeypatch
either: the suite task wrappers below make their patches in the process that
runs the task, and undo them when it ends.
"""

import functools
import json
import os
import time

from grouplab import DEFAULT_CAP, analysis, catalog, sol, suite

# as grouplab defines them, whatever a test has put in their place
_run_task = suite._run_task
_lemma_checks_for_rep = sol.lemma_checks_for_rep
_pair_soluble = analysis.pair_soluble


def append(path, line: str):
    """One write to a file opened for appending, so that the lines that
    several processes write stay whole."""
    fd = os.open(path, os.O_WRONLY | os.O_APPEND | os.O_CREAT)
    try:
        os.write(fd, line.encode())
    finally:
        os.close(fd)


def is_built(name):
    """Whether this process holds the named group, built at the default cap."""
    return (name, DEFAULT_CAP) in catalog._BUILD_CACHE


def logged(path, i):
    append(path, f"{i}\n")
    return -i


def exits_at_three(i):
    if i == 3:
        os._exit(3)
    return i


def large_reply_unless_one(failure, i):
    if i == 1:
        time.sleep(0.2)  # meanwhile the other worker takes every other task
        if failure == "raise":
            raise ValueError("task 1")
        os._exit(3)
    return bytes(100_000)  # more than a pipe holds


def unpicklable_error(i):
    raise ValueError(lambda: i)


def exits_python_at_two(i):
    if i == 2:
        raise SystemExit(5)
    return i


def _injected_checks(G, rep_idx, *args, **kwargs):
    if rep_idx == 2:
        raise RuntimeError("injected")
    return _lemma_checks_for_rep(G, rep_idx, *args, **kwargs)


def run_task_injected(task):
    """suite._run_task, whose battery raises RuntimeError("injected") at the
    third class representative of a group."""
    sol.lemma_checks_for_rep = _injected_checks
    try:
        return _run_task(task)
    finally:
        sol.lemma_checks_for_rep = _lemma_checks_for_rep


_pair_tests = [0]  # the pair tests that this process has run in a logged task


def _counted_pair_soluble(*args):
    _pair_tests[0] += 1
    return _pair_soluble(*args)


def _logged_checks(log, G, rep_idx, name, *args, **kwargs):
    before = _pair_tests[0]
    result = _lemma_checks_for_rep(G, rep_idx, name, *args, **kwargs)
    append(log, json.dumps([name, rep_idx, os.getpid(), _pair_tests[0] - before]) + "\n")
    return result


def run_task_logged(log, task):
    """suite._run_task, whose battery appends to log, for each class
    representative, [group, representative, pid, pair tests run]. The pair
    tests include those of the Sol walks, which the group's memos save."""
    analysis.pair_soluble = _counted_pair_soluble
    sol.lemma_checks_for_rep = functools.partial(_logged_checks, log)
    try:
        return _run_task(task)
    finally:
        analysis.pair_soluble = _pair_soluble
        sol.lemma_checks_for_rep = _lemma_checks_for_rep
