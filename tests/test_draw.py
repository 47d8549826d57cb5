"""A level in slices of its runs, one per core: it keeps every byte.

Where a level ticks in C, the engine cuts its runs into contiguous slices,
one per core the process may run on (``sde._workers()``), and runs each
slice on a thread of its own: its draws, ticks, observable values and
window sums.  No slice runs once the level returns or raises, even after
an interrupt, so an observable may run a level itself.
Each run reads only its own (level, run) stream and rows, so no byte
depends on the core count.  The worker count is not a setting; most
tests patch the private function to run the same levels on one, two and
three workers, and one pins a child process to a single core.
"""

import functools
import gc
import json
import multiprocessing
import os
import signal
import subprocess
import sys
import threading
import time
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mlangevin
import mlangevin.diagnostics as diagnostics
import mlangevin.sde as sde
from mlangevin import (
    NoiseStream,
    QuadraticPotential,
    TuningPlan,
    confluence_probe,
    contraction_probe,
    estimate_repeated,
    identity_observable,
    logistic_covariate,
    LogisticPerturbedPotential,
    make_langevin_model,
    norm_observable,
)


def ou(d):
    return make_langevin_model(QuadraticPotential(d), "auto")


def logistic(d):
    cov = logistic_covariate(d, 2.0, NoiseStream(7, 0))
    return make_langevin_model(LogisticPerturbedPotential(d, 0.25, cov),
                               "auto")


def plan(d, R, t0=8.0):
    return TuningPlan(regime="b2", gamma0=0.5,
                      horizons=[t0 * 2.0 ** -r for r in range(R + 1)],
                      tau=0.25, r0=1.0, big_t=t0, dim=d)


def on_workers(monkeypatch, n):
    monkeypatch.setattr(sde, "_workers", lambda: n)


def fused():
    """20 runs of R = 5 in d = 10: six narrow levels, 20 or 40 rows each."""
    x0 = np.linspace(-1.0, 1.0, 10)
    outs = estimate_repeated(logistic(10), plan(10, 5), x0,
                             identity_observable(), 3, 20)
    return [o.to_json() for o in outs]


def level_by_level():
    """140 runs of R = 2: a pair has 280 rows."""
    x0 = np.full(3, 0.5)
    outs = estimate_repeated(ou(3), plan(3, 2, t0=4.0), x0, norm_observable(),
                             5, 140)
    return [o.to_json() for o in outs]


def probes():
    model = ou(3)
    distances = contraction_probe(model, np.ones(3), np.zeros(3), 0.25, 500,
                                  seed=2)
    gaps = confluence_probe(model, 0.25, 20.0, 100, seed=2).sup_gap_sq
    return distances, gaps


@pytest.mark.parametrize("run", [fused, level_by_level, probes])
def test_the_draw_gives_the_same_bytes_on_any_worker_count(run, monkeypatch):
    results = []
    for n in (1, 2, 3):
        on_workers(monkeypatch, n)
        results.append(run())
    assert results[1] == results[0] and results[2] == results[0]


def test_many_workers_with_a_short_switch_interval_keep_the_bytes(
        monkeypatch):
    expected = level_by_level()
    on_workers(monkeypatch, (os.cpu_count() or 1) + 3)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        assert level_by_level() == expected
    finally:
        sys.setswitchinterval(interval)


class Boom(Exception):
    pass


class FailingStream:
    """Run 2's stream, whose draw raises ``error``."""

    run_index = 2

    def __init__(self, error):
        self.error = error

    def standard_normal(self, shape=None, out=None):
        raise self.error


def test_an_error_in_a_workers_draw_surfaces_unchanged(monkeypatch):
    on_workers(monkeypatch, 2)
    error = Boom("run 2 cannot draw")
    # the second slice, runs 1 and 2, runs on a thread of its own
    streams = [NoiseStream(0, 0, 0), NoiseStream(0, 0, 1),
               FailingStream(error)]
    with pytest.raises(Boom) as raised:
        sde._run_level0_batch(ou(2), np.zeros(2), 0.25, 0.0, 10.0,
                              norm_observable(), streams)
    assert raised.value is error


@pytest.mark.skipif(os.name != "posix", reason="no POSIX signals")
def test_an_interrupt_while_waiting_stops_the_other_slices():
    seen = []

    def other_slice(stopped):
        time.sleep(0.2)  # the first slice has ended: this thread waits
        os.kill(os.getpid(), signal.SIGINT)
        deadline = time.monotonic() + 60
        while not stopped and time.monotonic() < deadline:
            time.sleep(0.01)  # a slice ends at its next record
        seen.append(bool(stopped))

    handler = signal.signal(signal.SIGINT, signal.default_int_handler)
    try:
        with pytest.raises(KeyboardInterrupt):
            sde._run_slices([lambda stopped: None, other_slice])
    finally:
        signal.signal(signal.SIGINT, handler)
    assert seen == [True]


# a job's outcome (None: it returns) and the check at which it comes; it
# polls ``stopped`` at each check before that one
JOB = st.tuples(st.sampled_from([None, Boom, KeyboardInterrupt, SystemExit]),
                st.integers(0, 3))


@settings(max_examples=50, deadline=None, derandomize=True)
@given(st.lists(JOB, min_size=1, max_size=4))
def test_run_slices_returns_in_order_or_raises_the_lowest_interrupt(plans):
    began, ended, raised = set(), set(), {}

    def job(i, stopped):
        began.add(i)
        outcome, at = plans[i]
        try:
            for _ in range(at):
                if stopped:
                    raise sde._Stopped
                time.sleep(0.001)
            if outcome is not None:
                raise outcome(i)
            return f"job {i}"
        except BaseException as exc:
            raised[i] = exc
            raise
        finally:
            ended.add(i)

    try:
        values, error = sde._run_slices(
            [functools.partial(job, i) for i in range(len(plans))]), None
    except BaseException as exc:
        values, error = None, exc
    assert began == ended
    interrupts = [raised[i] for i in sorted(raised)
                  if not isinstance(raised[i], Exception)]
    if interrupts:  # the lowest job's, before any Exception
        assert error is interrupts[0]
    else:  # in order when nothing raised, else None
        assert error is None
        assert values == (None if raised else
                          [f"job {i}" for i in range(len(plans))])


def two_runs(f, seed=0):
    """A level of two runs of a chain in d = 2, with observable f: two
    slices on two workers where the level ticks in C."""
    streams = [NoiseStream(seed, 0, i) for i in range(2)]
    avg, steps = sde._run_level0_batch(ou(2), np.zeros(2), 0.25, 0.0, 4.0,
                                       f, streams)
    return avg.tolist(), steps


def need_slices():
    if sde._row_map(ou(2)) is None:
        pytest.skip("a level that ticks in Python runs in one slice")


def test_an_exit_in_a_later_slice_surfaces_unchanged(monkeypatch):
    need_slices()
    on_workers(monkeypatch, 2)
    norm, error = norm_observable(), SystemExit("the second slice exits")

    def f(points):
        if threading.current_thread() is not threading.main_thread():
            raise error
        return norm(points)

    with pytest.raises(SystemExit) as raised:
        two_runs(f)
    assert raised.value is error


def nested_levels():
    """``two_runs`` on two workers, where f, called off the main thread,
    runs ``two_runs`` of its own first."""
    norm = norm_observable()

    def f(points):
        if threading.current_thread() is not threading.main_thread():
            two_runs(norm, seed=1)
        return norm(points)

    with pytest.MonkeyPatch.context() as mp:
        on_workers(mp, 2)
        return two_runs(f)


def python(code, timeout=120):
    env = dict(os.environ,
               PYTHONPATH=str(Path(mlangevin.__file__).parents[1]))
    return subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=timeout)


# the process's OS threads, in a child's code (0 without /proc)
TASKS = ("tasks = lambda: len(os.listdir('/proc/self/task')) "
         "if os.path.isdir('/proc/self/task') else 0\n")


def test_importing_the_package_starts_no_thread():
    code = ("import os, threading, numpy\n" + TASKS +
            "before = tasks()\n"
            "import mlangevin\n"
            "print(threading.active_count(), tasks() - before)")
    done = python(code)
    assert (done.stdout, done.stderr) == ("1 0\n", "")


def in_child(body):
    """``body`` run in a child process that imports this file."""
    return ("import json, os, sys, threading, time\n"
            f"sys.path.insert(0, {str(Path(__file__).parent)!r})\n"
            "import pytest, test_draw\n" + body)


def test_an_observable_may_run_a_level_in_a_slice():
    # in a child: a deadlock fails this test instead of stalling the suite
    need_slices()
    try:
        done = python(in_child("print(json.dumps(test_draw.nested_levels()))"),
                      timeout=60)
    except subprocess.TimeoutExpired:
        pytest.fail("a level run by an observable in a slice hung")
    assert done.returncode == 0, done.stderr
    assert done.stdout == json.dumps(two_runs(norm_observable())) + "\n"


def test_no_slice_thread_outlives_its_level():
    body = (TASKS + "before = threading.active_count(), tasks()\n"
            "with pytest.MonkeyPatch.context() as mp:\n"
            "    test_draw.on_workers(mp, 2)\n"
            "    test_draw.level_by_level()\n"
            # a joined thread may take a moment to leave the task list
            "deadline = time.monotonic() + 10\n"
            "while tasks() != before[1] and time.monotonic() < deadline:\n"
            "    time.sleep(0.01)\n"
            "print(before == (threading.active_count(), tasks()))")
    done = python(in_child(body))
    assert (done.stdout, done.stderr) == ("True\n", "")


def interrupted(target, workers, window):
    """``target`` ("level", six runs, or "confluence") on ``workers``
    workers, interrupted in ``window``: a SIGINT to the main thread while
    it waits after its own job has returned ("wait"), or a
    ``KeyboardInterrupt`` from the last slice thread's ``start``, after
    ("start-after") or before ("start-before") the real start; a thread
    whose start was interrupted begins only once the call has ended.  Each
    record that a job visits off the main thread first spends 0.1 s that
    checks no flag.  Returns the name of what the call raised, the threads
    left after it once they have had time to end, and the records visited
    after it."""
    visited, main_done, sender = [], threading.Event(), threading.Lock()
    ended = threading.Event()
    drive, start, starts = sde._drive, threading.Thread.start, []

    def slow_drive(*args, **kwargs):
        if threading.current_thread() is threading.main_thread():
            try:
                return drive(*args, **kwargs)
            finally:
                main_done.set()
        visit = args[-1]

        def slow_visit(lo, rows):
            if window == "wait" and sender.acquire(blocking=False):
                assert main_done.wait(60)
                time.sleep(0.1)  # the main thread's job has returned
                signal.pthread_kill(threading.main_thread().ident,
                                    signal.SIGINT)
            time.sleep(0.1)
            visited.append(lo)
            visit(lo, rows)

        return drive(*args[:-1], slow_visit, **kwargs)

    def interrupted_start(thread):
        starts.append(thread)
        if len(starts) < workers - 1:
            return start(thread)
        if window == "start-after":
            run = thread.run
            thread.run = lambda: ended.wait(60) and run()
            start(thread)
        raise KeyboardInterrupt

    before = threading.active_count()
    handler = signal.signal(signal.SIGINT, signal.default_int_handler)
    with pytest.MonkeyPatch.context() as mp:
        on_workers(mp, workers)
        mp.setattr(sde, "_drive", slow_drive)
        mp.setattr(diagnostics, "_drive", slow_drive)
        if window != "wait":
            mp.setattr(threading.Thread, "start", interrupted_start)
        try:
            if target == "level":
                sde._run_level0_batch(
                    ou(2), np.zeros(2), 0.25, 0.0, 4.0, norm_observable(),
                    [NoiseStream(0, 0, i) for i in range(6)])
            else:
                confluence_probe(ou(2), 0.25, 20.0, 100, seed=2)
            raised = None
        except BaseException as exc:
            raised = type(exc).__name__
        finally:
            signal.signal(signal.SIGINT, handler)
        seen = len(visited)
        ended.set()
        time.sleep(0.3)  # past any visit begun before the call ended
    deadline = time.monotonic() + 10
    while threading.active_count() > before and time.monotonic() < deadline:
        time.sleep(0.01)  # a thread that skipped its job has yet to end
    return raised, threading.active_count() - before, len(visited) - seen


WINDOWS = ["wait", "start-after", "start-before"]


@pytest.mark.skipif(os.name != "posix", reason="no POSIX signals")
@pytest.mark.parametrize("target, workers",
                         [("level", 2), ("level", 3), ("confluence", 2)])
def test_no_job_runs_after_an_interrupt(target, workers):
    # in a child: a wait for a thread that never runs fails this test
    # instead of stalling the suite
    need_slices()
    code = in_child(f"print(json.dumps([test_draw.interrupted("
                    f"{target!r}, {workers}, w) for w in test_draw.WINDOWS]))")
    try:
        done = python(code, timeout=60)
    except subprocess.TimeoutExpired:
        pytest.fail("an interrupted call hung")
    assert done.returncode == 0, done.stderr
    results = dict(zip(WINDOWS, json.loads(done.stdout)))
    # what was raised, threads left, records visited after the call
    assert results == {w: ["KeyboardInterrupt", 0, 0] for w in WINDOWS}


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"),
                    reason="no sched_setaffinity")
def test_a_process_on_one_core_gives_the_same_bytes():
    # the child pins only itself, so the real _workers() reads one core
    cpu = min(os.sched_getaffinity(0))
    code = in_child(f"os.sched_setaffinity(0, {{{cpu}}})\n"
                    "assert test_draw.sde._workers() == 1\n"
                    "print(json.dumps([test_draw.fused(), "
                    "test_draw.level_by_level()]))")
    done = python(code)
    assert done.returncode == 0, done.stderr
    assert done.stdout == json.dumps([fused(), level_by_level()]) + "\n"


def child_estimate(queue):
    queue.put(level_by_level())


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                    reason="no fork start method")
def test_a_forked_child_draws_after_its_parent_did(monkeypatch):
    on_workers(monkeypatch, 2)
    expected = level_by_level()  # the parent ran its levels in slices
    ctx = multiprocessing.get_context("fork")
    queue = ctx.Queue()
    child = ctx.Process(target=child_estimate, args=(queue,))
    child.start()
    try:
        assert queue.get(timeout=60) == expected
    finally:
        child.join(timeout=60)
        hung = child.is_alive()
        if hung:
            child.kill()
            child.join(timeout=60)
    assert not hung and child.exitcode == 0


def test_a_levels_raw_buffer_is_freed_when_the_next_level_starts(
        monkeypatch):
    # two runs on two workers: a slice each, drawing at once, where the
    # level ticks in C; else one slice
    slices = 2 if sde._row_map(ou(2)) is not None else 1
    on_workers(monkeypatch, 2)
    buffers, alive = [], []  # (level, buffer) of each first draw
    draw = NoiseStream.standard_normal

    def recording_draw(stream, shape=None, out=None):
        buf, level = out.base, stream.level_index
        if not any(ref() is buf for _, ref in buffers):  # a slice's first
            buffers.append((level, weakref.ref(buf)))
        gc.collect()
        alive.append([ref() is not None for r, ref in buffers if r < level])
        return draw(stream, shape, out)

    monkeypatch.setattr(NoiseStream, "standard_normal", recording_draw)
    p, cap = plan(2, 2), 4
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sde, "_CHUNK_STEP_CAP", cap)  # several draws per level
        estimate_repeated(ou(2), p, np.zeros(2), norm_observable(), 1, 2)
    # a level ticks once per step of its own grid (a pair's is the coarse
    # one) up to its last index, and each run's stream draws once per
    # chunk of ticks, into its slice's raw buffer
    ticks = [sde.n_gamma(t, p.gamma[max(r - 1, 0)]) - 1
             for r, t in enumerate(p.horizons)]
    assert sorted(r for r, _ in buffers) == sorted([0, 1, 2] * slices)
    assert len(alive) == 2 * sum(-(-n // cap) for n in ticks)
    assert not any(map(any, alive))
