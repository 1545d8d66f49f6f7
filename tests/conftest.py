import concurrent.futures
import os
import signal

# cli caps BLAS at one thread before numpy loads, so the test process has no BLAS thread pool
# when compare forks (Python 3.12+ warns about forking a process that has threads)
from musedec import cli  # noqa: F401, I001

import numpy as np
import pytest

from musedec import diffcore, trainer


def diverge(train, *args, **kwargs):
    """`train` with every GELU output NaN: training raises TrainingDiverged.

    It rewrites diffcore's rule table for the rest of the process, so only a forked child may call it.
    """
    _, gelu_backward = diffcore._RULES["gelu"]
    diffcore._RULES["gelu"] = (lambda ins, attrs: (np.full_like(ins[0], np.nan), None), gelu_backward)
    return train(*args, **kwargs)


def nan_params(train, *args, **kwargs):
    """`train` whose best parameters come back NaN: evaluating them raises NonFiniteOutput."""
    state, report = train(*args, **kwargs)
    for a in state.best_params.values():
        a[...] = np.nan
    return state, report


@pytest.fixture(params=["diverge", "nan-params"])
def numeric_failure(request):
    """(child_train, the error compare raises, its message pattern) of a numeric failure in a training run."""
    return {
        "diverge": (diverge, trainer.TrainingDiverged, r"epoch 0: node \d+ \(gelu\) produced non-finite values"),
        "nan-params": (nan_params, diffcore.NonFiniteOutput, r"node \d+ \(\S+\) produced non-finite values"),
    }[request.param]


@pytest.fixture(autouse=True)
def hang_guard():
    """Every test fails, instead of stalling the suite, once it has run 120 s; `time_limit` sets a tighter limit."""

    def expire(signum, frame):
        raise AssertionError("the test ran past its time limit")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(120)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


@pytest.fixture()
def time_limit():
    """`time_limit(seconds)` makes the test fail, instead of hang, once it has run `seconds` longer."""
    return signal.alarm


@pytest.fixture()
def patch_cpus(monkeypatch):
    """`patch_cpus(cpus)` makes `os.sched_getaffinity` report `cpus` CPUs, so compare runs on that many processes
    and `model.forward` on that many threads (see `model._worker_count`)."""

    def patch(cpus):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))

    return patch


@pytest.fixture()
def thread_pools(monkeypatch):
    """The worker count of every `concurrent.futures.ThreadPoolExecutor` made, in order."""
    made, executor = [], concurrent.futures.ThreadPoolExecutor

    def recording(workers):
        made.append(workers)
        return executor(workers)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", recording)
    return made


@pytest.fixture()
def in_compare_children(monkeypatch, patch_cpus):
    """`in_compare_children(child_train)` runs compare on three worker processes, in which
    `trainer.train(*args)` becomes `child_train(train, *args)`; the calling process runs no cell."""

    def patch(child_train):
        patch_cpus(3)
        parent, train = os.getpid(), trainer.train

        def patched(*args, **kwargs):
            assert os.getpid() != parent, "the calling process ran a compare cell"
            return child_train(train, *args, **kwargs)

        monkeypatch.setattr(trainer, "train", patched)

    return patch
