"""Fixtures shared across the suite."""

import multiprocessing
import os
import signal
import time

import pytest

from repro.content import artifacts
from repro.matrix import runner


class UnitFaultError(RuntimeError):
    """What a unit made to fail by :class:`UnitFaults` raises."""


def _in_worker() -> bool:
    return multiprocessing.parent_process() is not None


class UnitFaults:
    """Makes chosen matrix units misbehave, as a faulty host would.

    It stands in for :func:`repro.matrix.runner.run_unit`, which every
    attempt looks up at call time, in the parent and in worker
    processes alike (workers fork with the victims named before they
    start).  A victim is named by its spec — the spec itself, or
    its label — and seed.  A first-attempt-only fault fires when it
    creates its token file, so a retry, in any process, runs the real
    unit.  Kill, hang and an unpicklable result fire only inside a
    worker: in the parent they would take the run down.
    """

    def __init__(self, monkeypatch, tmp_path) -> None:
        self._tokens = tmp_path
        self._victims = []
        self._real = real = runner.run_unit

        def run_unit(spec, seed):
            for name, victim_seed, fault in self._victims:
                if seed == victim_seed and name in (spec, spec.label):
                    replaced = fault()
                    if replaced is not None:
                        return replaced
            return real(spec, seed)

        monkeypatch.setattr(runner, "run_unit", run_unit)

    def poison(self, spec, seed) -> None:
        """Raise on every attempt."""
        self._raise_when(spec, seed, lambda: True)

    def raise_once(self, spec, seed) -> None:
        """Raise on the first attempt only."""
        self._raise_when(spec, seed, self._first())

    def raise_in_workers(self, spec, seed) -> None:
        """Raise on every attempt made inside a worker process."""
        self._raise_when(spec, seed, _in_worker)

    def kill_worker_once(self, spec, seed) -> None:
        """SIGKILL the worker running the first attempt."""
        self._in_worker_once(
            spec, seed, lambda: os.kill(os.getpid(), signal.SIGKILL))

    def hang_worker_once(self, spec, seed) -> None:
        """Stall the worker running the first attempt for an hour."""
        self._in_worker_once(spec, seed, lambda: time.sleep(3600))

    def unpicklable_in_workers(self, spec, seed) -> None:
        """Return a result no pipe can carry (a local function) from
        every attempt made inside a worker process."""
        def fault():
            if _in_worker():
                return (lambda: None), 0.0
            return None
        self._victims.append((spec, seed, fault))

    def delay(self, spec, seed, seconds) -> None:
        """Sleep ``seconds`` before every attempt, as a slow host would."""
        self._victims.append((spec, seed, lambda: time.sleep(seconds)))

    def ballast(self, spec, seed, nbytes) -> None:
        """Return the real result (the victim named by its spec)
        carrying ``nbytes`` of ballast in its perf counters, so sending
        its reply takes a while."""
        def fault():
            result, wall = self._real(spec, seed)
            result.perf["ballast"] = "x" * nbytes
            return result, wall
        self._victims.append((spec, seed, fault))

    def _raise_when(self, spec, seed, fires) -> None:
        def fault():
            if fires():
                raise UnitFaultError(f"injected at seed {seed}")
        self._victims.append((spec, seed, fault))

    def _in_worker_once(self, spec, seed, act) -> None:
        first = self._first()

        def fault():
            if _in_worker() and first():
                act()
        self._victims.append((spec, seed, fault))

    def _first(self):
        """A test that holds once, across processes: whoever creates
        the token file first."""
        token = self._tokens / f"unit-fault-{len(self._victims)}"

        def first() -> bool:
            try:
                os.close(os.open(token, os.O_CREAT | os.O_EXCL))
            except FileExistsError:
                return False
            return True
        return first


@pytest.fixture
def unit_faults(monkeypatch, tmp_path):
    """A :class:`UnitFaults` that is undone when the test ends."""
    return UnitFaults(monkeypatch, tmp_path)


@pytest.fixture(scope="session", autouse=True)
def artifact_root(tmp_path_factory):
    """The process-default artifact store, its blobs in a session temp
    directory instead of the checkout's ``.repro-cache/artifacts``
    (forked workers inherit it; a test that swaps the store in changes
    into its own ``tmp_path`` first)."""
    store = artifacts.get_store()
    store.root = tmp_path_factory.mktemp("artifacts")
    return store.root
