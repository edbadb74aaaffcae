"""The tier-1 leak guard (``conftest.leak_guard``, applied to every test
by an autouse fixture): a live non-daemon thread or ``multiprocessing``
child left behind fails; daemon threads and stopped workers do not."""

import multiprocessing
import threading
import time

import pytest

from conftest import leak_guard


def test_leak_guard_flags_a_live_non_daemon_thread():
    release = threading.Event()
    worker = threading.Thread(target=release.wait, name="leaky-worker")
    try:
        with pytest.raises(AssertionError, match="non-daemon threads: \\['leaky-worker'\\]"):
            with leak_guard():
                worker.start()
    finally:
        release.set()
        worker.join()


def test_leak_guard_passes_daemon_and_joined_threads():
    release = threading.Event()
    daemon = threading.Thread(target=release.wait, daemon=True)
    try:
        with leak_guard():
            daemon.start()
            joined = threading.Thread(target=lambda: None)
            joined.start()
            joined.join()
    finally:
        release.set()
        daemon.join()


def test_leak_guard_flags_a_live_child_process():
    child = multiprocessing.get_context("fork").Process(target=time.sleep, args=(60,))
    try:
        with pytest.raises(AssertionError, match=r"live child processes: \[\d+\]"):
            with leak_guard():
                child.start()
    finally:
        child.terminate()
        child.join()
    assert child.exitcode is not None
