"""The tier-1 leak guard (``conftest.leak_guard``, applied to every test
by an autouse fixture): a live non-daemon or ``repro-*`` thread, a
``multiprocessing`` child or (on Linux) an open file descriptor left
behind fails; other daemon threads and stopped workers do not."""

import multiprocessing
import os
import sys
import threading
import time

import pytest

from conftest import leak_guard


def test_leak_guard_flags_a_live_non_daemon_thread():
    release = threading.Event()
    worker = threading.Thread(target=release.wait, name="leaky-worker")
    try:
        with pytest.raises(AssertionError, match="live threads: \\['leaky-worker'\\]"):
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


def test_leak_guard_flags_a_live_daemon_repro_thread():
    # The package's own threads are daemons (a server's dispatch loop,
    # the RPC acceptor, the scipy batch helper), so their owner's
    # close() is checked by name, not by the daemon flag.
    release = threading.Event()
    worker = threading.Thread(target=release.wait, name="repro-leaky", daemon=True)
    try:
        with pytest.raises(AssertionError, match="live threads: \\['repro-leaky'\\]"):
            with leak_guard():
                worker.start()
    finally:
        release.set()
        worker.join()


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/fd")
def test_leak_guard_flags_an_open_file_descriptor():
    fds = []
    try:
        with pytest.raises(AssertionError, match=r"open file descriptors: \['\d+'\]"):
            with leak_guard():
                fds.append(os.open(os.devnull, os.O_RDONLY))
    finally:
        for fd in fds:
            os.close(fd)


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
    child.close()  # its sentinel pipe is an open descriptor
