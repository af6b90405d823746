"""The cyclic collector paused for one analysis unit (``repro.collector``)."""

import gc
import sys
import threading

import pytest

from repro.collector import collector_paused
from repro.pipeline import analyze
from repro.pyfront.lower import compile_module


@pytest.fixture(autouse=True)
def _restore_collector():
    was_enabled = gc.isenabled()
    gc.enable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()
        else:
            gc.disable()


def test_pause_disables_and_restores():
    with collector_paused:
        assert not gc.isenabled()
    assert gc.isenabled()


def test_nested_pauses_reenable_only_at_the_outermost_exit():
    with collector_paused:
        with collector_paused:
            assert not gc.isenabled()
        assert not gc.isenabled()
    assert gc.isenabled()


@pytest.mark.parametrize("error", [ValueError, KeyboardInterrupt])
def test_an_exception_inside_restores_the_state(error):
    with pytest.raises(error):
        with collector_paused:
            with collector_paused:
                raise error()
    assert gc.isenabled()


def test_a_collector_disabled_by_the_caller_stays_disabled():
    gc.disable()
    with collector_paused:
        pass
    assert not gc.isenabled()


DSL = "L1: for i = 1 to n do\n  x = i\nendfor"
PYTHON = "def f(n):\n    for i in range(n):\n        pass\n"


def test_analysis_units_run_paused(monkeypatch):
    import repro.pipeline as pipeline
    import repro.pyfront.lower as lower

    states = []

    def watching(fn):
        def wrapper(*args, **kwargs):
            states.append(gc.isenabled())
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(pipeline, "parse_program", watching(pipeline.parse_program))
    monkeypatch.setattr(lower, "_source_lines", watching(lower._source_lines))
    analyze(DSL)
    compile_module(PYTHON)
    assert states == [False, False]
    assert gc.isenabled()


def test_analysis_units_keep_a_disabled_collector_disabled():
    gc.disable()
    analyze(DSL)
    compile_module(PYTHON)
    assert not gc.isenabled()


def test_overlapping_pauses_in_two_threads_leave_the_collector_enabled():
    """Each thread enters, waits until the other has entered, and exits;
    whichever exits first must not switch the collector back on while
    the other is still inside."""
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            both_inside = threading.Barrier(2, timeout=10)
            first_out = threading.Event()
            inside_after_other_left = []

            def worker(first):
                with collector_paused:
                    both_inside.wait()
                    if first:
                        return
                    first_out.wait(timeout=10)
                    inside_after_other_left.append(gc.isenabled())

            def leave_first():
                try:
                    worker(True)
                finally:
                    first_out.set()

            threads = [
                threading.Thread(target=leave_first),
                threading.Thread(target=worker, args=(False,)),
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=10)
                assert not thread.is_alive()
            assert inside_after_other_left == [False]
            assert gc.isenabled()
    finally:
        sys.setswitchinterval(switch)


def test_many_threads_pausing_at_once_lose_no_update():
    """More threads than cores, a short switch interval: a lost update of
    the depth would leave the collector off, or switch it on inside."""
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    seen_enabled = []

    def worker():
        for _ in range(2000):
            with collector_paused:
                with collector_paused:
                    if gc.isenabled():
                        seen_enabled.append(True)

    try:
        threads = [threading.Thread(target=worker) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(switch)
    assert not seen_enabled
    assert gc.isenabled()
