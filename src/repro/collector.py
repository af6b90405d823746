"""The cyclic garbage collector, paused for the length of one analysis unit.

One unit -- a program through :func:`repro.pipeline.analyze`, a module
through :func:`repro.pyfront.lower.compile_module` -- allocates hundreds
of thousands of small containers (AST nodes, IR, expressions, closed
forms, intervals) and leaves no reference cycles behind: reference
counting frees what the unit drops, the moment it drops it.  The cyclic
collector would still walk every young container the unit allocates,
and those walks find nothing.  :data:`collector_paused` switches it off
for the unit and back on when the unit ends, so a cycle made inside a
unit is still collected, just after the unit instead of during it.

The collector is one per process, so the pause is too: a depth counter
under a lock makes it re-entrant and safe to overlap between threads.
Only the outermost exit switches the collector back on, and only when it
was on as that outermost entry began; a caller that switched it off
itself keeps it off.  The exit runs however the unit ends, so an
exception or ``KeyboardInterrupt`` inside the unit restores it too.
"""

from __future__ import annotations

import gc
import threading
from contextlib import ContextDecorator


class _CollectorPause(ContextDecorator):
    """Re-entrant context manager (and decorator): ``gc`` off inside,
    restored after."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._depth = 0
        self._resume = False

    def __enter__(self) -> None:
        with self._lock:
            if self._depth == 0:
                self._resume = gc.isenabled()
                gc.disable()
            self._depth += 1

    def __exit__(self, *exc_info) -> None:
        with self._lock:
            self._depth -= 1
            if self._depth == 0 and self._resume:
                gc.enable()


#: the process-wide pause: ``with collector_paused:`` around one unit, or
#: ``@collector_paused`` on a function that is one
collector_paused = _CollectorPause()
