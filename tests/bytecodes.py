"""Counted work for the tests that pin a call's cost: ``opcodes(call)``
counts the bytecodes a call runs, and ``peak_allocation(call)`` the most
memory it holds at once; neither drifts with the host as a wall clock does."""

import gc
import sys
import tracemalloc


def opcodes(call):
    """The bytecodes ``call()`` runs, counted by a ``sys.settrace`` hook
    that asks for opcode events, and its result.  A call is traced first
    with the hook and counted apart: CPython 3.12 counts nothing in the
    first call a process traces."""
    counted = [0]

    def count(frame, event, arg):
        frame.f_trace_opcodes = True
        if event == "opcode":
            counted[0] += 1
        return count

    previous = sys.gettrace()
    sys.settrace(count)
    (lambda: None)()
    sys.settrace(previous)
    counted[0] = 0
    sys.settrace(count)
    try:
        result = call()
    finally:
        sys.settrace(previous)
    return counted[0], result


def peak_allocation(call):
    """The peak of the memory ``tracemalloc`` traces while ``call()`` runs,
    in bytes, and its result.  A full collection first empties the
    interpreter's free lists, which would otherwise serve an untraced share
    of the call's objects that depends on what ran before it."""
    gc.collect()
    tracemalloc.start()
    try:
        result = call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak, result
