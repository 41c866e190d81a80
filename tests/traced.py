"""Traced memory of one call: what it retains and what it peaks at.

tracemalloc sees numpy buffers, so tests bound the bytes a call keeps
(:func:`retained`) or holds at once (:func:`peak`) in units of one field's
bytes.  Both collect garbage first, so nothing an earlier test dropped is
freed inside the measurement.
"""

import gc
import tracemalloc


def retained(run):
    """``run()`` and the bytes still allocated when it returns, its result held."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        kept = run()
        gc.collect()
        return kept, tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()


def peak(run):
    """``run()`` and the most bytes allocated at once while it runs, above
    those allocated before it."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = run()
        return result, tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
