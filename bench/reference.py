"""A fixed reference task that measures the machine's speed of the moment.

On a shared host the speed of one core drifts by a third and more, in
stretches from seconds to minutes, so a raw time mostly says when it was
taken.  The worker runs this task before every instance and after the
last one; a repetition's times divided by the mean time of its reference
tasks are in reference units (``ref``), which the drift moves far less.

The task is a product of two fixed sparse polynomials held as dicts from
exponent tuples to ints: the same kind of work as the engine's inner loops,
written here so that a change to the engine cannot change it.  It runs with
the cyclic garbage collector off, so its time does not depend on how many
objects the engine keeps alive.
"""

from __future__ import annotations

import gc
from time import perf_counter

_A = {(i % 5, i * 3 % 7, i * 7 % 4, i % 3, i % 2): i * 37 % 11 - 5 or 1 for i in range(40)}
_B = {(i * 2 % 6, i % 4, i * 5 % 3, i * 11 % 5, i % 3): i * 13 % 9 - 4 or 2 for i in range(40)}


def task():
    """The product of _A and _B, about 1,600 term pairs."""
    out = {}
    for ka, ca in _A.items():
        for kb, cb in _B.items():
            key = tuple(map(int.__add__, ka, kb))
            coeff = out.get(key, 0) + ca * cb
            if coeff:
                out[key] = coeff
            else:
                del out[key]
    return out


def timed():
    """Seconds one run of task() takes now."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        began = perf_counter()
        task()
        return perf_counter() - began
    finally:
        if enabled:
            gc.enable()
