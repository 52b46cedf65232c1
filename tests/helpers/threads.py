"""Thread-churn harness for the process-wide LRU caches.

The module caches (operators, slab modes) are shared by every engine, and
``SolveService`` runs engines on threads.  An unguarded cache hit can
``move_to_end`` a key that another thread evicted in between.  This harness
makes that interleaving likely: hitting threads re-read hot keys while
churning threads insert cold ones into a cache too small to hold all of them.
"""

from __future__ import annotations

import sys
import threading


def hits_during_churn(hit, churn, churn_steps: int, threads: int = 4) -> list[Exception]:
    """Run ``hit(i)`` in a loop and ``churn(i, step)`` for ``churn_steps`` steps.

    ``threads`` threads of each kind start together; the hitting threads stop
    once every churning thread has finished.  Returns the exceptions raised,
    at most one per thread.
    """
    barrier = threading.Barrier(2 * threads)
    churn_done = threading.Event()
    errors: list[Exception] = []

    def hitter(index):
        barrier.wait()
        try:
            while not churn_done.is_set():
                hit(index)
        except Exception as exc:  # noqa: BLE001 - returned to the caller
            errors.append(exc)

    def churner(index):
        barrier.wait()
        try:
            for step in range(churn_steps):
                churn(index, step)
        except Exception as exc:  # noqa: BLE001 - returned to the caller
            errors.append(exc)

    hitters = [threading.Thread(target=hitter, args=(i,)) for i in range(threads)]
    churners = [threading.Thread(target=churner, args=(i,)) for i in range(threads)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-4)  # frequent thread switches widen the race
    try:
        for thread in hitters + churners:
            thread.start()
        for thread in churners:
            thread.join()
        churn_done.set()
        for thread in hitters:
            thread.join()
    finally:
        sys.setswitchinterval(interval)
    return errors
