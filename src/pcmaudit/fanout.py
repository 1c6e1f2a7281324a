"""Ordered process fan-out for the batch paths.

Results come back in task order whatever the worker count, so a fold over
them is bit-identical for any ``workers`` value.
"""

from __future__ import annotations

import os
from itertools import starmap

from .errors import ValidationError


def ordered_map(fn, tasks: list[tuple], workers: int):
    """Yield ``fn(*task)`` for each task, in task order.

    ``workers`` must be at least 1 and is capped at the CPU count. One worker
    or fewer than two tasks run in this process, without starting a pool.
    """
    if workers < 1:
        raise ValidationError(f"workers must be at least 1, got {workers}")
    workers = min(workers, os.cpu_count() or 1)
    if workers == 1 or len(tasks) < 2:
        yield from starmap(fn, tasks)
        return
    import concurrent.futures

    with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
        yield from pool.map(fn, *zip(*tasks))
