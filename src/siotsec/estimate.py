"""Monte Carlo estimate container and the streamed estimator shared by the
secrecy and covert modules."""
from __future__ import annotations

import collections
import functools
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .channel import RngSeed


@dataclass(frozen=True)
class EstimateWithError:
    """Point estimate with its standard error and sample count."""

    value: float
    std_error: float
    n_samples: int

    def __post_init__(self):
        if not math.isfinite(self.value):
            raise ValueError(f"value must be finite, got {self.value}")
        if not (math.isfinite(self.std_error) and self.std_error >= 0):
            raise ValueError(f"std_error must be finite and >= 0, got {self.std_error}")
        if self.n_samples < 1:
            raise ValueError(f"n_samples must be >= 1, got {self.n_samples}")


# At most MC_IN_FLIGHT blocks are queued or drawn at once, so Monte Carlo
# memory is O(MC_IN_FLIGHT * MC_BLOCK) whatever the host's CPU count.
MC_IN_FLIGHT = 4


@functools.cache
def _block_pool() -> ThreadPoolExecutor:
    """min(usable CPUs, MC_IN_FLIGHT) worker threads, created on first use.

    Usable CPUs come from the affinity mask, which does not see a cgroup CPU
    quota; the MC_IN_FLIGHT cap bounds the thread count either way.
    """
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity on this platform
        cpus = os.cpu_count() or 1
    return ThreadPoolExecutor(min(cpus, MC_IN_FLIGHT), thread_name_prefix="siotsec-mc")


if hasattr(os, "register_at_fork"):
    # a forked child has none of its parent's threads, so it needs its own pool
    os.register_at_fork(after_in_child=_block_pool.cache_clear)


def _block_moments(draw, rng: np.random.Generator, size: int):
    """(size, sum, sum of squared deviations) of one block of `draw`; for a
    boolean draw the sum is the hit count and the last entry is None."""
    x = draw(rng, size)
    if x.dtype == bool:
        return size, int(np.count_nonzero(x)), None
    block_sum = float(np.sum(x))
    x -= block_sum / size  # in place: the draw's array is this block's own
    return size, block_sum, float(np.sum(np.square(x, out=x)))


def _moments_in_order(draw, blocks):
    """_block_moments of each block, run on the pool and yielded in block order,
    with no more than MC_IN_FLIGHT blocks submitted and not yet yielded."""
    pool = _block_pool()
    pending = collections.deque()
    for rng, size in blocks:
        if len(pending) == MC_IN_FLIGHT:
            yield pending.popleft().result()
        pending.append(pool.submit(_block_moments, draw, rng, size))
    while pending:
        yield pending.popleft().result()


def mc_estimate(n: int, seed: RngSeed, draw) -> EstimateWithError:
    """Mean of `draw(generator, size)` over n samples, one `seed.blocks(n)` block at a time.

    `draw` returns a fresh array of one value per sample and depends only on
    its arguments.  Blocks run on one worker thread per usable CPU, up to
    MC_IN_FLIGHT (numpy's sampling and ufuncs release the GIL); each reduces
    to a few numbers, folded here in block order, so the estimate is the same
    for any CPU count.  A boolean draw keeps a hit count and reports the
    binomial standard error sqrt(v (1 - v) / n).  A real draw keeps a sum and
    a sum of squared deviations, merged in block order (Chan, Golub & LeVeque
    1983), and reports the ddof=0 standard error std / sqrt(n).
    """
    blocks = seed.blocks(n)  # checks n before any block is submitted
    total = m2 = 0.0
    done = 0
    for size, block_sum, block_m2 in _moments_in_order(draw, blocks):
        if block_m2 is not None:
            if done:
                delta = block_sum / size - total / done
                block_m2 += delta * delta * done * size / (done + size)
            m2 += block_m2
        total += block_sum
        done += size
    v = total / n
    if block_m2 is None:
        return EstimateWithError(v, math.sqrt(v * (1.0 - v) / n), n)
    return EstimateWithError(v, math.sqrt(m2 / n) / math.sqrt(n), n)
