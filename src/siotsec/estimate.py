"""Monte Carlo estimate container and the streamed estimator shared by the
secrecy and covert modules."""
from __future__ import annotations

import math
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


def mc_estimate(n: int, seed: RngSeed, draw) -> EstimateWithError:
    """Mean of `draw(generator, size)` over n samples, one `seed.blocks(n)` block at a time.

    `draw` returns one value per sample.  A boolean draw keeps a hit count and
    reports the binomial standard error sqrt(v (1 - v) / n).  A real draw keeps
    a sum and a sum of squared deviations, merged in block order (Chan, Golub
    & LeVeque 1983), and reports the ddof=0 standard error std / sqrt(n).
    """
    total = m2 = 0.0
    done = 0
    for rng, size in seed.blocks(n):
        x = draw(rng, size)
        indicator = x.dtype == bool
        if indicator:
            total += int(np.count_nonzero(x))
        else:
            block_sum = float(np.sum(x))
            block_m2 = float(np.sum(np.square(x - block_sum / size)))
            if done:
                delta = block_sum / size - total / done
                block_m2 += delta * delta * done * size / (done + size)
            total += block_sum
            m2 += block_m2
        done += size
    v = total / n
    if indicator:
        return EstimateWithError(v, math.sqrt(v * (1.0 - v) / n), n)
    return EstimateWithError(v, math.sqrt(m2 / n) / math.sqrt(n), n)
