"""The host's speed at the moment, from a fixed reference block.

On the shared VM the benchmark was built on, the same kwlab case runs up
to 1.9x slower for minutes at a time, and the slow phases outlast a run, so
a run's median time follows the host rather than the program. The benchmark
therefore times this block next to every case and every set-up and scales
its times by REF_BLOCK_S / (the block's typical time next to them): a time
in seconds at the host speed at which the block takes REF_BLOCK_S. Typical
is a mean, not a median: the host flips between a fast and a slow state
within a second, so the block's times are bimodal and their median jumps
between the two modes, while a case lasting seconds pays the share of time
spent slow, which the mean follows. The mean drops the fastest and the
slowest tenth of the blocks, because a block that stalls for a moment (up
to five times its usual time) would otherwise move the mean of a whole run,
while the median over passes keeps such a stall out of the cases' times.
The block uses numpy and Python only, no kwlab code, so no change to kwlab
moves it. Its mix follows kwlab's costs: Python-bound steps over small
FFTs, mid-sized 2-D FFT pairs, 16^4 FFT pairs and a pure-Python loop.
"""

import statistics
import time

import numpy as np

# about the block's typical time on the 2-vCPU host the benchmark was built
# on; a fixed constant, so it only sets the scale of the times
REF_BLOCK_S = 0.05
TRIM = 0.1   # share of the fastest and of the slowest blocks that typical() drops

_RNG = np.random.default_rng(0)
_SMALL = _RNG.standard_normal((32, 32))
_MID = _RNG.standard_normal((64, 64))
_LARGE = _RNG.standard_normal((16,) * 4)


def _work() -> int:
    x = _SMALL.copy()
    for _ in range(150):
        y = np.fft.irfftn(np.fft.rfftn(x), s=x.shape, axes=(0, 1))
        x = 0.5 * (x + y) / (1.0 + np.abs(x).max())
    for _ in range(60):
        np.fft.irfftn(np.fft.rfftn(_MID), s=_MID.shape, axes=(0, 1))
    for _ in range(6):
        np.fft.irfftn(np.fft.rfftn(_LARGE), s=_LARGE.shape, axes=(0, 1, 2, 3))
    total = 0
    for i in range(30000):
        total += i * i % 7
    return total


_work()  # numpy builds its FFT plans on first use


def block() -> float:
    """Seconds the reference block takes now."""
    t0 = time.perf_counter()
    _work()
    return time.perf_counter() - t0


def block_mean(count=3) -> float:
    """Mean of a few back-to-back blocks, to scale a single sample such as a set-up."""
    return statistics.fmean(block() for _ in range(count))


def typical(blocks: list[float]) -> float:
    """Mean of the block times without the fastest and the slowest tenth."""
    ordered = sorted(blocks)
    cut = int(len(ordered) * TRIM)
    return statistics.fmean(ordered[cut:len(ordered) - cut])
