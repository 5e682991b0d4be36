"""Monte Carlo streamed in fixed Philox-counter blocks: layout, bounds, memory,
agreement with one-shot sampling, and the same estimate from any number of
worker threads."""
import math
import os
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from siotsec import EstimateWithError, RngSeed, SecrecyScenario, SnrModel
from siotsec import asc_mc, dfp_mc, pnz_mc, sop_mc
from siotsec import estimate
from siotsec.channel import MC_BLOCK, MC_MAX_SAMPLES, MC_MIN_SAMPLES

SCENARIO = SecrecyScenario(SnrModel(1.0, 9), SnrModel(1.0, 3), 0.5)


def one_shot_pair(s, n, seed):
    """Both SNR arrays drawn at once from one generator, as before streaming."""
    rng = seed.generator()
    gb = rng.gamma(s.snr_b.gamma_shape, s.snr_b.mean_branch_snr, size=n)
    ge = rng.gamma(s.snr_e.gamma_shape, s.snr_e.mean_branch_snr, size=n)
    return gb, ge


def binomial(v, n):
    return EstimateWithError(v, math.sqrt(v * (1.0 - v) / n), n)


def test_blocks_cover_n_with_counter_word_3():
    seed = RngSeed(7, 2)
    n = 3 * MC_BLOCK + 17
    blocks = list(seed.blocks(n))
    assert [size for _, size in blocks] == [MC_BLOCK] * 3 + [17]
    for b, (rng, _) in enumerate(blocks):
        state = rng.bit_generator.state["state"]
        assert state["counter"].tolist() == [0, 0, 0, b]
        assert state["key"].tolist() == [7, 2]
    assert np.array_equal(blocks[0][0].random(8), seed.generator().random(8))
    assert not np.array_equal(blocks[1][0].random(8), seed.generator().random(8))


@pytest.mark.parametrize("n", [MC_MIN_SAMPLES - 1, MC_MAX_SAMPLES + 1, 10**11, 1.0e6])
def test_sample_count_bounds(n):
    with pytest.raises(ValueError, match="sample count"):
        RngSeed(0, 0).blocks(n)
    for fn in (sop_mc, pnz_mc, asc_mc):
        with pytest.raises(ValueError):
            fn(SCENARIO, n, RngSeed(0, 0))
    with pytest.raises(ValueError):
        dfp_mc(0.9, 5, n, RngSeed(0, 0))


@pytest.mark.parametrize("n", [MC_MIN_SAMPLES, 4097, MC_BLOCK])
def test_single_block_matches_one_shot_sampling(n):
    seed = RngSeed(12, 3)
    gb, ge = one_shot_pair(SCENARIO, n, seed)
    gap = np.log2(1.0 + gb) - np.log2(1.0 + ge)
    assert sop_mc(SCENARIO, n, seed) == binomial(float(np.mean(gap < 0.5)), n)
    assert pnz_mc(SCENARIO, n, seed) == binomial(float(np.mean(gb > ge)), n)
    cs = np.maximum(0.0, gap)
    assert asc_mc(SCENARIO, n, seed) == EstimateWithError(
        float(np.mean(cs)), float(np.std(cs) / math.sqrt(n)), n)
    for n_int in (0, 10):
        hits = seed.generator().binomial(n_int, 1.0 - 0.9, size=n) == 0
        assert dfp_mc(0.9, n_int, n, seed) == binomial(float(np.mean(hits)), n)


def test_asc_merge_matches_concatenated_blocks():
    seed = RngSeed(5, 1)
    n = 5 * MC_BLOCK + 1234
    parts = []
    for rng, size in seed.blocks(n):
        gb = rng.gamma(9, 1.0, size=size)
        ge = rng.gamma(3, 1.0, size=size)
        parts.append(np.maximum(0.0, np.log2(1.0 + gb) - np.log2(1.0 + ge)))
    cs = np.concatenate(parts)
    est = asc_mc(SCENARIO, n, seed)
    assert est.value == pytest.approx(float(np.mean(cs)), rel=1e-12)
    assert est.std_error == pytest.approx(float(np.std(cs)) / math.sqrt(n), rel=1e-12)


def test_mc_memory_does_not_grow_with_n(monkeypatch):
    n = 4 * 10**6
    # eight workers whatever this machine's CPU count: memory must not grow with it either
    with ThreadPoolExecutor(8) as pool:
        monkeypatch.setattr(estimate, "_block_pool", lambda: pool)
        tracemalloc.start()
        try:
            sop_mc(SCENARIO, n, RngSeed(1, 0))
            asc_mc(SCENARIO, n, RngSeed(1, 1))
            dfp_mc(0.99, 50, n, RngSeed(1, 2))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert peak < 8 * 2**20


def serial_fold(n, seed, draw):
    """The estimate of mc_estimate, folded block by block on the calling thread."""
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
        return binomial(v, n)
    return EstimateWithError(v, math.sqrt(m2 / n) / math.sqrt(n), n)


def paired(statistic):
    def draw(rng, size):
        gb = rng.gamma(SCENARIO.snr_b.gamma_shape, SCENARIO.snr_b.mean_branch_snr, size=size)
        ge = rng.gamma(SCENARIO.snr_e.gamma_shape, SCENARIO.snr_e.mean_branch_snr, size=size)
        return statistic(gb, ge)
    return draw


def gap(gb, ge):
    return np.log2(1.0 + gb) - np.log2(1.0 + ge)


@pytest.mark.parametrize("run,draw", [
    (lambda n, seed: sop_mc(SCENARIO, n, seed), paired(lambda gb, ge: gap(gb, ge) < 0.5)),
    (lambda n, seed: pnz_mc(SCENARIO, n, seed), paired(np.greater)),
    (lambda n, seed: asc_mc(SCENARIO, n, seed),
     paired(lambda gb, ge: np.maximum(0.0, gap(gb, ge)))),
    (lambda n, seed: dfp_mc(0.97, 12, n, seed),
     lambda rng, size: rng.binomial(12, 1.0 - 0.97, size=size) == 0),
], ids=["sop", "pnz", "asc", "dfp"])
def test_threaded_blocks_equal_the_serial_fold(monkeypatch, run, draw):
    n = 4 * 10**6  # 62 blocks
    seed = RngSeed(21, 0)  # a block-order mistake changes this seed's asc estimate
    expected = serial_fold(n, seed, draw)
    assert run(n, seed) == expected
    # five workers whatever this machine's CPU count, so blocks can finish out of order
    with ThreadPoolExecutor(5) as pool:
        monkeypatch.setattr(estimate, "_block_pool", lambda: pool)
        assert run(n, seed) == expected


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_forked_child_gets_its_own_pool():
    n, seed = 3 * MC_BLOCK, RngSeed(3, 0)
    expected = sop_mc(SCENARIO, n, seed)  # starts the parent's worker threads
    pid = os.fork()
    if pid == 0:
        ok = False
        try:
            ok = sop_mc(SCENARIO, n, seed) == expected
        finally:
            os._exit(0 if ok else 1)
    deadline = time.monotonic() + 60
    while True:
        done, status = os.waitpid(pid, os.WNOHANG)
        if done:
            break
        if time.monotonic() > deadline:
            os.kill(pid, 9)
            os.waitpid(pid, 0)
            pytest.fail("Monte Carlo in a forked child did not finish")
        time.sleep(0.01)
    assert os.waitstatus_to_exitcode(status) == 0
