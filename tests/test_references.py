"""SOP, PNZ and ASC against independent high-precision references.

SOP and ASC are checked against `oracles` (mpmath, shared with the
benchmark), at the absolute tolerance the quadrature requests, and against
Monte Carlo within 4 standard errors at fixed seeds.  PNZ's closed form is
the scipy formula `oracles.pnz` uses, so it is checked against mpmath's
regularized incomplete beta at 40 digits instead.
"""
import functools
import itertools
import random

import mpmath as mp
import oracles
import pytest

from siotsec import (RngSeed, SecrecyScenario, SnrModel, asc, asc_mc, pnz, sop_mc,
                     sop_numeric)

SHAPES = (1, 2, 4, 16, 64)
_rng = random.Random(2026)
# (k_B, legitimate dB, k_E, eavesdropper dB, rate): a broad eavesdropper law
# against a narrow legitimate one, where quadrature over the eavesdropper's
# range can miss the integrand's bump
STRONG_EAVESDROPPER = [
    (_rng.choice(SHAPES), round(_rng.uniform(-20.0, 0.0), 3), _rng.choice(SHAPES),
     round(_rng.uniform(10.0, 35.0), 3), _rng.choice((0.0, 1.0, 2.0)))
    for _ in range(16)
] + [
    (64, -8.962, 1, 30.982, 0.0),  # SOP at Rs = 0 is 1 - PNZ = 0.99354
    (64, -8.962, 1, 30.982, 1.0),  # ASC 6.8029e-3
    (64, -20.0, 1, 10.0, 1.0),  # SOP 0.999999938962077
]
# a strong legitimate link against a weak eavesdropper, where F_E rises on a
# sliver near 0 of the legitimate link's range
WEAK_EAVESDROPPER = [(4, 10.0, 4, -35.0, 1.0), (16, 4.135, 16, -35.504, 1.0),
                     (1, 20.0, 9, -40.0, 1.0)]


def scenario(kb, b_db, ke, e_db, rate) -> SecrecyScenario:
    return SecrecyScenario(SnrModel(10.0 ** (b_db / 10.0), kb),
                           SnrModel(10.0 ** (e_db / 10.0), ke), rate)


@functools.cache
def sop_reference(case) -> float:
    s = scenario(*case)
    return float(oracles.sop(s.snr_b.gamma_shape, s.snr_b.mean_branch_snr, s.snr_e.gamma_shape,
                             s.snr_e.mean_branch_snr, s.rate_threshold))


@functools.cache
def asc_reference(case) -> float:
    s = scenario(*case)
    return oracles.asc(s.snr_b.gamma_shape, s.snr_b.mean_branch_snr, s.snr_e.gamma_shape,
                       s.snr_e.mean_branch_snr)


def test_sop_where_the_eavesdropper_is_strong():
    misses = [(case, sop_numeric(scenario(*case)), sop_reference(case))
              for case in STRONG_EAVESDROPPER]
    assert [m for m in misses if abs(m[1] - m[2]) > oracles.QUAD_ABS] == []


def test_asc_where_one_link_is_far_stronger():
    misses = [(case, asc(scenario(*case)), asc_reference(case))
              for case in STRONG_EAVESDROPPER + WEAK_EAVESDROPPER]
    assert [m for m in misses if abs(m[1] - m[2]) > oracles.ASC_ABS] == []


@pytest.mark.parametrize("metric", ["sop", "asc"])
def test_quadrature_within_four_sigma_of_monte_carlo(metric):
    n = 100_000
    numeric, mc, reference = ((sop_numeric, sop_mc, sop_reference) if metric == "sop"
                              else (asc, asc_mc, asc_reference))
    for i, case in enumerate(STRONG_EAVESDROPPER[-3:] + STRONG_EAVESDROPPER[:5]
                             + WEAK_EAVESDROPPER):
        s = scenario(*case)
        est = mc(s, n, RngSeed(11, i))
        # an SOP near 1 or an ASC near 0 can draw no event at all, and a
        # standard error of 0; the binomial error of the reference bounds SOP
        sigma = (oracles.binomial_sigma(reference(case), n) if metric == "sop"
                 else est.std_error)
        tol = oracles.MC_SIGMAS * sigma + (oracles.QUAD_ABS if metric == "sop"
                                           else oracles.ASC_ABS)
        assert abs(numeric(s) - est.value) <= tol, (case, est)


def test_pnz_against_mpmath():
    cases = list(itertools.product((1, 2, 9, 64), (1, 4, 16, 64),
                                   ((-20.0, 10.0), (0.0, 0.0), (10.0, -10.0), (-8.962, 30.982))))
    for kb, ke, (b_db, e_db) in cases:
        s = scenario(kb, b_db, ke, e_db, 1.0)
        with mp.workdps(40):
            sb, se = mp.mpf(s.snr_b.mean_branch_snr), mp.mpf(s.snr_e.mean_branch_snr)
            exact = mp.betainc(ke, kb, 0, sb / (sb + se), regularized=True)
            value = pnz(s)
            assert abs(value - exact) <= 1e-12 * exact, (kb, ke, b_db, e_db, value)
    assert f"{pnz(scenario(64, -8.962, 1, 30.982, 1.0)):.4e}" == "6.4618e-03"
    # sE/sB overflows to inf and underflows to 0 without a warning
    assert pnz(SecrecyScenario(SnrModel(1e-300, 4), SnrModel(1e300, 9))) == 0.0
    assert pnz(SecrecyScenario(SnrModel(1e300, 4), SnrModel(1e-300, 9))) == 1.0
