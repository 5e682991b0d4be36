"""Reference values the benchmark checks siotsec's outputs against.

Every reference here is independent of the code under test: SOP and ASC come
from mpmath at 30 or more significant digits, PNZ from its regularized
incomplete-beta closed form, DEP and total variation from mpmath incomplete
gamma functions.  All shapes are integers, so the Gamma CDFs are finite
Poisson sums.
"""
from __future__ import annotations

import math

import mpmath as mp
from scipy import special

DIGITS = 30
# siotsec.secrecy quadrature requests this absolute tolerance
QUAD_ABS = 1e-9
ASC_ABS = QUAD_ABS / math.log(2.0)
MC_SIGMAS = 4.0


def mean_snr(db: float, distance_m: float = 1.0, alpha: float = 0.0,
             pathloss: bool = False):
    """Mean branch SNR (linear, mpf) for a dB figure, optionally path-loss scaled."""
    s = mp.mpf(10) ** (mp.mpf(db) / 10)
    if pathloss:
        s *= mp.mpf(distance_m) ** (-mp.mpf(alpha))
    return s


def _sop_at(kb: int, sb, ke: int, se, rate) -> mp.mpf:
    a = mp.mpf(2) ** rate
    c = (a - 1) / sb
    d = a / sb
    r = d / (1 / se + d)
    # 1 - SOP = E_E[exp(-t) sum_{j<kb} t^j/j!] with t = c + d*gamma_E; expanding
    # t^j binomially leaves sum_m u_m * V_{kb-1-m}, u_m = C(ke+m-1, m) r^m
    v = mp.mpf(1)
    prefix = [v]
    for i in range(1, kb):
        v = v * c / i
        prefix.append(prefix[-1] + v)
    u = mp.mpf(1)
    acc = mp.mpf(0)
    for m in range(kb):
        if m:
            u = u * r * (ke + m - 1) / m
        acc += u * prefix[kb - 1 - m]
    return 1 - mp.exp(-c) * (1 + se * d) ** (-ke) * acc


def sop(kb: int, sb, ke: int, se, rate: float) -> mp.mpf:
    """Secrecy outage probability, exact to DIGITS significant digits.

    The closed form ends in 1 - (1 - SOP), so the working precision grows
    until DIGITS digits survive the cancellation.
    """
    dps = DIGITS + 20
    while True:
        with mp.workdps(dps):
            val = _sop_at(kb, mp.mpf(sb), ke, mp.mpf(se), mp.mpf(rate))
            lost = -int(mp.floor(mp.log10(val))) if val > 0 else dps
        if val > 0 and lost + DIGITS + 5 <= dps:
            return val
        dps = max(2 * dps, lost + DIGITS + 20)


def pnz(kb: int, sb: float, ke: int, se: float) -> float:
    """P(gamma_B > gamma_E) = 1 - I_x(kb, ke) with x = se / (sb + se)."""
    return 1.0 - float(special.betainc(kb, ke, se / (sb + se)))


def _laplace_over_1px(mu, top: int) -> list:
    """[int_0^inf x^n exp(-mu x) / (1 + x) dx for n = 0..top].

    I_0 = e^mu E1(mu) and I_n = (n-1)!/mu^n - I_{n-1}; the recurrence can
    cancel, which asc() detects by comparing two precisions.
    """
    out = [mp.exp(mu) * mp.e1(mu)]
    head = mp.mpf(1) / mu  # (n-1)!/mu^n at n = 1
    for n in range(1, top + 1):
        out.append(head - out[-1])
        head = head * n / mu
    return out


def _asc_at(kb: int, sb, ke: int, se) -> mp.mpf:
    # ln2 * ASC = int F_E (1 - F_B) / (1+x): both CDFs are finite Poisson sums,
    # so the integral is a double sum of the I_n above
    mu_b = 1 / sb
    i_b = _laplace_over_1px(mu_b, kb - 1)
    i_be = _laplace_over_1px(mu_b + 1 / se, kb + ke - 2)
    a = [1 / (sb**j * mp.factorial(j)) for j in range(kb)]
    b = [1 / (se**i * mp.factorial(i)) for i in range(ke)]
    acc = mp.fsum(a[j] * i_b[j] for j in range(kb))
    acc -= mp.fsum(a[j] * b[i] * i_be[i + j] for j in range(kb) for i in range(ke))
    return acc / mp.log(2)


def asc(kb: int, sb, ke: int, se) -> float:
    """Average secrecy capacity E[max(0, C_B - C_E)], to DIGITS digits."""
    dps = DIGITS + 20
    while True:
        with mp.workdps(dps):
            low = _asc_at(kb, mp.mpf(sb), ke, mp.mpf(se))
        with mp.workdps(2 * dps):
            high = _asc_at(kb, mp.mpf(sb), ke, mp.mpf(se))
            if abs(high - low) <= abs(high) * mp.mpf(10) ** -(DIGITS + 2):
                return float(high)
        dps *= 2


def saving_db(kb: int, ke: int, se, rate: float, sdep: float, target: float,
              bracket=(-20.0, 60.0)) -> float:
    """dB of legitimate mean SNR saved at `target` by the semantic SOP curve."""
    def crossing(level: float) -> float:
        lo, hi = bracket
        log_level = math.log(level)
        for _ in range(40):
            mid = 0.5 * (lo + hi)
            if float(mp.log(sop(kb, mean_snr(mid), ke, se, rate))) >= log_level:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)

    return crossing(target) - crossing(target / (1.0 - sdep))


def detection_errors(noise: float, signal: float, n: int, threshold: float):
    """(p_fa, p_md) of the energy detector with n samples per look."""
    with mp.workdps(DIGITS):
        t = mp.mpf(threshold)
        p_fa = mp.gammainc(n, t / noise, mp.inf, regularized=True)
        p_md = mp.gammainc(n, 0, t / (mp.mpf(noise) + signal), regularized=True)
        return float(p_fa), float(p_md)


def total_variation(noise: float, signal: float, n: int) -> float:
    """TV between the silent and transmitting laws; the densities cross once."""
    with mp.workdps(DIGITS):
        s0, s1 = mp.mpf(noise), mp.mpf(noise) + signal
        tau = n * mp.log(s1 / s0) / (1 / s0 - 1 / s1)
        return float(mp.gammainc(n, tau / s1, mp.inf, regularized=True)
                     - mp.gammainc(n, tau / s0, mp.inf, regularized=True))


def mc_within(value: float, ref: float, sigma: float) -> bool:
    """Monte Carlo estimate within MC_SIGMAS standard errors of the reference."""
    return abs(value - ref) <= MC_SIGMAS * sigma


def binomial_sigma(p: float, n: int) -> float:
    return math.sqrt(max(p * (1.0 - p), 0.0) / n)
