"""Physical-layer-security metrics and their semantic-aware variants.

Classical metrics (SOP, PNZ, ASC) are computed two ways: adaptive quadrature
against the Gamma link models, and Monte Carlo over paired SNR draws streamed
in the seed's fixed-size blocks.  The semantic variant scales SOP by the
eavesdropper's decoding success rate.

Quadrature identities, with F/f the CDF/PDF of the legitimate (B) and
eavesdropping (E) links and Rs the target secrecy rate:

    SOP = P(log2((1+gB)/(1+gE)) < Rs) = int f_E(x) F_B(2^Rs (1+x) - 1) dx
    ASC = E[max(0, log2(1+gB) - log2(1+gE))]
        = (1/ln 2) int F_E(x) (1 - F_B(x)) / (1+x) dx

PNZ needs no quadrature: with shapes kB, kE and mean branch SNRs sB, sE,

    PNZ = P(gB > gE) = I_{1/(1 + sE/sB)}(kE, kB)

where I is the regularized incomplete beta function; for SISO links
(kB = kE = 1) this is sB/(sB + sE).

Note the SOP event compares the capacity gap *before* the zero clamp, so the
Rs = 0 case degenerates to P(gB < gE) = 1 - PNZ.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from .channel import (LinkGeometry, RngSeed, SnrModel, _cdf, _pdf, _special, avg_received_snr,
                      snr_quantile)
from .estimate import EstimateWithError, mc_estimate

_LN2 = math.log(2.0)
# absolute quadrature tolerance; results above _QUAD_FAIL residual are rejected
_QUAD_EPSABS = 1e-9
_QUAD_FAIL = 1e-6
_TAIL_PROB = 1e-10

SAVING_BRACKET_DB = (-20.0, 60.0)
SAVING_TOL_DB = 0.01


class QuadratureError(RuntimeError):
    """Numeric integration failed to reach its tolerance, or its range overflows."""

    def __init__(self, message: str, residual: float = math.inf):
        super().__init__(f"{message} (residual estimate {residual:.3e})")
        self.message, self.residual = message, residual


class BracketError(ValueError):
    """A root search target is not bracketed by the search interval."""


@dataclass(frozen=True)
class SecrecyScenario:
    """Legitimate and eavesdropper link models plus the target secrecy rate."""

    snr_b: SnrModel
    snr_e: SnrModel
    rate_threshold: float = 1.0

    def __post_init__(self):
        if not (math.isfinite(self.rate_threshold) and self.rate_threshold >= 0):
            raise ValueError(
                f"rate_threshold must be finite and >= 0, got {self.rate_threshold}"
            )


@dataclass(frozen=True)
class SemanticProfile:
    """Probability that the eavesdropper fails to decode intercepted semantics.

    Optionally derived from a per-symbol success probability p over m symbols
    as sdep = 1 - p**m.
    """

    sdep: float
    per_symbol_success: float | None = None
    num_symbols: int | None = None

    def __post_init__(self):
        if not (0.0 <= self.sdep <= 1.0):
            raise ValueError(f"sdep must be in [0, 1], got {self.sdep}")
        if (self.per_symbol_success is None) != (self.num_symbols is None):
            raise ValueError("per_symbol_success and num_symbols must be given together")
        if self.per_symbol_success is not None:
            p, m = self.per_symbol_success, self.num_symbols
            if not (0.0 <= p <= 1.0):
                raise ValueError(f"per_symbol_success must be in [0, 1], got {p}")
            if m < 1:
                raise ValueError(f"num_symbols must be >= 1, got {m}")
            if abs(self.sdep - (1.0 - p**m)) > 1e-12:
                raise ValueError("sdep inconsistent with per-symbol derivation")

    @classmethod
    def from_symbols(cls, per_symbol_success: float, num_symbols: int) -> "SemanticProfile":
        return cls(1.0 - per_symbol_success**num_symbols, per_symbol_success, num_symbols)


def secrecy_capacity(gamma_b, gamma_e):
    """max(0, log2(1+gamma_b) - log2(1+gamma_e)), elementwise."""
    gb = np.asarray(gamma_b, dtype=float)
    ge = np.asarray(gamma_e, dtype=float)
    if np.any(gb < 0) or np.any(ge < 0) or not (np.all(np.isfinite(gb)) and np.all(np.isfinite(ge))):
        raise ValueError("SNRs must be finite and >= 0")
    out = np.maximum(0.0, np.log2(1.0 + gb) - np.log2(1.0 + ge))
    return out if out.ndim else float(out)


def _quad(fn, lo: float, hi: float, what: str, split: float) -> float:
    # The integrands call channel's bare _pdf/_cdf formulas: QUADPACK's
    # Gauss-Kronrod nodes lie strictly inside [lo, hi] = [0, x_max], x_max is
    # checked finite here (and SOP checks pow2 * (1 + x_max)), and pow2 >= 1,
    # so _pdf reads a finite x > 0 and _cdf a finite x or pow2 * (1 + x) - 1 >= 0.
    if not math.isfinite(hi):
        raise QuadratureError(f"quadrature for {what} cannot start: its SNR range overflows")
    # imported here, like channel's scipy.special: scipy.integrate costs about
    # 0.35 s and 25 MiB to load, and only quadrature needs it
    from scipy import integrate

    # `split` ends the stretch of [lo, hi] where the narrower link law shapes
    # the integrand; past it that link's CDF is within _TAIL_PROB of 1.  When
    # one law is far broader than the other, the stretch is a sliver of
    # [lo, hi] that the first Gauss-Kronrod panels can miss while reporting a
    # small error; a break point gives it panels of its own.  Interim, until
    # exact kernels replace the quadrature.
    points = [split] if lo < split < hi else None
    # full_output makes quad return its IntegrationWarning text, not emit it:
    # the residual check below decides alone
    val, abserr = integrate.quad(fn, lo, hi, epsabs=_QUAD_EPSABS, epsrel=1e-10, limit=200,
                                 points=points, full_output=1)[:2]
    if not math.isfinite(val) or abserr > _QUAD_FAIL:
        raise QuadratureError(f"quadrature for {what} did not converge", abserr)
    return val


def sop_numeric(s: SecrecyScenario) -> float:
    """Secrecy outage probability by adaptive quadrature."""
    # Python's 2.0**1024 raises OverflowError where numpy would return inf
    pow2 = 2.0**s.rate_threshold if s.rate_threshold < 1024 else math.inf
    x_max = snr_quantile(s.snr_e, 1.0 - _TAIL_PROB)
    if not math.isfinite(pow2 * (1.0 + x_max)):  # the top SNR the integrand reads
        raise QuadratureError("quadrature for SOP cannot start: its SNR range overflows")

    def integrand(x):
        return _pdf(s.snr_e, x) * _cdf(s.snr_b, pow2 * (1.0 + x) - 1.0)

    # F_B(pow2 * (1 + x) - 1) reaches 1 - _TAIL_PROB at x = split
    split = (snr_quantile(s.snr_b, 1.0 - _TAIL_PROB) + 1.0) / pow2 - 1.0
    val = _quad(integrand, 0.0, x_max, "SOP", split)
    # the truncated eavesdropper tail contributes at most _TAIL_PROB
    return min(1.0, max(0.0, val))


def _capacity_gap(gb, ge):
    """log2(1+gb) - log2(1+ge), written over gb so a block holds two arrays, not five."""
    for g in (gb, ge):
        np.log2(np.add(g, 1.0, out=g), out=g)
    return np.subtract(gb, ge, out=gb)


def _paired_draw(s: SecrecyScenario, statistic):
    """Per-block draw for mc_estimate: statistic(gamma_B, gamma_E) over paired SNR
    draws; statistic may overwrite both arrays."""
    def draw(rng, size):
        gb = rng.gamma(s.snr_b.gamma_shape, s.snr_b.mean_branch_snr, size=size)
        ge = rng.gamma(s.snr_e.gamma_shape, s.snr_e.mean_branch_snr, size=size)
        return statistic(gb, ge)
    return draw


def sop_mc(s: SecrecyScenario, n: int, seed: RngSeed) -> EstimateWithError:
    """Monte Carlo SOP: fraction of paired draws whose capacity gap is below Rs."""
    return mc_estimate(n, seed, _paired_draw(
        s, lambda gb, ge: _capacity_gap(gb, ge) < s.rate_threshold))


def pnz_mc(s: SecrecyScenario, n: int, seed: RngSeed) -> EstimateWithError:
    """Monte Carlo probability of non-zero secrecy capacity."""
    return mc_estimate(n, seed, _paired_draw(s, np.greater))


def pnz(s: SecrecyScenario) -> float:
    """P(gamma_B > gamma_E) in closed form; for SISO links this is sb/(sb+se).

    I_{1/(1 + sE/sB)}(kE, kB) equals 1 - I_{sE/(sB+sE)}(kB, kE) without the
    subtraction, so nothing cancels; sE/sB can only overflow to inf, where
    PNZ is 0.
    """
    b, e = s.snr_b, s.snr_e
    return float(_special().betainc(e.gamma_shape, b.gamma_shape,
                                    1 / (1 + e.mean_branch_snr / b.mean_branch_snr)))


def asc_mc(s: SecrecyScenario, n: int, seed: RngSeed) -> EstimateWithError:
    """Monte Carlo average secrecy capacity."""
    return mc_estimate(n, seed, _paired_draw(
        s, lambda gb, ge: np.maximum(0.0, _capacity_gap(gb, ge), out=gb)))


def asc(s: SecrecyScenario) -> float:
    """Average secrecy capacity E[max(0, C_B - C_E)] in bit/s/Hz."""
    x_b = snr_quantile(s.snr_b, 1.0 - _TAIL_PROB)
    x_e = snr_quantile(s.snr_e, 1.0 - _TAIL_PROB)

    def integrand(x):
        return _cdf(s.snr_e, x) * (1.0 - _cdf(s.snr_b, x)) / (1.0 + x)

    # 1 - F_B falls to _TAIL_PROB at x_b and F_E rises to 1 - _TAIL_PROB at x_e
    return max(0.0, _quad(integrand, 0.0, max(x_b, x_e), "ASC", min(x_b, x_e)) / _LN2)


def semantic_sop(sop: float, profile: SemanticProfile) -> float:
    """Semantic SOP: outage probability times the eavesdropper's decode success rate."""
    if not (0.0 <= sop <= 1.0):
        raise ValueError(f"sop must be in [0, 1], got {sop}")
    return sop * (1.0 - profile.sdep)


def _sop_at_db(s: SecrecyScenario, snr_b_db: float) -> float:
    model = SnrModel(avg_received_snr(snr_b_db, LinkGeometry(1.0, 0.0)), s.snr_b.gamma_shape)
    return sop_numeric(replace(s, snr_b=model))


def _solve_sop_level(sop_at_db, level: float, lo: float, hi: float, tol: float) -> float:
    """Mean-SNR (dB) at which the curve sop_at_db crosses `level`; SOP decreases in SNR."""
    if sop_at_db(lo) < level or sop_at_db(hi) > level:
        raise BracketError(
            f"SOP level {level:.4g} not bracketed by legitimate mean SNR in [{lo}, {hi}] dB"
        )
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if sop_at_db(mid) >= level:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def snr_saving_db(s: SecrecyScenario, profile: SemanticProfile, target: float,
                  *, bracket: tuple[float, float] = SAVING_BRACKET_DB,
                  tol_db: float = SAVING_TOL_DB) -> float:
    """How many dB less legitimate mean SNR reaches `target` on the semantic
    SOP curve compared to the plain SOP curve.

    Both crossings are found by bisection on the monotone SOP-vs-SNR curve;
    zero semantic advantage (sdep = 0) yields exactly 0 dB.
    """
    if not (0.0 < target < 1.0):
        raise ValueError(f"target must be in (0, 1), got {target}")
    lo, hi = bracket
    # both bisections start from one bracket, so they share its ends and first
    # midpoints; each SNR point is integrated once per call
    sop_at_db = functools.cache(functools.partial(_sop_at_db, s))
    x_plain = _solve_sop_level(sop_at_db, target, lo, hi, tol_db)
    if profile.sdep == 0.0:
        return 0.0
    if profile.sdep == 1.0:
        raise BracketError("semantic SOP is identically 0 when sdep = 1; no crossing")
    # SSOP = (1 - sdep) * SOP crosses `target` where SOP crosses target/(1-sdep)
    x_semantic = _solve_sop_level(sop_at_db, target / (1.0 - profile.sdep), lo, hi, tol_db)
    return x_plain - x_semantic
