"""Covert-communication metrics: warden detection errors and detection failure.

The warden decides transmitting-vs-silent from the total energy of n complex
Gaussian samples, so the test statistic is Gamma(n, sigma2) under silence and
Gamma(n, sigma2 + P) during transmission.  A whole transfer survives N
independent looks with probability DEP**N, where N = f * (rho * D) / (R * B).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

from scipy import special

from .channel import RngSeed
from .estimate import EstimateWithError, mc_estimate


@dataclass(frozen=True)
class WardenModel:
    """Energy-detecting warden: noise power, received signal power, samples per look."""

    noise_power: float
    received_signal_power: float
    samples_per_detection: int

    def __post_init__(self):
        if not isinstance(self.samples_per_detection, int) or self.samples_per_detection < 1:
            raise ValueError(
                f"samples_per_detection must be an integer >= 1, got {self.samples_per_detection!r}"
            )
        if not (math.isfinite(self.noise_power) and self.noise_power > 0):
            raise ValueError(f"noise_power must be finite and > 0, got {self.noise_power}")
        # the mean look energy under transmission bounds the optimal threshold
        energy = self.samples_per_detection * (self.noise_power + self.received_signal_power)
        if not (self.received_signal_power >= 0 and math.isfinite(energy)):
            raise ValueError(f"received_signal_power must be >= 0 with a finite mean look energy "
                             f"n * (noise + signal power), got {self.received_signal_power}")


@dataclass(frozen=True)
class CovertScenario:
    """One covert transfer: warden DEP and look rate, link rate, and data volume."""

    dep: float
    detection_rate_hz: float
    covert_rate_bps_hz: float
    bandwidth_hz: float
    source_bits: float
    compression_ratio: float = field(default=1.0,
                                     metadata={"help": "semantic compression ratio rho"})

    def __post_init__(self):
        if not (0.0 < self.dep <= 1.0):
            raise ValueError(f"dep must be in (0, 1], got {self.dep}")
        if not (math.isfinite(self.detection_rate_hz) and self.detection_rate_hz >= 0):
            raise ValueError(f"detection_rate_hz must be >= 0, got {self.detection_rate_hz}")
        for name in ("covert_rate_bps_hz", "bandwidth_hz", "source_bits"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v > 0):
                raise ValueError(f"{name} must be finite and > 0, got {v}")
        if not (0.0 < self.compression_ratio <= 1.0):
            raise ValueError(f"compression_ratio must be in (0, 1], got {self.compression_ratio}")
        try:
            looks = num_detections(self)
        except ZeroDivisionError:  # covert_rate_bps_hz * bandwidth_hz underflows to 0
            looks = math.inf
        if not math.isfinite(looks):
            raise ValueError(f"source_bits must give a finite look count f*rho*D/(R*B), "
                             f"got {self.source_bits}")


class DetectionErrors(NamedTuple):
    p_fa: float
    p_md: float
    dep: float


class OptimalDetection(NamedTuple):
    threshold: float
    dep_min: float


def covert_rate_shannon(snr: float) -> float:
    """Spectral efficiency log2(1 + snr) in bit/s/Hz."""
    if not (math.isfinite(snr) and snr >= 0):
        raise ValueError(f"snr must be finite and >= 0, got {snr}")
    return math.log2(1.0 + snr)


def transmission_time_s(s: CovertScenario) -> float:
    """Airtime of the (compressed) payload: rho * D / (R * B) seconds."""
    return s.compression_ratio * s.source_bits / (s.covert_rate_bps_hz * s.bandwidth_hz)


def num_detections(s: CovertScenario) -> float:
    """Expected number of warden looks during the transfer: f * rho * D / (R * B)."""
    return (s.detection_rate_hz * s.compression_ratio * s.source_bits
            / (s.covert_rate_bps_hz * s.bandwidth_hz))


def dfp(dep: float, n_detections: float) -> float:
    """Detection failure probability dep**n for a real-valued look count n."""
    if not (0.0 <= dep <= 1.0):
        raise ValueError(f"dep must be in [0, 1], got {dep}")
    if not (math.isfinite(n_detections) and n_detections >= 0):
        raise ValueError(f"n_detections must be finite and >= 0, got {n_detections}")
    if dep == 0.0:
        # degenerate warden that never errs; 0**0 = 1 (no looks taken)
        return 1.0 if n_detections == 0.0 else 0.0
    return dep**n_detections


def dep_energy_detector(w: WardenModel, threshold: float) -> DetectionErrors:
    """False-alarm, missed-detection, and their sum at an energy threshold."""
    if not (math.isfinite(threshold) and threshold >= 0):
        raise ValueError(f"threshold must be finite and >= 0, got {threshold}")
    n = w.samples_per_detection
    p_fa = float(special.gammaincc(n, threshold / w.noise_power))
    p_md = float(special.gammainc(n, threshold / (w.noise_power + w.received_signal_power)))
    return DetectionErrors(p_fa, p_md, p_fa + p_md)


def optimal_threshold(w: WardenModel) -> float:
    """Energy level where the silent and transmitting densities cross:
    n * s1 * log1p(q) / q with q = P / s0, which lies in [n * s0, n * s1]."""
    n = w.samples_per_detection
    s0, p = w.noise_power, w.received_signal_power
    s1 = s0 + p
    q = p / s0
    if q == 0.0:  # P = 0, where any threshold gives dep = 1, or P / s0 underflows
        return n * s1
    if math.isinf(q):
        # P / s0 overflows: n * s0 * (1 + q) / q * log1p(q), with log1p(q) = log(P / s0)
        return n * s0 * (s1 / p) * (math.log(p) - math.log(s0))
    return n * s1 * (math.log1p(q) / q)


def dep_optimal(w: WardenModel) -> OptimalDetection:
    """Warden's minimum achievable DEP and the threshold attaining it.

    The two hypotheses are Gamma laws with a common shape, so their
    likelihood ratio is monotone and the density crossing is the minimizer;
    there the DEP equals 1 minus the total variation between the hypotheses.
    """
    tau = optimal_threshold(w)
    if w.received_signal_power == 0.0:
        return OptimalDetection(tau, 1.0)
    return OptimalDetection(tau, dep_energy_detector(w, tau).dep)


def hypothesis_total_variation(w: WardenModel) -> float:
    """Total variation distance between the silent and transmitting energy laws:
    Q(n, tau/s1) - Q(n, tau/s0) at their one density crossing tau; 1 - DEP_min."""
    n = w.samples_per_detection
    tau = optimal_threshold(w)
    return float(special.gammaincc(n, tau / (w.noise_power + w.received_signal_power))
                 - special.gammaincc(n, tau / w.noise_power))


def dfp_mc(dep: float, n_int: int, trials: int, seed: RngSeed) -> EstimateWithError:
    """Monte Carlo DFP: fraction of trials where all n_int looks fail to detect."""
    if not (0.0 <= dep <= 1.0):
        raise ValueError(f"dep must be in [0, 1], got {dep}")
    if not isinstance(n_int, int) or n_int < 0:
        raise ValueError(f"n_int must be an integer >= 0, got {n_int!r}")
    return mc_estimate(trials, seed,
                       lambda rng, size: rng.binomial(n_int, 1.0 - dep, size=size) == 0)
