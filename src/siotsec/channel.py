"""Gamma-family SNR models for wireless links.

The instantaneous SNR of a link is gamma = gbar * G with G ~ Gamma(k, 1),
where the shape k = tx_antennas * rx_antennas counts independent unit-mean
diversity branches.  k = 1 recovers Rayleigh (exponential SNR).
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

SNR_MODES = ("direct", "pathloss")

# Monte Carlo runs draw MC_BLOCK samples per block, at most
# estimate.MC_IN_FLIGHT blocks at once, so memory does not grow with the
# sample count; MC_MAX_SAMPLES is about 10 s of sampling on one CPU.
MC_BLOCK = 65_536
MC_MIN_SAMPLES = 1000
MC_MAX_SAMPLES = 10**8


@dataclass(frozen=True)
class LinkGeometry:
    """Transmitter-receiver distance (m) and path loss exponent."""

    distance_m: float
    path_loss_exponent: float

    def __post_init__(self):
        if not (math.isfinite(self.distance_m) and self.distance_m > 0):
            raise ValueError(f"distance_m must be finite and > 0, got {self.distance_m}")
        if not (math.isfinite(self.path_loss_exponent) and self.path_loss_exponent >= 0):
            raise ValueError(
                f"path_loss_exponent must be finite and >= 0, got {self.path_loss_exponent}"
            )


@dataclass(frozen=True)
class AntennaConfig:
    """Antenna counts at both ends of a link."""

    tx_antennas: int
    rx_antennas: int

    def __post_init__(self):
        for name in ("tx_antennas", "rx_antennas"):
            v = getattr(self, name)
            if not isinstance(v, int) or v < 1:
                raise ValueError(f"{name} must be an integer >= 1, got {v!r}")


@dataclass(frozen=True)
class RngSeed:
    """Counter-based RNG identity: (seed, stream_id) -> one reproducible stream.

    Streams with different stream_id are statistically independent, so
    parallel workers can each own a stream without coordinating.
    """

    seed: int = 0
    stream_id: int = 0

    def __post_init__(self):
        for name in ("seed", "stream_id"):
            v = getattr(self, name)
            if not isinstance(v, int) or not (0 <= v < 2**64):
                raise ValueError(f"{name} must be an unsigned 64-bit integer, got {v!r}")

    def generator(self, block: int = 0) -> np.random.Generator:
        """Philox generator keyed by (seed, stream_id), starting at counter word 3 = block."""
        key = np.array([self.seed, self.stream_id], dtype=np.uint64)
        counter = np.array([0, 0, 0, block], dtype=np.uint64)
        return np.random.Generator(np.random.Philox(key=key, counter=counter))

    def blocks(self, n: int):
        """(generator, size) for each MC_BLOCK-sample block of an n-sample run.

        Block b draws from its own Philox counter range (counter word 3 = b),
        so block 0 is `generator()`'s stream and the draws depend only on the
        seed and n.  Raises ValueError unless MC_MIN_SAMPLES <= n <= MC_MAX_SAMPLES.
        """
        if not isinstance(n, int) or not (MC_MIN_SAMPLES <= n <= MC_MAX_SAMPLES):
            raise ValueError(f"Monte Carlo sample count must be an integer in "
                             f"[{MC_MIN_SAMPLES}, {MC_MAX_SAMPLES}], got {n!r}")
        return ((self.generator(b), min(MC_BLOCK, n - b * MC_BLOCK))
                for b in range(-(-n // MC_BLOCK)))

    def with_stream(self, stream_id: int) -> "RngSeed":
        return RngSeed(self.seed, stream_id)


@dataclass(frozen=True)
class SnrModel:
    """Instantaneous SNR ~ Gamma(gamma_shape, scale=mean_branch_snr)."""

    mean_branch_snr: float
    gamma_shape: int = 1

    def __post_init__(self):
        if not (math.isfinite(self.mean_branch_snr) and self.mean_branch_snr > 0):
            raise ValueError(
                f"mean_branch_snr must be finite and > 0, got {self.mean_branch_snr}"
            )
        if not isinstance(self.gamma_shape, int) or self.gamma_shape < 1:
            raise ValueError(f"gamma_shape must be an integer >= 1, got {self.gamma_shape!r}")

    @property
    def mean_total_snr(self) -> float:
        return self.gamma_shape * self.mean_branch_snr


def avg_received_snr(ref_snr_db: float, geom: LinkGeometry, mode: str = "direct") -> float:
    """Mean branch SNR (linear) from a reference SNR in dB.

    direct: the quoted dB value is already the link's mean branch SNR.
    pathloss: the quoted value is at unit distance; d^(-alpha) is applied.
    Raises ValueError unless the linear SNR is finite and > 0.
    """
    if mode not in SNR_MODES:
        raise ValueError(f"mode must be one of {SNR_MODES}, got {mode!r}")
    try:
        # Python floats raise OverflowError where numpy would return inf
        snr = 10.0 ** (float(ref_snr_db) / 10.0)
        if mode == "pathloss":
            snr *= geom.distance_m ** (-geom.path_loss_exponent)
    except OverflowError:
        snr = math.inf
    if not 0.0 < snr < math.inf:
        raise ValueError(f"ref_snr_db must give a finite linear SNR > 0, got {ref_snr_db}")
    return snr


def make_snr_model(avg_snr: float, antennas: AntennaConfig) -> SnrModel:
    """Build the Gamma SNR model with shape tx_antennas * rx_antennas."""
    return SnrModel(mean_branch_snr=avg_snr, gamma_shape=antennas.tx_antennas * antennas.rx_antennas)


@functools.cache
def _special():
    """scipy.special, loaded on first use: importing it takes about 0.45 s,
    and the Monte Carlo, attack and spec-building paths never call it.
    Cached, so quad's thousands of integrand calls each skip the import."""
    from scipy import special
    return special


def _check_nonnegative(x: np.ndarray, what: str):
    if np.any(x < 0) or not np.all(np.isfinite(x)):
        raise ValueError(f"{what} must be finite and >= 0")


def snr_cdf(model: SnrModel, x):
    """P(gamma <= x); regularized lower incomplete gamma function.

    Raises ValueError unless every x is finite and >= 0; `_cdf` holds the formula.
    """
    x = np.asarray(x, dtype=float)
    _check_nonnegative(x, "x")
    out = _cdf(model, x)
    return out if out.ndim else float(out)


def _cdf(model: SnrModel, x):
    """The bare formula behind snr_cdf: the caller guarantees x is finite and >= 0."""
    return _special().gammainc(model.gamma_shape, x / model.mean_branch_snr)


def snr_pdf(model: SnrModel, x):
    """Density of the instantaneous SNR at x >= 0.

    Raises ValueError unless every x is finite and >= 0; `_pdf` holds the formula.
    """
    x = np.asarray(x, dtype=float)
    _check_nonnegative(x, "x")
    k, s = model.gamma_shape, model.mean_branch_snr
    with np.errstate(divide="ignore", invalid="ignore"):
        out = _pdf(model, x)
    # x = 0 is a removable special case: density 1/s for k = 1, else 0
    out = np.where(x == 0, 1.0 / s if k == 1 else 0.0, out)
    return out if out.ndim else float(out)


def _pdf(model: SnrModel, x):
    """The bare formula behind snr_pdf: the caller guarantees x is finite and > 0."""
    k, s = model.gamma_shape, model.mean_branch_snr
    return np.exp((k - 1) * np.log(x) - x / s - _special().gammaln(k) - k * np.log(s))


def snr_quantile(model: SnrModel, p):
    """Inverse CDF at probability p in [0, 1); inf where it exceeds the float range."""
    p = np.asarray(p, dtype=float)
    if np.any(p < 0) or np.any(p >= 1):
        raise ValueError("p must be in [0, 1)")
    with np.errstate(over="ignore"):
        out = _special().gammaincinv(model.gamma_shape, p) * model.mean_branch_snr
    return out if out.ndim else float(out)


def sample_snr(model: SnrModel, n: int, seed: RngSeed) -> np.ndarray:
    """n i.i.d. instantaneous-SNR draws, deterministic given (seed, stream_id).

    Raises ValueError unless 1 <= n <= MC_MAX_SAMPLES.
    """
    if not isinstance(n, int) or not (1 <= n <= MC_MAX_SAMPLES):
        raise ValueError(f"SNR sample count must be an integer in "
                         f"[1, {MC_MAX_SAMPLES}], got {n!r}")
    rng = seed.generator()
    return rng.gamma(model.gamma_shape, model.mean_branch_snr, size=n)
