"""Pixel grids in [0, 1], plain-text PGM/PPM round-trips, and Gaussian blur."""
from __future__ import annotations

import re
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .channel import RngSeed

_PNM_MAXVAL = 255
# a + or - not followed by a digit
_STRAY_SIGN = re.compile(r"[+-](?!\d)")


@dataclass(frozen=True)
class ImageTensor:
    """Immutable (height, width, channels) grid of values in [0, 1]."""

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 3 or min(v.shape) < 1:
            raise ValueError(f"values must be (h, w, c) with all dims >= 1, got shape {v.shape}")
        if not np.all(np.isfinite(v)) or v.min() < 0.0 or v.max() > 1.0:
            raise ValueError("pixel values must be finite and in [0, 1]")
        v = v.copy()
        v.flags.writeable = False
        object.__setattr__(self, "values", v)

    @property
    def height(self) -> int:
        return self.values.shape[0]

    @property
    def width(self) -> int:
        return self.values.shape[1]

    @property
    def channels(self) -> int:
        return self.values.shape[2]

    @property
    def size(self) -> int:
        return self.values.size

    def flat(self) -> np.ndarray:
        return self.values.reshape(-1)


def random_image(height: int, width: int, channels: int, seed: RngSeed) -> ImageTensor:
    """Uniform-random image, deterministic given the seed."""
    rng = seed.generator()
    return ImageTensor(rng.uniform(0.0, 1.0, size=(height, width, channels)))


def gaussian_kernel(sigma: float, radius: int) -> np.ndarray:
    """Normalized 1-D Gaussian taps over [-radius, radius]."""
    if not (np.isfinite(sigma) and sigma > 0):
        raise ValueError(f"sigma must be finite and > 0, got {sigma}")
    if not isinstance(radius, int) or radius < 1:
        raise ValueError(f"radius must be an integer >= 1, got {radius!r}")
    x = np.arange(-radius, radius + 1, dtype=float)
    k = np.exp(-(x**2) / (2.0 * sigma**2))
    return k / k.sum()


def _correlate_clamped(x: np.ndarray, k: np.ndarray) -> np.ndarray:
    """Correlate the odd symmetric kernel k along axis 0 of x, edges clamped.

    Each output sums in scipy.ndimage.correlate1d's order for such a kernel,
    centre tap first and then (x[i-d] + x[i+d]) * k[r-d] for d = r down to 1,
    so the result equals ndimage's mode="nearest" output bit for bit.
    """
    r, n = len(k) // 2, len(x)
    padded = x[np.clip(np.arange(-r, n + r), 0, n - 1)]
    out = padded[r:r + n] * k[r]
    for d in range(r, 0, -1):
        out += (padded[r - d:r - d + n] + padded[r + d:r + d + n]) * k[r - d]
    return out


def gaussian_blur(img: ImageTensor, sigma: float, radius: int) -> ImageTensor:
    """Separable Gaussian blur with clamp-to-edge boundaries, per channel."""
    k = gaussian_kernel(sigma, radius)
    rows = _correlate_clamped(img.values, k)
    out = _correlate_clamped(rows.swapaxes(0, 1), k).swapaxes(0, 1)
    # convex combination of inputs; clip only guards fp round-off
    return ImageTensor(np.clip(out, 0.0, 1.0))


def pnm_magic(channels: int) -> str:
    """Plain-text PGM (1 channel) or PPM (3 channels) magic number."""
    if channels not in (1, 3):
        raise ValueError(f"channels must be 1 or 3 for PNM, got {channels}")
    return "P2" if channels == 1 else "P3"


def write_pnm(img: ImageTensor, path) -> None:
    """Write plain-text PGM (1 channel) or PPM (3 channels), maxval 255."""
    lines = [pnm_magic(img.channels), f"{img.width} {img.height}", str(_PNM_MAXVAL)]
    levels = np.rint(img.values * _PNM_MAXVAL).astype(int)
    for row in levels.reshape(img.height, -1).tolist():
        lines.append(" ".join(map(str, row)))
    Path(path).write_text("\n".join(lines) + "\n", encoding="ascii")


def _parse_samples(body: str) -> np.ndarray:
    """Whitespace-separated decimal integers, parsed in one numpy call."""
    # numpy reads a lone sign as 0 and a sign before whitespace as part of
    # the next number, where int() rejects both; write_pnm writes no signs
    if ("-" in body or "+" in body) and _STRAY_SIGN.search(body):
        raise ValueError("sign without digits")
    with warnings.catch_warnings():
        # older numpy warns, and returns what it read, where it stops early
        warnings.simplefilter("error", DeprecationWarning)
        return np.fromstring(body, dtype=np.int64, sep=" ").astype(float)


def read_pnm(path) -> ImageTensor:
    """Read a plain-text PGM/PPM written by write_pnm (comments allowed)."""
    text = Path(path).read_text(encoding="ascii")
    # the magic, width, height and maxval tokens, then the sample body in one string
    tokens = " ".join(line.split("#", 1)[0] for line in text.splitlines()).split(maxsplit=4)
    if not tokens or tokens[0] not in ("P2", "P3"):
        raise ValueError(f"{path}: expected plain PGM(P2)/PPM(P3) header")
    channels = 1 if tokens[0] == "P2" else 3
    try:
        width, height, maxval = (int(t) for t in tokens[1:4])
        samples = _parse_samples(tokens[4] if len(tokens) > 4 else "")
    except (ValueError, DeprecationWarning) as e:
        raise ValueError(f"{path}: malformed PNM payload") from e
    if maxval < 1:
        raise ValueError(f"{path}: maxval must be >= 1, got {maxval}")
    expected = width * height * channels
    if samples.size != expected:
        raise ValueError(f"{path}: expected {expected} samples, found {samples.size}")
    if samples.min() < 0 or samples.max() > maxval:
        raise ValueError(f"{path}: sample values outside [0, {maxval}]")
    return ImageTensor((samples / maxval).reshape(height, width, channels))
