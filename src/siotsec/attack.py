"""Embedding-similarity attacks on a small frozen image encoder.

The encoder is a two-layer tanh MLP with seeded random weights.  First-layer
rows are mean-centered so the embedding ignores an image's DC level; without
this, every image shares a dominant embedding direction and cosine scores
saturate near 1 regardless of content.

Attacks run projected sign-gradient steps inside an L-infinity ball around
the source image: targeted mode pushes the embedding toward a reference
vector, untargeted mode pushes it away.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import RngSeed
from .images import ImageTensor, gaussian_blur

ATTACK_MODES = ("targeted", "untargeted")
# below this gradient magnitude the cosine objective is stationary (e.g. an
# untargeted run starting at its own reference) and we step along the raw
# alignment gradient instead
_STATIONARY_EPS = 1e-12


@dataclass(frozen=True)
class ToyEncoder:
    """Frozen two-layer tanh MLP mapping flattened pixels to an embedding."""

    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray

    def __post_init__(self):
        for name in ("w1", "b1", "w2", "b2"):
            arr = np.asarray(getattr(self, name), dtype=float)
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} must be finite")
            arr = arr.copy()
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        if self.w1.ndim != 2 or self.w2.ndim != 2 or self.w2.shape[1] != self.w1.shape[0]:
            raise ValueError("layer shapes are inconsistent")
        if self.b1.shape != (self.w1.shape[0],) or self.b2.shape != (self.w2.shape[0],):
            raise ValueError("bias shapes are inconsistent")
        if self.output_dim < 2:
            raise ValueError(f"output_dim must be >= 2, got {self.output_dim}")

    @property
    def input_dim(self) -> int:
        return self.w1.shape[1]

    @property
    def hidden_dim(self) -> int:
        return self.w1.shape[0]

    @property
    def output_dim(self) -> int:
        return self.w2.shape[0]

    @classmethod
    def from_seed(cls, input_dim: int, hidden_dim: int, output_dim: int,
                  seed: RngSeed) -> "ToyEncoder":
        rng = seed.generator()
        w1 = rng.normal(0.0, 1.0 / math.sqrt(input_dim), size=(hidden_dim, input_dim))
        w1 -= w1.mean(axis=1, keepdims=True)
        b1 = rng.normal(0.0, 0.05, size=hidden_dim)
        w2 = rng.normal(0.0, 1.0 / math.sqrt(hidden_dim), size=(output_dim, hidden_dim))
        b2 = rng.normal(0.0, 0.05, size=output_dim)
        return cls(w1, b1, w2, b2)

    def lipschitz_bound(self) -> float:
        """Spectral-norm product bound on the pixel-to-embedding map."""
        return float(np.linalg.norm(self.w2, 2) * np.linalg.norm(self.w1, 2))


def _activations(enc: ToyEncoder, x_flat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One forward pass: hidden layer t = tanh(w1 x + b1) and embedding u = w2 t + b2."""
    t = np.tanh(enc.w1 @ x_flat + enc.b1)
    return t, enc.w2 @ t + enc.b2


def encode(enc: ToyEncoder, img: ImageTensor) -> np.ndarray:
    """Embedding vector of an image; deterministic for fixed weights."""
    if img.size != enc.input_dim:
        raise ValueError(f"image has {img.size} pixels, encoder expects {enc.input_dim}")
    return _activations(enc, img.flat())[1]


def cosine_sim(u: np.ndarray, v: np.ndarray) -> float:
    """Cosine of the angle between two embeddings; undefined for zero vectors."""
    return _cosine_with_grad(np.asarray(u, dtype=float), np.asarray(v, dtype=float))[0]


def _cosine_with_grad(u: np.ndarray, v: np.ndarray) -> tuple[float, np.ndarray]:
    """cosine_sim(u, v) and its gradient with respect to u."""
    # the same ddot and correctly rounded sqrt as np.linalg.norm, without its wrapper
    nu, nv = math.sqrt(u @ u), math.sqrt(v @ v)
    if nu == 0.0 or nv == 0.0:
        raise ValueError("cosine similarity is undefined for a zero vector")
    dot = u @ v
    return float(dot / (nu * nv)), v / (nu * nv) - dot / (nu**3 * nv) * u


def _backprop(enc: ToyEncoder, t: np.ndarray, d_embedding: np.ndarray) -> np.ndarray:
    """Pixel gradient of d_embedding . u, from the hidden layer t of u's forward pass."""
    return enc.w1.T @ ((1.0 - t**2) * (enc.w2.T @ d_embedding))


def grad_similarity(enc: ToyEncoder, img: ImageTensor, reference: np.ndarray) -> np.ndarray:
    """Pixel gradient of cosine_sim(encode(img), reference), image-shaped."""
    if img.size != enc.input_dim:
        raise ValueError(f"image has {img.size} pixels, encoder expects {enc.input_dim}")
    t, u = _activations(enc, img.flat())
    d_cos = _cosine_with_grad(u, np.asarray(reference, dtype=float))[1]
    return _backprop(enc, t, d_cos).reshape(img.values.shape)


@dataclass(frozen=True)
class AttackConfig:
    """Perturbation budget and iteration schedule for one attack run."""

    mode: str = "targeted"
    epsilon: float = 0.1
    step_size: float = 0.1 / 25
    max_iters: int = 300

    def __post_init__(self):
        if self.mode not in ATTACK_MODES:
            raise ValueError(f"mode must be one of {ATTACK_MODES}, got {self.mode!r}")
        if not (0.0 <= self.epsilon <= 1.0):
            raise ValueError(f"epsilon must be in [0, 1], got {self.epsilon}")
        if not (math.isfinite(self.step_size) and self.step_size > 0):
            raise ValueError(f"step_size must be > 0, got {self.step_size}")
        if not isinstance(self.max_iters, int) or self.max_iters < 1:
            raise ValueError(f"max_iters must be an integer >= 1, got {self.max_iters!r}")


@dataclass(frozen=True)
class AttackTrace:
    """Best-so-far objective per iteration (index 0 = before any step), the
    best adversarial image found, and the number of gradient steps computed
    (max_iters unless the iterates entered a cycle sooner)."""

    mode: str
    best_similarity: np.ndarray
    adversarial: ImageTensor
    steps: int

    def __post_init__(self):
        vals = np.array(self.best_similarity, dtype=float)
        vals.flags.writeable = False
        object.__setattr__(self, "best_similarity", vals)

    @property
    def final_similarity(self) -> float:
        return float(self.best_similarity[-1])


def run_attack(enc: ToyEncoder, src: ImageTensor, reference: np.ndarray,
               cfg: AttackConfig) -> AttackTrace:
    """Projected sign-gradient attack on the embedding cosine similarity."""
    if src.size != enc.input_dim:
        raise ValueError(f"image has {src.size} pixels, encoder expects {enc.input_dim}")
    reference = np.asarray(reference, dtype=float)
    src_flat = src.flat()
    lo = np.maximum(src_flat - cfg.epsilon, 0.0)
    hi = np.minimum(src_flat + cfg.epsilon, 1.0)
    sign = 1.0 if cfg.mode == "targeted" else -1.0
    step = sign * cfg.step_size
    buf = np.empty_like(src_flat)  # scratch for |g| and |x - src|

    x = src_flat.copy()
    x_back = None  # the iterate before x
    t, u = _activations(enc, x)
    best, d_cos = _cosine_with_grad(u, reference)
    best_x = x.copy()
    trace = [best]
    for steps in range(1, cfg.max_iters + 1):
        g = _backprop(enc, t, d_cos)
        if np.abs(g, out=buf).max() < _STATIONARY_EPS:
            g = _backprop(enc, t, reference)
        x_two_back, x_back = x_back, x
        # x_back + step * sign(g), clipped to [lo, hi], in a fresh array: the
        # previous iterates and best_x keep theirs
        x = np.sign(g)
        x *= step
        x += x_back
        np.maximum(x, lo, out=x)
        np.minimum(x, hi, out=x)
        if np.abs(np.subtract(x, src_flat, out=buf), out=buf).max() > cfg.epsilon + 1e-12:
            raise RuntimeError("internal error: iterate left the perturbation ball")
        if x_two_back is not None and (x == x_two_back).all():
            # the next iterate depends on x alone, so the run now replays a
            # cycle of states already scored: best cannot change again
            trace += [best] * (cfg.max_iters + 1 - len(trace))
            break
        t, u = _activations(enc, x)
        s, d_cos = _cosine_with_grad(u, reference)
        if sign * s > sign * best:
            best = s
            best_x = x.copy()
        trace.append(best)
    shape = src.values.shape
    return AttackTrace(cfg.mode, np.array(trace), ImageTensor(best_x.reshape(shape)), steps)


def _blurred_similarity(enc: ToyEncoder, adv: ImageTensor, reference_img: ImageTensor,
                        sigma: float, radius: int) -> float:
    """Embedding similarity of (adv, reference) after blurring both."""
    return cosine_sim(encode(enc, gaussian_blur(adv, sigma, radius)),
                      encode(enc, gaussian_blur(reference_img, sigma, radius)))


def defense_eval(enc: ToyEncoder, adv: ImageTensor, reference_img: ImageTensor,
                 sigma: float, radius: int) -> tuple[float, float]:
    """Embedding similarity of (adv, reference) before and after blurring both."""
    return (cosine_sim(encode(enc, adv), encode(enc, reference_img)),
            _blurred_similarity(enc, adv, reference_img, sigma, radius))
