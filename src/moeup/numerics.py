"""Deterministic numeric substrate: seeded substreams and small dense kernels.

Matrices throughout the package are plain 2D ``numpy`` arrays (row-major).
Checkpoints may store them as 32-bit floats; every verification path upcasts
to 64-bit before computing.

Randomness is organized around :class:`RngStream`: a root seed plus a path of
integers (layer index, expert index, purpose code, ...) that derives an
independent substream. Same (seed, path) always yields the same samples
within one build of the package; distinct paths are statistically
independent. Bitwise equality across numpy versions is not promised, which is
why the test suite checks statistics and regenerates golden values per build.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import ValidationError

__all__ = [
    "NormalParams",
    "RngStream",
    "sample_indices_without_replacement",
    "sample_normal",
    "softmax",
    "top_k",
]

_MAX_SEED = 2**64 - 1
# Box-Muller pairs drawn per chunk by :func:`sample_normal` (1 MiB of uniforms).
NORMAL_CHUNK_PAIRS = 1 << 16


@dataclass(frozen=True)
class NormalParams:
    """Mean / standard deviation pair used for statistics-matched sampling."""

    mu: float
    sigma: float

    def __post_init__(self):
        if not (math.isfinite(self.mu) and math.isfinite(self.sigma)):
            raise ValidationError(
                f"normal parameters must be finite, got mu={self.mu} sigma={self.sigma}")
        if self.sigma < 0:
            raise ValidationError(f"sigma must be >= 0, got {self.sigma}")


@dataclass(frozen=True)
class RngStream:
    """A (seed, path) pair naming one deterministic random substream.

    ``child(*steps)`` extends the path; the underlying generator is a PCG64
    keyed by ``SeedSequence(seed, spawn_key=path)``, i.e. a split-style
    generator with path-derived substreams. Streams are immutable; every call
    to :meth:`generator` restarts the substream from its beginning, so one
    stream should back exactly one sampling operation.
    """

    seed: int
    path: tuple[int, ...] = ()

    def __post_init__(self):
        if not (0 <= int(self.seed) <= _MAX_SEED):
            raise ValidationError(f"seed must be a 64-bit unsigned integer, got {self.seed}")
        if any(int(p) < 0 for p in self.path):
            raise ValidationError(f"path components must be non-negative, got {self.path}")
        object.__setattr__(self, "path", tuple(int(p) for p in self.path))

    def child(self, *steps: int) -> "RngStream":
        return RngStream(self.seed, self.path + tuple(int(s) for s in steps))

    def bit_generator(self) -> np.random.PCG64:
        """The substream's PCG64 bit generator, at its beginning."""
        return np.random.PCG64(np.random.SeedSequence(entropy=int(self.seed), spawn_key=self.path))

    def generator(self) -> np.random.Generator:
        return np.random.Generator(self.bit_generator())


def sample_normal(stream: RngStream, params: NormalParams, count: int,
                  dtype=np.float64) -> np.ndarray:
    """Draw ``count`` N(mu, sigma^2) samples via Box-Muller on the stream.

    Consumption order is fixed: uniforms are taken in pairs (u1, u2), pair i
    consuming uniforms 2i and 2i+1, and each pair produces the two deviates
    r*cos(2 pi u2), r*sin(2 pi u2) with r = sqrt(-2 ln u1). The trailing
    deviate is discarded for odd ``count``. sigma = 0 yields a constant mu.

    The deviates are computed in float64 and rounded to ``dtype`` as they are
    stored. Uniforms are drawn ``NORMAL_CHUNK_PAIRS`` pairs at a time from one
    generator, which yields the same sequence as one large draw, and each
    chunk is transformed in place, so the memory needed is the result plus
    two chunk-sized buffers.
    """
    count = int(count)
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    out = np.empty(count, dtype=dtype)
    generator = stream.generator()
    for start in range(0, count, 2 * NORMAL_CHUNK_PAIRS):
        size = min(count - start, 2 * NORMAL_CHUNK_PAIRS)
        pairs = (size + 1) // 2
        u = generator.random(2 * pairs)
        radius, angle = u[0::2], u[1::2]  # transformed in place, the same bits
        np.subtract(1.0, radius, out=radius)  # map [0, 1) onto (0, 1] so log() is safe
        np.log(radius, out=radius)
        radius *= -2.0
        np.sqrt(radius, out=radius)
        angle *= 2.0 * np.pi
        z = np.empty(2 * pairs, dtype=np.float64)
        np.cos(angle, out=z[0::2])
        np.sin(angle, out=z[1::2])
        z[0::2] *= radius
        z[1::2] *= radius
        z *= params.sigma  # mu + sigma * z, in place in the chunk
        z += params.mu
        out[start:start + size] = z[:size]
    return out


def sample_indices_without_replacement(stream: RngStream, population: int, take: int) -> np.ndarray:
    """Uniformly sample ``take`` distinct indices from [0, population), sorted."""
    population = int(population)
    take = int(take)
    if population < 0:
        raise ValueError(f"population must be >= 0, got {population}")
    if take < 0:
        raise ValueError(f"take must be >= 0, got {take}")
    if take > population:
        raise ValueError(f"sample larger than population: take={take} > population={population}")
    if take == 0:
        return np.zeros(0, dtype=np.int64)
    chosen = stream.generator().choice(population, size=take, replace=False)
    return np.sort(chosen.astype(np.int64))


def softmax(values: np.ndarray, axis: int = -1, out: np.ndarray | None = None) -> np.ndarray:
    """Numerically stable softmax along ``axis`` (max-subtraction, 64-bit).

    ``out``, if given, receives the result and may be ``values`` itself.
    """
    v = np.asarray(values, dtype=np.float64)
    shifted = np.subtract(v, np.max(v, axis=axis, keepdims=True), out=out)
    np.exp(shifted, out=shifted)
    shifted /= np.sum(shifted, axis=axis, keepdims=True)
    return shifted


def top_k(values: np.ndarray, k: int) -> np.ndarray:
    """Indices of the k largest entries of a 1D vector, sorted ascending.

    Ties break toward the lowest index, so routing is reproducible.
    """
    v = np.asarray(values, dtype=np.float64)
    if v.ndim != 1:
        raise ValueError(f"top_k expects a 1D vector, got shape {v.shape}")
    return top_k_batch(v, k)


def top_k_batch(values: np.ndarray, k: int) -> np.ndarray:
    """Row-wise :func:`top_k` over the last axis; returns indices sorted ascending."""
    v = np.asarray(values, dtype=np.float64)
    k = int(k)
    if k < 0 or k > v.shape[-1]:
        raise ValueError(f"k must be in [0, {v.shape[-1]}], got {k}")
    order = np.argsort(-v, axis=-1, kind="stable")[..., :k]
    return np.sort(order.astype(np.int64), axis=-1)
