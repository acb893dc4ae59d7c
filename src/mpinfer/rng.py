"""Seeded, counter-based randomness shared by every stochastic operation.

All sampling in this package runs through Philox4x64 keyed with two
64-bit words: the caller's seed and a hash of a "substream path" (small
integers and/or strings naming the purpose, replicate index, row, ...).
Distinct paths give independent streams, so nested or parallel work is
reproducible for any worker count: results depend only on (seed, path),
never on scheduling.

Gaussians are produced by applying the package's own inverse normal CDF
to open-interval uniforms built from 53 random bits, keeping the whole
transform documented and platform independent.  Arrays are filled in
blocks of ``_BLOCK`` draws (128 KiB), so only a few block-sized temporaries
sit beside the output.  The bits do not depend on the blocks: Philox's
uint64 draws carry no per-call buffer and the transform is elementwise.
"""

from __future__ import annotations

import numpy as np

from .normal import norm_ppf

__all__ = ["substream_key", "spawn_seed", "generator", "uniform_open", "standard_normal"]

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15  # splitmix64 increment
_BLOCK = 1 << 14             # Gaussian draws per block


def _mix(h: int) -> int:
    # splitmix64 finalizer
    h &= _MASK64
    h = ((h ^ (h >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    h = ((h ^ (h >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (h ^ (h >> 31)) & _MASK64


def _word(part) -> int:
    if isinstance(part, str):
        h = 0xCBF29CE484222325  # FNV-1a 64
        for b in part.encode("utf8"):
            h = ((h ^ b) * 0x100000001B3) & _MASK64
        return h
    return int(part) & _MASK64


def substream_key(*path) -> int:
    """Fold a substream path into one 64-bit word."""
    h = 0
    for part in path:
        h = _mix((h + _GAMMA + _word(part)) & _MASK64)
    return h


def spawn_seed(seed: int, *path) -> int:
    """Derive a child seed for an independent nested computation."""
    return _mix((int(seed) & _MASK64) ^ substream_key(*path))


def generator(seed: int, *path) -> np.random.Generator:
    """Philox generator for (seed, path); identical on every platform."""
    key = [int(seed) & _MASK64, substream_key(*path)]
    return np.random.Generator(np.random.Philox(key=key))


def uniform_open(gen: np.random.Generator, size=None) -> np.ndarray:
    """Uniforms strictly inside (0, 1): (k + 0.5) / 2^53 for k in [0, 2^53)."""
    k = gen.integers(0, 1 << 53, size=size, dtype=np.uint64)
    return (k.astype(np.float64) + 0.5) / float(1 << 53)


def standard_normal(gen: np.random.Generator, size=None) -> np.ndarray:
    """Standard normals via inverse-CDF transform of open uniforms, made
    ``_BLOCK`` at a time in the output; a float for ``size`` None or ()."""
    out = np.empty(() if size is None else size)
    if out.ndim == 0:
        return norm_ppf(uniform_open(gen, size=size))
    for block in np.split(out.reshape(-1), range(_BLOCK, out.size, _BLOCK)):
        norm_ppf(uniform_open(gen, size=block.size), out=block)
    return out
