"""Deterministic seed derivation.

Python's builtin hash() is salted per process, so every derived seed here
goes through an explicit FNV-1a / splitmix64 pipeline that is stable across
runs, platforms, and interpreter versions.
"""

import numpy as np

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def _fnv1a(token: str) -> int:
    h = 0xCBF29CE484222325
    for byte in token.encode("utf-8"):
        h = ((h ^ byte) * 0x100000001B3) & _MASK
    return h


def _splitmix64(x: int) -> int:
    x = (x + _GAMMA) & _MASK
    x = ((x ^ (x >> 30)) * _MIX1) & _MASK
    x = ((x ^ (x >> 27)) * _MIX2) & _MASK
    return x ^ (x >> 31)


def counter_uniforms(seeds: np.ndarray, n: int) -> np.ndarray:
    """n uniforms in [0, 1) per seed, shape seeds.shape + (n,): entry i of
    seed s is the top 53 bits of _splitmix64(s + i*gamma) times 2**-53, so
    each seed's stream is its own and needs no generator state (a
    counter-based generator, as in Salmon et al., SC 2011)."""
    z = np.asarray(seeds, dtype=np.uint64)[..., None] + (
        np.arange(1, n + 1, dtype=np.uint64) * np.uint64(_GAMMA))
    z ^= z >> np.uint64(30)
    z *= np.uint64(_MIX1)
    z ^= z >> np.uint64(27)
    z *= np.uint64(_MIX2)
    z ^= z >> np.uint64(31)
    return (z >> np.uint64(11)).astype(np.float64) * 2.0 ** -53


def derive_seed(base, *tokens):
    """Mix a base seed with string/int tokens into a new 64-bit seed.

    A tuple or list of base seeds (one per clip of a batch) gives the tuple
    of their derived seeds. None, the seed of an eval forward, which draws
    no dropout masks, gives None.
    """
    if base is None:
        return None
    if isinstance(base, (tuple, list)):
        return tuple(derive_seed(b, *tokens) for b in base)
    h = _splitmix64(base & _MASK)
    for tok in tokens:
        part = tok & _MASK if isinstance(tok, int) else _fnv1a(str(tok))
        h = _splitmix64(h ^ part)
    return h
