"""Deterministic seed derivation.

Python's builtin hash() is salted per process, so every derived seed here
goes through an explicit FNV-1a / splitmix64 pipeline that is stable across
runs, platforms, and interpreter versions.
"""

_MASK = (1 << 64) - 1


def _fnv1a(token: str) -> int:
    h = 0xCBF29CE484222325
    for byte in token.encode("utf-8"):
        h = ((h ^ byte) * 0x100000001B3) & _MASK
    return h


def _splitmix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & _MASK
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK
    return x ^ (x >> 31)


def derive_seed(base, *tokens):
    """Mix a base seed with string/int tokens into a new 64-bit seed.

    A tuple or list of base seeds (one per clip of a batch) gives the tuple
    of their derived seeds.
    """
    if isinstance(base, (tuple, list)):
        return tuple(derive_seed(b, *tokens) for b in base)
    h = _splitmix64(base & _MASK)
    for tok in tokens:
        part = tok & _MASK if isinstance(tok, int) else _fnv1a(str(tok))
        h = _splitmix64(h ^ part)
    return h
